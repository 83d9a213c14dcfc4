from __future__ import annotations

import functools
import gc
import itertools
import math
import threading
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactify import extension, functions
from compactify.acceptance import chain_family
from compactify.compactification import (
    BuildParams,
    EmbeddingMap,
    build_compactification,
    load_model,
    save_model,
)
from compactify.extension import (
    DEFAULT_DELTAS,
    FAIL_THRESHOLD,
    MAX_DELTAS,
    MIN_FAIL_WITNESSES,
    PASS_THRESHOLD,
    ExtensionReport,
    InsufficientWitnessesError,
    OscillationRow,
    Verdict,
    check_extendability,
)
from compactify.functions import MAX_CHEB_DEGREE, AffineImage, Cheb, Const, Cos, StereoX, StereoY, Tanh
from compactify.product_space import distances_to_cloud
from conftest import SMALL


def test_family_member_short_circuits_to_projection(gamma_model):
    report = check_extendability(gamma_model, Cos())
    assert report.verdict is Verdict.EXTENDS_BY_PROJECTION
    assert report.coordinate == 1
    assert report.tables == {}


def test_incommensurable_cosine_fails_to_extend(gamma_model):
    report = check_extendability(gamma_model, Cos(math.sqrt(2.0), 0.0))
    assert report.verdict is Verdict.FAILS_TO_EXTEND
    assert report.oscillation is not None and report.oscillation > 0.5
    assert report.witness_count is not None and report.witness_count >= 100
    assert report.failing_cluster is not None


def test_oscillation_shrinks_with_delta(gamma_model):
    # witness sets are nested as delta decreases, so per-cluster oscillation
    # can only go down the ladder
    report = check_extendability(gamma_model, Cheb(2, Cos()))
    for rows in report.tables.values():
        deltas = [row.delta for row in rows]
        assert deltas == sorted(deltas, reverse=True)
        oscs = [row.oscillation for row in rows if row.count > 0]
        assert all(a >= b - 1e-15 for a, b in zip(oscs, oscs[1:]))


def test_double_angle_is_inconclusive_at_default_ladder(gamma_model):
    # T_2 of the cosine coordinate does extend, but the default tail grid
    # cannot certify it: the worst cluster oscillation lands between the
    # two thresholds
    report = check_extendability(gamma_model, Cheb(2, Cos()))
    assert report.verdict is Verdict.INCONCLUSIVE
    worst = max(
        row.oscillation
        for rows in report.tables.values()
        for row in rows
        if row.delta == report.deltas[-1] and row.count > 0
    )
    assert 0.05 < worst < 0.5


def test_double_angle_certifies_with_a_finer_ladder(gamma_model):
    report = check_extendability(
        gamma_model, Cheb(2, Cos()), deltas=(0.05, 0.02, 0.01, 0.005, 0.002)
    )
    assert report.verdict is Verdict.EXTENDS_NUMERICALLY
    assert report.values is not None
    for cluster in gamma_model.remainder:
        expected = 2.0 * cluster.center[1] ** 2 - 1.0
        assert abs(report.values[cluster.cluster_id] - expected) < 1e-3


def test_numeric_values_agree_with_cluster_centers(gamma_model):
    """A disguised family member takes the sampling path and must land on
    the center coordinate of every cluster."""
    disguised = AffineImage(Cos(), 1.0, 0.0)
    report = check_extendability(gamma_model, disguised)
    assert report.verdict is Verdict.EXTENDS_NUMERICALLY
    radius = gamma_model.params.cluster_radius
    for cluster in gamma_model.remainder:
        assert abs(report.values[cluster.cluster_id] - cluster.center[1]) < radius


def test_sparse_tails_raise_instead_of_guessing():
    params = BuildParams(r_image=5.0, r_tail_lo=5.0, r_tail_hi=100.0, grid_step=0.05)
    model = build_compactification((StereoX(), StereoY()), params)
    with pytest.raises(InsufficientWitnessesError):
        check_extendability(model, Cos())


def test_delta_ladder_validation(gamma_model):
    with pytest.raises(ValueError):
        check_extendability(gamma_model, Cos(2.0, 0.0), deltas=())
    with pytest.raises(ValueError):
        check_extendability(gamma_model, Cos(2.0, 0.0), deltas=(0.1, 0.1))
    with pytest.raises(ValueError):
        check_extendability(gamma_model, Cos(2.0, 0.0), deltas=(0.01, 0.1))
    with pytest.raises(ValueError):
        check_extendability(gamma_model, Cos(2.0, 0.0), deltas=(0.1, -0.01))
    for deltas in ((math.nan,), (0.2, math.nan, 0.01)):
        with pytest.raises(ValueError):
            check_extendability(gamma_model, Cos(2.0, 0.0), deltas=deltas)
    for deltas in ((math.inf,), (0.2, math.inf, 0.01)):
        with pytest.raises(ValueError, match="positive and finite"):
            check_extendability(gamma_model, Cos(2.0, 0.0), deltas=deltas)


def test_ladder_length_is_bounded(gamma_model):
    ladder = tuple(np.geomspace(0.5, 0.01, MAX_DELTAS + 1).tolist())
    report = check_extendability(gamma_model, Cos(2.0, 0.0), deltas=ladder[:MAX_DELTAS])
    assert len(report.deltas) == MAX_DELTAS
    assert all(len(rows) == MAX_DELTAS for rows in report.tables.values())
    with pytest.raises(ValueError, match=f"at most {MAX_DELTAS} probe radii, got {MAX_DELTAS + 1}"):
        check_extendability(gamma_model, Cos(2.0, 0.0), deltas=ladder)


def test_report_json_shape(gamma_model):
    report = check_extendability(gamma_model, Cos(math.sqrt(2.0), 0.0), deltas=(0.2, 0.1))
    blob = report.to_json()
    assert blob["verdict"] == "fails_to_extend"
    assert blob["deltas"] == [0.2, 0.1]
    assert (blob["pass_threshold"], blob["fail_threshold"]) == (PASS_THRESHOLD, FAIL_THRESHOLD) == (0.05, 0.5)
    assert set(blob["tables"]) == {str(c.cluster_id) for c in gamma_model.remainder}
    row = blob["tables"]["0"][0]
    assert set(row) == {"delta", "count", "oscillation", "midpoint"}


def test_default_ladder_is_decreasing():
    assert DEFAULT_DELTAS == (0.2, 0.1, 0.05, 0.02, 0.01)


@pytest.mark.parametrize("r_lo", [50.0, 200.0, 800.0])
def test_cosine_failure_survives_tail_range_changes(r_lo):
    # the negative verdict must not be an artifact of where the tails were
    # sampled: shifting the sampled window [R, 4R] outward leaves it intact
    params = BuildParams(r_tail_lo=r_lo, r_tail_hi=4.0 * r_lo)
    for family in ((Tanh(),), (StereoX(), StereoY())):
        model = build_compactification(family, params)
        report = check_extendability(model, Cos())
        assert report.verdict is Verdict.FAILS_TO_EXTEND
        assert report.oscillation is not None and report.oscillation > 0.5


def _per_cluster_check(model, f, deltas=DEFAULT_DELTAS):
    """The uncached extend-check: embed, measure and mask every witness of
    every cluster on each call.  Oracle for the cached segment reductions."""
    deltas = tuple(float(d) for d in deltas)
    if f in model.family.descriptors:
        unsampled = np.empty((0, len(deltas)))
        return ExtensionReport(
            verdict=Verdict.EXTENDS_BY_PROJECTION,
            deltas=deltas,
            counts=unsampled,
            oscillations=unsampled,
            midpoints=unsampled,
            coordinate=model.family.descriptors.index(f),
        )
    stats = []  # per cluster, (count, oscillation, midpoint) per radius
    for c, cluster in enumerate(model.remainder):
        assert cluster.cluster_id == c
        xs = cluster.witnesses
        dist = distances_to_cloud(cluster.center, model.embedding.embed_array(xs))
        values = np.asarray(f.evaluate(xs), dtype=np.float64)
        if not np.any(dist < deltas[-1]):
            raise InsufficientWitnessesError(
                f"cluster {cluster.cluster_id} has no witnesses within "
                f"delta={deltas[-1]}; rebuild with a denser tail grid "
                "(smaller grid_step) or a larger smallest delta"
            )
        rows = []
        for delta in deltas:
            sel = dist < delta
            count = int(np.count_nonzero(sel))
            # The smallest radius holds a witness, and counts never rise
            # as the ladder falls, so no reported row is empty.
            assert count >= 1
            vmin = float(values[sel].min())
            vmax = float(values[sel].max())
            rows.append((count, vmax - vmin, 0.5 * (vmin + vmax)))
        stats.append(rows)
    table = np.array(stats)  # (clusters, deltas, 3)
    counts, osc, mid = table[..., 0].astype(np.int64), table[..., 1], table[..., 2]
    final_osc, final_count = osc[:, -1].tolist(), counts[:, -1].tolist()
    common = dict(deltas=deltas, counts=counts, oscillations=osc, midpoints=mid)
    if all(o < PASS_THRESHOLD for o in final_osc):
        return ExtensionReport(
            verdict=Verdict.EXTENDS_NUMERICALLY, values=dict(enumerate(mid[:, -1].tolist())), **common
        )
    failing = [
        c
        for c, (o, n) in enumerate(zip(final_osc, final_count))
        if o > FAIL_THRESHOLD and n >= MIN_FAIL_WITNESSES
    ]
    if failing:
        worst = max(failing, key=lambda c: (final_osc[c], -c))
        return ExtensionReport(
            verdict=Verdict.FAILS_TO_EXTEND,
            failing_cluster=worst,
            oscillation=final_osc[worst],
            witness_count=final_count[worst],
            **common,
        )
    return ExtensionReport(verdict=Verdict.INCONCLUSIVE, oscillation=max(final_osc), **common)


def _outcome(check, model, f, deltas):
    try:
        return check(model, f, deltas=deltas).to_json()
    except InsufficientWitnessesError as exc:
        return {"error": str(exc)}


EQUIVALENCE_PROBES = [Cos(math.sqrt(2.0), 0.3), Tanh(0.5, 1.0), Cheb(3, Cos()), StereoY()]
EQUIVALENCE_LADDERS = [
    DEFAULT_DELTAS,
    (0.05,),
    (0.3, 0.2, 0.1, 0.05, 0.03, 0.02, 0.01, 0.005, 0.002),
    # No witness lies 3 or more from its center: the outer shells are empty.
    (4.0, 3.0, 0.1, 0.02),
]


def _assert_matches_oracle(model, f, deltas):
    got = _outcome(check_extendability, model, f, deltas)
    assert got == _outcome(_per_cluster_check, model, f, deltas)
    return got


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_cached_check_matches_per_cluster_loop_on_chain_levels(level):
    model = build_compactification(chain_family(level), SMALL)
    outcomes = [
        _assert_matches_oracle(model, f, deltas)
        for deltas in EQUIVALENCE_LADDERS
        for f in EQUIVALENCE_PROBES
    ]
    assert any("verdict" in o for o in outcomes)


def test_cached_check_matches_per_cluster_loop_at_the_default_window(gamma_model):
    for deltas in (DEFAULT_DELTAS, (0.05, 0.02, 0.01, 0.005, 0.002)):
        for f in (Cos(math.sqrt(2.0), 0.0), Cheb(2, Cos())):
            assert "verdict" in _assert_matches_oracle(gamma_model, f, deltas)


def test_cached_check_matches_per_cluster_loop_on_a_loaded_model(tmp_path):
    built = build_compactification(chain_family(3), SMALL)
    path = tmp_path / "chain3.cptf"
    save_model(built, path)
    loaded = load_model(path)
    for deltas in EQUIVALENCE_LADDERS:
        for f in EQUIVALENCE_PROBES:
            want = _outcome(_per_cluster_check, built, f, deltas)
            assert _outcome(check_extendability, loaded, f, deltas) == want
            assert _outcome(check_extendability, built, f, deltas) == want


def test_interleaved_ladders_replace_the_cache_slot():
    model = build_compactification(chain_family(4), SMALL)
    first, second = DEFAULT_DELTAS, (0.3, 0.1, 0.03)
    for deltas in (first, second, first, second, second, first):
        for f in EQUIVALENCE_PROBES[:2]:
            _assert_matches_oracle(model, f, deltas)
            assert extension._SHELLS[model].deltas == deltas


def test_repeat_checks_embed_the_witnesses_once(monkeypatch):
    model = build_compactification(chain_family(3), SMALL)
    shells, embedded = [], []
    original_distances = extension._center_distances
    original_embed = EmbeddingMap.embed_array

    def counting_distances(model, deltas):
        shells.append(deltas)
        return original_distances(model, deltas)

    def counting_embed(self, xs):
        embedded.append(len(xs))
        return original_embed(self, xs)

    monkeypatch.setattr(extension, "_center_distances", counting_distances)
    monkeypatch.setattr(EmbeddingMap, "embed_array", counting_embed)
    check_extendability(model, Cos(math.sqrt(2.0), 0.3))
    assert shells == [DEFAULT_DELTAS]
    first = len(embedded)
    check_extendability(model, Tanh(0.5, 1.0))
    check_extendability(model, StereoY())
    assert shells == [DEFAULT_DELTAS] and len(embedded) == first
    check_extendability(model, StereoY(), deltas=(0.2, 0.1))
    assert shells == [DEFAULT_DELTAS, (0.2, 0.1)]
    # a projection verdict samples nothing and leaves the slot alone
    embedded_before = len(embedded)
    check_extendability(model, Tanh())
    assert shells == [DEFAULT_DELTAS, (0.2, 0.1)] and len(embedded) == embedded_before
    assert extension._SHELLS[model].deltas == (0.2, 0.1)


def test_insufficient_witnesses_message_is_unchanged():
    params = BuildParams(r_image=5.0, r_tail_lo=5.0, r_tail_hi=100.0, grid_step=0.05)
    model = build_compactification((StereoX(), StereoY()), params)
    for deltas in (DEFAULT_DELTAS, (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)):
        with pytest.raises(InsufficientWitnessesError) as oracle:
            _per_cluster_check(model, Cos(), deltas)
        with pytest.raises(InsufficientWitnessesError) as cached:
            check_extendability(model, Cos(), deltas=deltas)
        assert str(cached.value) == str(oracle.value)
    # the first cluster in order that runs short is the one named, also
    # when earlier clusters are fine
    chain = build_compactification(chain_family(5), SMALL)
    deltas = (0.05, 0.02, 0.01, 0.005, 0.002)
    with pytest.raises(InsufficientWitnessesError) as oracle:
        _per_cluster_check(chain, Cos(math.sqrt(2.0), 0.3), deltas)
    assert not str(oracle.value).startswith("cluster 0 ")
    with pytest.raises(InsufficientWitnessesError) as cached:
        check_extendability(chain, Cos(math.sqrt(2.0), 0.3), deltas=deltas)
    assert str(cached.value) == str(oracle.value)
    for block in (7, 1000):
        got = _check_in_blocks(chain, Cos(math.sqrt(2.0), 0.3), deltas, block)
        assert got == {"error": str(oracle.value)}


def test_checks_leave_the_model_file_unchanged(tmp_path):
    model = build_compactification(chain_family(2), SMALL)
    before, after = tmp_path / "before.cptf", tmp_path / "after.cptf"
    save_model(model, before)
    check_extendability(model, Cos(math.sqrt(2.0), 0.3))
    assert model in extension._SHELLS
    save_model(model, after)
    assert after.read_bytes() == before.read_bytes()


def test_cache_entry_dies_with_its_model():
    extension._SHELLS.clear()
    model = build_compactification(chain_family(2), SMALL)
    check_extendability(model, Cos(math.sqrt(2.0), 0.3))
    assert len(extension._SHELLS) == 1
    del model
    gc.collect()
    assert len(extension._SHELLS) == 0


def _check_in_blocks(model, f, deltas, block):
    """The outcome of a check whose passes run in blocks of ``block``
    witnesses."""
    with mock.patch.object(extension, "_EVAL_BLOCK", block):
        return _outcome(check_extendability, model, f, deltas)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_every_part_count_matches_the_per_cluster_loop_on_chain_levels(level):
    # Blocks of 7 end mid-segment and on empty segments; 1000 and the
    # default hold whole pieces of these models.
    model = build_compactification(chain_family(level), SMALL)
    for deltas in EQUIVALENCE_LADDERS:
        for f in EQUIVALENCE_PROBES:
            want = _outcome(_per_cluster_check, model, f, deltas)
            for block in (7, 97, 1000, extension._EVAL_BLOCK):
                assert _check_in_blocks(model, f, deltas, block) == want


def test_every_part_count_matches_the_per_cluster_loop_on_one_cluster(one_point_model):
    assert len(one_point_model.remainder) == 1
    for f in (Cos(math.sqrt(2.0), 0.3), Tanh(0.5, 1.0), Cheb(3, Cos())):
        want = _outcome(_per_cluster_check, one_point_model, f, DEFAULT_DELTAS)
        for block in (97, 1000, extension._EVAL_BLOCK):
            assert _check_in_blocks(one_point_model, f, DEFAULT_DELTAS, block) == want


def test_automatic_split_at_the_default_window(gamma_model):
    witnesses = sum(c.witness_count for c in gamma_model.remainder)
    assert witnesses == 390_002
    # A probe with no estimate there is evaluated block by block: each
    # piece in runs of _EVAL_BLOCK witnesses, the last of a piece shorter.
    shells = extension._witness_shells(gamma_model, DEFAULT_DELTAS)
    f = _CountingCos(1e4)
    extension._segment_extremes(shells, f)
    block = extension._EVAL_BLOCK
    assert f.seen == [min(block, len(w) - i) for w in shells.pieces for i in range(0, len(w), block)]
    assert len(f.seen) > len(shells.pieces)
    for f in (Cos(math.sqrt(2.0), 0.0), Cheb(2, Cos())):
        want = _outcome(_per_cluster_check, gamma_model, f, DEFAULT_DELTAS)
        assert _outcome(check_extendability, gamma_model, f, DEFAULT_DELTAS) == want
        assert _check_in_blocks(gamma_model, f, DEFAULT_DELTAS, 1000) == want


def _hand_made_shells(pieces, counts):
    """Shells of len(counts) clusters whose witnesses, laid end to end, are
    ``pieces``; ``counts`` as in ``_WitnessShells``."""
    counts = np.array(counts, dtype=np.int64)
    sizes = np.diff(counts[:, ::-1], axis=1, prepend=0)
    lengths = [len(w) for w in pieces]
    return extension._WitnessShells(
        deltas=(0.2, 0.1),
        counts=counts,
        pieces=tuple(np.array(w, dtype=np.float64) for w in pieces),
        starts=tuple(np.concatenate([[0], np.cumsum(lengths)]).tolist()),
        bounds=np.concatenate([[0], np.cumsum(sizes)]),
        empty=sizes == 0,
    )


@pytest.mark.parametrize("block", [1, 2, 3, 4, 6])
def test_part_boundaries_on_empty_segments_and_between_pieces(block):
    # Segments, innermost shell first: cluster 0 holds 3 witnesses in its
    # inner shell and none in its outer one; cluster 1 none in its inner
    # shell and 3 in its outer one.  Two empty segments sit at position 3,
    # where blocks of 1 meet, and the second piece starts at position 2,
    # where every block size starts a block; blocks of 2 and 3 end inside
    # a segment.
    shells = _hand_made_shells([[0.1, -0.3], [0.2, 1.0, -2.0, 0.5]], [[3, 3], [3, 0]])
    assert shells.bounds.tolist() == [0, 3, 3, 3, 6]
    with mock.patch.object(extension, "_EVAL_BLOCK", block):
        lo, hi = extension._segment_extremes(shells, Tanh())
    values = np.tanh([0.1, -0.3, 0.2, 1.0, -2.0, 0.5])
    assert lo.tolist() == [[values[:3].min(), math.inf], [math.inf, values[3:].min()]]
    assert hi.tolist() == [[values[:3].max(), -math.inf], [-math.inf, values[3:].max()]]


def test_checks_leave_no_thread_behind(gamma_model):
    threads = threading.active_count()
    probes = [Cos(math.sqrt(2.0), 0.0), Cheb(2, Cos()), Tanh(0.5, 1.0), StereoY()]
    for k in range(20):
        check_extendability(gamma_model, probes[k % len(probes)])
        assert threading.active_count() == threads
    small = build_compactification(chain_family(3), SMALL)
    for k in range(20):
        _check_in_blocks(small, probes[k % len(probes)], DEFAULT_DELTAS, 97)
        assert threading.active_count() == threads


def test_clusters_inside_the_innermost_shell_are_referenced_not_copied():
    model = build_compactification((Tanh(),), SMALL)
    shells = extension._witness_shells(model, DEFAULT_DELTAS)
    assert len(model.remainder) == 2
    assert shells.counts[:, -1].tolist() == [c.witness_count for c in model.remainder]
    assert all(w is c.witnesses for w, c in zip(shells.pieces, model.remainder))
    # Runs of other clusters are joined copies, one piece per run.
    chain = build_compactification(chain_family(3), SMALL)
    shells = extension._witness_shells(chain, DEFAULT_DELTAS)
    whole = (shells.counts[:, -1] == [c.witness_count for c in chain.remainder]).tolist()
    assert not all(whole)
    pieces = sum(len(list(run)) if w else 1 for w, run in itertools.groupby(whole))
    assert len(shells.pieces) == pieces
    assert shells.starts[-1] == shells.bounds[-1] == shells.counts[:, 0].sum()


@functools.cache
def _chain_model(level: int):
    """The SMALL chain model of ``level`` coordinates, built once."""
    return build_compactification(chain_family(level), SMALL)


@functools.cache
def _chain_shells(level: int):
    """Shells of the SMALL chain model of ``level`` coordinates, built once."""
    return extension._witness_shells(_chain_model(level), DEFAULT_DELTAS)


def _every_witness_extremes(shells, f):
    """Oracle for ``_segment_extremes``: f evaluated on every witness, and
    each segment's min and max taken on its own."""
    values = np.concatenate([f.evaluate(w) for w in shells.pieces])
    segments = [values[a:b] for a, b in zip(shells.bounds, shells.bounds[1:])]
    lo = np.array([v.min(initial=math.inf) for v in segments]).reshape(shells.counts.shape)
    hi = np.array([v.max(initial=-math.inf) for v in segments]).reshape(shells.counts.shape)
    return lo, hi


# Phases reach n (200 |a| + |b|) on the SMALL tail window: past 1e6 the
# estimate declines, and the block is evaluated on every witness.
_SLOPES = st.one_of(
    st.just(0.0),
    st.floats(-8.0, 8.0, allow_subnormal=False),
    st.integers(-6, 6).map(float),
    st.just(1.000001),
    st.floats(4000.0, 1e5).flatmap(lambda a: st.sampled_from([a, -a])),
)
_COSINE_PROBES = st.builds(Cos, _SLOPES, st.floats(-10.0, 10.0, allow_subnormal=False)).flatmap(
    lambda c: st.one_of(st.just(c), st.integers(1, MAX_CHEB_DEGREE).map(lambda n: Cheb(n, c)))
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(level=st.integers(1, 5), f=_COSINE_PROBES, block=st.sampled_from([7, 97, 1000, extension._EVAL_BLOCK]))
def test_pruned_extremes_match_every_witness_bit_for_bit(level, f, block):
    shells = _chain_shells(level)
    want = _every_witness_extremes(shells, f)
    with mock.patch.object(extension, "_EVAL_BLOCK", block):
        got = extension._segment_extremes(shells, f)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _assert_rows_match_the_json(report):
    """``report.tables``, field by field and type by type, is the report's
    JSON tables."""
    blob = report.to_json()["tables"]
    assert list(blob) == [str(c) for c in report.tables]
    for c, rows in report.tables.items():
        assert len(rows) == len(blob[str(c)]) == len(report.deltas)
        for row, want in zip(rows, blob[str(c)]):
            assert type(row) is OscillationRow
            assert row._asdict() == want
            assert [type(v) for v in row] == [type(v) for v in want.values()] == [float, int, float, float]
            assert row.count >= 1


_LADDERS = st.lists(st.floats(0.005, 0.5), min_size=1, max_size=8, unique=True).map(
    lambda radii: tuple(sorted(radii, reverse=True))
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    level=st.integers(1, 5),
    f=st.one_of(st.sampled_from([*EQUIVALENCE_PROBES, Tanh(), Cos(), Cheb(2, Cos())]), _COSINE_PROBES),
    deltas=_LADDERS,
)
def test_report_arrays_give_the_oracles_rows(level, f, deltas):
    model = _chain_model(level)
    got = _assert_matches_oracle(model, f, deltas)
    if "error" in got:
        return
    report = check_extendability(model, f, deltas=deltas)  # from the cached shells
    assert report.to_json() == got
    _assert_rows_match_the_json(report)


@pytest.mark.parametrize(
    "level, f, verdict",
    [
        (1, Cos(math.sqrt(2.0), 0.3), Verdict.FAILS_TO_EXTEND),
        (1, StereoY(), Verdict.INCONCLUSIVE),
        (2, Tanh(0.5, 1.0), Verdict.EXTENDS_NUMERICALLY),
        (1, Tanh(), Verdict.EXTENDS_BY_PROJECTION),
        (5, Cos(4.0, 0.0), Verdict.EXTENDS_BY_PROJECTION),
    ],
)
def test_report_arrays_give_the_oracles_rows_for_each_verdict(level, f, verdict):
    model = _chain_model(level)
    got = _assert_matches_oracle(model, f, DEFAULT_DELTAS)
    report = check_extendability(model, f)
    assert report.verdict is verdict
    assert report.to_json() == got
    _assert_rows_match_the_json(report)
    if verdict is Verdict.EXTENDS_BY_PROJECTION:
        assert not report.tables and report.tables == {} and got["tables"] == {}
    else:
        assert list(report.tables) == list(range(len(model.remainder)))


def test_report_rows_are_built_on_first_read_and_read_only():
    model = _chain_model(3)
    report = check_extendability(model, Tanh(0.5, 1.0))
    for array in (report.counts, report.oscillations, report.midpoints):
        assert array.shape == (len(model.remainder), len(DEFAULT_DELTAS))
        assert not array.flags.writeable
    assert "tables" not in vars(report)
    report.to_json()
    assert "tables" not in vars(report)
    tables = report.tables
    assert report.tables is tables
    with pytest.raises(TypeError):
        tables[0] = ()
    # A report is compared by identity: its arrays have no truth value.
    assert report != check_extendability(model, Tanh(0.5, 1.0))


def _blocks_of(shells, blocks):
    """A block size that cuts the longest of ``shells.pieces`` into
    ``blocks`` blocks."""
    return -(-max(len(w) for w in shells.pieces) // blocks)


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("f", [Cos(), Cos(-1.0, 0.5), Cheb(3, Cos())])
def test_pruned_extremes_resolve_values_closer_than_the_estimate_error(f, blocks):
    # Runs of witnesses 2e-8 apart where the probe is steep: neighbouring
    # values differ by less than the estimates' own error, and a run
    # spans more than twice the estimates' bound, so only the witnesses
    # near a run's ends are evaluated exactly.
    ramps = [x + 2e-8 * np.arange(1500) for x in (1.0, 4.0, 2.0, 5.5)]
    pieces = [np.concatenate(ramps[:2]), np.concatenate(ramps[2:])]
    shells = _hand_made_shells(pieces, [[3000, 1500], [3000, 1500]])
    with mock.patch.object(extension, "_EVAL_BLOCK", _blocks_of(shells, blocks)):
        got = extension._segment_extremes(shells, f)
    want = _every_witness_extremes(shells, f)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@dataclass(frozen=True)
class _RoughCos(Cos):
    """A cosine whose estimates are off by almost their whole stated
    bound, up and down in turn, so that they order nearby witnesses
    wrongly wherever a segment holds values closer than twice it."""

    def _estimate(self, xs):
        bound = 1e-3
        noise = np.where(np.arange(len(xs)) % 2 == 0, 0.99 * bound, -0.99 * bound)
        return (self.evaluate(xs) + noise).astype(np.float32), bound


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("level", [1, 3, 5])
def test_pruned_extremes_are_exact_for_any_estimate_within_its_bound(level, blocks):
    shells = _chain_shells(level)
    f = _RoughCos(math.sqrt(2.0), 0.3)
    with mock.patch.object(extension, "_EVAL_BLOCK", _blocks_of(shells, blocks)):
        got = extension._segment_extremes(shells, f)
    want = _every_witness_extremes(shells, Cos(math.sqrt(2.0), 0.3))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@dataclass(frozen=True)
class _CountingCos(Cos):
    """A cosine that records how many points each evaluation takes."""

    seen: list = field(default_factory=list, compare=False, hash=False)

    def evaluate(self, x):
        self.seen.append(np.size(x))
        return super().evaluate(x)


def test_pruned_pass_evaluates_few_witnesses_exactly(gamma_model):
    shells = extension._witness_shells(gamma_model, DEFAULT_DELTAS)
    f = _CountingCos(math.sqrt(2.0), 0.3)
    got = extension._segment_extremes(shells, f)
    assert 0 < sum(f.seen) < shells.starts[-1] // 10
    want = _every_witness_extremes(shells, Cos(math.sqrt(2.0), 0.3))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("a", [0.0, 0.3, 1.0, -1.0, math.sqrt(2.0), 1.000001, 3.0, -7.5, 499.0])
@pytest.mark.parametrize("b", [0.0, -2.0, 3.1])
def test_cosine_estimates_stay_within_a_tenth_of_their_bound(a, b):
    xs = BuildParams().tail_grid()
    for n, points in ((1, xs), (2, xs), (3, xs), (17, xs), (MAX_CHEB_DEGREE, xs[::97])):
        f = Cos(a, b) if n == 1 else Cheb(n, Cos(a, b))
        got = f._estimate(points)
        if n * (abs(a) * np.abs(points).max() + abs(b)) > functions._ESTIMATE_MAX_PHASE:
            assert got is None
            continue
        estimate, bound = got
        assert estimate.dtype == np.float32 and bound == functions._ESTIMATE_ERROR
        assert np.abs(estimate - f.evaluate(points)).max() <= bound / 10


@pytest.mark.parametrize(
    "f",
    [
        Tanh(0.5, 1.0),
        StereoX(),
        StereoY(),
        Const(0.25),
        AffineImage(Cos(1.5), 2.0),
        Cheb(3, Tanh()),
        Cheb(2, Cheb(2, Cos())),
        # phases past the estimate's domain, or not finite
        Cos(1e4),
        Cheb(2, Cos(1e308)),
    ],
)
def test_probes_without_an_estimate_take_the_exact_path(gamma_model, f):
    shells = extension._witness_shells(gamma_model, DEFAULT_DELTAS)
    assert all(f._estimate(w) is None for w in shells.pieces)
    got = extension._segment_extremes(shells, f)
    want = _every_witness_extremes(shells, f)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@dataclass(frozen=True)
class _RecordingCos(Cos):
    """A cosine that records, block by block, whether it offers an estimate."""

    estimated: list = field(default_factory=list, compare=False, hash=False)

    def _estimate(self, xs):
        got = super()._estimate(xs)
        self.estimated.append(got is not None)
        return got


@pytest.mark.parametrize(("level", "block"), [(1, 7), (1, 97), (3, 7)])
def test_each_block_decides_whether_it_is_estimated(level, block):
    # cos 6000x has phases past 1e6 where |x| > 166.7, and the SMALL tail
    # window reaches 200: blocks of smaller witnesses are pruned and the
    # others evaluated on every witness, in one pass and, on the {tanh}
    # model, whose pieces run in order of x, within one segment.
    model = build_compactification(chain_family(level), SMALL)
    shells = extension._witness_shells(model, DEFAULT_DELTAS)
    f = _RecordingCos(6000.0)
    with mock.patch.object(extension, "_EVAL_BLOCK", block):
        got = extension._segment_extremes(shells, f)
    assert set(f.estimated) == {True, False}
    want = _every_witness_extremes(shells, Cos(6000.0))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _exact_center_distances(model, deltas):
    """Oracle for ``_center_distances``: every witness embedded exactly,
    one cluster at a time."""
    for cluster in model.remainder:
        yield distances_to_cloud(cluster.center, model.embedding.embed_array(cluster.witnesses))


def _fresh_shells(model, deltas, distances=None):
    """The model's shells for ``deltas``, computed anew, from ``distances``
    in place of ``_center_distances`` if given."""
    extension._SHELLS.pop(model, None)
    with mock.patch.object(extension, "_center_distances", distances or extension._center_distances):
        shells = extension._witness_shells(model, deltas)
    extension._SHELLS.pop(model, None)
    return shells


def _shell_bytes(shells):
    return (
        shells.counts.tobytes(),
        [w.tobytes() for w in shells.pieces],
        shells.starts,
        shells.bounds.tobytes(),
        shells.empty.tobytes(),
    )


def _assert_shells_are_exact(model, deltas):
    got = _fresh_shells(model, deltas)
    assert _shell_bytes(got) == _shell_bytes(_fresh_shells(model, deltas, _exact_center_distances))


def _every_distance(model):
    return np.concatenate(list(_exact_center_distances(model, None)))


def _ladder_through(radii, dist, picks):
    """A decreasing ladder of ``radii`` and of the exact distances of the
    witnesses at ``picks``, so that some witnesses tie with a radius."""
    ties = [float(dist[i % dist.size]) for i in picks]
    ladder = sorted({r for r in [*radii, *ties] if r > 0.0}, reverse=True)
    return tuple(ladder[:MAX_DELTAS])


_SHELL_MODELS = {}


def _shell_model(family):
    """The SMALL model of ``family``, built once."""
    if family not in _SHELL_MODELS:
        _SHELL_MODELS[family] = build_compactification(family, SMALL)
    return _SHELL_MODELS[family]


_SHELL_FAMILIES = st.one_of(
    st.integers(1, 5).map(chain_family),
    st.builds(
        lambda a, b: functions.FunctionFamily((Tanh(), Cos(a, b))),
        st.floats(-8.0, 8.0, allow_subnormal=False),
        st.floats(-10.0, 10.0, allow_subnormal=False),
    ),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    family=_SHELL_FAMILIES,
    radii=st.lists(st.floats(1e-3, 2.0), max_size=6),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
)
def test_estimated_shells_equal_the_exact_ones_bit_for_bit(family, radii, picks):
    model = _shell_model(family)
    deltas = _ladder_through(radii, _every_distance(model), picks)
    _assert_shells_are_exact(model, deltas)


_TIE_PICKS = range(0, 10**6, 9973)


@dataclass(frozen=True)
class _RoughEstimateCos(Cos):
    """A cosine coordinate whose estimates are off by almost their whole
    stated bound, up and down in turn, so that an estimated distance
    strays from the exact one by almost the sum of the bounds."""

    def _estimate(self, xs):
        bound = 1e-3
        noise = np.where(np.arange(len(xs)) % 2 == 0, 0.99 * bound, -0.99 * bound)
        return (self.evaluate(xs) + noise).astype(np.float32), bound


@pytest.mark.parametrize("level", [2, 3, 5])
def test_estimated_shells_are_exact_for_any_estimate_within_its_bound(level):
    family = (Tanh(), *(_RoughEstimateCos(float(k)) for k in range(1, level)))
    model = _shell_model(family)
    dist = _every_distance(model)
    for deltas in (
        DEFAULT_DELTAS,
        _ladder_through([], dist, _TIE_PICKS[:40]),
        _ladder_through(DEFAULT_DELTAS, dist, _TIE_PICKS[40:80]),
        # ties with the largest distances, which no larger radius holds
        _ladder_through([], dist, np.argsort(dist)[-4:]),
        # radii 1e-6 apart, closer than the estimates' bound
        tuple(0.05 - 1e-6 * np.arange(MAX_DELTAS)),
    ):
        _assert_shells_are_exact(model, deltas)


def test_estimated_shells_embed_few_witnesses_in_batches(gamma_model, monkeypatch):
    batches, embedded = [], []
    original_batch = extension._decided_distances
    original_embed = EmbeddingMap.embed_array

    def recording_batch(model, clusters, deltas):
        batches.append([c.cluster_id for c in clusters])
        return original_batch(model, clusters, deltas)

    def recording_embed(self, xs):
        embedded.append(len(xs))
        return original_embed(self, xs)

    monkeypatch.setattr(extension, "_decided_distances", recording_batch)
    monkeypatch.setattr(EmbeddingMap, "embed_array", recording_embed)
    _assert_shells_are_exact(gamma_model, DEFAULT_DELTAS)
    tail = sum(c.witness_count for c in gamma_model.remainder)
    counts = [c.witness_count for c in gamma_model.remainder]
    # Consecutive clusters, all of them in order, and a batch holds at
    # most _EVAL_BLOCK witnesses unless it is one cluster.
    assert sum(batches, []) == list(range(len(gamma_model.remainder)))
    assert all(len(b) == 1 or sum(counts[c] for c in b) <= extension._EVAL_BLOCK for b in batches)
    assert len(batches) < len(gamma_model.remainder)
    # The estimated path: at most one exact embedding per batch, of a
    # few witnesses; the oracle's embeddings come after it.
    estimated = embedded[: len(embedded) - len(gamma_model.remainder)]
    assert len(estimated) <= len(batches)
    assert 0 < sum(estimated) < tail // 100


@pytest.mark.parametrize(
    "family",
    [
        (Tanh(),),
        (StereoX(), StereoY()),
        (Tanh(), Cheb(3, Tanh()), AffineImage(Cos(), 0.5)),
        # phases past the estimate's domain at the tail's ends
        (Tanh(), Cos(1e4)),
    ],
)
def test_families_without_an_estimate_embed_every_witness_per_cluster(family, monkeypatch):
    model = _shell_model(family)
    embedded = []
    original = EmbeddingMap.embed_array

    def recording(self, xs):
        embedded.append(xs)
        return original(self, xs)

    def no_batches(*args):
        raise AssertionError("a family without an estimate took the estimated path")

    monkeypatch.setattr(EmbeddingMap, "embed_array", recording)
    monkeypatch.setattr(extension, "_decided_distances", no_batches)
    got = _fresh_shells(model, DEFAULT_DELTAS)
    assert len(embedded) == len(model.remainder)
    assert all(xs is c.witnesses for xs, c in zip(embedded, model.remainder))
    assert _shell_bytes(got) == _shell_bytes(_fresh_shells(model, DEFAULT_DELTAS, _exact_center_distances))
