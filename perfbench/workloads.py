"""The two benchmark workloads: query and cli.

Each workload turns a seed into inputs, builds what its measured phase
needs (``setup``), and hands back a fixed list of operations.  An
operation's timed ``run`` step is followed by an untimed ``check``: it
turns the output into JSON, whose digest is compared with the recorded
reference (default seed) and across passes, and tests invariants that
hold for every seed.

Workloads call the package through module attributes (``C.load_model``,
not a name bound at import), so the tracer's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import compactify.cli as CLI
import compactify.compactification as C
import compactify.extension as E
import compactify.inverse_limit as IL
import compactify.ordering as O
from compactify.acceptance import chain_family
from compactify.functions import (
    Cheb,
    Cos,
    StereoX,
    StereoY,
    Tanh,
    descriptor_from_json,
)
from compactify.product_space import ProductPoint

DEFAULT_SEED = 1
# A small window for the CLI session's writes.  Its tail starts where tanh
# has saturated, so a tanh model's clusters have every witness within the
# smallest extend-check radius and enlarging one never runs short.
SMALL_FLAGS = ["--r-image", "5", "--r-tail-lo", "20", "--r-tail-hi", "200", "--grid-step", "0.05"]
VERDICTS = {v.value for v in E.Verdict}
EXTENDS = {E.Verdict.EXTENDS_BY_PROJECTION.value, E.Verdict.EXTENDS_NUMERICALLY.value}


def digest(obj) -> str:
    """Digest of a JSON-able value in canonical form."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def model_digest(model) -> str:
    """Digest of a model's loaded arrays: image points, then per cluster
    its center, side and witnesses.  Independent of the file format."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(model.image_points, dtype="<f8").tobytes())
    for c in model.remainder:
        h.update(np.ascontiguousarray(c.center, dtype="<f8").tobytes())
        h.update(c.side.encode("ascii"))
        h.update(np.ascontiguousarray(c.witnesses, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def tail_size(params) -> int:
    """Number of tail samples a build at ``params`` clusters."""
    steps = round((params.r_tail_hi - params.r_tail_lo) / params.tail_step)
    return 2 * (steps + 1)


def model_problems(model, expect_clusters: int | None = None) -> list[str]:
    """Invariants every built model satisfies, whatever the family."""
    out = []
    if not model.remainder:
        out.append("empty remainder")
    witnesses = sum(c.witness_count for c in model.remainder)
    if witnesses != tail_size(model.params):
        out.append(f"{witnesses} witnesses for a {tail_size(model.params)}-point tail grid")
    if model.image_points.shape != (model.image_params.shape[0], model.dim):
        out.append(f"image points have shape {model.image_points.shape}")
    if not np.isfinite(model.image_points).all():
        out.append("non-finite image point")
    if any(c.side not in ("+inf", "-inf", "both") for c in model.remainder):
        out.append("bad cluster side")
    if expect_clusters is not None and len(model.remainder) != expect_clusters:
        out.append(f"{len(model.remainder)} clusters, expected {expect_clusters}")
    return out


def model_summary(model) -> dict:
    return {"dim": model.dim, "clusters": len(model.remainder), "arrays": model_digest(model)}


@dataclass
class Op:
    """One operation of the measured phase.

    ``run`` is timed.  ``check`` is not: it maps the output of ``run`` to
    JSON, whose digest is compared with the reference, and to a list of
    invariant violations.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[object, list[str]]]


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> list[float]:
    """n values in [lo, hi), one in each of n equal slices, in seeded order.

    Evaluation cost depends on the parameters (``np.cos`` is slower on
    small arguments), so every seed draws the same spread of them.
    """
    return [float(v) for v in lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n]


def _probes(kind: str, rng: np.random.Generator, n: int) -> list[dict]:
    """n seeded bounded functions of one kind, as JSON, for extend-checks."""
    if kind == "cos":
        pairs = zip(_stratified(rng, n, 0.3, 3.0), _stratified(rng, n, 0.0, math.pi))
        return [Cos(a, b).to_json() for a, b in pairs]
    if kind == "tanh":
        pairs = zip(_stratified(rng, n, 0.3, 3.0), _stratified(rng, n, -1.0, 1.0))
        return [Tanh(a, b).to_json() for a, b in pairs]
    if kind == "cheb":
        inner = _stratified(rng, n, 0.5, 2.0)
        return [Cheb(2 + i % 3, Cos(a, 0.0)).to_json() for i, a in enumerate(inner)]
    return [StereoY().to_json()] * n


PROBE_KINDS = ("cos", "tanh", "cheb", "stereo_y")


def _probe_problems(kind: str, verdict: str) -> list[str]:
    if verdict not in VERDICTS:
        return [f"unknown verdict {verdict!r}"]
    # tanh and y = (x^2-1)/(x^2+1) converge at each end of the line, so
    # they extend to every remainder built from a tanh-led family.
    if kind in ("tanh", "stereo_y") and verdict not in EXTENDS:
        return [f"{kind} probe did not extend: {verdict}"]
    return []


class Workload:
    name = ""

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp

    def rng(self) -> np.random.Generator:
        """A fresh generator for the seed; any integer seed is accepted."""
        return np.random.default_rng(self.seed % 2**64)

    def setup(self) -> None:
        """Builds and file writes the measured phase depends on."""

    def setup_result(self) -> object:
        """JSON summary of what setup built, digested like an op result."""
        return None

    def setup_problems(self) -> list[str]:
        return []

    def inputs(self) -> object:
        """Everything the workload derives from its seed, as JSON."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def extra_metrics(self) -> dict:
        """Figures printed beside the end-to-end metrics."""
        return {}


class QueryWorkload(Workload):
    """Queries against the five canonical chain levels and their inverse
    system: 50% extend-checks, 20% lifts, 15% compares, 15% membership.

    ``greedy_cluster`` runs only in setup here, so a clustering change
    should move ``setup_s`` and leave the measured phase alone.
    """

    name = "query"
    DEPTH = 5
    BLOCKS = 5

    def inputs(self) -> list[dict]:
        rng = self.rng()
        pairs = [(i, j) for i in range(self.DEPTH) for j in range(self.DEPTH) if i != j]
        # A fixed interleaving of 10 extend-checks, 4 lifts, 3 compares and
        # 3 membership tests per block; levels, probe kinds and level pairs
        # cycle in a fixed order, so every seed runs the same mix of costs.
        kinds = list("elecemelecemelecemel") * self.BLOCKS
        extend_kinds = [PROBE_KINDS[(k // self.DEPTH) % len(PROBE_KINDS)] for k in range(kinds.count("e"))]
        probes = {kind: iter(_probes(kind, rng, extend_kinds.count(kind))) for kind in PROBE_KINDS}
        made = {"e": 0, "l": 0, "c": 0, "m": 0}
        plan = []
        for kind in kinds:
            k = made[kind]
            made[kind] += 1
            op = {"level": k % self.DEPTH}
            if kind == "e":
                probe = extend_kinds[k]
                op.update(op="extend", probe_kind=probe, probe=next(probes[probe]))
            elif kind == "l":
                op.update(op="lift")
            elif kind == "c":
                op.update(op="compare", level=pairs[k % len(pairs)][0], smaller=pairs[k % len(pairs)][1])
            else:
                op.update(op="member", probe=("image", "center", "box")[(k // self.DEPTH) % 3])
            # Positions in [0, 1): an image index, a parameter, a cluster
            # index or box coordinates, scaled in ops().
            op["at"] = [float(v) for v in rng.random(self.DEPTH)]
            plan.append(op)
        return plan

    def setup(self) -> None:
        levels = [C.build_compactification(chain_family(k)) for k in range(1, self.DEPTH + 1)]
        self.system = IL.InverseSystem.from_levels(levels)

    def setup_result(self) -> object:
        return {
            "levels": [model_summary(m) for m in self.system.levels],
            "bond_residuals": [w.residual for w in self.system.bonds],
        }

    def setup_problems(self) -> list[str]:
        return [p for m in self.system.levels for p in model_problems(m)]

    def ops(self) -> list[Op]:
        return [getattr(self, f"_{op['op']}_op")(op) for op in self.inputs()]

    def _extend_op(self, op: dict) -> Op:
        model = self.system.levels[op["level"]]
        f = descriptor_from_json(op["probe"])

        def check(report):
            result = report.to_json()
            return result, _probe_problems(op["probe_kind"], result["verdict"])

        return Op("extend", lambda: E.check_extendability(model, f), check)

    def _lift_op(self, op: dict) -> Op:
        system, n = self.system, op["level"]
        model = system.levels[n]
        i = int(op["at"][0] * model.image_points.shape[0])
        point = ProductPoint(tuple(float(v) for v in model.image_points[i]), model.space)
        radius = 2.0 * model.params.cluster_radius

        def check(thread):
            problems = []
            if len(thread) != system.depth or thread[n] != point:
                problems.append("thread does not pass through the lifted point")
            else:
                worst = max(IL.thread_residuals(system, thread), default=0.0)
                if worst > radius:
                    problems.append(f"thread residual {worst:.3e} > {radius}")
            return [list(e.coords) for e in thread.entries], problems

        return Op("lift", lambda: IL.lift_point(system, n, point), check)

    def _compare_op(self, op: dict) -> Op:
        i, j = op["level"], op["smaller"]
        levels = self.system.levels

        def check(outcome):
            result = _comparison_json(outcome)
            return result, _comparison_problems(result, must_fail=(i == 0 and j > 0))

        return Op("compare", lambda: O.compare(levels[i], levels[j]), check)

    def _member_op(self, op: dict) -> Op:
        model = self.system.levels[op["level"]]
        probe, at = op["probe"], op["at"]
        if probe == "image":
            r = model.params.r_image
            p = model.embed(-r + 2.0 * r * at[0])
        elif probe == "center":
            p = model.remainder[int(at[0] * len(model.remainder))].center_point(model.space)
        else:
            p = ProductPoint(tuple(iv.lo + a * iv.width for iv, a in zip(model.space, at)), model.space)
        expect = {"image": ("image", "remainder"), "center": ("remainder",)}.get(probe, ())

        def check(m):
            result = {"kind": m.kind, "distance": m.distance, "parameter": m.parameter,
                      "cluster_id": m.cluster_id}
            bad = expect and m.kind not in expect
            return result, [f"{probe} probe classified as {m.kind}"] if bad else []

        return Op("member", lambda: C.closure_membership(model, p, 0.02), check)


def _comparison_json(outcome) -> dict:
    if isinstance(outcome, O.ComparisonWitness):
        return {
            "comparable": True,
            "mapping": outcome.mapping_json(),
            "residual": outcome.residual,
            "onto_defect": outcome.onto_defect,
        }
    return {"comparable": False, "reason": outcome.reason}


def _comparison_problems(result: dict, must_fail: bool) -> list[str]:
    if result["comparable"] and must_fail:
        return ["a cosine coordinate was derived from a tanh-only family"]
    if result["comparable"] and result["residual"] > O.RESIDUAL_TOL:
        return [f"accepted a residual of {result['residual']:.3e}"]
    return []


class CliWorkload(Workload):
    """A session of in-process ``compactify`` commands on model files,
    ending with ``verify --all``.

    Mostly reads (extend-check, compare, remainder --csv) on 1-, 2- and
    5-coordinate models of 6-11 MB, where ``load_model`` is most of a
    command; plus writes (build --out, enlarge --out) at a small window.
    Reads beside writes show a model-format change that helps one side
    and costs the other.  ``verify --all``, the acceptance battery at the
    default ``BuildParams``, is the only place the ``acceptance`` layer
    and ``chain_limit`` run, and most of a pass's time: its builds put
    ``greedy_cluster`` in the measured phase.
    """

    name = "cli"

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        inputs = self.inputs()
        self.big, self.small, self.adjoin = inputs["big"], inputs["small"], inputs["adjoin"]
        self.probes, self.order = inputs["probes"], inputs["order"]
        self.verify_seed = inputs["verify_seed"]

    def inputs(self) -> dict:
        rng = self.rng()
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        big = {
            "m1": [Tanh(u(0.5, 2.0), u(-1.0, 1.0)).to_json()],
            "m2": [Tanh().to_json(), Cos(u(0.5, 2.0), u(0.0, math.pi)).to_json()],
            "m5": chain_family(5).to_json(),
        }
        return {
            "big": big,
            "small": {
                "s1": [Tanh(u(0.5, 2.0), u(-1.0, 1.0)).to_json()],
                "s3": [StereoX().to_json(), StereoY().to_json(), Cos(u(0.5, 2.0), 0.0).to_json()],
            },
            # A strict enlargement (cos on a tanh model) and a redundant one.
            "adjoin": {"s1": Cos(u(0.5, 4.0), u(0.0, math.pi)).to_json(), "s3": StereoY().to_json()},
            "probes": {
                m: [[kind, fn] for kind, fn in zip(PROBE_KINDS, fns)]
                for m, fns in zip(big, zip(*(_probes(kind, rng, len(big)) for kind in PROBE_KINDS)))
            },
            # Order of the reads: an extend-check per probe and a
            # remainder per model, then the six ordered compares.
            "order": [int(i) for i in rng.permutation(len(big) * (len(PROBE_KINDS) + 1) + 6)],
            "verify_seed": self.seed,
        }

    def path(self, name: str) -> str:
        return str(self.tmp / name)

    def _write_json(self, name: str, obj) -> str:
        Path(self.path(name)).write_text(json.dumps(obj), encoding="utf-8")
        return self.path(name)

    def _report(self, name: str) -> dict:
        """The report without its header (wall-clock data), with the
        session directory replaced so paths do not enter the digest."""
        text = Path(self.path(name)).read_text(encoding="utf-8")
        report = json.loads(text.replace(str(self.tmp), "<tmp>"))
        report.pop("header", None)
        return report

    def _op(self, kind: str, argv: list[str], report: str, check) -> Op:
        """A CLI command writing its report to ``report``; ``check`` gets
        the exit code and the report and returns (extra JSON, problems)."""
        argv = argv + ["--json-report", self.path(report)]

        def full_check(code):
            rep = self._report(report)
            extra, problems = check(code, rep["result"])
            return {"exit": code, "report": rep, **extra}, problems

        return Op(kind, lambda: CLI.run(argv), full_check)

    def setup(self) -> None:
        for m, family in self.big.items():
            fam = self._write_json(f"{m}.family.json", family)
            code = CLI.run(["build", "--family", fam, "--out", self.path(f"{m}.cptf"),
                            "--json-report", self.path(f"setup-{m}.json")])
            if code != 0:
                raise RuntimeError(f"setup build of {m} exited {code}")

    def _loaded(self, name: str):
        return C.load_model(self.path(f"{name}.cptf"))

    def setup_result(self) -> object:
        return {m: model_summary(self._loaded(m)) for m in self.big}

    def setup_problems(self) -> list[str]:
        return [p for m in self.big for p in model_problems(self._loaded(m))]

    def extra_metrics(self) -> dict:
        """Bytes of every model file the session wrote, setup's included."""
        names = list(self.big) + list(self.small) + [f"{s}-enlarged" for s in self.small]
        total = sum(os.path.getsize(self.path(f"{m}.cptf")) for m in names)
        return {"model_bytes": {"value": total, "unit": "B"}}

    def ops(self) -> list[Op]:
        reads = []
        for m in self.big:
            reads += [self._extend_op(m, kind, fn) for kind, fn in self.probes[m]]
            reads.append(self._remainder_op(m))
        reads += [self._compare_op(a, b) for a in self.big for b in self.big if a != b]
        reads = [reads[i] for i in self.order]
        # Small builds come first because the enlargements read them.
        return (
            [self._build_op(s) for s in self.small]
            + reads
            + [self._enlarge_op(s) for s in self.small]
            + [self._verify_op()]
        )

    def _extend_op(self, m: str, kind: str, fn: dict) -> Op:
        fpath = self._write_json(f"probe-{m}-{kind}.json", fn)

        def check(code, result):
            problems = _probe_problems(kind, result.get("verdict"))
            if code != (0 if result.get("verdict") in EXTENDS else 3):
                problems.append(f"exit {code} for verdict {result.get('verdict')}")
            return {}, problems

        argv = ["extend-check", "--model", self.path(f"{m}.cptf"), "--function", fpath]
        return self._op("extend-check", argv, f"extend-{m}-{kind}.json", check)

    def _compare_op(self, a: str, b: str) -> Op:
        def check(code, result):
            problems = _comparison_problems(result, must_fail=(a == "m1"))
            if code != (0 if result["comparable"] else 3):
                problems.append(f"exit {code} for comparable={result['comparable']}")
            return {}, problems

        argv = ["compare", "--larger", self.path(f"{a}.cptf"), "--smaller", self.path(f"{b}.cptf")]
        return self._op("compare", argv, f"compare-{a}-{b}.json", check)

    def _remainder_op(self, m: str) -> Op:
        csv = self.path(f"remainder-{m}.csv")

        def check(code, result):
            text = Path(csv).read_text(encoding="utf-8")
            rows, clusters = text.count("\n"), len(result["clusters"])
            problems = [] if code == 0 else [f"exit {code}"]
            if rows != clusters + 1:
                problems.append(f"{rows} CSV rows for {clusters} clusters")
            return {"csv": digest(text)}, problems

        argv = ["remainder", "--model", self.path(f"{m}.cptf"), "--csv", csv]
        return self._op("remainder", argv, f"remainder-{m}.json", check)

    def _build_op(self, s: str) -> Op:
        fam = self._write_json(f"{s}.family.json", self.small[s])

        def check(code, result):
            model = self._loaded(s)
            problems = model_problems(model) + ([] if code == 0 else [f"exit {code}"])
            return model_summary(model), problems

        argv = ["build", "--family", fam, "--out", self.path(f"{s}.cptf"), *SMALL_FLAGS]
        return self._op("build", argv, f"build-{s}.json", check)

    def _enlarge_op(self, s: str) -> Op:
        fpath = self._write_json(f"adjoin-{s}.json", self.adjoin[s])
        dim = len(self.small[s]) + (self.adjoin[s] not in self.small[s])

        def check(code, result):
            model = self._loaded(f"{s}-enlarged")
            problems = model_problems(model)
            if code != (0 if result["strict"] else 3):
                problems.append(f"exit {code} for strict={result['strict']}")
            if model.dim != dim:
                problems.append(f"enlarged model has {model.dim} coordinates, expected {dim}")
            return model_summary(model), problems

        argv = ["enlarge", "--model", self.path(f"{s}.cptf"), "--function", fpath,
                "--out", self.path(f"{s}-enlarged.cptf")]
        return self._op("enlarge", argv, f"enlarge-{s}.json", check)

    def _verify_op(self) -> Op:
        def check(code, result):
            problems = [] if code == 0 else [f"exit {code}"]
            failed = [c["name"] for c in result["criteria"] if not c["passed"]]
            if failed or not result["all_passed"]:
                problems.append(f"criteria failed: {failed}")
            if [c["id"] for c in result["criteria"]] != list(range(1, 11)):
                problems.append("criteria 1-10 not all reported")
            return {}, problems

        argv = ["verify", "--all", "--seed", str(self.verify_seed)]
        return self._op("verify", argv, "verify.json", check)


WORKLOADS = {w.name: w for w in (QueryWorkload, CliWorkload)}
