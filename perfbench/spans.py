"""In-memory span tracing placed around compactify's public functions.

The wrappers live here, not in the package: ``Tracer.install`` rebinds
every module attribute that holds a traced function (the defining module
and every module that imported the name), and ``Tracer.remove`` puts the
originals back.  Spans are kept in memory; ``layer_metrics`` derives
per-layer counts and self times from them once the run ends.

Spans and counts from setup (operation id ``"setup"``) are kept apart
from those of the measured passes.  Measured-phase metrics are per pass,
so they do not grow with the number of passes that fit in a run; setup
runs once in a traced run, and a few of its metrics are reported under
``setup.``.

The tracer assumes one thread: spans nest on a single stack.  The
benchmark unsets ``COMPACTIFY_THREADS`` so ``embed_array`` never starts
its worker pool.
"""
from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

CLI_COMMANDS = ("build", "extend-check", "compare", "enlarge", "remainder", "verify")
CRITERIA_IDS = range(1, 11)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_evaluate(c, args, kwargs, result):
    c["functions.evaluate.points"] += int(np.size(args[1]))


def _count_embed(c, args, kwargs, result):
    c["compactification.embed_array.points"] += int(np.size(args[1]))


def _count_cluster(c, args, kwargs, result):
    points = int(np.shape(args[0])[0])
    seeds = int(result.max()) + 1 if points else 0
    c["compactification.greedy_cluster.points"] += points
    c["compactification.greedy_cluster.seeds"] += seeds
    c["compactification.greedy_cluster.point_seeds"] += points * seeds


def _count_save(c, args, kwargs, result):
    c["compactification.save_model.bytes"] += _size(args[1])


def _count_load(c, args, kwargs, result):
    c["compactification.load_model.bytes"] += _size(args[0])


def _count_cloud(c, args, kwargs, result):
    c["product_space.distances_to_cloud.rows"] += int(np.shape(result)[0])


def _count_rowwise(c, args, kwargs, result):
    c["product_space.rowwise_distance.rows"] += int(np.shape(result)[0])


def _count_extend(c, args, kwargs, result):
    if not result.tables:  # projection verdict: nothing scanned
        return
    model = args[0]
    c["extension.check_extendability.witnesses"] += sum(
        cl.witness_count for cl in model.remainder
    )
    c["extension.check_extendability.useful_witnesses"] += sum(
        rows[-1].count for rows in result.tables.values()
    )


def _count_lift(c, args, kwargs, result):
    system, n = args[0], args[1]
    c["inverse_limit.lift_point.candidates"] += sum(
        level.image_points.shape[0] + len(level.remainder)
        for level in system.levels[n:]
    )


# (module, attribute, span name, counter, counts reported beside calls and
# self time).  "Class.method" attributes are patched on the class, which
# covers every instance and subclass.
TARGETS = (
    ("functions", "FunctionDescriptor.evaluate", "functions.evaluate", _count_evaluate, ("points",)),
    ("product_space", "distances_to_cloud", "product_space.distances_to_cloud", _count_cloud, ("rows",)),
    ("product_space", "rowwise_distance", "product_space.rowwise_distance", _count_rowwise, ("rows",)),
    ("compactification", "EmbeddingMap.embed_array", "compactification.embed_array", _count_embed,
     ("points",)),
    ("compactification", "greedy_cluster", "compactification.greedy_cluster", _count_cluster,
     ("points", "seeds")),
    ("compactification", "build_compactification", "compactification.build_compactification", None, ()),
    ("compactification", "save_model", "compactification.save_model", _count_save, ("bytes",)),
    ("compactification", "load_model", "compactification.load_model", _count_load, ("bytes",)),
    ("compactification", "closure_membership", "compactification.closure_membership", None, ()),
    ("extension", "check_extendability", "extension.check_extendability", _count_extend, ("witnesses",)),
    ("ordering", "compare", "ordering.compare", None, ()),
    ("ordering", "enlarge", "ordering.enlarge", None, ()),
    ("inverse_limit", "lift_point", "inverse_limit.lift_point", _count_lift, ("candidates",)),
    ("inverse_limit", "chain_limit", "inverse_limit.chain_limit", None, ()),
)
SELF_TIMED = {span: counts for _, _, span, _, counts in TARGETS}
# Metrics of the traced setup run, reported as "setup.<name>": the builds
# and writes that setup_s times, where a clustering or format change on
# the query and cli workloads shows.
SETUP_METRICS = (
    "functions.evaluate.calls",
    "functions.evaluate.points",
    "functions.evaluate.self_s",
    "compactification.embed_array.calls",
    "compactification.embed_array.points",
    "compactification.embed_array.self_s",
    "compactification.greedy_cluster.calls",
    "compactification.greedy_cluster.points",
    "compactification.greedy_cluster.seeds",
    "compactification.greedy_cluster.self_s",
    "compactification.greedy_cluster.ns_per_point_seed",
    "compactification.build_compactification.calls",
    "compactification.build_compactification.self_s",
    "compactification.save_model.calls",
    "compactification.save_model.bytes",
    "compactification.save_model.self_s",
    "trace.spans",
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for span, counts in SELF_TIMED.items():
        units[f"{span}.calls"] = "count"
        for stat in counts:
            units[f"{span}.{stat}"] = "B" if stat == "bytes" else "count"
        units[f"{span}.self_s"] = "s"
    units["compactification.greedy_cluster.ns_per_point_seed"] = "ns"
    units["extension.check_extendability.useful_witness_ratio"] = "ratio"
    for cid in CRITERIA_IDS:
        units[f"acceptance.criterion-{cid:02d}.s"] = "s"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.calls"] = "count"
        units[f"cli.{cmd}.s"] = "s"
    units["cli.report.bytes"] = "B"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    for name in SETUP_METRICS:
        units[f"setup.{name}"] = units[name]
    return units


class Tracer:
    """Records spans (name, start, end, parent, op) around wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = {"setup": defaultdict(float), "measured": defaultdict(float)}
        self.op = "setup"  # "<pass>/<index>" while an operation runs
        self.paused = False  # set while the benchmark checks outputs
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_of, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            name = name_of(args)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counters["setup" if self.op == "setup" else "measured"], args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Point every compactify module attribute holding ``original`` at
        ``replacement``; a name imported with ``from .x import f`` is a
        separate binding in the importing module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "compactify" or mod_name.startswith("compactify.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, attr, span, count, _ in TARGETS:
            mod = importlib.import_module(f"compactify.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, lambda a, s=span: s, count))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self._wrap(original, lambda a, s=span: s, count))

        acceptance = importlib.import_module("compactify.acceptance")
        criteria = acceptance.CRITERIA
        wrapped = tuple(
            (cid, name, self._wrap(fn, lambda a, c=cid: f"acceptance.criterion-{c:02d}", None))
            for cid, name, fn in criteria
        )
        self._rebind(criteria, wrapped)

        cli = importlib.import_module("compactify.cli")
        self._rebind(cli.run, self._wrap(cli.run, _cli_span_name, _count_cli_report))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer calls, counts and self times derived from the spans,
        per measured pass; ``passes`` is how many passes were traced."""
        return derive_metrics(self.spans, self.counters, passes)


def _cli_span_name(args) -> str:
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.run"


def _count_cli_report(c, args, kwargs, result):
    argv = list(args[0] or ())
    if "--json-report" in argv:
        c["cli.report.bytes"] += _size(argv[argv.index("--json-report") + 1])


def derive_metrics(spans, counters, passes: int) -> dict[str, float]:
    """Measured-phase metrics per pass, plus the ``setup.`` metrics.

    ``counters`` maps "setup" and "measured" to the counts of each phase.
    Self time of a span is its duration minus its children's durations.
    Spans come from one thread, so children never overlap each other, and
    a child has its parent's operation id.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    timed = {"setup": [], "measured": []}
    for (name, start, end, parent, op), children in zip(spans, child_time):
        timed["setup" if op == "setup" else "measured"].append((name, end - start, end - start - children))
    measured = _phase_metrics(timed["measured"], counters["measured"])
    setup = _phase_metrics(timed["setup"], counters["setup"])
    ratios = ("compactification.greedy_cluster.ns_per_point_seed",
              "extension.check_extendability.useful_witness_ratio")
    out = {k: v if k in ratios else v / passes for k, v in measured.items()}
    out.update({f"setup.{k}": setup[k] for k in SETUP_METRICS})
    return out


def _phase_metrics(timed, counters) -> dict[str, float]:
    """Totals over one phase's spans, given as (name, duration, self time)."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    for name, duration, own in timed:
        calls[name] += 1
        self_s[name] += own
        total_s[name] += duration

    out = {name: 0.0 for name in layer_metric_units() if not name.startswith("setup.")}
    for span, counts in SELF_TIMED.items():
        out[f"{span}.calls"] = float(calls.get(span, 0))
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
        for stat in counts:
            out[f"{span}.{stat}"] = float(counters.get(f"{span}.{stat}", 0))
    point_seeds = counters.get("compactification.greedy_cluster.point_seeds", 0)
    if point_seeds:
        out["compactification.greedy_cluster.ns_per_point_seed"] = (
            1e9 * self_s["compactification.greedy_cluster"] / point_seeds
        )
    scanned = counters.get("extension.check_extendability.witnesses", 0)
    if scanned:
        out["extension.check_extendability.useful_witness_ratio"] = (
            counters["extension.check_extendability.useful_witnesses"] / scanned
        )
    for cid in CRITERIA_IDS:
        out[f"acceptance.criterion-{cid:02d}.s"] = total_s.get(f"acceptance.criterion-{cid:02d}", 0.0)
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.calls"] = float(calls.get(f"cli.{cmd}", 0))
        out[f"cli.{cmd}.s"] = total_s.get(f"cli.{cmd}", 0.0)
    out["cli.report.bytes"] = float(counters.get("cli.report.bytes", 0))
    out["trace.spans"] = float(len(timed))
    return out
