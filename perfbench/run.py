"""compactify benchmark: two closed-loop workloads, one client thread.

One workload, as the benchmark contract runs it::

    python3 perfbench/run.py --workload query --seed 3 --seconds 50 --trace 0

prints every end-to-end metric with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 1`` the metrics are the per-layer ones, derived from spans the
benchmark's own wrappers record (see ``spans.py``) over a fixed number of
traced passes, after the untraced passes; spans are written to
``.perfbench_out/``.  ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.

Every workload, untraced and traced, each in a fresh process::

    python3 perfbench/run.py [--seed N] [--seconds S] [--record LABEL]

``--record`` appends the results and the environment to
``perfbench/trajectory.json``.  ``--write-reference`` (with
``--workload``) records the default seed's output digests in
``perfbench/reference.json``; the code at the recorded commit defines
correct output.  The digests are exact only on the machine, libc, Python
and numpy (with its SIMD targets) recorded beside them; elsewhere the run
warns and checks invariants and pass-to-pass agreement instead.

The package is imported from ``src/`` of the checkout that holds this
directory; it is not installed.  Inputs come from ``--seed`` only.
"""
from __future__ import annotations

import os
import sys

# One client thread and no hidden parallelism: BLAS/OpenMP pools pinned to
# one thread, and no embed_array worker pool (it starts one thread per
# chunk with no cap, so the setting is never raised).  Set before numpy
# is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COMPACTIFY_THREADS", None)

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRAJECTORY = HERE / "trajectory.json"
# Setup runs this many times in an untraced run; setup_s is their median.
SETUP_REPEATS = 3
# The traced run traces this many passes, whatever --seconds is, and its
# per-layer metrics are per pass.
TRACED_PASSES = 1
WORKLOAD_NAMES = ("query", "cli")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import compactify from this checkout's src/, or exit 2."""
    if not (SRC / "compactify" / "__init__.py").is_file():
        print(f"error: no compactify package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import compactify

    if Path(compactify.__file__).resolve().parent != SRC / "compactify":
        print(f"error: imported compactify from {compactify.__file__}", file=sys.stderr)
        sys.exit(2)
    return compactify


# Environment fields that decide the float results, and so the digests.
DIGEST_ENVIRONMENT = ("machine", "libc", "python", "numpy", "numpy_simd")


def numpy_simd() -> list[str]:
    """numpy's SIMD baseline and the dispatch targets this CPU enables."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return ["unknown"]
    features = umath.__cpu_features__
    return [*umath.__cpu_baseline__, *(t for t in umath.__cpu_dispatch__ if features.get(t))]


def environment() -> dict:
    import numpy

    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        libc = "unknown"
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "libc": libc,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_simd": numpy_simd(),
    }


def digest_environment() -> dict:
    env = environment()
    return {k: env[k] for k in DIGEST_ENVIRONMENT}


def default_seconds() -> float:
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"])
    except (OSError, KeyError, ValueError, TypeError):
        return 50.0


def percentile(values: list[float], q: int) -> float:
    """q-th percentile by nearest rank: the smallest sample with at least
    q% of the samples at or below it.

    Unlike interpolation, it gives the same value for a pass's latencies
    and for several repeats of them, so a workload with few, unequal
    operations per pass does not move with the number of passes.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


class Phase:
    """Outcome of running the operation list one or more times."""

    def __init__(self) -> None:
        self.pass_walls: list[float] = []
        self.latencies: list[float] = []  # pass after pass, one per operation
        self.digests: list[list[str]] = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0  # ru_maxrss once the first pass has ended

    def typical_pass_s(self) -> float:
        """Wall time of a typical pass: the sum over the operation list of
        each operation's median latency across passes.

        A shared host's speed changes by tens of percent from one spell of
        seconds to minutes to the next.  A slow spell that covers parts of
        several passes moves each operation's median less than it moves
        the pass times.
        """
        n = len(self.latencies) // len(self.pass_walls)
        return sum(statistics.median(self.latencies[i::n]) for i in range(n))


def run_ops(ops, seconds, expected, tracer=None, passes=None) -> Phase:
    """Run passes over ``ops`` until the next pass would end after
    ``seconds`` (at least one pass), or exactly ``passes`` passes.

    Each operation is timed alone; its check runs after it, untimed and
    untraced.  ``expected`` holds a digest per operation; when it is None
    the first pass's digests become the expectation for later passes, so
    every pass must reproduce the first bit for bit.  A pass's wall time
    is the sum of its operations' times.
    """
    from workloads import digest

    phase = Phase()
    started = time.perf_counter()
    while True:
        gc.collect()  # each pass starts without the last one's garbage
        pass_started = time.perf_counter()
        digests = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{len(phase.pass_walls)}/{i}"
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception:
                phase.latencies.append(time.perf_counter() - t0)
                phase.failed += 1
                digests.append(None)
                print(f"op {i} ({op.kind}) raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            phase.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.paused = True
            try:
                result, problems = op.check(raw)
                d = digest(result)
            except Exception as exc:
                d, problems = None, [f"check raised {exc!r}"]
            finally:
                if tracer is not None:
                    tracer.paused = False
            if expected is not None and d != expected[i]:
                problems.append(f"output digest {d} differs from {expected[i]}")
            if problems:
                phase.failed += 1
                print(f"op {i} ({op.kind}) failed: {'; '.join(problems)}", file=sys.stderr)
            digests.append(d)
        phase.pass_walls.append(sum(phase.latencies[-len(ops):]))
        phase.digests.append(digests)
        if expected is None:
            expected = digests
        if len(phase.pass_walls) == 1:
            # Later passes reuse a heap the earlier ones fragmented, so the
            # peak is taken here, where it does not depend on the pass count.
            phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        pass_elapsed = time.perf_counter() - pass_started
        if passes is not None:
            if len(phase.pass_walls) >= passes:
                return phase
        elif time.perf_counter() - started + pass_elapsed > seconds:
            return phase


def load_reference(name: str, seed: int, writing: bool):
    from workloads import DEFAULT_SEED

    if writing or seed != DEFAULT_SEED:
        return None
    try:
        data = json.loads(REFERENCE.read_text(encoding="utf-8"))
        ref = data["workloads"][name]
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: no reference digests for {name}: {exc!r}", file=sys.stderr)
        sys.exit(2)
    here = digest_environment()
    if data.get("environment") != here:
        print(f"warning: reference digests were recorded on {json.dumps(data.get('environment'))}, "
              f"this is {json.dumps(here)}; float results may differ in the last bits, so "
              "outputs are checked by invariants and pass-to-pass agreement only", file=sys.stderr)
        return None
    return ref


def run_workload(name: str, seed: int, seconds: float, traced: bool, write_reference: bool) -> dict:
    from spans import Tracer, layer_metric_units
    from workloads import WORKLOADS, digest

    ref = load_reference(name, seed, write_reference)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    tracer = Tracer() if traced else None
    try:
        workload = WORKLOADS[name](seed, tmp)
        setup_times = []
        if tracer is not None:
            tracer.install()
        for _ in range(1 if traced else SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.remove()
        setup_digest = digest(workload.setup_result())
        problems = workload.setup_problems()
        if ref is not None and setup_digest != ref["setup"]:
            problems.append(f"setup digest {setup_digest} differs from {ref['setup']}")
        for p in problems:
            print(f"setup failed: {p}", file=sys.stderr)
        ops = workload.ops()

        expected = ref["ops"] if ref is not None else None
        plain = run_ops(ops, seconds, expected)
        attempted, failed = plain.attempted + 1, plain.failed + bool(problems)

        if tracer is not None:
            tracer.install()
            try:
                traced_phase = run_ops(ops, seconds, plain.digests[0], tracer, TRACED_PASSES)
            finally:
                tracer.remove()
            attempted += traced_phase.attempted
            failed += traced_phase.failed
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{name}.jsonl.gz")
            metrics = tracer.layer_metrics(len(traced_phase.pass_walls))
            metrics["trace.overhead_s"] = traced_phase.typical_pass_s() - plain.typical_pass_s()
            units = layer_metric_units()
            report = {k: {"value": metrics[k], "unit": units[k]} for k in units}
            extra = {}
        else:
            wall = plain.typical_pass_s()
            values = {
                "setup_s": statistics.median(setup_times),
                "wall_s": wall,
                "ops_per_s": len(ops) / wall,
                "op_p50_ms": 1e3 * percentile(plain.latencies, 50),
                "op_p90_ms": 1e3 * percentile(plain.latencies, 90),
                "peak_rss_mb": plain.peak_rss_mb,
            }
            report = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
            extra = workload.extra_metrics()
        print(f"workload {name}, seed {seed}, {'traced' if traced else 'untraced'}: "
              f"{len(ops)} ops per pass, {len(plain.pass_walls)} passes, "
              f"{len(plain.latencies)} latency samples"
              + (f", {TRACED_PASSES} traced pass(es)" if traced else ""))
        print(f"  setup runs (s): {', '.join(f'{t:.4f}' for t in setup_times)}")
        for k, v in {**report, **extra}.items():
            print(f"  {k:<58} {v['value']:>16.6f} {v['unit']}")
        print(f"  {'error_rate':<58} {failed / attempted:>16.6f} ratio ({failed} of {attempted})")

        if write_reference:
            if failed:
                print("error: not writing a reference from a run with failures", file=sys.stderr)
                sys.exit(1)
            data = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
            data.setdefault("seed", seed)
            if data.get("environment") != digest_environment():
                # Digests from another environment are not this one's reference.
                data["environment"], data["workloads"] = digest_environment(), {}
            data.setdefault("workloads", {})[name] = {"setup": setup_digest, "ops": plain.digests[0]}
            REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}
    finally:
        if tracer is not None:
            tracer.remove()
        shutil.rmtree(tmp, ignore_errors=True)


def run_all(seed: int, seconds: float, record: str | None) -> int:
    """Run every workload untraced, then traced, each in a new process."""
    from spans import layer_metric_units

    results: dict[str, dict] = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            results.setdefault(name, {})["traced" if trace else "untraced"] = json.loads(
                proc.stdout.strip().splitlines()[-1]
            )
            if not trace:
                print(proc.stdout.rstrip().rsplit("\n", 1)[0])

    print("\nend-to-end metrics (untraced)")
    print(f"{'metric':<14}{'unit':<7}" + "".join(f"{w:>14}" for w in WORKLOAD_NAMES))
    for metric, unit in END_TO_END_UNITS.items():
        row = "".join(f"{results[w]['untraced']['metrics'][metric]['value']:>14.4f}" for w in WORKLOAD_NAMES)
        print(f"{metric:<14}{unit:<7}{row}")
    print("\nper-layer metrics (traced; per measured pass, setup.* over one setup)")
    units = layer_metric_units()
    zero = []
    for metric, unit in units.items():
        values = [results[w]["traced"]["metrics"][metric]["value"] for w in WORKLOAD_NAMES]
        if not any(values):
            zero.append(metric)
        print(f"{metric:<58}{unit:<7}" + "".join(f"{v:>14.4g}" for v in values))

    ok = True
    for w in WORKLOAD_NAMES:
        for kind, res in results[w].items():
            if not res["correct"]:
                print(f"FAIL: {w} ({kind}) had {res['failed']} failures of {res['attempted']}")
                ok = False
    if zero:
        print(f"FAIL: per-layer metrics zero on every workload: {zero}")
        ok = False
    if record:
        env = environment()
        try:
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            env["git_sha"] = "unknown"
        history = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
        history.append({"label": record, "seed": seed, "seconds": seconds, "environment": env,
                        "workloads": results})
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
        print(f"recorded as {record!r} in {TRAJECTORY.relative_to(ROOT)}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    import_package()
    from workloads import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.workload is None:
        return run_all(seed, args.seconds, args.record)
    if args.write_reference and (seed != DEFAULT_SEED or args.trace):
        parser.error("--write-reference needs the default seed and --trace 0")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    result = run_workload(args.workload, seed, args.seconds, bool(args.trace), args.write_reference)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
