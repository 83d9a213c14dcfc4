"""Command line front end.

Exit codes: 0 success, 2 usage or input error, 3 a negative but valid
result (incomparable models, a function that fails to extend, a non-strict
enlargement), 4 a numeric tolerance failure.  Every JSON report embeds the
resolved run configuration and the seed; wall-clock data is confined to
the report header so report bodies are reproducible byte for byte.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import CRITERIA, chain_family, metric_sample, verify_report_body
from .compactification import (
    BuildParams,
    build_compactification,
    load_model,
    save_model,
    write_remainder_csv,
)
from .extension import (
    DEFAULT_DELTAS,
    InsufficientWitnessesError,
    Verdict,
    check_extendability,
)
from .functions import FunctionFamily, descriptor_from_json
from .inverse_limit import InverseSystem, chain_limit
from .ordering import ComparisonWitness, compare, enlarge
from .product_space import write_point_cloud_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_NUMERIC = 4


def _emit(result: dict, config: dict, started: float, path: str | None) -> None:
    report = {
        "header": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": time.monotonic() - started,
        },
        # "workers" is a fixed 1, kept so the config block keeps its shape.
        "config": {**config, "workers": 1},
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _build_params(args) -> BuildParams:
    return BuildParams(
        r_image=args.r_image,
        r_tail_lo=args.r_tail_lo,
        r_tail_hi=args.r_tail_hi,
        grid_step=args.grid_step,
        cluster_radius=args.cluster_radius,
    )


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    d = BuildParams()
    sub.add_argument("--r-image", type=float, default=d.r_image)
    sub.add_argument("--r-tail-lo", type=float, default=d.r_tail_lo)
    sub.add_argument("--r-tail-hi", type=float, default=d.r_tail_hi)
    sub.add_argument("--grid-step", type=float, default=d.grid_step)
    sub.add_argument("--cluster-radius", type=float, default=d.cluster_radius)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=7)
    sub.add_argument("--json-report", default=None, metavar="PATH")


def _load_descriptor(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return descriptor_from_json(json.load(fh))


def _cluster_summary(model) -> list[dict]:
    return [
        {
            "cluster_id": c.cluster_id,
            "side": c.side,
            "center": [float(v) for v in c.center],
            "witness_count": c.witness_count,
        }
        for c in model.remainder
    ]


def _cmd_build(args) -> int:
    started = time.monotonic()
    family = FunctionFamily.from_file(args.family)
    params = _build_params(args)
    model = build_compactification(family, params)
    save_model(model, args.out)
    if args.remainder_csv:
        write_remainder_csv(model, args.remainder_csv)
    if args.image_csv:
        write_point_cloud_csv(args.image_csv, model.image_points)
    config = {
        "command": "build",
        "family": family.to_json(),
        "params": params.to_json(),
        "out": str(args.out),
        "remainder_csv": args.remainder_csv,
        "image_csv": args.image_csv,
        "seed": args.seed,
    }
    _emit(
        {
            "image_points": int(model.image_points.shape[0]),
            "clusters": _cluster_summary(model),
        },
        config,
        started,
        args.json_report,
    )
    return EXIT_OK


def _cmd_extend_check(args) -> int:
    started = time.monotonic()
    model = load_model(args.model)
    f = _load_descriptor(args.function)
    deltas = DEFAULT_DELTAS
    if args.deltas:
        deltas = tuple(float(v) for v in args.deltas.split(","))
    config = {
        "command": "extend-check",
        "model": str(args.model),
        "function": f.to_json(),
        "deltas": list(deltas),
        "expect_extends": bool(args.expect_extends),
        "seed": args.seed,
    }
    try:
        report = check_extendability(model, f, deltas=deltas)
    except InsufficientWitnessesError as exc:
        _emit({"error": str(exc)}, config, started, args.json_report)
        return EXIT_NUMERIC
    payload = report.to_json()
    extends = report.verdict in (Verdict.EXTENDS_BY_PROJECTION, Verdict.EXTENDS_NUMERICALLY)
    if args.expect_extends:
        payload["expectation_met"] = extends
    _emit(payload, config, started, args.json_report)
    return EXIT_OK if extends else EXIT_NEGATIVE


def _cmd_compare(args) -> int:
    started = time.monotonic()
    larger = load_model(args.larger)
    smaller = load_model(args.smaller)
    config = {
        "command": "compare",
        "larger": str(args.larger),
        "smaller": str(args.smaller),
        "seed": args.seed,
    }
    outcome = compare(larger, smaller)
    if isinstance(outcome, ComparisonWitness):
        _emit(
            {
                "comparable": True,
                "mapping": outcome.mapping_json(),
                "residual": outcome.residual,
                "onto_defect": outcome.onto_defect,
            },
            config,
            started,
            args.json_report,
        )
        return EXIT_OK
    _emit({"comparable": False, "reason": outcome.reason}, config, started, args.json_report)
    return EXIT_NEGATIVE


def _cmd_enlarge(args) -> int:
    started = time.monotonic()
    model = load_model(args.model)
    f = _load_descriptor(args.function)
    config = {
        "command": "enlarge",
        "model": str(args.model),
        "function": f.to_json(),
        "out": str(args.out),
        "seed": args.seed,
    }
    result = enlarge(model, f)
    save_model(result.model, args.out)
    _emit(
        {
            "strict": result.strict,
            "old_verdict": result.old_report.verdict.value,
            "witness_residual": result.witness.residual,
            "old_clusters": len(model.remainder),
            "new_clusters": len(result.model.remainder),
        },
        config,
        started,
        args.json_report,
    )
    return EXIT_OK if result.strict else EXIT_NEGATIVE


def _cmd_remainder(args) -> int:
    started = time.monotonic()
    model = load_model(args.model)
    if args.csv:
        write_remainder_csv(model, args.csv)
    config = {
        "command": "remainder",
        "model": str(args.model),
        "csv": args.csv,
        "seed": args.seed,
    }
    _emit({"clusters": _cluster_summary(model)}, config, started, args.json_report)
    return EXIT_OK


def _cmd_metric_check(args) -> int:
    started = time.monotonic()
    if args.dims < 1 or args.pairs < 1 or not 0.0 < args.r < math.inf:
        raise ValueError("metric-check needs --dims >= 1, --pairs >= 1 and a finite --r > 0")
    n = args.pairs
    count = max(4, int(np.ceil((1 + np.sqrt(1 + 8 * n)) / 2)))
    details, report = metric_sample(
        np.random.default_rng(args.seed), n, args.dims, count // 2, args.r
    )
    del details["identity"]
    details["ok"] = details["symmetric"] and details["triangle_slack"] <= 1e-12 and report.ok
    config = {
        "command": "metric-check",
        "dims": args.dims,
        "pairs": n,
        "r": args.r,
        "seed": args.seed,
    }
    _emit(details, config, started, args.json_report)
    return EXIT_OK if details["ok"] else EXIT_NUMERIC


def _cmd_chain_demo(args) -> int:
    started = time.monotonic()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = _build_params(args)
    levels = [
        build_compactification(chain_family(k), params)
        for k in range(1, args.levels + 1)
    ]
    system = InverseSystem.from_levels(levels)
    for k, model in enumerate(levels):
        save_model(model, out_dir / f"level_{k}.cptf")
    limit = chain_limit(system)
    save_model(limit, out_dir / "limit.cptf")

    limit_comparisons = []
    for k, level in enumerate(levels):
        w = compare(limit, level)
        limit_comparisons.append(
            {
                "level": k,
                "comparable": isinstance(w, ComparisonWitness),
                "residual": w.residual if isinstance(w, ComparisonWitness) else None,
            }
        )
    config = {
        "command": "chain-demo",
        "levels": args.levels,
        "out_dir": str(out_dir),
        "params": params.to_json(),
        "seed": args.seed,
    }
    _emit(
        {
            "bond_residuals": [w.residual for w in system.bonds],
            "cluster_counts": [len(m.remainder) for m in levels],
            "limit_clusters": len(limit.remainder),
            "limit_comparisons": limit_comparisons,
        },
        config,
        started,
        args.json_report,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    started = time.monotonic()
    ids = None
    if args.criteria:
        ids = tuple(int(v) for v in args.criteria.split(","))
    body = verify_report_body(args.seed, ids)
    config = {
        "command": "verify",
        "all": bool(args.all or not args.criteria),
        "criteria": list(ids) if ids else [cid for cid, _, _ in CRITERIA],
        "seed": args.seed,
    }
    _emit(body, config, started, args.json_report)
    return EXIT_OK if body["all_passed"] else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compactify",
        description="Closure models of coordinate embeddings of the real line",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="sample a family and write a closure model")
    p.add_argument("--family", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--remainder-csv", default=None, metavar="PATH")
    p.add_argument("--image-csv", default=None, metavar="PATH")
    _add_param_flags(p)
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("extend-check", help="test continuous extendability of a function")
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("--function", required=True, metavar="PATH")
    p.add_argument("--deltas", default=None, metavar="D1,D2,...")
    p.add_argument("--expect-extends", action="store_true")
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_extend_check)

    p = sub.add_parser("compare", help="exhibit one model above another")
    p.add_argument("--larger", "--a", required=True, metavar="PATH")
    p.add_argument("--smaller", "--b", required=True, metavar="PATH")
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("enlarge", help="adjoin a function and rebuild")
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("--function", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_enlarge)

    p = sub.add_parser("remainder", help="summarize a model's remainder clusters")
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("--csv", default=None, metavar="PATH")
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_remainder)

    p = sub.add_parser("metric-check", help="metric axioms and inclusion checks on random samples")
    p.add_argument("--dims", type=int, default=5)
    p.add_argument("--pairs", type=int, default=10_000)
    p.add_argument("--r", type=float, default=0.3)
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_metric_check)

    p = sub.add_parser("chain-demo", help="build an ascending chain and its limit")
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--out-dir", required=True, metavar="DIR")
    _add_param_flags(p)
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_chain_demo)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--all", action="store_true")
    p.add_argument("--criteria", default=None, metavar="1,2,...")
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InsufficientWitnessesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
