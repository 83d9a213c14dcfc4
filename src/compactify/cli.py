"""Command line front end.

Each subcommand returns its exit code, resolved configuration and result;
``run()`` writes every report, as strict JSON.  It adds the command name
and the seed to the configuration and confines wall-clock data to the
report header, so report bodies are reproducible byte for byte.

Exit codes: 0 success, 2 usage or input error, 3 a negative but valid
result (incomparable models, a function that fails to extend, a non-strict
enlargement), 4 a numeric failure (a failed check, a cluster short of
witnesses, an enlargement that fails to dominate).  Errors print one line
to stderr and write no report.
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
from .extension import DEFAULT_DELTAS, InsufficientWitnessesError, Verdict, check_extendability
from .functions import FunctionFamily, descriptor_from_json
from .inverse_limit import InverseSystem, chain_limit
from .ordering import ComparisonWitness, DominationError, compare, enlarge
from .product_space import write_point_cloud_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_NUMERIC = 4


# Exit code of each error that ends a command with one stderr line.  A
# plain RuntimeError is a bug and keeps its traceback.
_ERROR_EXITS = {
    OSError: EXIT_USAGE,
    ValueError: EXIT_USAGE,  # json.JSONDecodeError among them
    InsufficientWitnessesError: EXIT_NUMERIC,
    DominationError: EXIT_NUMERIC,
}


def _emit(result: dict, config: dict, started: float, path: str | None) -> None:
    report = {
        "header": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": time.monotonic() - started,
        },
        "config": config,
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _build_params(args) -> BuildParams:
    return BuildParams(**{name: getattr(args, name) for name in BuildParams().to_json()})


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    """One float flag per BuildParams field: --r-image, ..., --cluster-radius."""
    for name, default in BuildParams().to_json().items():
        sub.add_argument("--" + name.replace("_", "-"), type=float, default=default)


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


def _cmd_build(args) -> tuple[int, dict, dict]:
    family = FunctionFamily.from_file(args.family)
    params = _build_params(args)
    model = build_compactification(family, params)
    save_model(model, args.out)
    if args.remainder_csv:
        write_remainder_csv(model, args.remainder_csv)
    if args.image_csv:
        write_point_cloud_csv(args.image_csv, model.image_points)
    config = {
        "family": family.to_json(),
        "params": params.to_json(),
        "out": str(args.out),
        "remainder_csv": args.remainder_csv,
        "image_csv": args.image_csv,
    }
    result = {
        "image_points": int(model.image_points.shape[0]),
        "clusters": _cluster_summary(model),
    }
    return EXIT_OK, config, result


def _cmd_extend_check(args) -> tuple[int, dict, dict]:
    model = load_model(args.model)
    f = _load_descriptor(args.function)
    deltas = DEFAULT_DELTAS
    if args.deltas:
        deltas = tuple(float(v) for v in args.deltas.split(","))
    config = {
        "model": str(args.model),
        "function": f.to_json(),
        "deltas": list(deltas),
        "expect_extends": bool(args.expect_extends),
    }
    try:
        report = check_extendability(model, f, deltas=deltas)
    except InsufficientWitnessesError as exc:
        # Reported, not printed: the check ran and found too few witnesses.
        return EXIT_NUMERIC, config, {"error": str(exc)}
    result = report.to_json()
    extends = report.verdict in (Verdict.EXTENDS_BY_PROJECTION, Verdict.EXTENDS_NUMERICALLY)
    if args.expect_extends:
        result["expectation_met"] = extends
    return (EXIT_OK if extends else EXIT_NEGATIVE), config, result


def _cmd_compare(args) -> tuple[int, dict, dict]:
    larger = load_model(args.larger)
    smaller = load_model(args.smaller)
    config = {"larger": str(args.larger), "smaller": str(args.smaller)}
    outcome = compare(larger, smaller)
    if isinstance(outcome, ComparisonWitness):
        return EXIT_OK, config, {
            "comparable": True,
            "mapping": outcome.mapping_json(),
            "residual": outcome.residual,
            "onto_defect": outcome.onto_defect,
        }
    return EXIT_NEGATIVE, config, {"comparable": False, "reason": outcome.reason}


def _cmd_enlarge(args) -> tuple[int, dict, dict]:
    model = load_model(args.model)
    f = _load_descriptor(args.function)
    result = enlarge(model, f)
    save_model(result.model, args.out)
    config = {"model": str(args.model), "function": f.to_json(), "out": str(args.out)}
    return (EXIT_OK if result.strict else EXIT_NEGATIVE), config, {
        "strict": result.strict,
        "old_verdict": result.old_report.verdict.value,
        "witness_residual": result.witness.residual,
        "old_clusters": len(model.remainder),
        "new_clusters": len(result.model.remainder),
    }


def _cmd_remainder(args) -> tuple[int, dict, dict]:
    model = load_model(args.model)
    if args.csv:
        write_remainder_csv(model, args.csv)
    config = {"model": str(args.model), "csv": args.csv}
    return EXIT_OK, config, {"clusters": _cluster_summary(model)}


def _cmd_metric_check(args) -> tuple[int, dict, dict]:
    if args.dims < 1 or args.pairs < 1 or not 0.0 < args.r < math.inf:
        raise ValueError("metric-check needs --dims >= 1, --pairs >= 1 and a finite --r > 0")
    n = args.pairs
    count = max(4, int(np.ceil((1 + np.sqrt(1 + 8 * n)) / 2)))
    details, report = metric_sample(
        np.random.default_rng(args.seed), n, args.dims, count // 2, args.r
    )
    del details["identity"]
    details["ok"] = details["symmetric"] and details["triangle_slack"] <= 1e-12 and report.ok
    config = {"dims": args.dims, "pairs": n, "r": args.r}
    return (EXIT_OK if details["ok"] else EXIT_NUMERIC), config, details


def _cmd_chain_demo(args) -> tuple[int, dict, dict]:
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
    config = {"levels": args.levels, "out_dir": str(out_dir), "params": params.to_json()}
    return EXIT_OK, config, {
        "bond_residuals": [w.residual for w in system.bonds],
        "cluster_counts": [len(m.remainder) for m in levels],
        "limit_clusters": len(limit.remainder),
        "limit_comparisons": limit_comparisons,
    }


def _cmd_verify(args) -> tuple[int, dict, dict]:
    ids = None
    if args.criteria:
        ids = tuple(int(v) for v in args.criteria.split(","))
    body = verify_report_body(args.seed, ids)
    config = {
        "all": bool(args.all or not args.criteria),
        "criteria": list(ids) if ids else [cid for cid, _, _ in CRITERIA],
    }
    return (EXIT_OK if body["all_passed"] else EXIT_NUMERIC), config, body


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
    """Run one command: the only place a report is written or an error mapped."""
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code, config, result = args.fn(args)
        # "workers" is a fixed 1, kept so the config block keeps its shape.
        config = {**config, "command": args.command, "seed": args.seed, "workers": 1}
        _emit(result, config, started, args.json_report)
        return code
    except tuple(_ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS.items() if isinstance(exc, kind))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
