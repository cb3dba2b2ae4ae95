"""Command-line surface: each pipeline stage is independently scriptable.

Exit codes: 0 success, 1 usage error, 2 runtime error. Output files are
written atomically (temp + rename). Config fields are overridable with
repeated ``--set dotted.path=value`` flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .archive import atomic_write_text, open_archive
from .diagnostics import (
    DEFAULT_LAYER_PATTERN,
    DEFAULT_MODULE_RULES,
    interference_sweep,
    layerwise_norms,
    load_module_rules,
    modulewise_activation,
    sign_interference,
    write_interference_csv,
    write_modulewise_csv,
    write_norms_csv,
)
from .errors import TvfuseError
from .pipeline import PipelineConfig, WorkspacePaths, load_config, load_report, run_pipeline, select_data
from .task_vector import (
    Scratch,
    StoredVector,
    deltas,
    lockstep,
    merge,
    prune_and_rescale,
    require_finite,
    vector_metadata,
    write_vector,
)

logger = logging.getLogger(__name__)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise UsageError(message)


def _number(text: str) -> float:
    """`text` as a float, or NaN if it is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _fraction(text: str) -> float:
    """argparse type: a retention fraction in (0, 1]."""
    value = _number(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in (0, 1], got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type: a finite number > 0."""
    value = _number(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _fractions(text: str) -> list[float]:
    """argparse type: a non-empty comma-separated list of fractions in (0, 1]."""
    values = [_fraction(item) for item in text.split(",") if item]
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one fraction, got {text!r}")
    return values


def _load_config(args) -> PipelineConfig:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects DOTTED.PATH=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    return load_config(args.config, overrides)


# --- subcommand handlers -----------------------------------------------------------


def cmd_extract(args) -> int:
    base = open_archive(args.base)
    finetuned = open_archive(args.finetuned)
    vector = deltas(base, [finetuned], allow_dtype_mismatch=args.allow_dtype_mismatch)()
    shapes = base.shapes
    metadata = vector_metadata(args.base_id or str(base.path), args.ft_id or str(finetuned.path), None)
    write_vector(args.out, shapes, vector, metadata, dtype=args.dtype)
    print(f"wrote task vector ({sum(map(math.prod, shapes.values()))} parameters) to {args.out}")
    return 0


def cmd_sparsify(args) -> int:
    source = StoredVector(args.vector)
    epsilon = None if args.no_rescale else args.epsilon
    (info,), vector = prune_and_rescale(
        lockstep(source),
        source.shapes,
        [source.source_ft_id],
        args.retention,
        epsilon,
        Scratch(source.shapes.values()),
    )
    metadata = vector_metadata(source.source_base_id, source.source_ft_id, info)
    write_vector(args.out, source.shapes, vector, metadata)
    print(
        f"retained {info.retained_count} entries (threshold {info.threshold:.6g}, "
        f"gamma {info.rescale_gamma if info.rescale_gamma is not None else 1.0:.6g}) -> {args.out}"
    )
    return 0


def cmd_merge(args) -> int:
    parsed: list[tuple[str, float]] = []
    for spec in args.term:
        path, _, coeff = spec.rpartition("=")
        if not path:
            raise UsageError(f"--term must look like PATH=COEFF, got {spec!r}")
        value = _number(coeff)
        if not math.isfinite(value):
            raise UsageError(f"--term coefficient is not a finite number in {spec!r}")
        parsed.append((path, value))
    base = open_archive(args.base)
    # Stored vectors are read one tensor at a time: once to check, once to merge.
    terms = [(StoredVector(path), coeff) for path, coeff in parsed]
    for vector, _ in terms:
        require_finite(vector)
    merge(base, terms, args.out, out_dtype=args.dtype)
    print(f"wrote merged model to {args.out}")
    return 0


def cmd_analyze_norms(args) -> int:
    tv = StoredVector(args.vector)
    profile = layerwise_norms(tv, args.pattern)
    if args.out_csv:
        write_norms_csv(profile, args.out_csv)
    payload = {
        "per_layer": {str(k): v for k, v in profile.per_layer.items()},
        "non_layer": profile.non_layer,
        "global_norm": profile.global_norm,
    }
    if args.out_json:
        atomic_write_text(Path(args.out_json), json.dumps(payload, indent=2))
    print(json.dumps(payload))
    return 0


def cmd_analyze_interference(args) -> int:
    tv_a, tv_b = StoredVector(args.a), StoredVector(args.b)
    report = sign_interference(tv_a, tv_b, args.retain_a, args.retain_b)
    if args.out_csv:
        write_interference_csv([report], args.out_csv)
    print(
        json.dumps(
            {
                "retention_a_fraction": report.retention_a,
                "retention_b_fraction": report.retention_b,
                "conflict_ratio": report.conflict_ratio,
                "denominator_count": report.denominator_count,
            }
        )
    )
    return 0


def cmd_analyze_sweep(args) -> int:
    tv_a, tv_b = StoredVector(args.a), StoredVector(args.b)
    reports = interference_sweep(tv_a, tv_b, args.retentions, args.retain_b)
    if args.out_csv:
        write_interference_csv(reports, args.out_csv)
    for report in reports:
        print(f"{report.retention_a:.3f},{report.conflict_ratio:.6f},{report.denominator_count}")
    return 0


def cmd_analyze_modules(args) -> int:
    tv = StoredVector(args.vector)
    rules = load_module_rules(args.rules) if args.rules else DEFAULT_MODULE_RULES
    ratios = modulewise_activation(tv, args.retention, rules)
    if args.out_csv:
        write_modulewise_csv(ratios, args.retention, args.out_csv)
    print(json.dumps({cls.value: ratio for cls, ratio in ratios.items()}))
    return 0


def cmd_select_data(args) -> int:
    config = _load_config(args)
    paths = WorkspacePaths(Path(config.workspace))
    selection = select_data(config, resume=args.resume)
    print(
        f"selected {len(selection.selected)} queries "
        f"({selection.drawn_from_low} low / {selection.drawn_from_medium} medium, "
        f"backfill {selection.backfill_count}) -> {paths.adaptation_set}"
    )
    return 0


def cmd_search(args) -> int:
    config = _load_config(args)
    report = run_pipeline(config, resume=args.resume, final_merge=False)
    print(
        f"coefficients {tuple(report.coefficients)} via {report.selection_rule}; "
        f"trial log at {report.trial_log}"
    )
    return 0


def cmd_run(args) -> int:
    config = _load_config(args)
    report = run_pipeline(config, resume=args.resume, final_merge=True)
    print(
        f"merged model at {report.final_model} with coefficients "
        f"{tuple(report.coefficients)} ({report.selection_rule})"
    )
    return 0


def cmd_report(args) -> int:
    report = load_report(args.workspace)
    print(json.dumps(asdict(report), indent=2))
    return 0


# --- parser -----------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="tvfuse", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tvfuse {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract a task vector from a checkpoint pair")
    p.add_argument("--base", required=True)
    p.add_argument("--finetuned", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--base-id", default="")
    p.add_argument("--ft-id", default="")
    p.add_argument("--dtype", default="F32", choices=["F32", "F16", "BF16"])
    p.add_argument("--allow-dtype-mismatch", action="store_true")
    p.set_defaults(handler=cmd_extract)

    defaults = PipelineConfig()
    p = sub.add_parser("sparsify", help="prune a task vector and restore its norm")
    p.add_argument("--vector", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--retention", type=_fraction, default=defaults.retention_p)
    p.add_argument("--epsilon", type=_positive, default=defaults.epsilon)
    p.add_argument("--no-rescale", action="store_true")
    p.set_defaults(handler=cmd_sparsify)

    p = sub.add_parser("merge", help="base + sum(coefficient * task vector)")
    p.add_argument("--base", required=True)
    p.add_argument("--term", action="append", required=True, metavar="PATH=COEFF")
    p.add_argument("--out", required=True)
    p.add_argument("--dtype", default=None, choices=["F32", "F16", "BF16"])
    p.set_defaults(handler=cmd_merge)

    analyze = sub.add_parser("analyze", help="diagnostics over task vectors")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("norms", help="layer-wise L2 norms")
    p.add_argument("--vector", required=True)
    p.add_argument("--pattern", default=DEFAULT_LAYER_PATTERN)
    p.add_argument("--out-csv")
    p.add_argument("--out-json")
    p.set_defaults(handler=cmd_analyze_norms)

    p = asub.add_parser("sign-interference", help="opposite-sign fraction of two vectors")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--retain-a", type=_fraction, default=1.0)
    p.add_argument("--retain-b", type=_fraction, default=0.1)
    p.add_argument("--out-csv")
    p.set_defaults(handler=cmd_analyze_interference)

    p = asub.add_parser("sweep", help="interference across retentions of the first vector")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument(
        "--retentions", type=_fractions, default="1.0,0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1"
    )
    p.add_argument("--retain-b", type=_fraction, default=0.1)
    p.add_argument("--out-csv")
    p.set_defaults(handler=cmd_analyze_sweep)

    p = asub.add_parser("modules", help="module-wise activated-parameter fractions")
    p.add_argument("--vector", required=True)
    p.add_argument("--retention", type=_fraction, default=0.1)
    p.add_argument("--rules", help="JSON rule file overriding the default table")
    p.add_argument("--out-csv")
    p.set_defaults(handler=cmd_analyze_modules)

    for name, handler, description in (
        ("select-data", cmd_select_data, "score difficulty and build the adaptation set"),
        ("search", cmd_search, "search combination coefficients (no final model write)"),
        ("run", cmd_run, "full pipeline through the final merged model"),
    ):
        p = sub.add_parser(name, help=description)
        p.add_argument("--config", required=True)
        p.add_argument("--resume", action="store_true")
        p.add_argument(
            "--set",
            action="append",
            metavar="DOTTED.PATH=VALUE",
            help="override a config field, e.g. --set search.n_trials=20",
        )
        p.set_defaults(handler=handler)

    p = sub.add_parser("report", help="print and re-validate a run report")
    p.add_argument("--workspace", required=True)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TvfuseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected; still a runtime failure
        logger.exception("unhandled failure")
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
