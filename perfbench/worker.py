"""One measured pass of a workload, in a fresh process.

    python3 perfbench/worker.py --workload run-mock --size full --seed 7 \
        --inputs DIR --workspace DIR --out result.json [--url URL] [--trace]

The process measures itself: wall time of the timed operation, its stage
seconds from the run's own ``report.json`` and its peak resident set size
(``ru_maxrss``), which is clean because the inputs were generated in another
process. With ``--trace`` it installs the wrappers of `tracing` first and
adds the per-layer numbers; spans are written next to the result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from workloads import (
    CHECK_RETENTION,
    MODULE_RETENTION,
    SRC,
    SWEEP_RETAIN_B,
    SWEEP_RETENTIONS,
    WORKLOADS,
    pipeline_config,
)

sys.path.insert(0, str(SRC))

import tvfuse.archive as archive  # noqa: E402
import tvfuse.diagnostics as diagnostics  # noqa: E402
import tvfuse.optimizer.search as search  # noqa: E402
import tvfuse.pipeline as pipeline  # noqa: E402
import tvfuse.task_vector as task_vector  # noqa: E402

from tracing import ROOT_SPANS, STAGE_PREFIX, Tracer  # noqa: E402


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def install(tracer: Tracer) -> None:
    """Wrap the program's functions where each module imports them."""
    add = tracer.add

    def on_narrow(args, kwargs, result):
        add("narrow_bytes", len(result))

    def on_read(args, kwargs, result):
        add("bytes_read", result.meta.num_bytes)

    def on_write(args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        add("bytes_written", os.path.getsize(path))
        add("files_written", 1)

    def on_sparsify(args, kwargs, result):
        # The raw vectors stay referenced for the whole run, so their ids are
        # stable keys for counting distinct (vector, retention) pairs.
        retention = args[1] if len(args) > 1 else kwargs["p"]
        tracer.sparsify_keys.add((id(args[0]), float(retention)))

    tracer.patch(archive, "narrow_from_f64", "floats.narrow_from_f64", on_narrow)
    tracer.patch(archive, "widen_to_f64", "floats.widen_to_f64")
    tracer.patch(archive, "read_tensor", "archive.read_tensor", on_read)
    tracer.patch(task_vector, "read_tensor", "archive.read_tensor", on_read)
    tracer.patch(task_vector, "write_archive", "archive.write_archive", on_write)
    tracer.patch(task_vector, "quantile_threshold", "task_vector.quantile_threshold")
    tracer.patch(task_vector, "sparsify", "task_vector.sparsify", on_sparsify)
    tracer.patch(task_vector, "load_task_vector", "task_vector.load")
    tracer.patch(diagnostics, "sparsify", "task_vector.sparsify", on_sparsify)
    tracer.patch(diagnostics, "sign_interference", "diagnostics.sign_interference")
    tracer.patch(diagnostics, "layerwise_norms", "diagnostics.layerwise_norms")
    tracer.patch(diagnostics, "modulewise_activation", "diagnostics.modulewise_activation")
    for writer in ("write_interference_csv", "write_norms_csv", "write_modulewise_csv"):
        tracer.patch(diagnostics, writer, "diagnostics.write_csv")
    tracer.patch(pipeline, "extract_task_vector", "task_vector.extract")
    tracer.patch(pipeline, "load_task_vector", "task_vector.load")
    tracer.patch(pipeline, "sparsify_and_rescale", "task_vector.sparsify_and_rescale")
    tracer.patch(pipeline, "global_l2_norm", "task_vector.global_l2_norm")
    tracer.patch(pipeline, "merge", "task_vector.merge")
    tracer.patch(pipeline, "sign_interference", "diagnostics.sign_interference")
    tracer.patch(pipeline, "score_difficulty", "adaptation.score_difficulty")
    tracer.patch(pipeline, "run_search", "optimizer.run_search")
    tracer.patch(search, "tpe_suggest", "optimizer.tpe_suggest")
    # No public function marks the stage and per-trial evaluation
    # boundaries, so these wrap the module-level private functions.
    tracer.patch(search, "_evaluate_trial", "pipeline.evaluate_trial")
    for attr, stage in (
        ("_stage_select_data", "select-data"),
        ("_stage_task_vectors", "task-vectors"),
        ("_stage_search", "search"),
        ("_stage_final_merge", "final-merge"),
    ):
        tracer.patch_stage(pipeline, attr, stage)

    def trace_builder(original):
        traced = tracer.wrap("pipeline.make_merge_builder", original)
        return lambda *args, **kwargs: tracer.wrap("pipeline.candidate_build", traced(*args, **kwargs))

    def trace_backend(original):
        def build_backend(config):
            backend = original(config)
            backend.generate = tracer.wrap("evaluator.generate", backend.generate)
            backend.score = tracer.wrap("evaluator.score", backend.score)
            return backend

        return build_backend

    tracer.replace(pipeline, "make_merge_builder", trace_builder)
    tracer.replace(pipeline, "build_backend", trace_backend)


def _quantile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer, params: int, run_s: float, trials: int) -> dict[str, float]:
    """Per-layer numbers from the spans; `_s` totals are self times."""
    spans = tracer.by_name()
    values = tracer.values

    def self_s(name: str) -> float:
        return spans[name]["self"] if name in spans else 0.0

    def durations(name: str) -> list[float]:
        return spans[name]["durations"] if name in spans else []

    def count(name: str) -> int:
        return len(durations(name))

    merges = durations("task_vector.merge")
    builds = durations("pipeline.candidate_build")
    evals = durations("pipeline.evaluate_trial")
    generate = durations("evaluator.generate")
    score = durations("evaluator.score")
    sparsify_calls = count("task_vector.sparsify")

    overhead = 0.0
    if trials and "optimizer.tpe_suggest" in spans and evals:
        wall = max(spans["pipeline.evaluate_trial"]["ends"]) - min(spans["optimizer.tpe_suggest"]["starts"])
        overhead = (wall - sum(builds) - sum(evals)) / trials

    finish = 0.0
    root = spans.get("pipeline.run")
    final = spans.get(STAGE_PREFIX + "final-merge")
    if root and final:
        finish = max(root["ends"]) - max(final["ends"])

    container_self = sum(
        entry["self"] for name, entry in spans.items() if name in ROOT_SPANS or name.startswith(STAGE_PREFIX)
    )
    peaks = tracer.stage_peak_rss
    return {
        "floats.narrow_s": self_s("floats.narrow_from_f64"),
        "floats.narrow_mb": values["narrow_bytes"] / 1e6,
        "floats.widen_s": self_s("floats.widen_to_f64"),
        "archive.read_s": self_s("archive.read_tensor"),
        "archive.bytes_read": values["bytes_read"],
        "archive.write_self_s": self_s("archive.write_archive"),
        "archive.bytes_written": values["bytes_written"],
        "archive.files_written": values["files_written"],
        "task_vector.extract_s": self_s("task_vector.extract"),
        "task_vector.load_s": self_s("task_vector.load"),
        "task_vector.threshold_s": self_s("task_vector.quantile_threshold"),
        "task_vector.sparsify_s": self_s("task_vector.sparsify"),
        "task_vector.rescale_s": self_s("task_vector.sparsify_and_rescale"),
        "task_vector.norm_s": self_s("task_vector.global_l2_norm"),
        "task_vector.sparsify_calls": sparsify_calls,
        "task_vector.sparsify_useful_ratio": (
            len(tracer.sparsify_keys) / sparsify_calls if sparsify_calls else 0.0
        ),
        "task_vector.merge_calls": len(merges),
        "task_vector.merge_s.p50": _quantile(merges, 50),
        "task_vector.merge_us_per_mparam": _quantile(merges, 50) * 1e6 / (params / 1e6),
        "diagnostics.sign_interference_s": self_s("diagnostics.sign_interference"),
        "diagnostics.norms_s": self_s("diagnostics.layerwise_norms"),
        "diagnostics.modules_s": self_s("diagnostics.modulewise_activation"),
        "diagnostics.csv_s": self_s("diagnostics.write_csv"),
        "adaptation.score_difficulty_s": sum(durations("adaptation.score_difficulty")),
        "evaluator.calls": len(generate) + len(score),
        "evaluator.generate_ms.p50": _quantile(generate, 50) * 1e3,
        "evaluator.generate_ms.p99": _quantile(generate, 99) * 1e3,
        "evaluator.score_ms.p50": _quantile(score, 50) * 1e3,
        "evaluator.score_ms.p99": _quantile(score, 99) * 1e3,
        "evaluator.failed_calls": values["evaluator.generate.errors"] + values["evaluator.score.errors"],
        "optimizer.suggest_ms.p50": _quantile(durations("optimizer.tpe_suggest"), 50) * 1e3,
        "optimizer.trial_overhead_s": overhead,
        "pipeline.candidate_build_s.p50": _quantile(builds, 50),
        "pipeline.evaluate_s.p50": _quantile(evals, 50),
        "pipeline.peak_rss_b_per_param.task-vectors": peaks.get("task-vectors", 0) / params,
        "pipeline.peak_rss_b_per_param.search": peaks.get("search", 0) / params,
        "pipeline.finish_s": finish,
        "trace.coverage": 1.0 - container_self / run_s,
        "_client_calls": {"/generate": len(generate), "/score": len(score)},
    }


def run_pipeline_pass(args, meta: dict, tracer: Tracer | None) -> dict:
    params = meta["params"]
    config = pipeline.PipelineConfig.from_dict(
        pipeline_config(args.workload, args.size, args.seed, Path(args.inputs), Path(args.workspace), args.url)
    )
    run = pipeline.run_pipeline if tracer is None else tracer.wrap("pipeline.run", pipeline.run_pipeline)
    started = time.perf_counter()
    report = run(config)
    run_s = time.perf_counter() - started
    peak = peak_rss_bytes()

    trials = config.search.n_trials
    stages = report.stage_seconds
    paths = pipeline.WorkspacePaths(Path(args.workspace))
    failures_path = paths.stage1 / "scoring_failures.json"
    failed = len(json.loads(failures_path.read_text())) if failures_path.exists() else 0
    logged = 0
    for line in paths.trial_log.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        logged += 1
        failed += config.n if record["status"] == "failed" else record["failed_query_count"]
    return {
        "run_s": run_s,
        "setup_s": stages["select-data"] + stages["task-vectors"],
        "trial_s": stages["search"] / trials,
        "peak_rss_b_per_param": peak / params,
        "attempted": meta["pool"] + config.n * trials,
        "failed": failed,
        "trials_logged": logged,
        "trials_expected": trials,
        "coefficients": report.coefficients,
        "stage_seconds": stages,
    }


def analyze_pass(args, meta: dict, tracer: Tracer | None) -> dict:
    params = meta["params"]
    inputs, out = Path(args.inputs), Path(args.workspace)
    out.mkdir(parents=True, exist_ok=True)

    def workload():
        t0 = time.perf_counter()
        tau_a = task_vector.load_task_vector(inputs / "tau_sft.safetensors")
        tau_b = task_vector.load_task_vector(inputs / "tau_rlvr.safetensors")
        t1 = time.perf_counter()
        reports = diagnostics.interference_sweep(tau_a, tau_b, SWEEP_RETENTIONS, SWEEP_RETAIN_B)
        t2 = time.perf_counter()
        profile = diagnostics.layerwise_norms(tau_a)
        ratios = diagnostics.modulewise_activation(tau_a, MODULE_RETENTION)
        diagnostics.write_interference_csv(reports, out / "sweep.csv")
        diagnostics.write_norms_csv(profile, out / "norms.csv")
        diagnostics.write_modulewise_csv(ratios, MODULE_RETENTION, out / "modules.csv")
        return t1 - t0, t2 - t1, reports

    run = workload if tracer is None else tracer.wrap("analyze.run", workload)
    started = time.perf_counter()
    load_s, sweep_s, reports = run()
    run_s = time.perf_counter() - started
    peak = peak_rss_bytes()
    checked = [r for r in reports if r.retention_a == CHECK_RETENTION]
    return {
        "run_s": run_s,
        "setup_s": load_s,
        "trial_s": sweep_s / len(SWEEP_RETENTIONS),
        "peak_rss_b_per_param": peak / params,
        "attempted": len(reports),
        "failed": 0,
        "sweep_check": dataclasses.asdict(checked[0]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workspace", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--url")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    meta = json.loads((Path(args.inputs) / "meta.json").read_text())
    tracer = None
    if args.trace:
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        install(tracer)
        tracer.start()
    try:
        if WORKLOADS[args.workload]["kind"] == "run":
            result = run_pipeline_pass(args, meta, tracer)
        else:
            result = analyze_pass(args, meta, tracer)
    finally:
        if tracer is not None:
            tracer.stop()
    if tracer is not None:
        trials = result.get("trials_expected", 0)
        result["layers"] = layer_metrics(tracer, meta["params"], result["run_s"], trials)
        tracer.write(Path(args.out).with_suffix(".spans.jsonl"))
    result["params"] = meta["params"]
    Path(args.out).write_text(json.dumps(result, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
