"""tvfuse benchmark: run one workload by name, measured from outside the program.

    python3 perfbench/run.py --workload run-mock --seed 7 --seconds 32 --trace 0

Run from the root of a source checkout. The runner

1. generates the workload's inputs from the seed in a separate process
   (`gen.py`), or reuses them for the same seed and size;
2. runs measured passes, each in a fresh process (`worker.py`), until
   ``--seconds`` are spent; ``run-http`` also starts the counting mock server
   (`server.py`) in its own process for each pass;
3. checks the outputs of every run (`checks.py`);
4. prints every metric with its unit, then one JSON line with the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
passes. With ``--trace 1`` untraced and traced passes alternate; the metrics
are the per-layer ones from the traced passes, plus the tracing overhead.
Metric names and units come from ``BENCHMARK.json``. A results file with the
per-pass numbers, output digests and a machine fingerprint is written under
``.perfbench_work/results/``. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ROOT, SRC, WORK, WORKLOADS, expected_requests, input_dir

HERE = Path(__file__).resolve().parent
# A pass, or input generation, that takes longer than this is a failure;
# it keeps a run within its 180-second limit.
CHILD_TIMEOUT = 150.0


def fingerprint() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine's virtual CPUs so far."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def child(script: str, *args: str) -> list[str]:
    return [sys.executable, str(HERE / script), *args]


def prepare_inputs(workload: str, size: str, seed: int) -> Path:
    family = WORKLOADS[workload]["inputs"]
    command = child("gen.py", "--family", family, "--size", size, "--seed", str(seed))
    if WORKLOADS[workload]["kind"] == "analyze":
        command.append("--vectors")
    subprocess.run(command, check=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
    return input_dir(family, size, seed)


class Server:
    """The counting mock server process for one run-http pass."""

    def __init__(self, seed: int, workspace: Path):
        self.proc = subprocess.Popen(
            child("server.py", "--seed", str(seed), "--workspace", str(workspace)),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        self.url = self.proc.stdout.readline().strip()
        if not self.url.startswith("http://"):
            self.close()
            raise RuntimeError("mock server did not start")

    def counters(self) -> dict:
        self.proc.stdin.close()
        line = self.proc.stdout.readline()
        self.proc.wait(timeout=30)
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()


def run_pass(args, inputs: Path, run_dir: Path, index: int, traced: bool) -> dict:
    workspace = run_dir / f"pass{index}"
    out = run_dir / f"pass{index}.json"
    command = child(
        "worker.py",
        "--workload", args.workload,
        "--size", args.size,
        "--seed", str(args.seed),
        "--inputs", str(inputs),
        "--workspace", str(workspace),
        "--out", str(out),
    )
    if traced:
        command.append("--trace")
    server = Server(args.seed, workspace) if WORKLOADS[args.workload].get("backend") == "http" else None
    try:
        if server is not None:
            command += ["--url", server.url]
        stolen = steal_seconds()
        subprocess.run(command, check=True, timeout=CHILD_TIMEOUT, cwd=ROOT)
        stolen = steal_seconds() - stolen
        counters = server.counters() if server is not None else None
    finally:
        if server is not None:
            server.close()
    result = json.loads(out.read_text())
    result.update(index=index, traced=traced, workspace=str(workspace), server=counters, steal_s=stolen)
    return result


def check_pass(args, inputs: Path, result: dict, first: dict | None) -> list[str]:
    """Checks of one pass; the full recomputation runs on the first pass only."""
    import checks

    workspace = Path(result["workspace"])
    problems = []
    if WORKLOADS[args.workload]["kind"] == "run":
        result["digests"] = checks.run_digests(workspace)
        if result["trials_logged"] != result["trials_expected"]:
            problems.append(f"{result['trials_logged']} trials logged, expected {result['trials_expected']}")
        if first is None:
            problems += checks.check_merged(inputs, workspace, result["coefficients"])
    else:
        result["digests"] = checks.analyze_digests(workspace)
        if first is None:
            problems += checks.check_sweep(inputs, result["sweep_check"])
    if result["server"] is not None:
        calls = result["layers"]["_client_calls"] if result["traced"] else None
        problems += checks.check_requests(result["server"], expected_requests(args.workload, args.size), calls)
    if first is not None and result["digests"] != first["digests"]:
        problems.append(f"pass {result['index']} outputs differ from pass 0: {result['digests']} vs {first['digests']}")
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} backend evaluations failed")
    return problems


def layer_values(result: dict, untraced_run_s: float) -> dict[str, float]:
    layers = {k: v for k, v in result["layers"].items() if not k.startswith("_")}
    server = result["server"]
    calls = layers["evaluator.calls"]
    if server is not None and calls:
        layers["evaluator.server_requests"] = server["requests"]
        layers["evaluator.retry_frac"] = (server["requests"] - calls) / calls
        layers["evaluator.connections_per_request"] = server["connections"] / server["requests"]
    else:
        layers.update({"evaluator.server_requests": 0, "evaluator.retry_frac": 0.0, "evaluator.connections_per_request": 0.0})
    layers["evaluator.failed_frac"] = result["failed"] / result["attempted"]
    layers["trace.overhead_s"] = result["run_s"] - untraced_run_s
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size class; 'tiny' is for the smoke test")
    args = parser.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "tvfuse" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"no tvfuse source tree and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    inputs = prepare_inputs(args.workload, args.size, args.seed)
    run_id = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / "runs" / f"{run_id}-pid{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    passes: list[dict] = []
    problems: list[str] = []
    minimum = 2 if args.trace else 1
    started = time.perf_counter()
    try:
        while True:
            # Start another pass only if, at the mean pass time so far, the
            # run would end nearer to --seconds than it does now.
            elapsed = time.perf_counter() - started
            if len(passes) >= minimum and elapsed + elapsed / len(passes) / 2 > args.seconds:
                break
            index = len(passes)
            result = run_pass(args, inputs, run_dir, index, traced=bool(args.trace) and index % 2 == 1)
            problems += check_pass(args, inputs, result, passes[0] if passes else None)
            if result["traced"]:
                spans = run_dir / f"pass{index}.spans.jsonl"
                spans.replace(results_dir / f"{run_id}.pass{index}.spans.jsonl")
            passes.append(result)
            shutil.rmtree(result["workspace"], ignore_errors=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        base_run_s = statistics.median(p["run_s"] for p in untraced)
        rows = [layer_values(p, base_run_s) for p in passes if p["traced"]]
        values = {name: statistics.median(row[name] for row in rows) for name in units}
    else:
        values = {name: statistics.median(p[name] for p in untraced) for name in units}

    correct = not problems
    summary = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint(),
        "correct": correct,
        "problems": problems,
        "digests": passes[0]["digests"],
        "metrics": values,
        "passes": [{k: v for k, v in p.items() if k != "workspace"} for p in passes],
    }
    results_file = results_dir / f"{run_id}.json"
    results_file.write_text(json.dumps(summary, indent=2), encoding="utf-8")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    # Host steal time is printed, not reported: it explains outliers on a
    # shared virtual machine but is no property of the program.
    steal = sum(p["steal_s"] for p in passes)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} steal={steal:.2f}s results={results_file.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    line = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
