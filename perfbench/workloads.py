"""Workload definitions shared by the runner, the input generator and the worker.

Each workload names an input family (the generated checkpoint trio and query
pool) and the settings the program runs with. Sizes come in two classes:
``full`` for measurement and ``tiny`` for the smoke test.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Input families: parameter count and query-pool size per size class.
INPUTS = {
    "mock": {"full": (4_194_304, 128), "tiny": (65_536, 24)},
    "http": {"full": (1_048_576, 256), "tiny": (16_384, 24)},
}
TENSOR_COUNT = 32

# Search settings per workload and size class: queries drawn (n), trials,
# TPE start-up trials.
RUN_SETTINGS = {
    ("run-mock", "full"): {"n": 32, "trials": 24, "startup": 10},
    ("run-mock", "tiny"): {"n": 8, "trials": 4, "startup": 2},
    ("run-http", "full"): {"n": 64, "trials": 12, "startup": 6},
    ("run-http", "tiny"): {"n": 8, "trials": 4, "startup": 2},
}

WORKLOADS = {
    "run-mock": {"kind": "run", "inputs": "mock", "backend": "mock"},
    "run-http": {"kind": "run", "inputs": "http", "backend": "http"},
    "analyze-sweep": {"kind": "analyze", "inputs": "mock"},
}

RETENTION_P = 0.3
SAMPLES_PER_QUERY = 5
DIFFICULTY_SAMPLES = 5
# Client concurrency is fixed at the machine budget of two cores rather than
# the config default of eight.
CONCURRENCY = 2

# `tvfuse analyze sweep` defaults, plus the module-activation retention.
SWEEP_RETENTIONS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
SWEEP_RETAIN_B = 0.1
MODULE_RETENTION = 0.1
# The sweep point recomputed by brute force in the output check.
CHECK_RETENTION = 0.5

# Mock landscape shared by the in-process backend and the HTTP server.
LANDSCAPE = {"peak": [0.8, 1.5], "falloff": 8.0, "ppl_base": 2.0, "ppl_slope": 1.0}
QUERY_JITTER = 0.3
SOURCE_ALIASES = {"sft": [0.75, 1.3], "rlvr": [0.9, 1.6]}
# The HTTP server cannot load the candidate file, so it answers for the
# candidate path as for this fixed coefficient pair.
CANDIDATE_COEFFS = [0.8, 1.45]


def input_dir(family: str, size: str, seed: int) -> Path:
    return WORK / "inputs" / f"{family}-{size}-seed{seed}"


def pipeline_config(
    workload: str, size: str, seed: int, inputs: Path, workspace: Path, url: str | None
) -> dict:
    """The config dict `run_pipeline` receives for a run-* workload."""
    spec = WORKLOADS[workload]
    settings = RUN_SETTINGS[(workload, size)]
    backend: dict = {"kind": spec["backend"]}
    if spec["backend"] == "http":
        backend.update(url=url, max_attempts=3, timeout=60.0)
    else:
        backend["mock"] = dict(
            LANDSCAPE, seed=seed, query_jitter=QUERY_JITTER, aliases=SOURCE_ALIASES
        )
    return {
        "base_path": str(inputs / "base.safetensors"),
        "sft_path": str(inputs / "sft.safetensors"),
        "rlvr_path": str(inputs / "rlvr.safetensors"),
        "pool_path": str(inputs / "pool.jsonl"),
        "workspace": str(workspace),
        "seed": seed,
        "retention_p": RETENTION_P,
        "m": DIFFICULTY_SAMPLES,
        "n": settings["n"],
        "search": {
            "n_trials": settings["trials"],
            "n_startup": settings["startup"],
            "k": SAMPLES_PER_QUERY,
            "concurrency": CONCURRENCY,
        },
        "backend": backend,
    }


def expected_requests(workload: str, size: str) -> int:
    """HTTP requests of one run-http pass: 2 per pool query, 2 per (query, trial)."""
    _, pool = INPUTS[WORKLOADS[workload]["inputs"]][size]
    settings = RUN_SETTINGS[(workload, size)]
    return 2 * pool + 2 * settings["n"] * settings["trials"]
