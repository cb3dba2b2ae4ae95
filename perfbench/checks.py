"""Output checks and digests. They run after the timed region of every run.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

import tensorfile
from workloads import SRC

sys.path.insert(0, str(SRC))

# The program's reference BF16 narrowing serves as the oracle.
from tvfuse.floats import f64_to_bf16_bits  # noqa: E402


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_digests(workspace: Path) -> dict[str, str]:
    files = {
        "merged_model": workspace / "merged_model.safetensors",
        "tau_sft": workspace / "stage2" / "tau_sft.safetensors",
        "tau_rlvr": workspace / "stage2" / "tau_rlvr.safetensors",
        "trials": workspace / "stage3" / "trials.jsonl",
    }
    return {label: sha256(path) for label, path in files.items()}


def analyze_digests(workspace: Path) -> dict[str, str]:
    return {name: sha256(workspace / f"{name}.csv") for name in ("sweep", "norms", "modules")}


def check_merged(inputs: Path, workspace: Path, coefficients: list[float]) -> list[str]:
    """Every merged tensor equals bf16(base + c_sft * tau_sft + c_rlvr * tau_rlvr)."""
    c_sft, c_rlvr = coefficients
    tau_sft = tensorfile.read_f64(workspace / "stage2" / "tau_sft.safetensors")
    tau_rlvr = tensorfile.read_f64(workspace / "stage2" / "tau_rlvr.safetensors")
    merged = {name: (dtype, raw) for name, dtype, raw in tensorfile.iter_raw(workspace / "merged_model.safetensors")}
    problems = []
    seen = 0
    for name, dtype, raw in tensorfile.iter_raw(inputs / "base.safetensors"):
        if name not in merged:
            problems.append(f"merged model lacks tensor {name}")
            continue
        seen += 1
        out_dtype, out_raw = merged[name]
        acc = tensorfile.widen(dtype, raw)
        acc = acc + c_sft * tau_sft[name]
        acc = acc + c_rlvr * tau_rlvr[name]
        if out_dtype != "BF16" or not np.array_equal(out_raw, f64_to_bf16_bits(acc)):
            problems.append(f"merged tensor {name} differs from the recomputed merge")
    if seen != len(merged):
        problems.append(f"merged model has {len(merged)} tensors, base has {seen}")
    return problems


def _top_fraction(path: Path, retention: float) -> np.ndarray:
    """Flat vector keeping its ceil(p*N) largest magnitudes, ties by position (full sort)."""
    flat = np.concatenate(list(tensorfile.read_f64(path).values()))
    k = min(max(math.ceil(retention * flat.size - 1e-9), 1), flat.size)
    keep = np.argsort(-np.abs(flat), kind="stable")[:k]
    out = np.zeros_like(flat)
    out[keep] = flat[keep]
    return out


def check_sweep(inputs: Path, reported: dict) -> list[str]:
    """Recount one sweep point's sign conflicts by brute force."""
    a = _top_fraction(inputs / "tau_sft.safetensors", reported["retention_a"])
    b = _top_fraction(inputs / "tau_rlvr.safetensors", reported["retention_b"])
    support = b != 0.0
    denominator = int(np.count_nonzero(support))
    conflicts = int(np.count_nonzero(np.sign(a[support]) * np.sign(b[support]) < 0))
    ratio = conflicts / denominator if denominator else 0.0
    if denominator != reported["denominator_count"] or ratio != reported["conflict_ratio"]:
        return [
            f"sweep at retention {reported['retention_a']}: program reports "
            f"{reported['conflict_ratio']!r} over {reported['denominator_count']}, "
            f"brute force gives {ratio!r} over {denominator}"
        ]
    return []


def check_requests(server: dict, expected: int, client_calls: dict | None) -> list[str]:
    """Server saw exactly the expected requests, no 5xx, and (traced) no retries."""
    problems = []
    if server["requests"] != expected:
        problems.append(f"server saw {server['requests']} requests, expected {expected}")
    if server["server_errors"]:
        problems.append(f"server sent {server['server_errors']} 5xx replies")
    if client_calls is not None and client_calls != server["routes"]:
        problems.append(f"client calls {client_calls} differ from server requests {server['routes']}")
    return problems
