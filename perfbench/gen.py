"""Seeded input generator. It runs in its own process, never the measured one.

    python3 perfbench/gen.py --family mock --size full --seed 7 [--vectors]

Writes into the family's input directory:

- ``base``/``sft``/``rlvr.safetensors``: a synthetic BF16 trio of
  ``TENSOR_COUNT`` tensors with uneven sizes (largest 1.5x the mean);
- ``pool.jsonl``: the unlabeled query pool;
- with ``--vectors``, ``tau_sft``/``tau_rlvr.safetensors``: the raw F32 task
  vectors, extracted and saved by the program as ``tvfuse extract`` does;
- ``meta.json``: parameter count, tensor count and largest-tensor size,
  written last, so an interrupted generation is redone.

An input set that already exists for the same seed and size is reused.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import numpy as np

import tensorfile
from workloads import INPUTS, SRC, TENSOR_COUNT, input_dir

COLUMNS = 64
_KINDS = ("self_attn.q_proj", "self_attn.k_proj", "self_attn.o_proj", "mlp.up_proj", "mlp.down_proj")
# Input sets kept on disk per size class; older ones are deleted.
KEEP_SETS = 3


def tensor_layout(params: int) -> list[tuple[str, tuple[int, int]]]:
    """Names and shapes: sizes spread linearly over 0.5x..1.5x the mean."""
    mean = params / TENSOR_COUNT
    factors = 0.5 + np.arange(TENSOR_COUNT) / (TENSOR_COUNT - 1)
    # A fixed shuffle, so large and small tensors interleave in name order.
    factors = factors[np.random.default_rng(0).permutation(TENSOR_COUNT)]
    names = ["model.embed_tokens.weight"]
    names += [f"model.layers.{i // 5}.{_KINDS[i % 5]}.weight" for i in range(TENSOR_COUNT - 2)]
    names.append("lm_head.weight")
    return [(name, (max(1, round(mean * f / COLUMNS)), COLUMNS)) for name, f in zip(names, factors)]


def to_bf16(values: np.ndarray) -> np.ndarray:
    """Round float32 values to BF16 bit patterns, ties to even (no NaNs here)."""
    bits = values.astype(np.float32).view(np.uint32)
    return ((bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))) >> np.uint32(16)).astype(
        np.uint16
    )


def write_trio(out, params: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    layout = tensor_layout(params)
    trio: dict[str, list] = {"base": [], "sft": [], "rlvr": []}
    for name, shape in layout:
        count = shape[0] * shape[1]
        base = rng.standard_normal(count, dtype=np.float32) * np.float32(0.02)
        sft = base + rng.standard_normal(count, dtype=np.float32) * np.float32(2e-3)
        # RLVR updates are smaller; after BF16 rounding about 7% of the task
        # vector's entries are zero. With sparse updates (54-72% zeros) the
        # program's exact threshold (np.partition over many tied magnitudes)
        # took 0.04 s on some seeds and 0.5 s on others for the same size,
        # a spread no regression bound can hold.
        rlvr = base + rng.standard_normal(count, dtype=np.float32) * np.float32(5e-4)
        for label, values in (("base", base), ("sft", sft), ("rlvr", rlvr)):
            trio[label].append((name, shape, "BF16", to_bf16(values)))
    for label, tensors in trio.items():
        tensorfile.write(out / f"{label}.safetensors", tensors)
    sizes = [shape[0] * shape[1] for _, shape in layout]
    return {"params": sum(sizes), "tensors": len(sizes), "largest": max(sizes)}


def write_pool(out, count: int, seed: int) -> None:
    rng = np.random.default_rng([seed, 2])
    lines = []
    for i in range(count):
        a, b, c = (int(x) for x in rng.integers(2, 999, size=3))
        lines.append(json.dumps({"id": f"q{i:04d}", "text": f"Compute {a} * {b} + {c} and give the result."}))
    (out / "pool.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_vectors(out) -> None:
    sys.path.insert(0, str(SRC))
    from tvfuse.archive import open_archive
    from tvfuse.task_vector import extract_task_vector, save_task_vector

    base = open_archive(out / "base.safetensors")
    for label in ("sft", "rlvr"):
        tv = extract_task_vector(base, open_archive(out / f"{label}.safetensors"))
        save_task_vector(tv, out / f"tau_{label}.safetensors")
        del tv


def evict_old_sets(family: str, size: str, keep) -> None:
    sets = sorted(keep.parent.glob(f"{family}-{size}-seed*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in sets[KEEP_SETS:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=sorted(INPUTS), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--vectors", action="store_true")
    args = parser.parse_args()

    params, pool = INPUTS[args.family][args.size]
    out = input_dir(args.family, args.size, args.seed)
    out.mkdir(parents=True, exist_ok=True)
    meta_path = out / "meta.json"
    if not meta_path.exists():
        meta = write_trio(out, params, args.seed)
        write_pool(out, pool, args.seed)
        meta.update(family=args.family, size=args.size, seed=args.seed, pool=pool)
        meta_path.write_text(json.dumps(meta, indent=2), encoding="utf-8")
    marker = out / "vectors.done"
    if args.vectors and not marker.exists():
        write_vectors(out)
        marker.write_text("", encoding="utf-8")
    out.touch()
    evict_old_sets(args.family, args.size, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
