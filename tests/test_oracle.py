"""`run_pipeline` against the dense stage-2-and-merge reference.

Generated trios mix BF16, F16 and F32 tensors, single-element ones
included. Each finetuned entry is its base entry plus a delta from a short
list, or an unrelated value. Repeated deltas make ties at the cut that
span tensors, and 1.0 with 1 + 2^-7 puts cuts on the floor of their radix
bucket with larger members in the same bucket. Unrelated values give
deltas that F32 cannot hold (2^-20 against 2^10). Exact zeros of both
signs, and arbitrary values of each storage grid, are drawn too.
"""

from __future__ import annotations

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import encode, stage2_and_merge, widen
from synth import make_query_pool
from tvfuse import archive
from tvfuse.errors import DegenerateRescaleWarning
from tvfuse.pipeline import PipelineConfig, WorkspacePaths, run_pipeline

ALPHABET = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 2.0**10, -(2.0**10), 2.0**-20]
DELTAS = [0.0, 1.0, -1.0, 1.0078125, -1.0078125, 0.5]
NAMES = ["lm_head.weight", "model.embed_tokens.weight", "model.layers.0.mlp.up_proj.weight"]
DTYPES = ["BF16", "F16", "F32"]


def on_grid(dtype: str, value: float) -> float:
    """`value` rounded to the storage grid of `dtype`."""
    return float(widen(encode(np.array([value]), dtype), dtype)[0])


def entries(dtype: str):
    """(base, sft, rlvr) values of one position, on the grid of `dtype`."""
    value = st.one_of(
        st.sampled_from(ALPHABET), st.floats(-1e3, 1e3, allow_subnormal=False, width=32)
    ).map(lambda v: on_grid(dtype, v))

    def finetuned(base: float):
        return st.one_of(st.sampled_from(DELTAS).map(lambda d: on_grid(dtype, base + d)), value)

    return value.flatmap(lambda base: st.tuples(st.just(base), finetuned(base), finetuned(base)))


@st.composite
def trios(draw):
    tensors = []
    for i in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from(DTYPES))
        rows = draw(st.lists(entries(dtype), min_size=1, max_size=6))
        tensors.append((f"{NAMES[i % len(NAMES)]}.{i}", dtype, np.array(rows).T))
    return tensors


def write_trio(directory: Path, tensors) -> dict[str, str]:
    paths = {}
    for column, label in enumerate(("base", "sft", "rlvr")):
        path = directory / f"{label}.safetensors"
        archive.write_archive(
            [(name, dtype, [values.shape[1]], values[column]) for name, dtype, values in tensors], path
        )
        paths[label] = str(path)
    return paths


COEFFICIENT = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(
    trios(),
    st.one_of(st.just(1.0), st.sampled_from([0.3, 0.5]), st.floats(0.05, 1.0)),
    st.tuples(COEFFICIENT, COEFFICIENT),
    st.sampled_from([None, *DTYPES]),
)
# Ties at the cut 1.0 in both tensors; the cut sits on its bucket's floor
# below 1 + 2^-7, and the base holds -0.0 where both vectors are zero.
@example(
    [
        ("a", "BF16", np.array([[0.0, -0.0, 0.0], [1.0078125, 0.0, 1.0], [1.0, -0.0, 1.0]])),
        ("b", "F32", np.array([[0.0, 2.0**10], [1.0, 2.0**-20], [-1.0, 2.0**10]])),
    ],
    0.5,
    (0.75, -1.25),
    None,
)
# A -0.0 delta kept at a cut of 0 (sft) where the other vector is positive,
# which is no sign conflict.
@example(
    [("a", "F32", np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -0.0, 0.0, -0.0], [0.0, 2.0, 0.0, 0.0]]))],
    0.5,
    (0.5, 1.0),
    None,
)
# Ties at the cut 1.0 are all kept in tensor a and run out inside tensor b.
@example(
    [
        ("a", "F32", np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 0.5]])),
        (
            "b",
            "BF16",
            np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, 0.5]]),
        ),
    ],
    0.5,
    (1.0, 1.0),
    "BF16",
)
def test_pipeline_matches_dense_reference(tensors, retention, coefficients, output_dtype):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        paths = write_trio(directory, tensors)
        config = PipelineConfig.from_dict(
            {
                "base_path": paths["base"],
                "sft_path": paths["sft"],
                "rlvr_path": paths["rlvr"],
                "pool_path": str(make_query_pool(directory / "pool.jsonl", count=3)),
                "workspace": str(directory / "ws"),
                "retention_p": retention,
                "m": 2,
                "n": 1,
                "fixed_coefficients": list(coefficients),
                "output_dtype": output_dtype,
            }
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_pipeline(config)
        files, summary, merged = stage2_and_merge(
            paths, retention, config.epsilon, coefficients, output_dtype
        )
        # One warning per vector that pruning leaves all zeros, and no other.
        degenerate = [
            label
            for label in ("sft", "rlvr")
            if retention < 1.0 and json.loads(summary)[label]["processed_norm"] == 0.0
        ]
        assert [w.category for w in caught] == [DegenerateRescaleWarning] * len(degenerate), [
            str(w.message) for w in caught
        ]
        ws = WorkspacePaths(Path(config.workspace))
        assert ws.tau_sft.read_bytes() == files["sft"]
        assert ws.tau_rlvr.read_bytes() == files["rlvr"]
        assert ws.vector_summary.read_text(encoding="utf-8") == summary
        assert json.loads(ws.report.read_text())["vector_summary"] == json.loads(summary)
        assert ws.merged_model.read_bytes() == merged
