"""Passes cut tensors into blocks of at most `BLOCK` values: every result at
the block edges matches the dense references, and memory stays one block's.

Tensors of 1, BLOCK - 1, BLOCK, BLOCK + 1 and 2 * BLOCK + 8 values and a
1-D bias go through stage 2, the merge, the sweep, the layer norms and the
module activation. The references in `reference.py` work on whole tensors
and whole vectors.
"""

from __future__ import annotations

import json
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from reference import interference, layer_norms, module_activation, stage2_and_merge
from synth import make_config, make_query_pool
from tvfuse import archive
from tvfuse import diagnostics as diag
from tvfuse import pipeline
from tvfuse import task_vector as tvec
from tvfuse.blocks import BLOCK, blocks
from tvfuse.pipeline import PipelineConfig, WorkspacePaths, load_config, run_pipeline

EDGE_SHAPES = {
    "lm_head.weight": (8, 16_385),  # 2 * BLOCK + 8: blocks of BLOCK, BLOCK / 2 and BLOCK / 2 + 8
    "model.embed_tokens.weight": (256, 256),  # BLOCK
    "model.layers.0.mlp.up_proj.weight": (BLOCK + 1,),
    "model.layers.0.self_attn.q_proj.bias": (64,),
    "model.layers.1.mlp.down_proj.weight": (255, 257),  # BLOCK - 1
    "model.norm.weight": (1,),
}


def test_the_edge_shapes_cut_where_the_pairwise_sum_splits():
    sizes = {name: math.prod(shape) for name, shape in EDGE_SHAPES.items()}
    cuts = {name: [(b.start, b.stop) for b in blocks(name, size)] for name, size in sizes.items()}
    assert cuts["lm_head.weight"] == [(0, BLOCK), (BLOCK, BLOCK + BLOCK // 2), (BLOCK + BLOCK // 2, 2 * BLOCK + 8)]
    assert cuts["model.layers.0.mlp.up_proj.weight"] == [(0, BLOCK // 2), (BLOCK // 2, BLOCK + 1)]
    for name in ("model.embed_tokens.weight", "model.layers.1.mlp.down_proj.weight", "model.norm.weight"):
        assert cuts[name] == [(0, sizes[name])]


def write_edge_trio(directory: Path, seed: int) -> dict[str, str]:
    """A BF16 trio of `EDGE_SHAPES` whose deltas lie on a coarse grid, so
    many tie at each cut."""
    rng = np.random.default_rng(seed)
    paths = {}
    base = {name: rng.standard_normal(math.prod(shape)) * 0.02 for name, shape in EDGE_SHAPES.items()}
    for label, scale in (("base", 0.0), ("sft", 4.0), ("rlvr", 1.0)):
        path = directory / f"{label}.safetensors"
        entries = [
            (name, "BF16", list(shape), base[name] + scale * rng.integers(-3, 4, values.size) / 1024)
            for (name, shape), values in zip(EDGE_SHAPES.items(), base.values())
        ]
        archive.write_archive(entries, path)
        paths[label] = str(path)
    return paths


def flat(named: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([named[name].ravel() for name in archive.byte_sorted(named)])


@pytest.fixture(scope="module")
def edge_trio(tmp_path_factory):
    directory = tmp_path_factory.mktemp("edges")
    paths = write_edge_trio(directory, seed=31)
    base = archive.open_archive(paths["base"])
    raw = {label: tvec.extract_task_vector(base, archive.open_archive(paths[label])) for label in ("sft", "rlvr")}
    return directory, paths, raw


def test_stage_two_and_the_merge_match_the_dense_reference_at_block_edges(edge_trio):
    directory, paths, raw = edge_trio
    retention, coefficients, output_dtype = 0.3, (0.8, 1.5), "BF16"
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
    run_pipeline(config)
    files, summary, merged = stage2_and_merge(paths, retention, config.epsilon, coefficients, output_dtype)
    ws = WorkspacePaths(Path(config.workspace))
    assert ws.tau_sft.read_bytes() == files["sft"]
    assert ws.tau_rlvr.read_bytes() == files["rlvr"]
    assert ws.vector_summary.read_text(encoding="utf-8") == summary
    assert ws.merged_model.read_bytes() == merged
    # The deltas tie at both cuts, so the tie rule decides inside a block.
    for label in ("sft", "rlvr"):
        sparsity = json.loads(summary)[label]
        deltas = np.abs(flat(raw[label].tensors))
        ties = np.count_nonzero(deltas == sparsity["threshold"])
        assert sparsity["threshold"] > 0 and ties > sparsity["retained_count"] - np.count_nonzero(
            deltas > sparsity["threshold"]
        )


@pytest.mark.parametrize("stored", [False, True], ids=["resident", "stored"])
def test_diagnostics_match_the_dense_references_at_block_edges(edge_trio, tmp_path, stored):
    _, _, raw = edge_trio
    sources = dict(raw)
    named = {label: vector.tensors for label, vector in raw.items()}
    if stored:
        # Stored as F32, which need not hold every delta of two BF16 values.
        for label, vector in raw.items():
            tvec.save_task_vector(vector, tmp_path / f"{label}.safetensors")
            sources[label] = tvec.StoredVector(tmp_path / f"{label}.safetensors")
            named[label] = tvec.load_task_vector(tmp_path / f"{label}.safetensors").tensors
    a, b = flat(named["sft"]), flat(named["rlvr"])
    retentions = [1.0, 0.7, 0.5, 0.3, 0.1]
    reports = diag.interference_sweep(sources["sft"], sources["rlvr"], retentions, 0.2)
    for retention, report in zip(retentions, reports):
        assert (report.conflict_ratio, report.denominator_count) == interference(a, b, retention, 0.2)

    per_layer, non_layer, global_norm = layer_norms(named["sft"], diag.DEFAULT_LAYER_PATTERN)
    profile = diag.layerwise_norms(sources["sft"])
    assert (profile.per_layer, profile.non_layer, profile.global_norm) == (per_layer, non_layer, global_norm)

    def classify(name):
        return diag.classify_module(name, diag.DEFAULT_MODULE_RULES)

    for retention in (0.5, 0.1):
        expected = module_activation(named["sft"], retention, classify)
        assert diag.modulewise_activation(sources["sft"], retention) == expected


def tied_vector(size: int, seed: int) -> tvec.TaskVector:
    """One tensor of `size` values, each ±1 except every 7th, ±2, so a cut at
    a retention above 1/7 lies among tens of thousands of ties at 1."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], size)
    values[::7] *= 2.0
    return tvec.TaskVector({"t": values}, {"t": (size,)}, source_base_id="", source_ft_id="")


def test_sweep_counts_ties_that_run_out_inside_a_block_and_at_its_edge():
    # One tensor of 2 * BLOCK + 8 values: blocks [0, BLOCK), [BLOCK, 3 * BLOCK / 2)
    # and [3 * BLOCK / 2, 2 * BLOCK + 8). `tv_a`'s ties at 1 all lie after
    # its ±2 entries in rank, so a cut keeps the first k - count_above ties.
    size = 2 * BLOCK + 8
    tv_a, tv_b = tied_vector(size, 1), tied_vector(size, 2)
    a, b = tv_a.tensors["t"], tv_b.tensors["t"]
    above = int(np.count_nonzero(np.abs(a) == 2.0))
    ties_before_edge = BLOCK - int(np.count_nonzero(np.abs(a[:BLOCK]) == 2.0))
    # At the edge: the last tie kept is the last of the first block's ties.
    at_edge = (above + ties_before_edge) / size
    # Inside: half-way into the second block's ties.
    inside = (above + ties_before_edge + 10_000) / size
    retentions = [1.0, at_edge, inside, 0.3]
    cuts = tvec.quantile_threshold(tv_a, retentions)
    assert [cut.threshold for cut in cuts[1:3]] == [1.0, 1.0]
    assert cuts[1].k - cuts[1].count_above == ties_before_edge
    assert np.count_nonzero(np.abs(a) == 1.0) > ties_before_edge + 10_000
    kept = np.flatnonzero(np.abs(a) == 1.0)[cuts[1].k - cuts[1].count_above - 1]
    assert kept < BLOCK <= np.flatnonzero(np.abs(a) == 1.0)[cuts[1].k - cuts[1].count_above]
    for retention_b in (1.0, 0.5, 0.1):
        reports = diag.interference_sweep(tv_a, tv_b, retentions, retention_b)
        for retention, report in zip(retentions, reports):
            assert (report.conflict_ratio, report.denominator_count) == interference(
                a, b, retention, retention_b
            ), (retention, retention_b)


def write_fixed_trio(directory: Path, count: int) -> dict[str, Path]:
    """A BF16 trio of 2^20 parameters in `count` equal tensors, each above BLOCK."""
    size = (1 << 20) // count
    rng = np.random.default_rng(count)
    names = [f"model.layers.{i}.mlp.up_proj.weight" for i in range(count)]
    base = {name: rng.standard_normal(size) * 0.02 for name in names}
    directory.mkdir(parents=True, exist_ok=True)
    checkpoints = {}
    for label, scale in (("base", 0.0), ("sft", 2e-3), ("rlvr", 5e-4)):
        checkpoints[label] = directory / f"{label}.safetensors"
        archive.write_archive(
            [(name, "BF16", [size], values + rng.standard_normal(size) * scale) for name, values in base.items()],
            checkpoints[label],
        )
    return checkpoints


def test_memory_stays_one_blocks_worth_as_the_largest_tensor_grows(tmp_path):
    # The same 2^20 parameters as 8 tensors of 2 * BLOCK and as 2 of 8 * BLOCK.
    pool = make_query_pool(tmp_path / "pool.jsonl")
    peaks = {}
    for count in (8, 2):
        directory = tmp_path / str(count)
        config = load_config(make_config(directory, write_fixed_trio(directory, count), pool, directory / "ws"), {})
        paths = WorkspacePaths(Path(config.workspace))
        digests = pipeline._checkpoint_digests(config)
        # tracemalloc counts every thread's allocations: a thread that an
        # earlier test left running would show up as a higher peak.
        assert threading.enumerate() == [threading.main_thread()], threading.enumerate()
        tracemalloc.start()
        try:
            pipeline._stage_task_vectors(config, paths, digests, resume=False)
            stage_two = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            pipeline._stage_final_merge(config, paths, (0.8, 1.5))
            final_merge = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            diag.interference_sweep(
                tvec.StoredVector(paths.tau_sft), tvec.StoredVector(paths.tau_rlvr), [1.0, 0.5, 0.1], 0.1
            )
            sweep = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[count] = (stage_two, final_merge, sweep)
    # In float64 blocks' bytes: a tensor of 8 * BLOCK values alone would be 8.
    # Stage 2 also holds each vector's select counters, 2^17 integers, and
    # the sweep its keep masks.
    block_bytes = BLOCK * 8
    for stage_two, final_merge, sweep in peaks.values():
        assert stage_two <= 11 * block_bytes and final_merge <= 6 * block_bytes, peaks
        assert sweep <= 7 * block_bytes, peaks
    for few, many in zip(peaks[8], peaks[2]):
        assert many <= 1.1 * few, peaks
