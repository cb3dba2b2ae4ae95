"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Oracles live in reference.py or inline (full sorts, rational
rounding, O(n^2) dominance scans, exhaustive grids) and never share code
with the paths they check.
"""

from __future__ import annotations

import functools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from reference import brute_force_frontier, read_tensor_bytes, topk_indices
from synth import make_checkpoint_trio, make_config, make_query_pool
from test_diagnostics import MODULE_FIXTURE
from tvfuse import archive
from tvfuse import task_vector as tvec
from tvfuse.adaptation import DifficultyRecord, build_adaptation_set, default_threshold
from tvfuse.diagnostics import ModuleClass, classify_module, interference_sweep, sign_interference
from tvfuse.evaluator import (
    GenerationRequest,
    HttpBackend,
    MockBackend,
    MockInferenceServer,
    consistency,
    encode_model_ref,
    quadratic_landscape,
)
from tvfuse.errors import HttpStatusError
from tvfuse.evaluator.answers import extract_answer
from tvfuse.floats import narrow_from_f64, widen_to_f64
from tvfuse.optimizer import TpeConfig, TrialRecord, pareto_frontier, run_search, select_knee
from tvfuse.optimizer.tpe import trial_rng
from tvfuse.pipeline import WorkspacePaths, load_config, run_pipeline
from tvfuse.task_vector import TaskVector


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")

        return wrapper

    return decorate


def make_vector(values: np.ndarray, name: str = "w") -> TaskVector:
    return TaskVector(tensors={name: values}, shapes={name: values.shape})


def exact_ceil_fraction(numerator: int, denominator: int, total: int) -> int:
    return math.ceil(Fraction(numerator, denominator) * total)


# --- 1. archive round-trip -----------------------------------------------------------


@criterion(1, "archive-round-trip")
def test_criterion_01_archive_round_trip(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(101)
    dtypes = ["F32", "F16", "BF16"]
    for case in range(200):
        n_tensors = int(rng.integers(1, 21))
        entries = []
        for t in range(n_tensors):
            size = int(10 ** rng.uniform(0.3, np.log10(100_000 / n_tensors)))
            dtype = dtypes[int(rng.integers(0, 3))]
            raw_values = rng.standard_normal(size) * 10 ** rng.uniform(-3, 3)
            # Pre-quantize to the storage grid so the round trip is bit-exact.
            values = widen_to_f64(narrow_from_f64(raw_values, dtype), dtype)
            entries.append((f"tensor.{t}", dtype, [size], values))
        path = tmp_path / f"case_{case}.safetensors"
        archive.write_archive(entries, path)
        arc = archive.open_archive(path)
        assert len(arc.entries) == n_tensors
        for name, dtype, shape, values in entries:
            meta = arc.entries[name]
            assert meta.dtype == dtype and list(meta.shape) == shape
            got = archive.read_tensor(arc, name).values
            assert np.array_equal(got, values, equal_nan=True)
            assert read_tensor_bytes(arc, name) == narrow_from_f64(values, dtype)
        path.unlink()
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"round-trip took {elapsed:.1f}s"


# --- 2. reconstruction identity --------------------------------------------------------


@criterion(2, "reconstruction-identity")
def test_criterion_02_reconstruction(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(202)
    for case in range(100):
        size = int(rng.integers(64, 2048))
        base_values = rng.standard_normal(size).astype(np.float32).astype(np.float64)
        ft_values = rng.standard_normal(size).astype(np.float32).astype(np.float64)
        base_path = tmp_path / "base.safetensors"
        ft_path = tmp_path / "ft.safetensors"
        archive.write_archive([("w", "F32", [size], base_values)], base_path)
        archive.write_archive([("w", "F32", [size], ft_values)], ft_path)
        base = archive.open_archive(base_path)
        ft = archive.open_archive(ft_path)
        tv = tvec.extract_task_vector(base, ft)
        # Elementwise identity in float64, before any narrowing.
        assert np.array_equal(base_values + tv.tensors["w"], ft_values)
        tvec.merge(base, [(tv, 1.0)], tmp_path / "merged.safetensors")
        merged = archive.open_archive(tmp_path / "merged.safetensors")
        assert read_tensor_bytes(merged, "w") == read_tensor_bytes(ft, "w")
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"reconstruction took {elapsed:.1f}s"


# --- 3 + 4. sparsification contract and norm preservation --------------------------------


@criterion(3, "sparsification-contract")
def test_criterion_03_sparsification_contract():
    started = time.monotonic()
    rng = np.random.default_rng(303)
    for tenth in range(1, 11):
        p = tenth / 10.0
        for _ in range(50):
            size = int(rng.integers(20, 1500))
            values = rng.standard_normal(size) * 10 ** rng.uniform(-2, 2)
            tv = make_vector(values)
            sparse = tvec.sparsify(tv, p)
            expected_k = exact_ceil_fraction(tenth, 10, size)
            support = set(np.flatnonzero(sparse.tensors["w"]))
            assert len(support) == expected_k, (p, size)
            assert support == topk_indices(np.abs(values), expected_k)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"sparsification sweep took {elapsed:.1f}s"


@criterion(4, "norm-preservation")
def test_criterion_04_norm_preservation():
    rng = np.random.default_rng(404)
    for tenth in range(1, 11):
        p = tenth / 10.0
        for _ in range(50):
            size = int(rng.integers(20, 1500))
            values = rng.standard_normal(size) * 10 ** rng.uniform(-2, 2)
            tv = make_vector(values)
            original = tvec.global_l2_norm(tv)
            restored = tvec.sparsify_and_rescale(tv, p, epsilon=1e-8)
            deviation = abs(tvec.global_l2_norm(restored) - original) / original
            assert deviation <= 1e-6, (p, size, deviation)


# --- 5. quantile threshold vs full sort ------------------------------------------------------------


@criterion(5, "streaming-quantile")
def test_criterion_05_streaming_quantile():
    size = 1_000_000
    retention = 0.3
    for distribution in ("normal", "uniform", "heavy"):
        for seed in range(10):
            rng = np.random.default_rng([505, seed])
            if distribution == "normal":
                values = rng.standard_normal(size)
            elif distribution == "uniform":
                values = rng.uniform(-1.0, 1.0, size)
            else:
                values = rng.standard_cauchy(size)
            # Full-sort oracle: the k-th largest magnitude, k = ceil(3/10 * N) exactly.
            k = exact_ceil_fraction(3, 10, size)
            expected = np.sort(np.abs(values))[size - k]
            got = tvec.quantile_threshold(make_vector(values), [retention])[0].threshold
            assert got == expected, (distribution, seed, got, expected)


# --- 6. sign interference vs brute force ------------------------------------------------------


@criterion(6, "sign-interference-oracle")
def test_criterion_06_sign_interference():
    rng = np.random.default_rng(606)
    retentions = [1.0, 0.5, 0.3, 0.1]
    for case in range(1000):
        size = int(rng.integers(8, 120))
        a = rng.standard_normal(size)
        b = rng.standard_normal(size)
        retention_a = retentions[case % 4]
        retention_b = retentions[(case // 4) % 4]
        tv_a, tv_b = make_vector(a), make_vector(b)
        got = sign_interference(tv_a, tv_b, retention_a, retention_b)

        sparse_a = tvec.sparsify(tv_a, retention_a).tensors["w"]
        sparse_b = tvec.sparsify(tv_b, retention_b).tensors["w"]
        denominator = 0
        conflicts = 0
        for x, y in zip(sparse_a, sparse_b):
            if y != 0.0:
                denominator += 1
                if (x > 0 > y) or (x < 0 < y):
                    conflicts += 1
        assert got.denominator_count == denominator
        assert got.conflict_ratio == (conflicts / denominator if denominator else 0.0)

    a = make_vector(rng.standard_normal(200))
    b = make_vector(rng.standard_normal(200))
    sweep = interference_sweep(a, b, retentions, 0.1)
    for retention, report in zip(retentions, sweep):
        assert report == sign_interference(a, b, retention, 0.1)


# --- 7. module classification -------------------------------------------------------------------


@criterion(7, "module-classification")
def test_criterion_07_module_classification():
    assert len(MODULE_FIXTURE) == 40
    mismatches = [
        (name, expected, classify_module(name))
        for name, expected in MODULE_FIXTURE
        if classify_module(name) != expected
    ]
    assert mismatches == []
    assert classify_module("model.layers.0.post_attention_layernorm.weight") == ModuleClass.LAYER_NORM


# --- 8. consistency and difficulty ----------------------------------------------------------------


@criterion(8, "consistency-difficulty")
def test_criterion_08_consistency_difficulty():
    rng = np.random.default_rng(808)
    vocabulary = ["a", "b", "c", "d", None]
    for _ in range(300):
        m = int(rng.integers(1, 12))
        answers = [vocabulary[i] for i in rng.integers(0, len(vocabulary), m)]
        value = consistency(answers, m)
        assert any(value == j / m for j in range(m + 1))
        permuted = [answers[i] for i in rng.permutation(m)]
        assert consistency(permuted, m) == value

    for c_sft in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        for c_rlvr in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            record = DifficultyRecord(
                query_id="x",
                c_sft=c_sft,
                c_rlvr=c_rlvr,
                difficulty=1.0 - (c_sft + c_rlvr) / 2.0,
            )
            assert record.difficulty == 1.0 - (c_sft + c_rlvr) / 2.0

    assert default_threshold(5) == 0.8
    borderline = [
        DifficultyRecord("keep", 0.2, 0.2, 1.0 - (0.2 + 0.2) / 2.0),  # exactly 0.8
        DifficultyRecord("drop", 0.2, 0.2, 0.80001),
    ] + [DifficultyRecord(f"f{i}", 1.0, 1.0, 0.0) for i in range(4)]
    built = build_adaptation_set(borderline, m=5, n=4, seed=0)
    survivors = set(built.low_pool_ids) | set(built.medium_pool_ids)
    assert "keep" in survivors and "drop" not in survivors


# --- 9. adaptation determinism ---------------------------------------------------------------------


@criterion(9, "adaptation-determinism")
def test_criterion_09_adaptation_determinism():
    rng = np.random.default_rng(909)
    records = [
        DifficultyRecord(f"q{i:04d}", 0.0, 0.0, float(d))
        for i, d in enumerate(rng.uniform(0.0, 0.8, 120))
    ]
    reference = build_adaptation_set(records, m=5, n=64, seed=31)
    for _ in range(100):
        assert build_adaptation_set(records, m=5, n=64, seed=31).selected == reference.selected

    low, medium = set(reference.low_pool_ids), set(reference.medium_pool_ids)
    assert low.isdisjoint(medium)
    assert low | medium == {r.query_id for r in records}

    # Brute-force re-selection from the documented algorithm.
    survivors = sorted(
        (r for r in records if r.difficulty <= 0.8), key=lambda r: (r.difficulty, r.query_id)
    )
    half = len(survivors) // 2
    expected_low = [r.query_id for r in survivors[:half]]
    expected_medium = [r.query_id for r in survivors[half:]]
    assert reference.low_pool_ids == expected_low
    assert reference.medium_pool_ids == expected_medium
    oracle_rng = np.random.default_rng(31)
    low_take = sorted(oracle_rng.choice(len(expected_low), 32, replace=False).tolist())
    medium_take = sorted(oracle_rng.choice(len(expected_medium), 32, replace=False).tolist())
    expected_selected = [expected_low[i] for i in low_take] + [
        expected_medium[i] for i in medium_take
    ]
    assert reference.selected == expected_selected
    assert sum(1 for q in reference.selected if q in low) == 32
    assert sum(1 for q in reference.selected if q in medium) == 32


# --- 10. Pareto frontier and knee ---------------------------------------------------------------------


@criterion(10, "pareto-and-knee")
def test_criterion_10_pareto_and_knee():
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        size = int(rng.integers(1, 201))
        trials = [
            TrialRecord(
                index=i,
                coeffs=(0.0, 0.0),
                consistency=float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9])),
                perplexity=float(rng.choice([1.5, 2.0, 3.0, 5.0, 8.0])),
            )
            for i in range(size)
        ]
        got = {t.index for t in pareto_frontier(trials)}
        want = brute_force_frontier([(t.consistency, t.perplexity, t.index) for t in trials])
        assert got == want

    worked = [
        TrialRecord(index=0, coeffs=(0, 0), consistency=0.9, perplexity=10.0),
        TrialRecord(index=1, coeffs=(0, 0), consistency=0.7, perplexity=4.0),
        TrialRecord(index=2, coeffs=(0, 0), consistency=0.5, perplexity=3.0),
    ]
    knee = select_knee(worked)
    assert (knee.consistency, knee.perplexity) == (0.7, 4.0)

    for _ in range(100):
        size = int(rng.integers(1, 40))
        trials = [
            TrialRecord(
                index=i,
                coeffs=(0.0, 0.0),
                consistency=float(rng.uniform(0, 1)),
                perplexity=float(rng.uniform(1, 100)),
            )
            for i in range(size)
        ]
        frontier = pareto_frontier(trials)
        baseline = select_knee(frontier).index
        scale = float(rng.uniform(0.05, 20.0))
        shift = float(rng.uniform(0.0, 10.0))
        transformed = [
            TrialRecord(
                index=t.index,
                coeffs=t.coeffs,
                consistency=t.consistency,
                perplexity=scale * t.perplexity + shift,
            )
            for t in frontier
        ]
        assert select_knee(transformed).index == baseline


# --- 11. TPE efficacy -------------------------------------------------------------------------------------


@criterion(11, "tpe-efficacy")
def test_criterion_11_tpe_efficacy():
    started = time.monotonic()
    peak = (0.8, 1.5)
    landscape = quadratic_landscape(peak=peak, falloff=8.0, ppl_base=2.0, ppl_slope=1.0)
    queries = [(f"q{i}", f"probe question {i}") for i in range(4)]
    samples_per_query = 5

    # Exhaustive 201 x 201 grid oracle over the true (unquantized) landscape.
    grid = np.linspace(0.0, 2.0, 201)
    best_value, grid_optimum = -1.0, (0.0, 0.0)
    for x in grid:
        for y in grid:
            value, _ = landscape(float(x), float(y))
            if value > best_value:
                best_value, grid_optimum = value, (float(x), float(y))
    assert grid_optimum == peak

    def measured_consistency(backend, coeffs, trial_seed):
        shares = []
        for qi, (qid, text) in enumerate(queries):
            request = GenerationRequest(
                model_ref=encode_model_ref(*coeffs),
                prompt=text,
                num_samples=samples_per_query,
                seed=trial_seed * 1_000_003 + qi,
            )
            samples = backend.generate(request)
            shares.append(
                consistency([s.extracted_answer for s in samples], samples_per_query)
            )
        return sum(shares) / len(shares)

    hits = 0
    tpe_best: list[float] = []
    random_best: list[float] = []
    for seed in range(20):
        backend = MockBackend(landscape, seed=seed)
        result = run_search(
            merge_builder=lambda coeffs: encode_model_ref(*coeffs),
            backend=backend,
            queries=queries,
            config=TpeConfig(n_trials=100, n_startup=10, seed=seed),
            samples_per_query=samples_per_query,
            concurrency=4,
        )
        distance = math.hypot(
            result.coefficients[0] - grid_optimum[0], result.coefficients[1] - grid_optimum[1]
        )
        if distance <= 0.15:
            hits += 1
        tpe_best.append(max(t.consistency for t in result.trials if t.status == "ok"))

        # Seeded random-search baseline with the same evaluation path.
        best = -1.0
        for i in range(100):
            rng = trial_rng(seed + 4096, i)
            point = (float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
            best = max(best, measured_consistency(backend, point, trial_seed=i))
        random_best.append(best)

    assert hits >= 18, f"only {hits}/20 seeds within 0.15 of the grid optimum"
    assert float(np.median(tpe_best)) >= float(np.median(random_best))
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"efficacy check took {elapsed:.1f}s"


# --- 12. end-to-end pipeline --------------------------------------------------------------------------------


@criterion(12, "end-to-end-pipeline")
def test_criterion_12_end_to_end(tmp_path, monkeypatch):
    checkpoints = make_checkpoint_trio(tmp_path / "ckpt", seed=12)
    pool = make_query_pool(tmp_path / "pool.jsonl", count=16)
    overrides = {"search": {"n_trials": 100, "n_startup": 10}}

    started = time.monotonic()
    config_a = load_config(
        make_config(tmp_path / "a", checkpoints, pool, tmp_path / "ws_a", **overrides)
    )
    report_a = run_pipeline(config_a)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"

    config_b = load_config(
        make_config(tmp_path / "b", checkpoints, pool, tmp_path / "ws_b", **overrides)
    )
    report_b = run_pipeline(config_b)
    paths_a, paths_b = WorkspacePaths(Path(config_a.workspace)), WorkspacePaths(Path(config_b.workspace))
    assert report_a.coefficients == report_b.coefficients
    assert paths_a.merged_model.read_bytes() == paths_b.merged_model.read_bytes()
    assert paths_a.trial_log.read_text() == paths_b.trial_log.read_text()

    # Kill mid-search, then resume; the final search result must be identical.
    config_c = load_config(
        make_config(tmp_path / "c", checkpoints, pool, tmp_path / "ws_c", **overrides)
    )
    calls = {"n": 0}
    original_generate = MockBackend.generate

    def dying_generate(self, request):
        if request.model_ref.startswith("merged:"):
            calls["n"] += 1
            if calls["n"] > 500:
                raise KeyboardInterrupt
        return original_generate(self, request)

    monkeypatch.setattr(MockBackend, "generate", dying_generate)
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(config_c)
    monkeypatch.setattr(MockBackend, "generate", original_generate)
    paths_c = WorkspacePaths(Path(config_c.workspace))
    interrupted = len(paths_c.trial_log.read_text().splitlines())
    assert 0 < interrupted < 100

    report_c = run_pipeline(config_c, resume=True)
    assert report_c.coefficients == report_a.coefficients
    assert paths_c.trial_log.read_text() == paths_a.trial_log.read_text()
    result_a = json.loads(paths_a.search_result.read_text())
    result_c = json.loads(paths_c.search_result.read_text())
    result_a.pop("recipe"), result_c.pop("recipe")  # workspace-local paths
    assert result_a == result_c
    assert paths_c.merged_model.read_bytes() == paths_a.merged_model.read_bytes()


# --- 13. protocol conformance ----------------------------------------------------------------------------------


@criterion(13, "protocol-conformance")
def test_criterion_13_protocol_conformance():
    landscape = quadratic_landscape(peak=(0.8, 1.5), ppl_base=2.0, ppl_slope=3.0)
    with MockInferenceServer(MockBackend(landscape, seed=13)) as server, HttpBackend(
        server.url, max_attempts=3, backoff_base=0.01
    ) as remote:
        local = MockBackend(landscape, seed=13)

        request = GenerationRequest(encode_model_ref(0.8, 1.5), "conformance probe", num_samples=5)
        assert [s.text for s in remote.generate(request)] == [
            s.text for s in local.generate(request)
        ]
        answers = [s.extracted_answer for s in remote.generate(request)]
        assert consistency(answers, 5) == 1.0

        score = remote.score(encode_model_ref(0.8, 1.5), "some adaptation query")
        recomputed = math.exp(-sum(score.token_logprobs) / len(score.token_logprobs))
        assert abs(score.perplexity - recomputed) <= 1e-9
        assert score.token_logprobs == local.score(encode_model_ref(0.8, 1.5), "x").token_logprobs

        server.fail_next(2)  # transient: retried to success
        assert len(remote.generate(request)) == 5

        server.fail_next(3)  # persistent: retries exhausted
        with pytest.raises(HttpStatusError) as info:
            remote.generate(request)
        assert info.value.status == 500

        sample = remote.generate(GenerationRequest("sft", "boxed check", num_samples=1))[0]
        assert sample.extracted_answer == extract_answer(sample.text)
