from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvfuse import adaptation as ad
from tvfuse.errors import (
    BackendFailure,
    ConfigError,
    InsufficientQueriesError,
    UnknownModelRefError,
)
from tvfuse.evaluator import GenerationRequest, MockBackend


def record(qid, c_sft, c_rlvr):
    return ad.DifficultyRecord(
        query_id=qid, c_sft=c_sft, c_rlvr=c_rlvr, difficulty=1.0 - (c_sft + c_rlvr) / 2.0
    )


def records_from_difficulties(difficulties):
    # c_sft = c_rlvr = 1 - d gives exactly the requested difficulty.
    return [record(f"q{i:04d}", 1.0 - d, 1.0 - d) for i, d in enumerate(difficulties)]


# --- difficulty scoring ----------------------------------------------------------


def landscape_with_profiles(profile_sft, profile_rlvr):
    def landscape(a, b):
        if (a, b) == (1.0, 0.0):
            return profile_sft, 2.0
        if (a, b) == (0.0, 1.0):
            return profile_rlvr, 2.0
        return 0.5, 2.0

    return landscape


def test_difficulty_formula_cases():
    assert record("x", 1.0, 1.0).difficulty == 0.0
    assert record("x", 0.6, 1.0).difficulty == pytest.approx(0.2)
    assert record("x", 0.2, 0.2).difficulty == pytest.approx(0.8)


def test_score_difficulty_end_to_end():
    pool = ad.QueryPool(queries=(("a", "question a"), ("b", "question b")))
    backend = MockBackend(landscape_with_profiles(1.0, 0.6))
    records, failed = ad.score_difficulty(pool, backend, "sft", "rlvr", m=5)
    assert len(records) == 2 and failed == []
    for r in records:
        assert r.c_sft == 1.0
        assert r.c_rlvr == 0.6
        assert r.difficulty == pytest.approx(0.2)


def test_score_difficulty_all_distinct_answers():
    # Consistency floor is 1/m when every sample disagrees.
    pool = ad.QueryPool(queries=(("a", "question a"),))
    backend = MockBackend(landscape_with_profiles(0.0, 0.0))
    records, _ = ad.score_difficulty(pool, backend, "sft", "rlvr", m=5)
    assert records[0].c_sft == 0.2 and records[0].c_rlvr == 0.2
    assert records[0].difficulty == pytest.approx(0.8)


def test_score_difficulty_records_failures_and_excludes():
    pool = ad.QueryPool(queries=tuple((f"q{i}", f"text {i}") for i in range(20)))

    class Flaky(MockBackend):
        def generate(self, request):
            if "text 3" in request.prompt:
                raise UnknownModelRefError("injected")
            return super().generate(request)

    backend = Flaky(landscape_with_profiles(1.0, 1.0))
    records, failed = ad.score_difficulty(pool, backend, "sft", "rlvr", m=5)
    assert failed == ["q3"]
    assert {r.query_id for r in records} == {f"q{i}" for i in range(20)} - {"q3"}


def test_score_difficulty_failure_cap():
    pool = ad.QueryPool(queries=tuple((f"q{i}", f"text {i}") for i in range(10)))

    class Broken(MockBackend):
        def generate(self, request):
            raise UnknownModelRefError("down")

    with pytest.raises(BackendFailure):
        ad.score_difficulty(pool, Broken(landscape_with_profiles(1, 1)), "sft", "rlvr", m=5)


def test_query_pool_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        ad.QueryPool(queries=(("a", "x"), ("a", "y")))


def test_load_query_pool(tmp_path):
    path = tmp_path / "pool.jsonl"
    path.write_text('{"id": "a", "text": "one"}\n\n{"id": "b", "text": "two"}\n')
    pool, digest = ad.load_query_pool(path)
    assert pool.queries == (("a", "one"), ("b", "two"))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a"}\n')
    with pytest.raises(ConfigError, match="bad.jsonl:1"):
        ad.load_query_pool(bad)


# --- threshold and filtering -------------------------------------------------------


def test_threshold_equivalence_at_m5():
    assert ad.default_threshold(5) == 0.8


def test_filter_keeps_exact_threshold_discards_above():
    records = records_from_difficulties([0.8, 0.80001] + [0.1] * 6)
    built = ad.build_adaptation_set(records, m=5, n=4, seed=0)
    survivors = set(built.low_pool_ids) | set(built.medium_pool_ids)
    assert "q0000" in survivors  # difficulty exactly 0.8
    assert "q0001" not in survivors  # 0.80001 is discarded


def test_high_difficulty_excluded_before_pooling():
    records = records_from_difficulties([0.9, 0.0, 0.2, 0.4, 0.6])
    built = ad.build_adaptation_set(records, m=5, n=4, seed=1)
    assert "q0000" not in set(built.low_pool_ids) | set(built.medium_pool_ids)


def test_forced_split_and_full_selection():
    records = records_from_difficulties([0.0, 0.2, 0.4, 0.6])
    built = ad.build_adaptation_set(records, m=5, n=4, seed=3)
    assert built.low_pool_ids == ["q0000", "q0001"]
    assert built.medium_pool_ids == ["q0002", "q0003"]
    assert sorted(built.selected) == ["q0000", "q0001", "q0002", "q0003"]


def test_odd_count_median_joins_medium():
    records = records_from_difficulties([0.0, 0.1, 0.2, 0.3, 0.4])
    built = ad.build_adaptation_set(records, m=5, n=2, seed=0)
    assert len(built.low_pool_ids) == 2
    assert len(built.medium_pool_ids) == 3
    assert built.medium_pool_ids[0] == "q0002"


def test_insufficient_queries():
    with pytest.raises(InsufficientQueriesError):
        ad.build_adaptation_set(records_from_difficulties([0.1, 0.2]), m=5, n=4, seed=0)


def test_shortfall_backfills_and_records():
    # All but one query land in the medium pool via ties at the same difficulty.
    records = records_from_difficulties([0.0] + [0.5] * 9)
    built = ad.build_adaptation_set(records, m=5, n=8, seed=5)
    assert len(built.low_pool_ids) == 5
    assert built.drawn_from_low + built.drawn_from_medium == 8
    assert built.backfill_count == 0
    # Force a real shortfall: tiny low pool.
    few = records_from_difficulties([0.0, 0.1, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
    built = ad.build_adaptation_set(few, m=5, n=8, seed=5)
    assert built.drawn_from_low == 4 and built.drawn_from_medium == 4
    assert built.backfill_count == 0
    assert len(built.selected) == 8


def test_backfill_from_medium_when_low_exhausted():
    records = records_from_difficulties([0.0, 0.5, 0.5, 0.5, 0.5, 0.5])
    built = ad.build_adaptation_set(records, m=5, n=6, seed=2, easy_ratio=0.5)
    # low pool has 3, medium 3; want 3+3 -> fine. Now ask for uneven ratio.
    built = ad.build_adaptation_set(records, m=5, n=6, seed=2, easy_ratio=1.0)
    assert built.drawn_from_low == 3
    assert built.drawn_from_medium == 3
    assert built.backfill_count == 3


def test_backfill_from_low_when_medium_exhausted():
    records = records_from_difficulties([0.0, 0.1, 0.2, 0.5, 0.5, 0.5])
    built = ad.build_adaptation_set(records, m=5, n=6, seed=2, easy_ratio=0.0)
    assert (built.drawn_from_low, built.drawn_from_medium, built.backfill_count) == (3, 3, 3)
    assert sorted(built.selected) == [r.query_id for r in records]


def test_easy_ratio_one_draws_from_the_low_pool_alone():
    records = records_from_difficulties([0.0, 0.1, 0.2, 0.3, 0.5, 0.5, 0.5, 0.5])
    built = ad.build_adaptation_set(records, m=5, n=4, seed=2, easy_ratio=1.0)
    assert (built.drawn_from_low, built.drawn_from_medium, built.backfill_count) == (4, 0, 0)
    assert sorted(built.selected) == built.low_pool_ids


def test_ratio_controls_pool_counts():
    records = records_from_difficulties(list(np.linspace(0.0, 0.7, 64)))
    built = ad.build_adaptation_set(records, m=5, n=16, seed=9, easy_ratio=0.25)
    assert built.drawn_from_low == 4 and built.drawn_from_medium == 12


# --- determinism ---------------------------------------------------------------------


def test_selection_deterministic_across_reruns():
    rng = np.random.default_rng(11)
    records = records_from_difficulties(rng.uniform(0, 0.8, 100).tolist())
    reference = ad.build_adaptation_set(records, m=5, n=64, seed=42)
    for _ in range(100):
        again = ad.build_adaptation_set(records, m=5, n=64, seed=42)
        assert again.selected == reference.selected
        assert again.low_pool_ids == reference.low_pool_ids


def test_pools_partition_survivors_and_counts_split():
    rng = np.random.default_rng(13)
    difficulties = rng.uniform(0, 0.8, 100).tolist()
    records = records_from_difficulties(difficulties)
    built = ad.build_adaptation_set(records, m=5, n=64, seed=7)
    low, medium = set(built.low_pool_ids), set(built.medium_pool_ids)
    assert low.isdisjoint(medium)
    assert low | medium == {r.query_id for r in records}
    assert built.drawn_from_low == built.drawn_from_medium == 32
    from_low = [q for q in built.selected if q in low]
    from_medium = [q for q in built.selected if q in medium]
    assert len(from_low) == 32 and len(from_medium) == 32
    assert len(set(built.selected)) == 64


def test_pool_membership_invariant_under_permutation():
    rng = np.random.default_rng(17)
    records = records_from_difficulties(rng.uniform(0, 0.8, 50).tolist())
    built_a = ad.build_adaptation_set(records, m=5, n=20, seed=3)
    shuffled = list(records)
    rng.shuffle(shuffled)
    built_b = ad.build_adaptation_set(shuffled, m=5, n=20, seed=3)
    assert built_a.low_pool_ids == built_b.low_pool_ids
    assert built_a.medium_pool_ids == built_b.medium_pool_ids
    assert built_a.selected == built_b.selected


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 1000),
    count=st.integers(8, 60),
    n=st.integers(2, 8).map(lambda x: 2 * x),
)
def test_selection_properties(seed, count, n):
    rng = np.random.default_rng(seed)
    records = records_from_difficulties(rng.uniform(0, 0.8, count).tolist())
    if count < n:
        with pytest.raises(InsufficientQueriesError):
            ad.build_adaptation_set(records, m=5, n=n, seed=seed)
        return
    built = ad.build_adaptation_set(records, m=5, n=n, seed=seed)
    assert len(built.selected) == n
    assert len(set(built.selected)) == n
    survivors = {r.query_id for r in records}
    assert set(built.selected) <= survivors


def test_records_json_round_trip(tmp_path):
    records = records_from_difficulties([0.1, 0.3])
    path = tmp_path / "records.json"
    ad.save_difficulty_records(records, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert [ad.DifficultyRecord(**item) for item in payload] == records
