from __future__ import annotations

import math

import numpy as np
import pytest

from reference import brute_force_frontier
from tvfuse.errors import (
    EmptyFrontierError,
    EmptySpaceError,
    NoSuccessfulTrialsError,
    TooManyFailedTrialsError,
    TrialLogError,
)
from tvfuse.evaluator import MockBackend, encode_model_ref, quadratic_landscape
from tvfuse.optimizer import (
    SearchSpace,
    TpeConfig,
    TrialRecord,
    load_trial_log,
    pareto_frontier,
    run_search,
    select_knee,
    select_max_consistency,
    tpe_suggest,
)
from tvfuse.optimizer.tpe import trial_rng


def trial(index, c, p, coeffs=(0.0, 0.0), status="ok"):
    return TrialRecord(
        index=index,
        coeffs=coeffs,
        consistency=c if status == "ok" else None,
        perplexity=p if status == "ok" else None,
        status=status,
    )


PEAK = (0.8, 1.5)


def distance(coeffs, target=PEAK):
    return math.hypot(coeffs[0] - target[0], coeffs[1] - target[1])


def quadratic_history(n, seed=0):
    history = []
    for i in range(n):
        rng = trial_rng(seed, i)
        c0 = float(rng.uniform(0, 2))
        c1 = float(rng.uniform(0, 2))
        consistency = 1.0 - distance((c0, c1)) ** 2 / 4.0
        history.append(trial(i, consistency, 2.0, coeffs=(c0, c1)))
    return history


# --- TPE ---------------------------------------------------------------------------


def test_startup_is_uniform_and_reproducible():
    config = TpeConfig(n_trials=50, n_startup=10, seed=123)
    space = SearchSpace()
    a = tpe_suggest([], space, config)
    b = tpe_suggest([], space, config)
    assert a == b
    assert all(0.0 <= x <= 2.0 for x in a)
    other = tpe_suggest([], space, TpeConfig(n_trials=50, n_startup=10, seed=124))
    assert other != a


def test_suggestions_depend_on_history_length_not_content_order():
    config = TpeConfig(n_trials=100, n_startup=10, seed=1)
    history = quadratic_history(30)
    assert tpe_suggest(history, SearchSpace(), config) == tpe_suggest(
        list(history), SearchSpace(), config
    )


def test_tpe_concentrates_near_optimum():
    config = TpeConfig(n_trials=200, n_startup=10, seed=7)
    space = SearchSpace()
    history = quadratic_history(50, seed=7)

    tpe_points = []
    for _ in range(10):
        point = tpe_suggest(history, space, config)
        tpe_points.append(point)
        consistency = 1.0 - distance(point) ** 2 / 4.0
        history.append(trial(len(history), consistency, 2.0, coeffs=point))

    uniform_points = []
    for i in range(10):
        rng = trial_rng(999, i)
        uniform_points.append((float(rng.uniform(0, 2)), float(rng.uniform(0, 2))))

    tpe_mean = np.mean([distance(p) for p in tpe_points])
    uniform_mean = np.mean([distance(p) for p in uniform_points])
    assert tpe_mean < uniform_mean


def test_degenerate_identical_consistency_stays_bounded():
    config = TpeConfig(n_trials=100, n_startup=5, seed=3)
    history = [trial(i, 0.5, 2.0, coeffs=(0.1 * i, 0.1 * i)) for i in range(20)]
    point = tpe_suggest(history, SearchSpace(), config)
    assert all(math.isfinite(x) for x in point)
    assert all(0.0 <= x <= 2.0 for x in point)


def test_suggestions_always_in_bounds():
    space = SearchSpace(bounds=((-1.0, 0.5), (10.0, 11.0)))
    config = TpeConfig(n_trials=100, n_startup=4, seed=17)
    rng = np.random.default_rng(17)
    history = []
    for i in range(40):
        coeffs = (float(rng.uniform(-1, 0.5)), float(rng.uniform(10, 11)))
        history.append(trial(i, float(rng.uniform(0, 1)), float(rng.uniform(1, 5)), coeffs))
        point = tpe_suggest(history, space, config)
        assert -1.0 <= point[0] <= 0.5
        assert 10.0 <= point[1] <= 11.0


def test_failed_trials_excluded_from_fit_but_advance_stream():
    config = TpeConfig(n_trials=100, n_startup=3, seed=5)
    ok_history = quadratic_history(8, seed=5)
    with_failures = ok_history + [trial(8, None, None, status="failed")]
    a = tpe_suggest(ok_history, SearchSpace(), config)
    b = tpe_suggest(with_failures, SearchSpace(), config)
    assert a != b  # stream key advanced by the failed trial


def test_empty_space_rejected():
    with pytest.raises(EmptySpaceError):
        SearchSpace(bounds=())


def test_config_validation():
    with pytest.raises(ValueError):
        TpeConfig(n_trials=10, n_startup=10)
    with pytest.raises(ValueError):
        TpeConfig(gamma_split=1.0)
    with pytest.raises(ValueError):
        TpeConfig(n_candidates=0)


# --- Pareto frontier ------------------------------------------------------------------


def test_frontier_worked_example():
    trials = [trial(0, 0.9, 10.0), trial(1, 0.7, 4.0), trial(2, 0.5, 3.0), trial(3, 0.6, 5.0)]
    frontier = pareto_frontier(trials)
    assert [(t.consistency, t.perplexity) for t in frontier] == [(0.9, 10.0), (0.7, 4.0), (0.5, 3.0)]


def test_single_trial_frontier():
    t = trial(0, 0.4, 7.0)
    assert pareto_frontier([t]) == [t]


def test_equal_consistency_keeps_lower_perplexity():
    trials = [trial(0, 0.9, 5.0), trial(1, 0.9, 3.0)]
    assert pareto_frontier(trials) == [trials[1]]


def test_duplicate_metrics_keep_lowest_index():
    trials = [trial(0, 0.9, 5.0), trial(1, 0.9, 5.0)]
    assert pareto_frontier(trials) == [trials[0]]


def test_failed_trials_ignored():
    trials = [trial(0, None, None, status="failed"), trial(1, 0.5, 2.0)]
    assert pareto_frontier(trials) == [trials[1]]
    with pytest.raises(NoSuccessfulTrialsError):
        pareto_frontier([trials[0]])


def test_frontier_matches_brute_force_oracle():
    rng = np.random.default_rng(29)
    for _ in range(100):
        size = int(rng.integers(1, 60))
        trials = [
            trial(
                i,
                float(rng.choice([0.2, 0.4, 0.6, 0.8, 1.0])),
                float(rng.choice([1.0, 2.0, 3.0, 5.0, 9.0])),
            )
            for i in range(size)
        ]
        got = {t.index for t in pareto_frontier(trials)}
        want = brute_force_frontier([(t.consistency, t.perplexity, t.index) for t in trials])
        assert got == want


# --- selection -------------------------------------------------------------------------


def test_max_consistency_selection():
    frontier = [trial(0, 0.9, 10.0), trial(1, 0.7, 4.0)]
    assert select_max_consistency(frontier) is frontier[0]


def test_max_consistency_tie_prefers_lower_perplexity():
    a, b = trial(0, 0.9, 10.0), trial(1, 0.9, 8.0)
    assert select_max_consistency([a, b]) is b


def test_selection_singletons():
    t = trial(0, 0.3, 2.0)
    assert select_max_consistency([t]) is t
    assert select_knee([t]) is t
    with pytest.raises(EmptyFrontierError):
        select_max_consistency([])
    with pytest.raises(EmptyFrontierError):
        select_knee([])


def test_knee_worked_example():
    # normalized consistency (1, .5, 0), perplexity (1, 1/7, 0):
    # distances (1, 0.520, 1) -> knee at (0.7, 4).
    frontier = [trial(0, 0.9, 10.0), trial(1, 0.7, 4.0), trial(2, 0.5, 3.0)]
    knee = select_knee(frontier)
    assert (knee.consistency, knee.perplexity) == (0.7, 4.0)
    expected_distance = math.hypot(0.5, 1.0 / 7.0)
    assert expected_distance == pytest.approx(0.5201, abs=1e-4)


def test_knee_weak_domination_in_normalized_space():
    a, b = trial(0, 1.0, 2.0), trial(1, 0.5, 8.0)
    assert select_knee([a, b]) is a


def test_knee_invariant_under_affine_perplexity_rescale():
    rng = np.random.default_rng(31)
    for _ in range(100):
        size = int(rng.integers(1, 30))
        raw = [
            trial(i, float(rng.uniform(0, 1)), float(rng.uniform(1, 50))) for i in range(size)
        ]
        frontier = pareto_frontier(raw)
        chosen = select_knee(frontier)
        scale = float(rng.uniform(0.1, 10.0))
        shift = float(rng.uniform(0.0, 5.0))
        rescaled = [
            TrialRecord(
                index=t.index,
                coeffs=t.coeffs,
                consistency=t.consistency,
                perplexity=scale * t.perplexity + shift,
                status=t.status,
            )
            for t in frontier
        ]
        assert select_knee(rescaled).index == chosen.index


# --- run_search ---------------------------------------------------------------------------


QUERIES = [(f"q{i}", f"adaptation question {i}") for i in range(4)]


def small_config(seed=0, trials=30):
    return TpeConfig(n_trials=trials, n_startup=8, seed=seed)


def test_search_finds_peak_region():
    backend = MockBackend(quadratic_landscape(peak=PEAK, falloff=8.0))
    result = run_search(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=backend,
        queries=QUERIES,
        config=TpeConfig(n_trials=100, n_startup=10, seed=11),
        samples_per_query=5,
        concurrency=4,
    )
    assert len(result.trials) == 100
    assert result.selected.consistency == 1.0
    assert distance(result.coefficients) < 0.15


def test_constant_landscape_dedups_to_single_frontier_point():
    backend = MockBackend(lambda a, b: (0.6, 3.0))
    result = run_search(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=backend,
        queries=QUERIES,
        config=small_config(),
        samples_per_query=5,
    )
    assert len(result.frontier) == 1
    assert result.selected is result.frontier[0]
    knee_result = select_knee(result.frontier)
    assert knee_result is result.frontier[0]


def two_peak_landscape(a, b):
    # Sharp, highly consistent but high-perplexity peak near (0.3, 0.3);
    # broad moderate peak with low perplexity near (1.5, 1.5).
    d_sharp = (a - 0.3) ** 2 + (b - 0.3) ** 2
    d_broad = (a - 1.5) ** 2 + (b - 1.5) ** 2
    c = max(1.0 - 3.0 * d_sharp, 0.6 - 1.0 * d_broad, 0.0)
    ppl = 2.0 + 48.0 * max(0.0, 1.0 - 4.0 * d_sharp)
    return c, ppl


def test_knee_and_max_consistency_disagree_on_two_peak_landscape():
    backend = MockBackend(two_peak_landscape)
    kwargs = dict(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=backend,
        queries=QUERIES,
        config=TpeConfig(n_trials=80, n_startup=10, seed=2),
        samples_per_query=5,
    )
    by_consistency = run_search(selection_rule="max-consistency", **kwargs)
    by_knee = run_search(selection_rule="knee", **kwargs)
    assert by_consistency.selected.index != by_knee.selected.index
    assert by_consistency.selected.consistency > by_knee.selected.consistency
    assert by_knee.selected.perplexity < by_consistency.selected.perplexity
    # Verify the knee point by enumerating normalized distances directly.
    frontier = by_knee.frontier
    c_lo, c_hi = min(t.consistency for t in frontier), max(t.consistency for t in frontier)
    p_lo, p_hi = min(t.perplexity for t in frontier), max(t.perplexity for t in frontier)

    def norm_distance(t):
        cn = (t.consistency - c_lo) / (c_hi - c_lo) if c_hi > c_lo else 0.0
        pn = (t.perplexity - p_lo) / (p_hi - p_lo) if p_hi > p_lo else 0.0
        return math.hypot(cn - 1.0, pn)

    best = min(frontier, key=lambda t: (norm_distance(t), t.index))
    assert by_knee.selected.index == best.index


def test_search_is_deterministic():
    def run_once():
        backend = MockBackend(quadratic_landscape(peak=PEAK), seed=4)
        return run_search(
            merge_builder=lambda coeffs: encode_model_ref(*coeffs),
            backend=backend,
            queries=QUERIES,
            config=small_config(seed=42),
            samples_per_query=5,
            concurrency=8,
        )

    first, second = run_once(), run_once()
    assert first.trials == second.trials
    assert first.coefficients == second.coefficients


def test_search_resume_matches_uninterrupted(tmp_path):
    def make_kwargs(log):
        return dict(
            merge_builder=lambda coeffs: encode_model_ref(*coeffs),
            backend=MockBackend(quadratic_landscape(peak=PEAK), seed=9),
            queries=QUERIES,
            config=small_config(seed=8),
            samples_per_query=5,
            trial_log_path=log,
        )

    full_log = tmp_path / "full.jsonl"
    reference = run_search(**make_kwargs(full_log))

    partial_log = tmp_path / "partial.jsonl"
    lines = full_log.read_text().splitlines()
    partial_log.write_text("\n".join(lines[:12]) + "\n")
    resumed = run_search(resume=True, **make_kwargs(partial_log))
    assert resumed.trials == reference.trials
    assert resumed.coefficients == reference.coefficients
    assert partial_log.read_text() == full_log.read_text()


def test_resume_tolerates_truncated_last_line(tmp_path):
    log = tmp_path / "trunc.jsonl"
    kwargs = dict(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=MockBackend(quadratic_landscape(peak=PEAK), seed=9),
        queries=QUERIES,
        config=small_config(seed=8),
        samples_per_query=5,
        trial_log_path=log,
    )
    reference = run_search(**kwargs)
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:10]) + "\n" + lines[10][: len(lines[10]) // 2])
    resumed = run_search(resume=True, **kwargs)
    assert resumed.trials == reference.trials


def test_resume_twice_after_truncated_last_line(tmp_path):
    # The first resume must not append trial 10 onto the truncated line, or
    # the second resume would replay a log missing that trial.
    log = tmp_path / "trunc.jsonl"
    kwargs = dict(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=MockBackend(quadratic_landscape(peak=PEAK), seed=9),
        queries=QUERIES,
        config=small_config(seed=8),
        samples_per_query=5,
        trial_log_path=log,
    )
    reference = run_search(**kwargs)
    full_log = log.read_text()
    lines = full_log.splitlines()
    log.write_text("\n".join(lines[:10]) + "\n" + lines[10][: len(lines[10]) // 2])
    run_search(resume=True, **kwargs)
    assert log.read_text() == full_log
    assert run_search(resume=True, **kwargs).trials == reference.trials


def write_trial_log(path, indices):
    path.write_text("".join(trial(i, 0.5, 2.0).to_json() + "\n" for i in indices))


def test_corrupt_middle_trial_log_line_raises(tmp_path):
    log = tmp_path / "trials.jsonl"
    write_trial_log(log, [0, 1, 2])
    lines = log.read_text().splitlines()
    lines[1] = lines[1][:-5]
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(TrialLogError, match=rf"{log.name} line 2: unparseable"):
        load_trial_log(log)


def test_misnumbered_trial_record_raises(tmp_path):
    log = tmp_path / "trials.jsonl"
    write_trial_log(log, [0, 2, 3])
    with pytest.raises(TrialLogError, match=rf"{log.name} line 2: trial index 2, expected 1"):
        load_trial_log(log)


def test_failed_queries_dropped_from_trial_mean():
    class Flaky(MockBackend):
        def generate(self, request):
            if "question 2" in request.prompt:
                from tvfuse.errors import UnknownModelRefError

                raise UnknownModelRefError("injected")
            return super().generate(request)

    backend = Flaky(lambda a, b: (1.0, 2.0))
    result = run_search(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=backend,
        queries=QUERIES,
        config=small_config(trials=12, seed=1),
        samples_per_query=5,
    )
    assert all(t.status == "ok" for t in result.trials)
    assert all(t.failed_query_count == 1 for t in result.trials)
    assert result.selected.consistency == 1.0


def test_too_many_failed_trials_aborts():
    class Broken(MockBackend):
        def generate(self, request):
            from tvfuse.errors import UnknownModelRefError

            raise UnknownModelRefError("down")

    backend = Broken(quadratic_landscape())
    with pytest.raises(TooManyFailedTrialsError):
        run_search(
            merge_builder=lambda coeffs: encode_model_ref(*coeffs),
            backend=backend,
            queries=QUERIES,
            config=small_config(trials=20, seed=0),
            samples_per_query=5,
        )
