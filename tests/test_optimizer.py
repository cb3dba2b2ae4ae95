from __future__ import annotations

import json
import logging
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import brute_force_frontier, parzen_log_pdf, pointwise_tpe_suggest
from tvfuse.errors import (
    BackendFailure,
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
from tvfuse.optimizer.tpe import _objective, _ParzenMixture, trial_rng


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


def test_perplexity_weight_ranks_tied_trials_by_perplexity():
    # Every trial ties on consistency: the earliest sit around `early` with
    # high perplexity, the later ones around `late` with low perplexity.
    early, late = (0.3, 0.3), (1.7, 1.7)
    history = [trial(i, 0.5, 8.0, coeffs=(early[0] + 0.02 * i, early[1])) for i in range(10)]
    history += [trial(10 + i, 0.5, 2.0, coeffs=(late[0] - 0.02 * i, late[1])) for i in range(10)]

    def good_set(weight):
        # tpe_suggest's split: rank by objective, then index; gamma 0.25 of 20.
        ranked = sorted(history, key=lambda t: (-_objective(t, weight), t.index))
        return {t.index for t in ranked[:5]}

    assert good_set(0.0) == set(range(5))
    assert good_set(0.5) == set(range(10, 15))
    for weight, near, far in ((0.0, early, late), (0.5, late, early)):
        config = TpeConfig(n_trials=100, n_startup=5, seed=11, scalarize_ppl_weight=weight)
        point = tpe_suggest(history, SearchSpace(), config)
        assert distance(point, near) < distance(point, far)


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


def test_a_draw_rejected_every_time_falls_back_to_its_clamped_centre():
    # A bandwidth 1e9 times the range accepts a draw about once in 2.5e9, so
    # the kernel draws end at the centre; the prior's draws are uniform.
    mixture = _ParzenMixture([0.75], 0.0, 1.0, bandwidth_floor=1e9)
    rng = np.random.default_rng(0)
    draws = [mixture.sample(rng) for _ in range(20)]
    assert 0.75 in draws and all(0.0 <= x <= 1.0 for x in draws)


@st.composite
def tpe_cases(draw):
    """A history with tied objectives and failed trials, a 1-3 dimensional
    space and a TPE config, all drawn at random."""
    bounds = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.floats(-10.0, 10.0))
        bounds.append((lo, lo + draw(st.floats(1e-3, 20.0))))
    coefficient = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    history = []
    for index in range(draw(st.integers(0, 40))):
        coeffs = tuple(min(lo + draw(coefficient) * (hi - lo), hi) for lo, hi in bounds)
        if draw(st.integers(0, 5)) == 0:
            history.append(trial(index, None, None, coeffs=coeffs, status="failed"))
        else:
            consistency = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0))
            perplexity = draw(st.sampled_from([1.0, 2.0]) | st.floats(1.0, 50.0))
            history.append(trial(index, consistency, perplexity, coeffs=coeffs))
    n_startup = draw(st.integers(1, 12))
    config = TpeConfig(
        n_trials=n_startup + len(history) + 1,
        n_startup=n_startup,
        gamma_split=draw(st.floats(0.01, 0.99)),
        n_candidates=draw(st.integers(1, 40)),
        bandwidth_floor=draw(st.floats(1e-3, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        scalarize_ppl_weight=draw(st.sampled_from([0.0]) | st.floats(0.0, 2.0)),
    )
    return history, SearchSpace(tuple(bounds)), config


@settings(max_examples=200, deadline=None)
@given(tpe_cases())
def test_array_scoring_suggests_what_pointwise_scoring_suggests(case):
    history, space, config = case
    got = tpe_suggest(history, space, config)
    want = pointwise_tpe_suggest(history, space, config)
    assert repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-10.0, 10.0),
    st.floats(1e-3, 20.0),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    st.floats(1e-3, 1.0),
)
def test_array_densities_equal_pointwise_densities(lo, width, centres, xs, bandwidth_floor):
    # Suggestions only show a density that moved enough to change the
    # winning candidate; pin every density's bits as well.
    hi = lo + width
    mixture = _ParzenMixture([lo + c * width for c in centres], lo, hi, bandwidth_floor)
    points = [min(lo + x * width, hi) for x in xs]
    want = [parzen_log_pdf(mixture, x) for x in points]
    assert repr(mixture.log_densities(points)) == repr(want)


def seeded_history(seed, n, bounds):
    rng = np.random.default_rng(seed)
    history = []
    for i in range(n):
        coeffs = tuple(float(rng.uniform(lo, hi)) for lo, hi in bounds)
        if rng.random() < 0.15:
            history.append(trial(i, None, None, coeffs=coeffs, status="failed"))
        else:
            consistency = float(rng.integers(0, 5)) / 4.0  # coarse, so ranks tie
            history.append(trial(i, consistency, float(rng.uniform(1.0, 4.0)), coeffs=coeffs))
    return history


# Captured from the per-point scorer, before candidates were scored in one
# array pass; a change here changes every logged search.
@pytest.mark.parametrize(
    "seed, n, bounds, config, expected",
    [
        (
            7, 20, ((0.0, 2.0), (0.0, 2.0)),
            dict(n_trials=100, n_startup=10, seed=7),
            "(1.2078573894558422, 1.9513077031832649)",
        ),
        (
            23, 45, ((-1.0, 0.5), (10.0, 11.0), (0.0, 1e-3)),
            dict(n_trials=200, n_startup=4, gamma_split=0.4, n_candidates=7,
                 bandwidth_floor=0.2, seed=23, scalarize_ppl_weight=0.3),
            "(0.3015864341795605, 10.248421892855436, 0.0006102904770202907)",
        ),
        (  # one completed trial: the bad set falls back to the good one
            3, 1, ((0.0, 1.0),),
            dict(n_trials=10, n_startup=1, n_candidates=3, seed=3),
            "(0.40719719128199483,)",
        ),
        (  # still drawing startup points uniformly
            11, 3, ((0.0, 2.0), (0.0, 2.0)),
            dict(n_trials=100, n_startup=10, seed=11),
            "(1.9290740997692841, 1.6979785204101097)",
        ),
    ],
)
def test_suggestions_hold_their_bits(seed, n, bounds, config, expected):
    history = seeded_history(seed, n, bounds)
    assert repr(tpe_suggest(history, SearchSpace(bounds), TpeConfig(**config))) == expected


def test_row_sums_along_an_axis_equal_one_row_summed_alone():
    # tpe_suggest scores all candidates with np.sum(..., axis=1) and stays
    # bit-exact only while each row sums exactly as a 1-D np.sum does.
    rng = np.random.default_rng(5)
    for length in range(1, 301):
        m = rng.standard_normal((24, length)) * 10.0 ** rng.uniform(-8, 8, (24, length))
        rows = np.array([np.sum(row) for row in m])
        assert np.sum(m, axis=1).tobytes() == rows.tobytes(), f"row length {length}"


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


def test_search_finds_peak_region(tmp_path):
    backend = MockBackend(quadratic_landscape(peak=PEAK, falloff=8.0))
    result = run_search(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=backend,
        queries=QUERIES,
        config=TpeConfig(n_trials=100, n_startup=10, seed=11),
        trial_log_path=tmp_path / "trials.jsonl",
        samples_per_query=5,
        concurrency=4,
    )
    assert len(result.trials) == 100
    assert result.selected.consistency == 1.0
    assert distance(result.coefficients) < 0.15


def test_constant_landscape_dedups_to_single_frontier_point(tmp_path):
    backend = MockBackend(lambda a, b: (0.6, 3.0))
    result = run_search(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=backend,
        queries=QUERIES,
        config=small_config(),
        trial_log_path=tmp_path / "trials.jsonl",
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


def test_knee_and_max_consistency_disagree_on_two_peak_landscape(tmp_path):
    backend = MockBackend(two_peak_landscape)
    kwargs = dict(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=backend,
        queries=QUERIES,
        config=TpeConfig(n_trials=80, n_startup=10, seed=2),
        trial_log_path=tmp_path / "trials.jsonl",
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


def test_search_is_deterministic(tmp_path):
    def run_once():
        backend = MockBackend(quadratic_landscape(peak=PEAK), seed=4)
        return run_search(
            merge_builder=lambda coeffs: encode_model_ref(*coeffs),
            backend=backend,
            queries=QUERIES,
            config=small_config(seed=42),
            trial_log_path=tmp_path / "trials.jsonl",
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


def test_each_evaluated_trial_logs_one_progress_line_at_info(tmp_path, caplog):
    def search(log, resume=False):
        return run_search(
            merge_builder=lambda coeffs: encode_model_ref(*coeffs),
            backend=MockBackend(quadratic_landscape(peak=PEAK), seed=9),
            queries=QUERIES,
            config=small_config(seed=8, trials=20),
            samples_per_query=5,
            trial_log_path=log,
            resume=resume,
        )

    quiet_log = tmp_path / "quiet.jsonl"
    with caplog.at_level(logging.WARNING):
        reference = search(quiet_log)
    assert not [r for r in caplog.records if r.name == "tvfuse.optimizer.search"]

    log = tmp_path / "trials.jsonl"
    log.write_text("".join(line + "\n" for line in quiet_log.read_text().splitlines()[:12]))
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="tvfuse.optimizer.search"):
        resumed = search(log, resume=True)
    assert log.read_bytes() == quiet_log.read_bytes()
    progress = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trial ")]
    assert len(progress) == 20 - 12  # replayed trials log nothing
    for trial_record, message in zip(resumed.trials[12:], progress):
        index = trial_record.index
        done = resumed.trials[: index + 1]
        best = max(done, key=lambda t: t.consistency)
        assert message.startswith(
            f"trial {index} ({index + 1}/20): consistency {trial_record.consistency:.4f}; "
            f"best {best.consistency:.4f} at trial {best.index}; eta "
        )
        assert message.endswith(" s")
    assert progress[-1].endswith("eta 0.0 s")
    assert resumed.trials == reference.trials


def test_search_runs_every_trial_on_one_pool_of_concurrency_threads(tmp_path):
    names = set()

    class Recording(MockBackend):
        def generate(self, request):
            names.add(threading.current_thread().name)
            return super().generate(request)

        def score(self, model_ref, text):
            names.add(threading.current_thread().name)
            return super().score(model_ref, text)

    result = run_search(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=Recording(quadratic_landscape(peak=PEAK), seed=9),
        queries=QUERIES,
        config=TpeConfig(n_trials=6, n_startup=3, seed=8),
        trial_log_path=tmp_path / "trials.jsonl",
        samples_per_query=5,
        concurrency=2,
    )
    assert len(result.trials) == 6
    assert 1 <= len(names) <= 2, sorted(names)


# Each case: a TpeConfig or SearchSpace change under which the logged trial
# at the given index is no longer what the search suggests.
OTHER_SEARCHES = {
    "seed": (dict(seed=9), None, 0),
    "space": ({}, SearchSpace(bounds=((0.0, 1.5), (0.0, 2.0))), 0),
    "n-startup": (dict(n_startup=5), None, 5),
}


@pytest.mark.parametrize("case", list(OTHER_SEARCHES))
def test_resume_refuses_a_log_from_another_search(tmp_path, case):
    log = tmp_path / "trials.jsonl"
    kwargs = dict(
        merge_builder=lambda coeffs: encode_model_ref(*coeffs),
        backend=MockBackend(quadratic_landscape(peak=PEAK), seed=9),
        queries=QUERIES,
        samples_per_query=5,
        trial_log_path=log,
    )
    first = run_search(config=small_config(seed=8, trials=12), **kwargs)
    written = log.read_bytes()
    changes, space, index = OTHER_SEARCHES[case]
    config = TpeConfig(**{"n_trials": 12, "n_startup": 8, "seed": 8, **changes})
    expected = tpe_suggest(first.trials[:index], space or SearchSpace(), config)
    with pytest.raises(TrialLogError) as caught:
        run_search(config=config, space=space, resume=True, **kwargs)
    message = str(caught.value)
    assert str(log) in message and f"trial {index} " in message
    assert str(first.trials[index].coeffs) in message and str(expected) in message
    assert log.read_bytes() == written


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


# Records whose fields do not fit what `run_search` writes: each a change to
# a valid record of trial 1 of the given status.
MISSING = object()
MISFITS = {
    "index-bool": ("ok", {"index": True}),
    "index-float": ("ok", {"index": 1.0}),
    "coeff-nan": ("ok", {"coeff_sft": float("nan")}),
    "coeff-inf": ("failed", {"coeff_rlvr": float("inf")}),
    "coeff-string": ("ok", {"coeff_sft": "0.5"}),
    "coeff-bool": ("ok", {"coeff_rlvr": True}),
    "status-other": ("ok", {"status": "pending"}),
    "consistency-nan": ("ok", {"consistency": float("nan")}),
    "consistency-null": ("ok", {"consistency": None}),
    "consistency-string": ("ok", {"consistency": "0.5"}),
    "consistency-above-one": ("ok", {"consistency": 1.5}),
    "consistency-below-zero": ("ok", {"consistency": -0.25}),
    "perplexity-inf": ("ok", {"perplexity": float("inf")}),
    "perplexity-zero": ("ok", {"perplexity": 0.0}),
    "perplexity-null": ("ok", {"perplexity": None}),
    "failed-with-consistency": ("failed", {"consistency": 0.5}),
    "failed-with-perplexity": ("failed", {"perplexity": 2.0}),
    "failed-queries-negative": ("ok", {"failed_query_count": -1}),
    "failed-queries-float": ("ok", {"failed_query_count": 1.0}),
    "failed-queries-bool": ("failed", {"failed_query_count": False}),
    "failed-queries-missing": ("ok", {"failed_query_count": MISSING}),
}


def misfit_line(case):
    status, changes = MISFITS[case]
    record = json.loads(trial(1, 0.5, 2.0, status=status).to_json())
    record.update(changes)
    return json.dumps({key: value for key, value in record.items() if value is not MISSING})


@pytest.mark.parametrize("last", [False, True], ids=["mid-log", "last-line"])
@pytest.mark.parametrize("case", list(MISFITS))
def test_a_record_whose_fields_do_not_fit_is_refused_or_dropped_last(tmp_path, caplog, case, last):
    log = tmp_path / "trials.jsonl"
    lines = [trial(0, 0.5, 2.0).to_json(), misfit_line(case), trial(2, 0.5, 2.0).to_json()]
    log.write_text("\n".join(lines[:2] if last else lines) + "\n")
    if not last:
        with pytest.raises(TrialLogError, match=rf"{log.name} line 2: unparseable"):
            load_trial_log(log)
        return
    with caplog.at_level(logging.WARNING):
        assert load_trial_log(log) == [trial(0, 0.5, 2.0)]
    assert "dropping truncated last line 2" in caplog.text


def test_misnumbered_trial_record_raises(tmp_path):
    log = tmp_path / "trials.jsonl"
    write_trial_log(log, [0, 2, 3])
    with pytest.raises(TrialLogError, match=rf"{log.name} line 2: trial index 2, expected 1"):
        load_trial_log(log)


def test_failed_queries_dropped_from_trial_mean(tmp_path):
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
        trial_log_path=tmp_path / "trials.jsonl",
        samples_per_query=5,
    )
    assert all(t.status == "ok" for t in result.trials)
    assert all(t.failed_query_count == 1 for t in result.trials)
    assert result.selected.consistency == 1.0


def test_too_many_failed_trials_aborts(tmp_path):
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
            trial_log_path=tmp_path / "trials.jsonl",
            samples_per_query=5,
        )


# Each case: the trials that fail in a run of 10, whose cap is 2 failed
# trials, so the run raises at the last of them.
BROKEN_CAPS = {"complete-log": (7, 8, 9), "partial-log": (2, 3, 4)}


@pytest.mark.parametrize("case", list(BROKEN_CAPS))
def test_resume_over_a_log_past_the_failed_trial_cap_raises_before_any_trial(tmp_path, case):
    log = tmp_path / "trials.jsonl"
    built = []

    def builder(coeffs):
        built.append(coeffs)
        return encode_model_ref(*coeffs)

    def failing_builder(coeffs):
        if len(built) in BROKEN_CAPS[case]:
            built.append(coeffs)
            raise BackendFailure("injected")
        return builder(coeffs)

    kwargs = dict(
        backend=MockBackend(quadratic_landscape(peak=PEAK), seed=9),
        queries=QUERIES,
        config=small_config(seed=8, trials=10),
        trial_log_path=log,
        samples_per_query=5,
    )
    with pytest.raises(TooManyFailedTrialsError) as first:
        run_search(merge_builder=failing_builder, **kwargs)
    assert len(built) == BROKEN_CAPS[case][-1] + 1
    written = log.read_bytes()
    assert len(written.splitlines()) == len(built)

    built.clear()
    with pytest.raises(TooManyFailedTrialsError) as resumed:
        run_search(merge_builder=builder, resume=True, **kwargs)
    assert str(resumed.value) == str(first.value)
    assert built == []
    assert log.read_bytes() == written
