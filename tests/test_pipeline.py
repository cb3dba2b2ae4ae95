from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from reference import read_tensor_bytes
from synth import make_checkpoint_trio, make_config, make_query_pool
from tvfuse import archive, diagnostics, pipeline, task_vector
from tvfuse.errors import BackendFailure, ConfigError, PipelineLockedError, StageError
from tvfuse.evaluator import MockBackend, MockInferenceServer
from tvfuse.floats import narrow_from_f64
from tvfuse.pipeline import (
    PipelineConfig,
    RunReport,
    WorkspaceLock,
    WorkspacePaths,
    apply_overrides,
    build_backend,
    load_config,
    load_report,
    run_pipeline,
    select_data,
)


@pytest.fixture()
def setup(tmp_path):
    checkpoints = make_checkpoint_trio(tmp_path / "ckpt", seed=1)
    pool = make_query_pool(tmp_path / "pool.jsonl")
    config_path = make_config(tmp_path, checkpoints, pool, tmp_path / "ws")
    return tmp_path, checkpoints, pool, config_path


def test_config_round_trip_and_overrides(setup):
    _, _, _, config_path = setup
    config = load_config(config_path, {})
    assert config.retention_p == 0.3
    raw = json.loads(config_path.read_text())
    raw = apply_overrides(raw, {"search.n_trials": "13", "retention_p": "0.5"})
    patched = PipelineConfig.from_dict(raw)
    assert patched.search.n_trials == 13
    assert patched.retention_p == 0.5


def test_missing_checkpoint_fails_validation_before_work(setup):
    tmp_path, _, _, config_path = setup
    config = load_config(config_path, {})
    config.base_path = str(tmp_path / "nope.safetensors")
    with pytest.raises(ConfigError):
        run_pipeline(config)
    assert not (tmp_path / "ws" / "stage1").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("search.n_startup", "40"),
        ("search.space", "[[1, 0], [0, 2]]"),
        ("search.gamma_split", "0"),
        ("search.n_candidates", "0"),
        ("search.k", "0"),
        ("search.temperature", "-1"),
        ("search.temperature", "NaN"),
        ("search.max_tokens", "0"),
    ],
)
def test_bad_search_setting_fails_validation_before_work(setup, key, value):
    tmp_path, _, _, config_path = setup
    config = load_config(config_path, {key: value})
    with pytest.raises(ConfigError, match=key.split(".")[1]):
        run_pipeline(config)
    assert not (tmp_path / "ws" / "stage1").exists()


def test_unknown_config_field_rejected():
    for raw in (
        {"no_such_field": 1},
        {"search": {"n_trial": 5}},
        {"backend": {"no_such_field": 1}},
        {"search": 5},
        {"backend": [1, 2]},
    ):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict(raw)


# Each JSON file reader, and the prefix of its refusal of a file that is not JSON.
JSON_READERS = {
    "config": (lambda path: load_config(path, {}), "cannot load config "),
    "rule-file": (diagnostics.load_module_rules, "cannot load rule file "),
    "stage-file": (lambda path: pipeline._read_json_object(path, set()), "cannot load "),
}


@pytest.mark.parametrize("case", list(JSON_READERS))
@pytest.mark.parametrize("content", [b"{", b"\xff"], ids=["truncated", "not-utf8"])
def test_json_readers_name_the_file_they_cannot_load(tmp_path, case, content):
    read, prefix = JSON_READERS[case]
    path = tmp_path / "file.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError) as info:
        read(path)
    assert str(info.value).startswith(f"{prefix}{path}: "), str(info.value)


def test_full_pipeline_completes_and_finds_peak(setup):
    _, _, _, config_path = setup
    config = load_config(config_path, {})
    report = run_pipeline(config)
    paths = WorkspacePaths(Path(config.workspace))
    assert paths.difficulty_records.exists()
    assert paths.adaptation_set.exists()
    assert paths.tau_sft.exists() and paths.tau_rlvr.exists()
    assert paths.trial_log.exists() and paths.search_result.exists()
    assert paths.merged_model.exists() and paths.report.exists()
    assert not paths.candidate.exists()  # transient candidate cleaned up
    distance = math.hypot(report.coefficients[0] - 0.8, report.coefficients[1] - 1.5)
    assert distance < 0.15
    assert set(report.stage_seconds) == {"select-data", "task-vectors", "search", "final-merge"}
    assert report.vector_summary["sft"]["original_norm"] > 0
    assert len(report.input_digests) == 4


def count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_reads(monkeypatch, merges: list) -> list[tuple[Path, str, int]]:
    """Every tensor the task-vector layer reads, as (archive path, tensor
    name, merges begun before the read)."""
    reads = []
    original = task_vector.read_tensor

    def counted(arc, name, *args, **kwargs):
        reads.append((Path(arc.path), name, len(merges)))
        return original(arc, name, *args, **kwargs)

    monkeypatch.setattr(task_vector, "read_tensor", counted)
    return reads


def test_mock_backend_search_merges_and_loads_nothing(setup, monkeypatch):
    _, _, _, config_path = setup
    config = load_config(config_path, {})
    paths = WorkspacePaths(Path(config.workspace))
    merges = count_calls(monkeypatch, pipeline, "merge")
    reads = count_reads(monkeypatch, merges)
    candidate_dir_seen = []
    original_generate = MockBackend.generate

    def generate(self, request):
        candidate_dir_seen.append(paths.candidate.parent.exists())
        return original_generate(self, request)

    monkeypatch.setattr(MockBackend, "generate", generate)
    run_pipeline(config)
    assert len(merges) == 1 and merges[0][2] == paths.merged_model  # the final merge alone
    stored = [(path, name, merged) for path, name, merged in reads if path.parent == paths.stage2]
    # The search reads no stage-2 tensor; the final merge reads each one once.
    assert all(merged == 1 for _, _, merged in stored)
    names = archive.open_archive(config.base_path).entries
    assert sorted((path, name) for path, name, _ in stored) == sorted(
        (path, name) for path in (paths.tau_sft, paths.tau_rlvr) for name in names
    )
    assert candidate_dir_seen and not any(candidate_dir_seen)
    assert not paths.candidate.parent.exists()


def test_http_backend_search_requests_a_written_candidate(setup, monkeypatch):
    _, _, _, config_path = setup
    config = load_config(config_path, {"search.n_trials": "6", "search.n_startup": "3"})
    paths = WorkspacePaths(Path(config.workspace))
    candidate = str(paths.candidate)
    served = build_backend(config)  # the config's mock landscape and aliases
    served.aliases = {**served.aliases, candidate: (0.8, 1.45)}
    requests = []  # (model ref, whether a file of that name exists) per served request
    generate, score = served.generate, served.score

    def recorded_generate(request):
        requests.append((request.model_ref, Path(request.model_ref).is_file()))
        return generate(request)

    def recorded_score(model_ref, text):
        requests.append((model_ref, Path(model_ref).is_file()))
        return score(model_ref, text)

    served.generate, served.score = recorded_generate, recorded_score
    merges = count_calls(monkeypatch, pipeline, "merge")
    with MockInferenceServer(served) as server:
        config.backend.kind = "http"
        config.backend.url = server.url
        run_pipeline(config)
    assert len(merges) == config.search.n_trials + 1
    search_requests = [r for r in requests if r[0] not in ("sft", "rlvr")]
    assert len(search_requests) == 2 * config.n * config.search.n_trials
    assert set(search_requests) == {(candidate, True)}
    assert not paths.candidate.parent.exists()


def test_pipeline_bitwise_reproducible(setup):
    tmp_path, checkpoints, pool, _ = setup
    results = []
    for tag in ("a", "b"):
        config_path = make_config(tmp_path / tag, checkpoints, pool, tmp_path / f"ws_{tag}")
        report = run_pipeline(load_config(config_path, {}))
        paths = WorkspacePaths(Path(tmp_path / f"ws_{tag}"))
        results.append(
            (
                report.coefficients,
                paths.merged_model.read_bytes(),
                paths.trial_log.read_text(),
            )
        )
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1]
    assert results[0][2] == results[1][2]


def test_the_pool_is_read_once_for_both_stages_that_use_it(setup, monkeypatch):
    # The pool is rewritten, same ids and other texts, while stage 1 scores
    # it. Under query jitter the texts move every score, so the search must
    # score the texts stage 1 selected from, the ones the digest is of.
    tmp_path, checkpoints, pool, _ = setup
    original = pool.read_bytes()

    def run(tag: str) -> WorkspacePaths:
        config_path = make_config(tmp_path / tag, checkpoints, pool, tmp_path / f"ws_{tag}")
        run_pipeline(load_config(config_path, {}))
        return WorkspacePaths(tmp_path / f"ws_{tag}")

    undisturbed = run("undisturbed")
    build = pipeline.build_backend
    rewrite_once = threading.Lock()

    def rewriting_backend(config):
        backend = build(config)
        generate = backend.generate

        def generate_after_rewrite(request):
            if rewrite_once.acquire(blocking=False):
                pool.write_bytes(original.replace(b"Compute the value", b"Estimate the size"))
            return generate(request)

        backend.generate = generate_after_rewrite
        return backend

    monkeypatch.setattr(pipeline, "build_backend", rewriting_backend)
    rewritten = run("rewritten")
    assert pool.read_bytes() != original
    assert rewritten.trial_log.read_bytes() == undisturbed.trial_log.read_bytes()
    stage1 = json.loads(rewritten.adaptation_set.read_text())
    assert stage1["pool_sha256"] == hashlib.sha256(original).hexdigest()


def test_pipeline_resume_after_crash_matches_uninterrupted(setup, monkeypatch):
    tmp_path, checkpoints, pool, _ = setup

    ref_config = load_config(
        make_config(tmp_path / "ref", checkpoints, pool, tmp_path / "ws_ref"),
        {},
    )
    reference = run_pipeline(ref_config)
    ref_paths = WorkspacePaths(Path(ref_config.workspace))

    crash_config_path = make_config(tmp_path / "crash", checkpoints, pool, tmp_path / "ws_crash")
    crash_config = load_config(crash_config_path, {})
    crash_paths = WorkspacePaths(Path(crash_config.workspace))

    calls = {"generate": 0}
    original_generate = MockBackend.generate

    def flaky_generate(self, request):
        if request.model_ref.startswith("merged:"):
            calls["generate"] += 1
            if calls["generate"] > 60:  # mid-search, after ~ a dozen trials
                raise RuntimeError("simulated kill")
        return original_generate(self, request)

    monkeypatch.setattr(MockBackend, "generate", flaky_generate)
    with pytest.raises(RuntimeError):
        run_pipeline(crash_config)
    monkeypatch.setattr(MockBackend, "generate", original_generate)

    completed = len(crash_paths.trial_log.read_text().splitlines())
    assert 0 < completed < crash_config.search.n_trials
    assert not crash_paths.merged_model.exists()
    assert not (Path(crash_config.workspace) / ".lock").exists()  # lock released on crash

    resumed = run_pipeline(crash_config, resume=True)
    assert resumed.coefficients == reference.coefficients
    assert crash_paths.trial_log.read_text() == ref_paths.trial_log.read_text()
    crash_result = json.loads(crash_paths.search_result.read_text())
    ref_result = json.loads(ref_paths.search_result.read_text())
    # Recipes reference their own workspace's artifacts; compare the rest.
    assert [t["coefficient"] for t in crash_result.pop("recipe")["terms"]] == [
        t["coefficient"] for t in ref_result.pop("recipe")["terms"]
    ]
    assert crash_result == ref_result
    assert crash_paths.merged_model.read_bytes() == ref_paths.merged_model.read_bytes()


def test_resume_skips_completed_stages(setup, monkeypatch):
    _, _, _, config_path = setup
    config = load_config(config_path, {})
    run_pipeline(config)
    paths = WorkspacePaths(Path(config.workspace))
    outputs = [
        paths.adaptation_set,
        paths.tau_sft,
        paths.tau_rlvr,
        paths.vector_summary,
        paths.trial_log,
        paths.search_result,
        paths.merged_model,
    ]
    written = {path: path.read_bytes() for path in outputs}
    paths.merged_model.unlink()

    def fail(stage):
        def failing(*args, **kwargs):
            raise AssertionError(f"{stage} should have been reused")

        return failing

    monkeypatch.setattr(pipeline, "score_difficulty", fail("stage 1"))
    monkeypatch.setattr(pipeline, "deltas", fail("stage 2"))
    report = run_pipeline(config, resume=True)
    assert report.final_model is not None
    assert {path: path.read_bytes() for path in outputs} == written


# Each setting a stage file records, changed alone: the config overrides,
# and the file, field and both values the refusal names. The last case
# changes two settings; stage 1 refuses first.
CHANGED_SETTINGS = {
    "seed": ({"seed": "5"}, "stage1/adaptation_set.json", "seed", 7, 5),
    "m": ({"m": "4"}, "stage1/adaptation_set.json", "m", 5, 4),
    "n": ({"n": "6"}, "stage1/adaptation_set.json", "n", 8, 6),
    "threshold": (
        {"difficulty_threshold": "0.5"}, "stage1/adaptation_set.json", "difficulty_threshold", None, 0.5
    ),
    "retention_p": ({"retention_p": "0.9"}, "stage2/summary.json", "retention_p", 0.3, 0.9),
    "epsilon": ({"epsilon": "1e-6"}, "stage2/summary.json", "epsilon", 1e-8, 1e-6),
    "retention_p and seed": (
        {"retention_p": "0.9", "seed": "5"}, "stage1/adaptation_set.json", "seed", 7, 5
    ),
}


@pytest.mark.parametrize("case", list(CHANGED_SETTINGS))
def test_resume_refuses_stage_files_written_under_other_settings(setup, case):
    tmp_path, _, _, config_path = setup
    fixed = {"fixed_coefficients": "[1.0, 1.0]"}
    run_pipeline(load_config(config_path, fixed))
    overrides, name, key, written, configured = CHANGED_SETTINGS[case]
    stage_files = sorted((tmp_path / "ws").glob("stage*/*"))
    before = [path.read_bytes() for path in stage_files]
    with pytest.raises(StageError) as info:
        run_pipeline(load_config(config_path, {**fixed, **overrides}), resume=True)
    assert isinstance(info.value.__cause__, ConfigError)
    message = str(info.value)
    assert str(tmp_path / "ws" / name) in message
    assert f"{key}={written!r}" in message and f"{key}={configured!r}" in message
    assert [path.read_bytes() for path in stage_files] == before


def test_fixed_coefficients_with_full_retention_is_linear(setup):
    tmp_path, checkpoints, pool, _ = setup
    config_path = make_config(
        tmp_path / "fixed",
        checkpoints,
        pool,
        tmp_path / "ws_fixed",
        retention_p=1.0,
        fixed_coefficients=[1.0, 1.0],
    )
    config = load_config(config_path, {})
    report = run_pipeline(config)
    assert report.selection_rule == "fixed"
    paths = WorkspacePaths(Path(config.workspace))

    base = archive.open_archive(checkpoints["base"])
    sft = archive.open_archive(checkpoints["sft"])
    rlvr = archive.open_archive(checkpoints["rlvr"])
    merged = archive.open_archive(paths.merged_model)
    for name in base.entries:
        b = archive.read_tensor(base, name, out=None).values
        tau_sft = archive.read_tensor(sft, name, out=None).values - b
        tau_rlvr = archive.read_tensor(rlvr, name, out=None).values - b
        expected = narrow_from_f64(b + tau_sft + tau_rlvr, "F32")
        assert read_tensor_bytes(merged, name) == expected


def test_lock_blocks_concurrent_runs(setup):
    tmp_path, _, _, config_path = setup
    config = load_config(config_path, {})
    workspace = Path(config.workspace)
    with WorkspaceLock(workspace):
        with pytest.raises(PipelineLockedError):
            with WorkspaceLock(workspace):
                pass
        with pytest.raises(PipelineLockedError):
            run_pipeline(config)
        assert (workspace / ".lock").read_text() == str(os.getpid())
    assert not (workspace / "stage1").exists()
    assert not (workspace / ".lock").exists()


_HOLD_LOCK = """
import sys, time
from pathlib import Path
from tvfuse.pipeline import WorkspaceLock
with WorkspaceLock(Path(sys.argv[1])):
    print("locked", flush=True)
    time.sleep(120)
"""


def test_lock_of_a_killed_holder_does_not_block_the_next_run(tmp_path):
    workspace = tmp_path / "ws"
    src = str(Path(pipeline.__file__).resolve().parents[1])
    holder = subprocess.Popen(
        [sys.executable, "-c", _HOLD_LOCK, str(workspace)],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert holder.stdout.readline().strip() == "locked"
        with pytest.raises(PipelineLockedError):
            with WorkspaceLock(workspace):
                pass
        holder.kill()  # SIGKILL: no cleanup runs, so `.lock` stays behind
        holder.wait(timeout=30)
    finally:
        if holder.poll() is None:
            holder.kill()
            holder.wait(timeout=30)
        holder.stdout.close()
    assert (workspace / ".lock").read_text() == str(holder.pid)
    with WorkspaceLock(workspace):
        assert (workspace / ".lock").read_text() == str(os.getpid())
    assert not (workspace / ".lock").exists()


def test_lock_admits_one_holder_at_a_time(tmp_path):
    # Each thread opens `.lock` on its own, and flock locks conflict between
    # open files even within one process, so threads race like processes.
    workspace = tmp_path / "ws"
    guard = threading.Lock()
    state = {"holding": 0, "most": 0, "entries": 0}
    errors: list[BaseException] = []
    deadline = time.monotonic() + 2.0

    def contend():
        try:
            while time.monotonic() < deadline:
                try:
                    with WorkspaceLock(workspace):
                        with guard:
                            state["holding"] += 1
                            state["entries"] += 1
                            state["most"] = max(state["most"], state["holding"])
                        time.sleep(0)
                        with guard:
                            state["holding"] -= 1
                except PipelineLockedError:
                    pass
        except BaseException as exc:  # reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=contend) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert state["most"] == 1 and state["entries"] > 1, state
    assert not (workspace / ".lock").exists()


def test_fixed_coefficients_write_the_same_search_result_bytes(setup):
    tmp_path, checkpoints, pool, _ = setup
    config_path = make_config(
        tmp_path / "fixed", checkpoints, pool, tmp_path / "ws_fixed", fixed_coefficients=[0.5, 1.25]
    )
    config = load_config(config_path, {})
    report = run_pipeline(config, final_merge=False)
    assert (report.coefficients, report.selection_rule) == ([0.5, 1.25], "fixed")
    expected = '{\n  "selection_rule": "fixed",\n  "coefficients": [\n    0.5,\n    1.25\n  ]\n}'
    assert WorkspacePaths(Path(config.workspace)).search_result.read_text() == expected


def test_fresh_stage_one_leaves_no_stale_scoring_failures(setup, monkeypatch):
    _, _, _, config_path = setup
    config = load_config(config_path, {})
    paths = WorkspacePaths(Path(config.workspace))
    original_generate = MockBackend.generate
    failing_prompt: list[str] = []

    def flaky_generate(self, request):
        # Fail every request for the first prompt seen, so one query fails.
        failing_prompt[:] = failing_prompt or [request.prompt]
        if request.prompt == failing_prompt[0]:
            raise BackendFailure("simulated outage")
        return original_generate(self, request)

    monkeypatch.setattr(MockBackend, "generate", flaky_generate)
    select_data(config, resume=False)
    assert len(json.loads(paths.scoring_failures.read_text())) == 1
    monkeypatch.setattr(MockBackend, "generate", original_generate)
    select_data(config, resume=False)
    assert not paths.scoring_failures.exists()


def test_stale_lock_is_reclaimed(tmp_path):
    workspace = tmp_path / "ws"
    workspace.mkdir()
    (workspace / ".lock").write_text("999999999")
    with WorkspaceLock(workspace):
        assert (workspace / ".lock").read_text() == str(os.getpid())
    assert not (workspace / ".lock").exists()


def test_report_round_trip_and_revalidation(setup):
    _, _, _, config_path = setup
    config = load_config(config_path, {})
    run_pipeline(config)
    report = load_report(config.workspace)
    assert report.tool_version
    assert report.numpy_version == np.__version__
    assert report.coefficients is not None
    assert PipelineConfig.from_dict(report.config).seed == config.seed


def report_bytes(drop: str | None = None, **changes) -> bytes:
    payload = {f.name: None for f in fields(RunReport)}
    payload["config"] = {}
    payload.pop(drop, None)
    payload.update(changes)
    return json.dumps(payload).encode()


@pytest.mark.parametrize(
    "content",
    [
        None,
        b"\xff\xfe",
        b"{not json",
        b"[1, 2]",
        report_bytes(drop="coefficients"),
        report_bytes(drop="numpy_version"),
        report_bytes(bogus=1),
        report_bytes(config="abc"),
        report_bytes(config={"bogus": 1}),
    ],
    ids=[
        "missing-file", "not-utf8", "invalid-json", "non-object", "missing-key", "no-numpy-version",
        "unexpected-key", "non-object-config", "invalid-config",
    ],
)
def test_malformed_report_raises_config_error_naming_file(tmp_path, content):
    WorkspacePaths(tmp_path).report.write_bytes(report_bytes())
    assert load_report(tmp_path).config == {}
    if content is None:
        WorkspacePaths(tmp_path).report.unlink()
    else:
        WorkspacePaths(tmp_path).report.write_bytes(content)
    with pytest.raises(ConfigError, match="report.json"):
        load_report(tmp_path)


def test_report_with_mistyped_config_raises_config_error(tmp_path):
    # The report's config is type-checked, but its paths need not exist.
    config = {"base_path": str(tmp_path / "gone.safetensors"), "seed": 3}
    WorkspacePaths(tmp_path).report.write_bytes(report_bytes(config=config))
    assert load_report(tmp_path).config == config
    WorkspacePaths(tmp_path).report.write_bytes(report_bytes(config={**config, "retention_p": "abc"}))
    with pytest.raises(ConfigError, match="report.json: retention_p must be a finite number"):
        load_report(tmp_path)


def test_search_without_final_merge(setup):
    _, _, _, config_path = setup
    config = load_config(config_path, {})
    report = run_pipeline(config, final_merge=True)
    # A fresh workspace searched without the final merge leaves no model.
    config.workspace = str(Path(config.workspace).parent / "ws_search_only")
    report = run_pipeline(config, final_merge=False)
    assert report.final_model is None
    assert not WorkspacePaths(Path(config.workspace)).merged_model.exists()
    assert WorkspacePaths(Path(config.workspace)).search_result.exists()


def test_stage_error_names_the_stage(setup, monkeypatch):
    _, _, _, config_path = setup
    config = load_config(config_path, {})
    from tvfuse import pipeline as pl
    from tvfuse.errors import BackendFailure, StageError

    def broken_scoring(*args, **kwargs):
        raise BackendFailure("backend down")

    monkeypatch.setattr(pl, "score_difficulty", broken_scoring)
    with pytest.raises(StageError) as info:
        run_pipeline(config)
    assert info.value.stage == "select-data"
    assert "select-data" in str(info.value)


def test_difficulty_spread_produces_two_pools(setup):
    _, _, _, config_path = setup
    config = load_config(config_path, {})
    run_pipeline(config, final_merge=False)
    payload = json.loads(WorkspacePaths(Path(config.workspace)).adaptation_set.read_text())
    assert payload["drawn_from_low"] + payload["drawn_from_medium"] == config.n
    assert len(payload["selected"]) == config.n
    records = json.loads(WorkspacePaths(Path(config.workspace)).difficulty_records.read_text())
    difficulties = {r["difficulty"] for r in records}
    assert len(difficulties) > 1  # query jitter spreads difficulty
    assert all(0.0 <= d <= 1.0 for d in difficulties)


# Lockstep passes of stage 2 over the inputs. At 0.3: pass 1 (norms and the
# select's top digit), one gather pass (this trio's cuts lie in buckets no
# larger than a tensor and not on their floor), the mask pass and the write
# pass. At full retention the write pass alone.
@pytest.mark.parametrize("retention", [0.3, 1.0])
def test_stage_two_sparsifies_each_vector_once(setup, monkeypatch, retention):
    passes = {0.3: 4, 1.0: 1}[retention]
    _, _, _, config_path = setup
    config = load_config(config_path, {"retention_p": str(retention)})
    digests = pipeline._checkpoint_digests(config)
    reads = count_reads(monkeypatch, [])
    summary = pipeline._stage_task_vectors(
        config, WorkspacePaths(Path(config.workspace)), digests, resume=False
    )
    tensors = len(archive.open_archive(config.base_path).entries)
    assert Counter(path.name for path, _, _ in reads) == {
        f"{label}.safetensors": passes * tensors for label in ("base", "sft", "rlvr")
    }
    monkeypatch.undo()
    # The count on the processed vectors equals the interference of the raw ones.
    base = archive.open_archive(config.base_path)
    raw = [
        task_vector.extract_task_vector(base, archive.open_archive(path))
        for path in (config.sft_path, config.rlvr_path)
    ]
    for label, tv in zip(("sft", "rlvr"), raw):
        assert summary[label]["original_norm"] == task_vector.global_l2_norm(tv, {})
    expected = diagnostics.sign_interference(raw[0], raw[1], retention, retention)
    assert summary["sign_interference"] == {
        "retention_a": retention,
        "retention_b": retention,
        "conflict_ratio": expected.conflict_ratio,
        "denominator_count": expected.denominator_count,
    }


def test_stage_two_takes_three_passes_when_each_cut_is_its_buckets_floor(tmp_path, monkeypatch):
    # Deltas k/8 with |k| < 8 have at most 3 significant bits, so each cut is
    # the floor value of its top-digit bucket and pass 1 settles it.
    rng = np.random.default_rng(4)
    shapes = {"a": (40,), "b": (7, 5), "c": (1,)}
    checkpoints = {}
    for label, spread in (("base", 0), ("sft", 7), ("rlvr", 2)):
        checkpoints[label] = tmp_path / f"{label}.safetensors"
        archive.write_archive(
            [
                (name, "BF16", list(shape), 2.0 + rng.integers(-spread, spread + 1, math.prod(shape)) / 8)
                for name, shape in shapes.items()
            ],
            checkpoints[label],
        )
    pool = make_query_pool(tmp_path / "pool.jsonl")
    config = load_config(make_config(tmp_path, checkpoints, pool, tmp_path / "ws"), {})
    digests = pipeline._checkpoint_digests(config)
    reads = count_reads(monkeypatch, [])
    summary = pipeline._stage_task_vectors(
        config, WorkspacePaths(Path(config.workspace)), digests, resume=False
    )
    assert Counter(path.name for path, _, _ in reads) == {
        f"{label}.safetensors": 3 * len(shapes) for label in ("base", "sft", "rlvr")
    }
    # ceil(0.3 * 76) entries, all non-zero since both cuts are above 0.
    assert summary["sft"]["retained_count"] == summary["rlvr"]["retained_count"] == 23


def test_stage_two_passes_reuse_one_readers_buffers(setup, monkeypatch):
    # One `deltas` reader serves all four passes at 0.3, so the last pass
    # reads into the pages the first one faulted in.
    _, _, _, config_path = setup
    config = load_config(config_path, {})
    passes = []
    original = pipeline.deltas

    def recorded(*args, **kwargs):
        read = original(*args, **kwargs)

        def each_pass():
            arrays = []
            passes.append(arrays)
            for name, vectors in read():
                arrays.append(list(vectors))
                yield name, vectors

        return each_pass

    monkeypatch.setattr(pipeline, "deltas", recorded)
    paths = WorkspacePaths(Path(config.workspace))
    pipeline._stage_task_vectors(config, paths, pipeline._checkpoint_digests(config), resume=False)
    assert len(passes) == 4
    first, last = passes[0][0], passes[-1][0]
    assert len(first) == len(last) == 2
    assert all(np.shares_memory(a, b) for a, b in zip(first, last))
    # Two passes of one stored vector's reader read into one buffer.
    read = task_vector.lockstep(task_vector.StoredVector(paths.tau_sft))
    (_, (once,)), (_, (again,)) = next(read()), next(read())
    assert np.shares_memory(once, again)


def write_bf16_trio(directory: Path, count: int, size: int) -> dict[str, Path]:
    """A BF16 trio of `count` tensors of `size` values, with the benchmark's
    delta scales, so after rounding many deltas tie."""
    rng = np.random.default_rng(count)
    names = [f"model.layers.{i}.mlp.up_proj.weight" for i in range(count)]
    base = {name: rng.standard_normal(size) * 0.02 for name in names}
    trio = {"base": base}
    for label, scale in (("sft", 2e-3), ("rlvr", 5e-4)):
        trio[label] = {name: values + rng.standard_normal(size) * scale for name, values in base.items()}
    directory.mkdir(parents=True, exist_ok=True)
    checkpoints = {}
    for label, tensors in trio.items():
        checkpoints[label] = directory / f"{label}.safetensors"
        archive.write_archive(
            [(name, "BF16", [size], values) for name, values in tensors.items()], checkpoints[label]
        )
    return checkpoints


def test_stage_two_and_final_merge_hold_memory_bounded_by_the_largest_tensor(tmp_path):
    # Tensors large enough that the headers parsed per tensor, which do grow
    # with the count, stay small next to the data.
    size = 65_536
    pool = make_query_pool(tmp_path / "pool.jsonl")
    peaks = {}
    for count in (16, 64):
        directory = tmp_path / str(count)
        config = load_config(
            make_config(directory, write_bf16_trio(directory, count, size), pool, directory / "ws"),
            {},
        )
        paths = WorkspacePaths(Path(config.workspace))
        digests = pipeline._checkpoint_digests(config)
        tracemalloc.start()
        try:
            pipeline._stage_task_vectors(config, paths, digests, resume=False)
            stage_two = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            pipeline._stage_final_merge(config, paths, (0.8, 1.5))
            final_merge = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[count] = (stage_two, final_merge)
    tensor_bytes = size * 8
    for stage_two, final_merge in peaks.values():
        # Stage 2 also holds each vector's select counters, 2^17 integers.
        assert stage_two <= 16 * tensor_bytes and final_merge <= 6 * tensor_bytes
    for few, many in zip(peaks[16], peaks[64]):
        assert many <= 1.1 * few


@pytest.mark.parametrize("url", ["localhost:8000", "ftp://host/x", "http://"])
def test_http_backend_url_without_http_scheme_is_a_config_error(setup, url):
    _, _, _, config_path = setup
    config = load_config(config_path, {"backend.kind": "http", "backend.url": url})
    with pytest.raises(ConfigError):
        build_backend(config)
