from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from synth import make_checkpoint_trio, make_config, make_query_pool
from tvfuse import archive, diagnostics, pipeline, task_vector
from tvfuse.errors import ConfigError, PipelineLockedError
from tvfuse.evaluator import MockBackend
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
)


@pytest.fixture()
def setup(tmp_path):
    checkpoints = make_checkpoint_trio(tmp_path / "ckpt", seed=1)
    pool = make_query_pool(tmp_path / "pool.jsonl")
    config_path = make_config(tmp_path, checkpoints, pool, tmp_path / "ws")
    return tmp_path, checkpoints, pool, config_path


def test_config_round_trip_and_overrides(setup):
    _, _, _, config_path = setup
    config = load_config(config_path)
    assert config.retention_p == 0.3
    raw = json.loads(config_path.read_text())
    raw = apply_overrides(raw, {"search.n_trials": "13", "retention_p": "0.5"})
    patched = PipelineConfig.from_dict(raw)
    assert patched.search.n_trials == 13
    assert patched.retention_p == 0.5


def test_missing_checkpoint_fails_validation_before_work(setup):
    tmp_path, _, _, config_path = setup
    config = load_config(config_path)
    config.base_path = str(tmp_path / "nope.safetensors")
    with pytest.raises(ConfigError):
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


def test_full_pipeline_completes_and_finds_peak(setup):
    _, _, _, config_path = setup
    config = load_config(config_path)
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


def test_pipeline_bitwise_reproducible(setup):
    tmp_path, checkpoints, pool, _ = setup
    results = []
    for tag in ("a", "b"):
        config_path = make_config(tmp_path / tag, checkpoints, pool, tmp_path / f"ws_{tag}")
        report = run_pipeline(load_config(config_path))
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


def test_pipeline_resume_after_crash_matches_uninterrupted(setup, monkeypatch):
    tmp_path, checkpoints, pool, _ = setup

    ref_config = load_config(make_config(tmp_path / "ref", checkpoints, pool, tmp_path / "ws_ref"))
    reference = run_pipeline(ref_config)
    ref_paths = WorkspacePaths(Path(ref_config.workspace))

    crash_config_path = make_config(tmp_path / "crash", checkpoints, pool, tmp_path / "ws_crash")
    crash_config = load_config(crash_config_path)
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
    config = load_config(config_path)
    run_pipeline(config)

    from tvfuse import pipeline as pl

    def fail_scoring(*args, **kwargs):
        raise AssertionError("stage 1 should have been reused")

    monkeypatch.setattr(pl, "score_difficulty", fail_scoring)
    report = run_pipeline(config, resume=True)
    assert report.final_model is not None


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
    config = load_config(config_path)
    report = run_pipeline(config)
    assert report.selection_rule == "fixed"
    paths = WorkspacePaths(Path(config.workspace))

    base = archive.open_archive(checkpoints["base"])
    sft = archive.open_archive(checkpoints["sft"])
    rlvr = archive.open_archive(checkpoints["rlvr"])
    merged = archive.open_archive(paths.merged_model)
    for name in base.entries:
        b = archive.read_tensor(base, name).values
        tau_sft = archive.read_tensor(sft, name).values - b
        tau_rlvr = archive.read_tensor(rlvr, name).values - b
        expected = narrow_from_f64(b + tau_sft + tau_rlvr, "F32")
        assert archive.read_tensor_bytes(merged, name) == expected


def test_lock_blocks_concurrent_runs(setup):
    tmp_path, _, _, config_path = setup
    config = load_config(config_path)
    workspace = Path(config.workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    (workspace / ".lock").write_text(str(os.getpid()))
    with pytest.raises(PipelineLockedError):
        run_pipeline(config)
    (workspace / ".lock").unlink()


def test_stale_lock_is_reclaimed(tmp_path):
    workspace = tmp_path / "ws"
    workspace.mkdir()
    (workspace / ".lock").write_text("999999999")
    with WorkspaceLock(workspace):
        assert (workspace / ".lock").read_text() == str(os.getpid())
    assert not (workspace / ".lock").exists()


def test_report_round_trip_and_revalidation(setup):
    _, _, _, config_path = setup
    config = load_config(config_path)
    run_pipeline(config)
    report = load_report(config.workspace)
    assert report.tool_version
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
        report_bytes(bogus=1),
        report_bytes(config="abc"),
        report_bytes(config={"bogus": 1}),
    ],
    ids=[
        "missing-file", "not-utf8", "invalid-json", "non-object", "missing-key",
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


def test_search_without_final_merge(setup):
    _, _, _, config_path = setup
    config = load_config(config_path)
    report = run_pipeline(config, final_merge=True)
    # A fresh workspace searched without the final merge leaves no model.
    config.workspace = str(Path(config.workspace).parent / "ws_search_only")
    report = run_pipeline(config, final_merge=False)
    assert report.final_model is None
    assert not WorkspacePaths(Path(config.workspace)).merged_model.exists()
    assert WorkspacePaths(Path(config.workspace)).search_result.exists()


def test_stage_error_names_the_stage(setup, monkeypatch):
    _, _, _, config_path = setup
    config = load_config(config_path)
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
    config = load_config(config_path)
    run_pipeline(config, final_merge=False)
    payload = json.loads(WorkspacePaths(Path(config.workspace)).adaptation_set.read_text())
    assert payload["drawn_from_low"] + payload["drawn_from_medium"] == config.n
    assert len(payload["selected"]) == config.n
    records = json.loads(WorkspacePaths(Path(config.workspace)).difficulty_records.read_text())
    difficulties = {r["difficulty"] for r in records}
    assert len(difficulties) > 1  # query jitter spreads difficulty
    assert all(0.0 <= d <= 1.0 for d in difficulties)


@pytest.mark.parametrize("retention", [0.3, 1.0])
def test_stage_two_sparsifies_each_vector_once(setup, monkeypatch, retention):
    _, _, _, config_path = setup
    config = load_config(config_path, {"retention_p": str(retention)})
    calls = []
    original = task_vector.sparsify

    def counting_sparsify(tv, p, *args, **kwargs):
        calls.append(p)
        return original(tv, p, *args, **kwargs)

    monkeypatch.setattr(task_vector, "sparsify", counting_sparsify)
    monkeypatch.setattr(diagnostics, "sparsify", counting_sparsify)
    summary = pipeline._stage_task_vectors(config, WorkspacePaths(Path(config.workspace)), resume=False)
    assert calls == ([retention, retention] if retention < 1.0 else [])
    # The count on the processed vectors equals the interference of the raw ones.
    base = archive.open_archive(config.base_path)
    raw = [
        task_vector.extract_task_vector(base, archive.open_archive(path))
        for path in (config.sft_path, config.rlvr_path)
    ]
    expected = diagnostics.sign_interference(raw[0], raw[1], retention, retention)
    assert summary["sign_interference"] == {
        "retention_a": retention,
        "retention_b": retention,
        "conflict_ratio": expected.conflict_ratio,
        "denominator_count": expected.denominator_count,
    }


@pytest.mark.parametrize("url", ["localhost:8000", "ftp://host/x", "http://"])
def test_http_backend_url_without_http_scheme_is_a_config_error(setup, url):
    _, _, _, config_path = setup
    config = load_config(config_path, {"backend.kind": "http", "backend.url": url})
    with pytest.raises(ConfigError):
        build_backend(config)
