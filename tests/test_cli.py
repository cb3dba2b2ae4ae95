from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from synth import make_checkpoint_trio, make_config, make_query_pool
from tvfuse import archive
from tvfuse.cli import main
from tvfuse.pipeline import WorkspacePaths
from tvfuse.task_vector import load_task_vector


@pytest.fixture()
def setup(tmp_path):
    checkpoints = make_checkpoint_trio(tmp_path / "ckpt", seed=2)
    pool = make_query_pool(tmp_path / "pool.jsonl")
    config_path = make_config(tmp_path, checkpoints, pool, tmp_path / "ws")
    return tmp_path, checkpoints, pool, config_path


def test_extract_subcommand(setup, capsys):
    tmp_path, checkpoints, _, _ = setup
    out = tmp_path / "tau.safetensors"
    code = main(
        [
            "extract",
            "--base", str(checkpoints["base"]),
            "--finetuned", str(checkpoints["sft"]),
            "--out", str(out),
            "--base-id", "base-model",
            "--ft-id", "sft-model",
        ]
    )
    assert code == 0
    tv = load_task_vector(out)
    assert tv.source_base_id == "base-model"
    assert "wrote task vector" in capsys.readouterr().out


def test_sparsify_and_merge_subcommands(setup, capsys):
    tmp_path, checkpoints, _, _ = setup
    tau = tmp_path / "tau.safetensors"
    main(["extract", "--base", str(checkpoints["base"]), "--finetuned", str(checkpoints["sft"]), "--out", str(tau)])
    sparse = tmp_path / "tau_sparse.safetensors"
    assert main(["sparsify", "--vector", str(tau), "--out", str(sparse), "--retention", "0.3"]) == 0
    tv = load_task_vector(sparse)
    assert tv.sparsity is not None and tv.sparsity.rescale_gamma is not None

    merged = tmp_path / "merged.safetensors"
    code = main(
        ["merge", "--base", str(checkpoints["base"]), "--term", f"{sparse}=0.8", "--out", str(merged)]
    )
    assert code == 0
    assert archive.open_archive(merged).entries.keys() == archive.open_archive(checkpoints["base"]).entries.keys()


def test_analyze_subcommands(setup, capsys, tmp_path):
    _, checkpoints, _, _ = setup
    tau_sft = tmp_path / "a.safetensors"
    tau_rlvr = tmp_path / "b.safetensors"
    main(["extract", "--base", str(checkpoints["base"]), "--finetuned", str(checkpoints["sft"]), "--out", str(tau_sft)])
    main(["extract", "--base", str(checkpoints["base"]), "--finetuned", str(checkpoints["rlvr"]), "--out", str(tau_rlvr)])
    capsys.readouterr()  # drop extract chatter

    norms_csv = tmp_path / "norms.csv"
    assert main(["analyze", "norms", "--vector", str(tau_sft), "--out-csv", str(norms_csv)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["global_norm"] > 0
    assert norms_csv.exists()

    assert (
        main(
            [
                "analyze", "sign-interference",
                "--a", str(tau_sft), "--b", str(tau_rlvr),
                "--retain-a", "1.0", "--retain-b", "0.1",
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["conflict_ratio"] <= 1.0
    assert report["denominator_count"] > 0

    sweep_csv = tmp_path / "sweep.csv"
    assert (
        main(
            [
                "analyze", "sweep",
                "--a", str(tau_sft), "--b", str(tau_rlvr),
                "--retentions", "1.0,0.5", "--retain-b", "0.1",
                "--out-csv", str(sweep_csv),
            ]
        )
        == 0
    )
    assert len(sweep_csv.read_text().splitlines()) == 3  # header + 2 rows
    capsys.readouterr()

    assert main(["analyze", "modules", "--vector", str(tau_sft), "--retention", "0.1"]) == 0
    ratios = json.loads(capsys.readouterr().out)
    assert "MLP" in ratios


def test_usage_errors_exit_one(capsys):
    assert main(["extract", "--base", "x"]) == 1  # missing required args
    assert main(["merge", "--base", "b", "--term", "novalue", "--out", "o"]) == 1
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_runtime_errors_exit_two(setup, capsys):
    tmp_path, checkpoints, _, _ = setup
    code = main(
        [
            "extract",
            "--base", str(tmp_path / "missing.safetensors"),
            "--finetuned", str(checkpoints["sft"]),
            "--out", str(tmp_path / "out.safetensors"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_select_data_subcommand(setup, capsys):
    _, _, _, config_path = setup
    assert main(["select-data", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "selected 8 queries" in out


def test_run_and_report_subcommands(setup, capsys):
    tmp_path, _, _, config_path = setup
    code = main(["run", "--config", str(config_path), "--set", "search.n_trials=20", "--set", "search.n_startup=6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "merged model at" in out
    workspace = json.loads(config_path.read_text())["workspace"]
    assert main(["report", "--workspace", workspace]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool_version"]
    assert len(json.loads(WorkspacePaths(Path(workspace)).trial_log.read_text().splitlines()[0])) >= 6


def test_search_then_resume_run(setup, capsys):
    tmp_path, _, _, config_path = setup
    overrides = ["--set", "search.n_trials=16", "--set", "search.n_startup=5"]
    assert main(["search", "--config", str(config_path), *overrides]) == 0
    workspace = Path(json.loads(config_path.read_text())["workspace"])
    assert not WorkspacePaths(workspace).merged_model.exists()
    log_before = WorkspacePaths(workspace).trial_log.read_text()
    # Resuming the full run reuses the finished search untouched.
    assert main(["run", "--config", str(config_path), "--resume", *overrides]) == 0
    assert WorkspacePaths(workspace).trial_log.read_text() == log_before
    assert WorkspacePaths(workspace).merged_model.exists()


@pytest.mark.parametrize("content", ['"abc"', "[1, 2]"], ids=["string", "array"])
def test_non_object_config_exits_two_without_traceback(tmp_path, capsys, caplog, content):
    config_path = tmp_path / "config.json"
    config_path.write_text(content)
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not [r for r in caplog.records if r.exc_info]


def test_non_utf8_config_exits_two_without_traceback(tmp_path, capsys, caplog):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(b"\xff\xfe")
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not [r for r in caplog.records if r.exc_info]


@pytest.mark.parametrize(
    "content", [None, '{"tool_version": "x", "bogus": 1}'], ids=["missing", "bogus-key"]
)
def test_bad_report_exits_two_without_traceback(tmp_path, capsys, caplog, content):
    if content is not None:
        WorkspacePaths(tmp_path).report.write_text(content)
    assert main(["report", "--workspace", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "report.json" in lines[0]
    assert "Traceback" not in err
    assert not [r for r in caplog.records if r.exc_info]


def test_invalid_config_value_exits_two(setup, capsys):
    _, _, _, config_path = setup
    assert main(["run", "--config", str(config_path), "--set", "retention_p=7"]) == 2
    assert "retention_p" in capsys.readouterr().err
