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
    assert "gamma" in archive.open_archive(sparse).metadata

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


def test_bad_search_setting_exits_two_before_work(setup, capsys, caplog):
    tmp_path, _, _, config_path = setup
    assert main(["run", "--config", str(config_path), "--set", "search.n_startup=40"]) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "n_startup" in lines[0]
    assert "Traceback" not in err
    assert not [r for r in caplog.records if r.exc_info]
    assert not (tmp_path / "ws" / "stage1").exists()


def test_invalid_config_value_exits_two(setup, capsys):
    _, _, _, config_path = setup
    assert main(["run", "--config", str(config_path), "--set", "retention_p=7"]) == 2
    assert "retention_p" in capsys.readouterr().err


# Each case: (bytes written to the `{file}` argument, or None for no file, or
# DIRECTORY for a directory; argv; exit code; text the error line must hold).
DIRECTORY = object()
_RUN = ["run", "--config", "{config}"]
_POOL = [*_RUN, "--set", "pool_path={file}"]
_RULES = ["analyze", "modules", "--vector", "{vector}", "--rules", "{file}"]
_SPARSIFY = ["sparsify", "--vector", "{vector}", "--out", "{file}"]
_PAIR = ["--a", "{vector}", "--b", "{vector}"]
BAD_INPUTS = {
    "pool-array-line": (b"[1, 2]\n", _POOL, 2, "file:1"),
    "pool-not-json": (b'{"id": "a", "text": "x"}\nnope\n', _POOL, 2, "file:2"),
    "pool-not-utf8": (b'{"id": "a", "text": "\xff"}\n', _POOL, 2, "file:1"),
    "pool-missing-text": (b'{"id": "a"}\n', _POOL, 2, "file:1"),
    "pool-duplicate-id": (b'{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n', _POOL, 2, "file"),
    "pool-unreadable": (DIRECTORY, _POOL, 2, "file"),
    "rules-missing": (None, _RULES, 2, "file"),
    "rules-not-json": (b"[", _RULES, 2, "file"),
    "rules-not-array": (b"{}", _RULES, 2, "file"),
    "rules-no-pattern": (b'[{"class": "MLP"}]', _RULES, 2, "file"),
    "rules-unknown-class": (b'[{"pattern": "mlp", "class": "Router"}]', _RULES, 2, "Router"),
    "config-k-string": (None, [*_RUN, "--set", "search.k=abc"], 2, "search.k"),
    "config-retention-string": (None, [*_RUN, "--set", "retention_p=abc"], 2, "retention_p"),
    "config-retention-bool": (None, [*_RUN, "--set", "retention_p=true"], 2, "retention_p"),
    "config-epsilon-nan": (None, [*_RUN, "--set", "epsilon=NaN"], 2, "epsilon"),
    "config-coefficient-string": (
        None, [*_RUN, "--set", 'fixed_coefficients=[1, "a"]'], 2, "fixed_coefficients"
    ),
    "config-bound-null": (None, [*_RUN, "--set", "search.space=[[0, null], [0, 2]]"], 2, "search.space"),
    "sparsify-retention-zero": (None, [*_SPARSIFY, "--retention", "0"], 1, "--retention"),
    "sparsify-retention-nan": (None, [*_SPARSIFY, "--retention", "nan"], 1, "--retention"),
    "sparsify-epsilon-zero": (None, [*_SPARSIFY, "--epsilon", "0"], 1, "--epsilon"),
    "sparsify-epsilon-negative": (None, [*_SPARSIFY, "--epsilon", "-1"], 1, "--epsilon"),
    "sparsify-epsilon-nan": (None, [*_SPARSIFY, "--epsilon", "nan"], 1, "--epsilon"),
    "sparsify-epsilon-inf": (None, [*_SPARSIFY, "--epsilon", "inf"], 1, "--epsilon"),
    "sparsify-epsilon-text": (None, [*_SPARSIFY, "--epsilon", "abc"], 1, "--epsilon"),
    "modules-retention-above-one": (
        None, ["analyze", "modules", "--vector", "{vector}", "--retention", "1.5"], 1, "--retention"
    ),
    "interference-retain-a-zero": (
        None, ["analyze", "sign-interference", *_PAIR, "--retain-a", "0"], 1, "--retain-a"
    ),
    "interference-retain-b-above-one": (
        None, ["analyze", "sign-interference", *_PAIR, "--retain-b", "2"], 1, "--retain-b"
    ),
    "sweep-retentions-empty": (None, ["analyze", "sweep", *_PAIR, "--retentions", ","], 1, "--retentions"),
    "sweep-retentions-above-one": (
        None, ["analyze", "sweep", *_PAIR, "--retentions", "0.5,2"], 1, "--retentions"
    ),
    "norms-csv-onto-directory": (
        DIRECTORY, ["analyze", "norms", "--vector", "{vector}", "--out-csv", "{file}"], 2, "cannot write"
    ),
    "norms-json-onto-directory": (
        DIRECTORY, ["analyze", "norms", "--vector", "{vector}", "--out-json", "{file}"], 2, "cannot write"
    ),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_ends_in_one_error_line(setup, capsys, caplog, case):
    tmp_path, checkpoints, _, config_path = setup
    content, argv, code, needle = BAD_INPUTS[case]
    vector = tmp_path / "tau.safetensors"
    extract = ["extract", "--base", str(checkpoints["base"]), "--finetuned", str(checkpoints["sft"])]
    assert main([*extract, "--out", str(vector)]) == 0
    capsys.readouterr()
    target = tmp_path / "file"
    if content is DIRECTORY:
        target.mkdir()
    elif content is not None:
        target.write_bytes(content)
    args = [a.format(config=config_path, vector=vector, file=target) for a in argv]
    assert main(args) == code
    lines = capsys.readouterr().err.strip().splitlines()
    prefix = "usage error:" if code == 1 else "error:"
    assert len(lines) == 1 and lines[0].startswith(prefix) and needle in lines[0], lines
    assert not [r for r in caplog.records if r.exc_info]
    assert not list(tmp_path.rglob("*.tmp"))
    if case.startswith("config-"):  # rejected before any stage runs
        assert not (tmp_path / "ws" / "stage1").exists()


def _poison(source: Path, target: Path, value: float) -> None:
    """Copy an archive with `value` written into the last entry of its last tensor in name order."""
    arc = archive.open_archive(source)
    names = archive.byte_sorted(arc.entries)
    entries = []
    for name in names:
        values = archive.read_tensor(arc, name).values.copy()
        if name == names[-1]:
            values[-1] = value
        entries.append((name, arc.entries[name].dtype, list(arc.entries[name].shape), values))
    archive.write_archive(entries, target)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_vector_ends_in_one_error_line(setup, capsys, caplog, value):
    tmp_path, checkpoints, _, config_path = setup
    _poison(checkpoints["rlvr"], tmp_path / "rlvr_bad.safetensors", value)
    good, bad = tmp_path / "good.safetensors", tmp_path / "bad.safetensors"
    base = ["extract", "--base", str(checkpoints["base"])]
    assert main([*base, "--finetuned", str(checkpoints["sft"]), "--out", str(good)]) == 0
    assert main([*base, "--finetuned", str(tmp_path / "rlvr_bad.safetensors"), "--out", str(bad)]) == 0
    capsys.readouterr()
    tensor = archive.byte_sorted(archive.open_archive(bad).entries)[-1]
    for argv in (
        ["sparsify", "--vector", str(bad), "--out", str(tmp_path / "out.safetensors")],
        ["analyze", "sign-interference", "--a", str(good), "--b", str(bad)],
        ["analyze", "sweep", "--a", str(bad), "--b", str(good)],
        ["analyze", "modules", "--vector", str(bad)],
    ):
        assert main(argv) == 2, argv
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and tensor in lines[0], lines
    assert not (tmp_path / "out.safetensors").exists()
    assert not [r for r in caplog.records if r.exc_info]


@pytest.mark.parametrize("retention", ["0.3", "1.0"])
def test_non_finite_checkpoint_stops_run_before_stage_two_writes(setup, capsys, caplog, retention):
    tmp_path, checkpoints, _, config_path = setup
    _poison(checkpoints["rlvr"], tmp_path / "rlvr_bad.safetensors", float("nan"))
    argv = ["run", "--config", str(config_path), "--set", f"rlvr_path={tmp_path / 'rlvr_bad.safetensors'}"]
    assert main([*argv, "--set", f"retention_p={retention}"]) == 2
    tensor = archive.byte_sorted(archive.open_archive(checkpoints["rlvr"]).entries)[-1]
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "task-vectors" in lines[0] and tensor in lines[0], lines
    assert not [r for r in caplog.records if r.exc_info]
    assert not list(WorkspacePaths(tmp_path / "ws").stage2.glob("*"))
