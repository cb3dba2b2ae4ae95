from __future__ import annotations

import functools
import gc
import json
import math
import threading
import tracemalloc
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from reference import sparsify_archive
from synth import make_checkpoint_trio, make_config, make_query_pool
from tvfuse import archive, task_vector
from tvfuse.cli import main
from tvfuse.pipeline import WorkspaceLock, WorkspacePaths, load_config
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
    argv = ["sparsify", "--vector", str(tau), "--out", str(sparse), "--retention", "0.3"]
    assert main([*argv, "--epsilon", "1e-6"]) == 0
    assert "gamma" in archive.open_archive(sparse).metadata

    merged = tmp_path / "merged.safetensors"
    code = main(
        ["merge", "--base", str(checkpoints["base"]), "--term", f"{sparse}=0.8", "--out", str(merged)]
    )
    assert code == 0
    assert archive.open_archive(merged).entries.keys() == archive.open_archive(checkpoints["base"]).entries.keys()


# F32 values that tie within and across tensors, zeros of both signs among
# them, so cuts fall on ties and at 0.
TIED = [0.0, -0.0, 0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 2.0**-20, -(2.0**-20), 3.0]
# Tensor names whose byte order differs from their write order.
TIED_SHAPES = {"b.weight": (3, 5), "a.weight": (17,), "c": (1,), "model.z": (4, 4), "a": (9,)}
DRAWN_RETENTION = float(np.random.default_rng(13).uniform(0.05, 0.95))


@pytest.mark.parametrize("rescale", [True, False], ids=["rescale", "no-rescale"])
@pytest.mark.parametrize("retention", [0.3, DRAWN_RETENTION, 1.0])
def test_sparsify_writes_the_dense_reference_bytes(tmp_path, retention, rescale):
    # At full retention the CLI still rescales, by original / (original + epsilon).
    rng = np.random.default_rng(5)
    vector = tmp_path / "tau.safetensors"
    specs = [(name, "F32", list(shape)) for name, shape in TIED_SHAPES.items()]
    metadata = {"source_base_id": "base-model", "source_ft_id": "sft-model"}
    with archive.archive_writer(specs, vector, metadata) as write:
        for shape in TIED_SHAPES.values():
            write(rng.choice(TIED, math.prod(shape)))
    expected = sparsify_archive(vector, retention, 1e-8 if rescale else None)
    flags = ["--retention", repr(retention)] + ([] if rescale else ["--no-rescale"])
    out = tmp_path / "out.safetensors"
    assert main(["sparsify", "--vector", str(vector), "--out", str(out), *flags]) == 0
    assert out.read_bytes() == expected
    # Written over its own input.
    assert main(["sparsify", "--vector", str(vector), "--out", str(vector), *flags]) == 0
    assert vector.read_bytes() == expected
    assert not list(tmp_path.glob("*.tmp"))


def test_extract_and_sparsify_hold_memory_bounded_by_the_largest_tensor(tmp_path):
    # Tensors large enough that the headers parsed per tensor, which do grow
    # with the count, stay small next to the data.
    size = 65_536

    def values(seed: int, scale: float):
        return lambda: np.random.default_rng(seed).standard_normal(size) * scale

    peaks = {}
    for count in (16, 64):
        directory = tmp_path / str(count)
        directory.mkdir()
        base, ft, tau, sparse = (
            directory / f"{label}.safetensors" for label in ("base", "ft", "tau", "sparse")
        )
        names = [f"model.layers.{i}.mlp.up_proj.weight" for i in range(count)]
        archive.write_archive(
            [(name, "BF16", [size], values(i, 0.02)) for i, name in enumerate(names)], base
        )
        archive.write_archive(
            [
                (name, "BF16", [size], lambda i=i: values(i, 0.02)() + values(count + i, 2e-3)())
                for i, name in enumerate(names)
            ],
            ft,
        )
        # tracemalloc counts every thread's allocations: a thread that an
        # earlier test left running would show up as a higher peak.
        assert threading.enumerate() == [threading.main_thread()], threading.enumerate()
        tracemalloc.start()
        try:
            extract_argv = ["extract", "--base", str(base), "--finetuned", str(ft), "--out", str(tau)]
            assert main(extract_argv) == 0
            extract = tracemalloc.get_traced_memory()[1]
            # Each `main` call leaves its argparse parser, about 100 kB, as
            # cyclic garbage: collect it, or the next peak counts it or not
            # depending on when the collector last ran.
            gc.collect()
            tracemalloc.reset_peak()
            assert main(["sparsify", "--vector", str(tau), "--out", str(sparse)]) == 0
            sparsify = tracemalloc.get_traced_memory()[1]
            gc.collect()
            tracemalloc.reset_peak()
            assert main(["analyze", "norms", "--vector", str(tau)]) == 0
            norms = tracemalloc.get_traced_memory()[1]
            gc.collect()
            tracemalloc.reset_peak()
            assert main(["analyze", "modules", "--vector", str(tau)]) == 0
            modules = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[count] = (extract, sparsify, norms, modules)
    tensor_bytes = size * 8
    for extract, *streamed in peaks.values():
        # The select's counters are 2^17 integers, two tensors' worth.
        assert extract <= 6 * tensor_bytes, extract
        assert all(peak <= 8 * tensor_bytes for peak in streamed), streamed
    for few, many in zip(peaks[16], peaks[64]):
        assert many <= 1.1 * few, (few, many)


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

    interference_csv = tmp_path / "interference.csv"
    assert (
        main(
            [
                "analyze", "sign-interference",
                "--a", str(tau_sft), "--b", str(tau_rlvr),
                "--retain-a", "1.0", "--retain-b", "0.1",
                "--out-csv", str(interference_csv),
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["conflict_ratio"] <= 1.0
    assert report["denominator_count"] > 0
    rows = interference_csv.read_text().splitlines()
    assert len(rows) == 2 and rows[1].endswith(str(report["denominator_count"]))

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

    modules_csv = tmp_path / "modules.csv"
    argv = ["analyze", "modules", "--vector", str(tau_sft), "--retention", "0.1"]
    assert main([*argv, "--out-csv", str(modules_csv)]) == 0
    ratios = json.loads(capsys.readouterr().out)
    assert "MLP" in ratios
    assert len(modules_csv.read_text().splitlines()) == 1 + len(ratios)


def test_analyze_norms_reads_each_tensor_once(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(32)
    names = [f"model.layers.{i // 4}.mlp.w{i % 4}" for i in range(30)] + ["lm_head.weight", "norm.weight"]
    path = tmp_path / "tau.safetensors"
    archive.write_archive([(name, "F32", [50], rng.standard_normal(50)) for name in names], path)
    reads = []
    original = task_vector.read_tensor

    def counted(arc, name, *args, **kwargs):
        reads.append(name)
        return original(arc, name, *args, **kwargs)

    monkeypatch.setattr(task_vector, "read_tensor", counted)
    out_json, out_csv = tmp_path / "norms.json", tmp_path / "norms.csv"
    argv = ["analyze", "norms", "--vector", str(path), "--out-json", str(out_json), "--out-csv", str(out_csv)]
    assert main(argv) == 0
    assert sorted(reads) == sorted(names)
    # The global norm from the layer partials has the bits of a second pass.
    payload = json.loads(out_json.read_text())
    monkeypatch.undo()
    assert payload["global_norm"] == task_vector.global_l2_norm(task_vector.StoredVector(path), {})
    assert json.loads(capsys.readouterr().out) == payload


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


def test_select_data_while_locked_exits_two_before_work(setup, capsys, caplog):
    tmp_path, _, _, config_path = setup
    with WorkspaceLock(tmp_path / "ws"):
        assert main(["select-data", "--config", str(config_path)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "locked" in lines[0], lines
    assert not [r for r in caplog.records if r.exc_info]
    assert not (tmp_path / "ws" / "stage1").exists()


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


def test_integer_search_bounds_write_the_bytes_of_float_ones(setup, capsys):
    tmp_path, _, _, config_path = setup
    written = []
    for index, space in enumerate(["[[0, 2], [0, 2]]", "[[0.0, 2.0], [0.0, 2.0]]"]):
        workspace = tmp_path / f"ws-{index}"
        sets = [f"workspace={workspace}", f"search.space={space}", "search.n_trials=12"]
        assert main(["search", "--config", str(config_path), *(f"--set={s}" for s in sets)]) == 0
        paths = WorkspacePaths(workspace)
        result = json.loads(paths.search_result.read_text())
        result.pop("recipe")  # the workspace's own paths
        written.append((paths.trial_log.read_bytes(), json.dumps(result, indent=2)))
    assert written[0] == written[1]


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


def test_resume_over_a_changed_checkpoint_ends_in_one_error_line(setup, capsys, caplog):
    tmp_path, checkpoints, _, config_path = setup
    run = ["run", "--config", str(config_path), "--set", "search.n_trials=12"]
    assert main(run) == 0
    paths = WorkspacePaths(tmp_path / "ws")
    outputs = [paths.tau_sft, paths.tau_rlvr, paths.vector_summary, paths.trial_log]
    outputs += [paths.search_result, paths.merged_model]
    written = {path: path.read_bytes() for path in outputs}
    # Unchanged inputs: the resume reuses every stage and writes the same bytes.
    assert main([*run, "--resume"]) == 0
    assert {path: path.read_bytes() for path in outputs} == written
    # Another trio's sft checkpoint at the same path.
    other = make_checkpoint_trio(tmp_path / "other", seed=3)
    checkpoints["sft"].write_bytes(other["sft"].read_bytes())
    capsys.readouterr()
    assert main([*run, "--resume"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert str(paths.vector_summary) in lines[0] and "sft_sha256=" in lines[0]
    assert {path: path.read_bytes() for path in outputs} == written
    assert not [r for r in caplog.records if r.exc_info]
    # Stage 2 and the report record the same digests of the checkpoints.
    report = json.loads(paths.report.read_text())
    summary = json.loads(paths.vector_summary.read_text())
    for label in ("base", "sft", "rlvr"):
        assert summary[f"{label}_sha256"] == report["input_digests"][label]


# Each case: how the query pool is rewritten at its path, and whether the
# stage-3 files are removed first, so that only stage 1 stands between the
# new pool and the search.
CHANGED_POOLS = {
    "same-ids": (("expression", "formula"), False),
    "other-ids": (('"q', '"p'), True),
}


@pytest.mark.parametrize("case", list(CHANGED_POOLS))
def test_resume_over_a_changed_query_pool_ends_in_one_error_line(setup, capsys, caplog, case):
    tmp_path, _, pool, config_path = setup
    run = ["run", "--config", str(config_path), "--set", "search.n_trials=12"]
    assert main(run) == 0
    paths = WorkspacePaths(tmp_path / "ws")
    (old, new), drop_stage3 = CHANGED_POOLS[case]
    if drop_stage3:
        for path in (paths.trial_log, paths.search_result, paths.merged_model):
            path.unlink()
    written = {path: path.read_bytes() for path in sorted((tmp_path / "ws").rglob("*.*"))}
    pool.write_text(pool.read_text().replace(old, new))
    capsys.readouterr()
    assert main([*run, "--resume"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert str(paths.adaptation_set) in lines[0] and "pool_sha256=" in lines[0]
    assert {path: path.read_bytes() for path in written} == written
    assert not [r for r in caplog.records if r.exc_info]
    stored = json.loads(paths.adaptation_set.read_text())["pool_sha256"]
    assert stored == json.loads(paths.report.read_text())["input_digests"]["pool"]


# Each case: (the stage file `--resume` would reuse, and the bytes it is
# replaced with; None keeps the first half of what the first run wrote).
BAD_RESUME_FILES = {
    "adaptation-set-truncated": ("stage1/adaptation_set.json", None),
    "adaptation-set-unknown-key": ("stage1/adaptation_set.json", b'{"bogus": 1}'),
    "summary-truncated": ("stage2/summary.json", None),
    "summary-unknown-key": ("stage2/summary.json", b'{"bogus": 1}'),
}


@pytest.mark.parametrize(
    "selected",
    [[], ["nope"], "q001", ["q001", "q001"]],
    ids=["empty", "unknown-id", "string", "repeated-id"],
)
def test_resume_over_a_selection_that_does_not_fit_the_pool_ends_in_one_error_line(
    setup, capsys, caplog, selected
):
    tmp_path, _, _, config_path = setup
    args = ["--config", str(config_path), "--set", "search.n_trials=12"]
    assert main(["select-data", *args]) == 0
    path = WorkspacePaths(tmp_path / "ws").adaptation_set
    path.write_text(json.dumps({**json.loads(path.read_text()), "selected": selected}))
    capsys.readouterr()
    assert main(["run", *args, "--resume"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(path) in lines[0], lines
    assert not [r for r in caplog.records if r.exc_info]


@pytest.mark.parametrize("case", list(BAD_RESUME_FILES))
def test_resume_over_a_malformed_stage_file_ends_in_one_error_line(setup, capsys, caplog, case):
    tmp_path, _, _, config_path = setup
    run = ["run", "--config", str(config_path), "--set", "fixed_coefficients=[1.0, 1.0]"]
    assert main(run) == 0
    name, content = BAD_RESUME_FILES[case]
    target = tmp_path / "ws" / name
    if content is None:
        content = target.read_bytes()[: target.stat().st_size // 2]
    target.write_bytes(content)
    capsys.readouterr()
    assert main([*run, "--resume"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(target) in lines[0], lines
    assert not [r for r in caplog.records if r.exc_info]


def test_resume_under_other_settings_ends_in_one_error_line(setup, capsys, caplog):
    tmp_path, _, _, config_path = setup
    run = ["run", "--config", str(config_path), "--set", "fixed_coefficients=[1.0, 1.0]"]
    assert main(run) == 0
    capsys.readouterr()
    assert main([*run, "--resume", "--set", "retention_p=0.9"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert str(tmp_path / "ws" / "stage2" / "summary.json") in lines[0]
    assert "retention_p=0.3" in lines[0] and "retention_p=0.9" in lines[0]
    assert not [r for r in caplog.records if r.exc_info]


# Each case: a search setting changed on resume, and the file the error names.
OTHER_SEARCH_SETTINGS = {
    "seed": ("seed=8", "stage1/adaptation_set.json"),
    "space": ("search.space=[[0, 1.5], [0, 2]]", "stage3/settings.json"),
    "n-startup": ("search.n_startup=4", "stage3/settings.json"),
}


@pytest.mark.parametrize("case", list(OTHER_SEARCH_SETTINGS))
def test_resume_under_another_search_ends_in_one_error_line(setup, capsys, caplog, case):
    tmp_path, _, _, config_path = setup
    overrides = ["--set", "search.n_trials=16", "--set", "search.n_startup=5"]
    assert main(["search", "--config", str(config_path), *overrides]) == 0
    paths = WorkspacePaths(tmp_path / "ws")
    log_before = paths.trial_log.read_bytes()
    capsys.readouterr()
    setting, named = OTHER_SEARCH_SETTINGS[case]
    run = ["run", "--config", str(config_path), "--resume", *overrides, "--set", setting]
    assert main(run) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert str(tmp_path / "ws" / named) in lines[0]
    assert not [r for r in caplog.records if r.exc_info]
    assert paths.trial_log.read_bytes() == log_before
    assert not paths.merged_model.exists()


# Each case: a setting that a stage file records, changed on resume with
# `--set`, the stage file whose record refuses it, and the recorded field.
RECORDED_SETTINGS = {
    "easy-medium-ratio": ("easy_medium_ratio=1.0", "stage1/adaptation_set.json", "easy_medium_ratio"),
    "temperature": ("search.temperature=0.1", "stage1/adaptation_set.json", "search.temperature"),
    "max-tokens": ("search.max_tokens=7", "stage1/adaptation_set.json", "search.max_tokens"),
    "prompt-preset": ("search.prompt_preset=plain", "stage1/adaptation_set.json", "search.prompt_preset"),
    "sft-ref": ("backend.sft_ref=other", "stage1/adaptation_set.json", "backend.sft_ref"),
    "k": ("search.k=2", "stage3/settings.json", "search.k"),
    "output-dtype": ("output_dtype=F32", "stage3/settings.json", "output_dtype"),
    "mock-peak": ("backend.mock.peak=[0.1,0.1]", "stage1/adaptation_set.json", "backend.mock"),
}


def _config_value(config_path: Path, overrides: dict[str, str], field: str):
    """The value of the dotted `field` under `overrides`, as a stage file records it."""
    value = functools.reduce(getattr, field.split("."), load_config(config_path, overrides))
    return asdict(value) if is_dataclass(value) else value


def _workspace_files(workspace: Path) -> dict[Path, bytes]:
    return {path: path.read_bytes() for path in sorted(workspace.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("case", list(RECORDED_SETTINGS))
def test_resume_under_a_recorded_setting_ends_in_one_error_line(setup, capsys, caplog, case):
    tmp_path, _, _, config_path = setup
    run = ["run", "--config", str(config_path), "--set", "search.n_trials=12"]
    assert main(run) == 0
    written = _workspace_files(tmp_path / "ws")
    setting, named, field = RECORDED_SETTINGS[case]
    capsys.readouterr()
    assert main([*run, "--resume", "--set", setting]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert str(tmp_path / "ws" / named) in lines[0]
    for overrides in ({}, dict([setting.split("=", 1)])):
        assert f"{field}={_config_value(config_path, overrides, field)!r}" in lines[0], lines
    assert _workspace_files(tmp_path / "ws") == written
    assert not [r for r in caplog.records if r.exc_info]


def test_resume_refuses_a_trial_log_scored_on_another_selection(setup, capsys, caplog):
    tmp_path, _, _, config_path = setup
    run = ["--config", str(config_path), "--set", "search.n_trials=12"]
    assert main(["run", *run]) == 0
    paths = WorkspacePaths(tmp_path / "ws")
    log = paths.trial_log.read_bytes()
    # Stage 1 rebuilt alone over fewer queries: the trials scored the old ones.
    assert main(["select-data", *run, "--set", "n=6"]) == 0
    capsys.readouterr()
    assert main(["run", *run, "--set", "n=6", "--resume"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert str(paths.search_settings) in lines[0] and "n=8" in lines[0] and "n=6" in lines[0]
    assert paths.trial_log.read_bytes() == log
    assert not [r for r in caplog.records if r.exc_info]


def test_resume_over_a_trial_log_with_a_nan_consistency_ends_in_one_error_line(setup, capsys, caplog):
    tmp_path, _, _, config_path = setup
    run = ["run", "--config", str(config_path), "--set", "search.n_trials=12"]
    run += ["--set", "search.n_startup=4"]
    assert main(run) == 0
    paths = WorkspacePaths(tmp_path / "ws")
    lines = paths.trial_log.read_text().splitlines()
    first = json.loads(lines[0])
    first["consistency"] = float("nan")
    paths.trial_log.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
    log = paths.trial_log.read_bytes()
    capsys.readouterr()
    assert main([*run, "--resume"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert f"{paths.trial_log} line 1" in lines[0] and "consistency nan" in lines[0], lines
    assert paths.trial_log.read_bytes() == log
    assert not [r for r in caplog.records if r.exc_info]


# Settings that no stage file records: a resume honours a change to each.
HONOURED_SETTINGS = {
    "more-trials": "search.n_trials=16",
    "selection-rule": "search.selection_rule=knee",
    "concurrency": "search.concurrency=1",
    "timeout": "backend.timeout=5",
}


@pytest.mark.parametrize("case", list(HONOURED_SETTINGS))
def test_resume_honours_a_setting_no_stage_file_records(setup, case):
    tmp_path, _, _, config_path = setup
    run = ["run", "--config", str(config_path), "--set", "search.n_trials=12"]
    assert main(run) == 0
    paths = WorkspacePaths(tmp_path / "ws")
    stage_files = [*paths.stage1.iterdir(), *paths.stage2.iterdir(), paths.search_settings]
    written = {path: path.read_bytes() for path in stage_files}
    log = paths.trial_log.read_bytes()
    assert main([*run, "--resume", "--set", HONOURED_SETTINGS[case]]) == 0
    assert {path: path.read_bytes() for path in stage_files} == written
    assert paths.trial_log.read_bytes().startswith(log)


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
# An http backend at a local port; these cases fail before any request is sent.
_HTTP = [*_RUN, "--set", "backend.kind=http", "--set", "backend.url=http://127.0.0.1:9"]
_RULES = ["analyze", "modules", "--vector", "{vector}", "--rules", "{file}"]
_SPARSIFY = ["sparsify", "--vector", "{vector}", "--out", "{file}"]
_PAIR = ["--a", "{vector}", "--b", "{vector}"]
_MERGE = ["merge", "--base", "{vector}", "--out", "{file}"]
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
    "rules-exact-string": (
        b'[{"pattern": "layers", "class": "MLP", "exact": "false"}]', _RULES, 2, "file: item 0"
    ),
    "norms-pattern-captures-no-integer": (
        None, ["analyze", "norms", "--vector", "{vector}", "--pattern", r"layers\.\d+\.(\w+)"], 2, "pattern"
    ),
    "config-k-string": (None, [*_RUN, "--set", "search.k=abc"], 2, "search.k"),
    "config-retention-string": (None, [*_RUN, "--set", "retention_p=abc"], 2, "retention_p"),
    "config-retention-bool": (None, [*_RUN, "--set", "retention_p=true"], 2, "retention_p"),
    "config-epsilon-nan": (None, [*_RUN, "--set", "epsilon=NaN"], 2, "epsilon"),
    "config-coefficient-string": (
        None, [*_RUN, "--set", 'fixed_coefficients=[1, "a"]'], 2, "fixed_coefficients"
    ),
    "config-bound-null": (None, [*_RUN, "--set", "search.space=[[0, null], [0, 2]]"], 2, "search.space"),
    "config-mock-falloff-string": (
        None, [*_RUN, "--set", "backend.mock.falloff=abc"], 2, "backend.mock.falloff"
    ),
    "config-mock-peak-number": (None, [*_RUN, "--set", "backend.mock.peak=3"], 2, "backend.mock.peak"),
    "config-mock-alias-one-number": (
        None, [*_RUN, "--set", 'backend.mock.aliases={{"sft": [1]}}'], 2, "backend.mock.aliases"
    ),
    "config-mock-number": (None, [*_RUN, "--set", "backend.mock=5"], 2, "MockSettings"),
    "config-mock-unknown-key": (None, [*_RUN, "--set", "backend.mock.peek=[1, 1]"], 2, "peek"),
    "config-base-path-number": (None, [*_RUN, "--set", "base_path=3"], 2, "base_path"),
    "config-workspace-number": (None, [*_RUN, "--set", "workspace=3"], 2, "workspace"),
    "config-url-number": (None, [*_RUN, "--set", "backend.url=3"], 2, "backend.url"),
    "config-sft-ref-number": (None, [*_RUN, "--set", "backend.sft_ref=3"], 2, "backend.sft_ref"),
    "config-preset-number": (None, [*_RUN, "--set", "search.prompt_preset=3"], 2, "prompt_preset"),
    "config-preset-typo": (
        None, [*_RUN, "--set", "search.prompt_preset=qwen-structred"], 2, "prompt_preset"
    ),
    "config-output-dtype-f64": (None, [*_RUN, "--set", "output_dtype=F64"], 2, "output_dtype"),
    "config-n-trials-fraction": (
        None, [*_RUN, "--set", "search.n_trials=10.5"], 2, "search.n_trials must be an integer, got 10.5"
    ),
    "config-k-fraction": (None, [*_RUN, "--set", "search.k=2.5"], 2, "search.k must be an integer"),
    "config-n-candidates-fraction": (
        None, [*_RUN, "--set", "search.n_candidates=2.5"], 2, "search.n_candidates must be an integer"
    ),
    "config-n-fraction": (None, [*_RUN, "--set", "n=2.5"], 2, "n must be an integer, got 2.5"),
    "config-seed-fraction": (None, [*_RUN, "--set", "seed=1.5"], 2, "seed must be an integer"),
    "config-seed-negative": (None, [*_RUN, "--set", "seed=-1"], 2, "seed must be >= 0"),
    "config-mock-ppl-base-zero": (
        None, [*_RUN, "--set", "backend.mock.ppl_base=0"], 2, "backend.mock.ppl_base must be >= 1"
    ),
    "config-mock-ppl-base-below-one": (
        None, [*_RUN, "--set", "backend.mock.ppl_base=0.5"], 2, "backend.mock.ppl_base must be >= 1"
    ),
    "config-base-path-empty": (None, [*_RUN, "--set", "base_path="], 2, "base_path is required"),
    "config-workspace-empty": (None, [*_RUN, "--set", "workspace="], 2, "workspace is required"),
    "config-epsilon-zero": (None, [*_RUN, "--set", "epsilon=0"], 2, "epsilon must be positive"),
    "config-m-one": (None, [*_RUN, "--set", "m=1"], 2, "m must be >= 2"),
    "config-n-zero": (None, [*_RUN, "--set", "n=0"], 2, "n must be >= 1"),
    "config-easy-ratio-above-one": (
        None, [*_RUN, "--set", "easy_medium_ratio=1.5"], 2, "easy_medium_ratio must be in [0, 1]"
    ),
    "config-selection-rule-unknown": (
        None, [*_RUN, "--set", "search.selection_rule=best"], 2, "unknown selection_rule 'best'"
    ),
    "config-backend-kind-unknown": (
        None, [*_RUN, "--set", "backend.kind=grpc"], 2, "backend.kind must be mock or http"
    ),
    "config-http-without-url": (
        None, [*_RUN, "--set", "backend.kind=http"], 2, "backend.url is required"
    ),
    "config-http-max-attempts-zero": (
        None, [*_HTTP, "--set", "backend.max_attempts=0"], 2, "max_attempts must be >= 1"
    ),
    "config-override-into-a-number": (
        None, [*_RUN, "--set", "seed.x=1"], 2, "cannot override seed.x: seed is not an object"
    ),
    "config-checkpoint-directory": (DIRECTORY, [*_RUN, "--set", "base_path={file}"], 2, "cannot read"),
    "set-without-equals": (None, [*_RUN, "--set", "seed"], 1, "--set expects DOTTED.PATH=VALUE"),
    "config-mock-ppl-slope-negative": (
        None, [*_RUN, "--set", "backend.mock.ppl_slope=-1"], 2, "backend.mock.ppl_slope must be >= 0"
    ),
    "config-m-fraction": (None, [*_RUN, "--set", "m=5.5"], 2, "m must be an integer"),
    "config-timeout-negative": (None, [*_HTTP, "--set", "backend.timeout=-1"], 2, "timeout"),
    "config-timeout-nan": (None, [*_HTTP, "--set", "backend.timeout=NaN"], 2, "timeout"),
    "config-timeout-zero": (None, [*_HTTP, "--set", "backend.timeout=0"], 2, "timeout"),
    "config-concurrency-zero": (None, [*_RUN, "--set", "search.concurrency=0"], 2, "search.concurrency"),
    "config-bandwidth-floor-nan": (
        None, [*_RUN, "--set", "search.bandwidth_floor=NaN"], 2, "search.bandwidth_floor"
    ),
    "config-bandwidth-floor-zero": (
        None,
        [*_RUN, "--set", "search.bandwidth_floor=0", "--set", "search.n_startup=1"],
        2,
        "bandwidth_floor must be > 0",
    ),
    "config-ppl-weight-negative": (
        None, [*_RUN, "--set", "search.scalarize_ppl_weight=-1"], 2, "scalarize_ppl_weight must be >= 0"
    ),
    "config-bound-infinite": (
        None, [*_RUN, "--set", "search.space=[[0, Infinity], [0, 2]]"], 2, "search.space[0][1]"
    ),
    "config-bound-width-infinite": (
        None, [*_RUN, "--set", "search.space=[[-1e308, 1e308], [0, 2]]"], 2, "search.space"
    ),
    "config-coefficient-nan": (
        None, [*_RUN, "--set", "fixed_coefficients=[NaN, 1]"], 2, "fixed_coefficients[0]"
    ),
    "config-epsilon-huge-int": (
        None, [*_RUN, "--set", "epsilon=1" + "0" * 400], 2, "epsilon must be a finite number"
    ),
    "config-mock-falloff-nan": (
        None, [*_RUN, "--set", "backend.mock.falloff=NaN"], 2, "backend.mock.falloff"
    ),
    "merge-coefficient-nan": (None, [*_MERGE, "--term", "{vector}=nan"], 1, "--term"),
    "merge-coefficient-inf": (None, [*_MERGE, "--term", "{vector}=inf"], 1, "--term"),
    "merge-coefficient-overflow": (None, [*_MERGE, "--term", "{vector}=1e999"], 1, "--term"),
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
        values = archive.read_tensor(arc, name, out=None).values.copy()
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
        ["analyze", "norms", "--vector", str(bad)],
        ["merge", "--base", str(checkpoints["base"]), "--term", f"{bad}=0.5", "--out", str(tmp_path / "out.safetensors")],
    ):
        assert main(argv) == 2, argv
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and tensor in lines[0], lines
    assert not (tmp_path / "out.safetensors").exists()
    assert not [r for r in caplog.records if r.exc_info]


@pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
def test_a_merge_past_the_output_dtype_range_ends_in_one_error_line(tmp_path, capsys, caplog, dtype):
    base, tau, out = (tmp_path / f"{name}.safetensors" for name in ("base", "tau", "merged"))
    archive.write_archive([("w", "F32", [3], np.array([1.0, 2.0, 3.0]))], base)
    archive.write_archive([("w", "F32", [3], np.array([1.0, -1.0, 0.0]))], tau)
    argv = ["merge", "--base", str(base), "--term", f"{tau}=1e39", "--out", str(out)]
    assert main([*argv, "--dtype", dtype]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert f"tensor 'w' holds a finite value beyond the {dtype} range" in lines[0], lines
    assert sorted(path.name for path in tmp_path.iterdir()) == [base.name, tau.name]
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
