"""Fault injection: a run killed at a stage boundary, mid-write or mid-search
resumes to the outputs of an uninterrupted run, and backend failure storms
end in the same outputs (absorbed by retries) or in one `error:` line.

The kills run `tests/interrupt.py` in a subprocess; everything else runs in
this process. No hook in the program serves these tests: they wrap program
functions by name.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from interrupt import KILLED
from synth import make_checkpoint_trio, make_config, make_query_pool
from tvfuse import pipeline
from tvfuse.cli import main
from tvfuse.evaluator import MockInferenceServer
from tvfuse.pipeline import WorkspacePaths, build_backend, load_config

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
SETTINGS = ["--set", "search.n_trials=12", "--set", "search.n_startup=4"]


@pytest.fixture()
def inputs(tmp_path):
    """One checkpoint trio and query pool; every workspace of a test reads them."""
    checkpoints = make_checkpoint_trio(tmp_path / "ckpt", seed=7)
    pool = make_query_pool(tmp_path / "pool.jsonl")

    def configure(tag: str) -> tuple[Path, WorkspacePaths]:
        config = make_config(tmp_path / tag, checkpoints, pool, tmp_path / f"ws_{tag}")
        return config, WorkspacePaths(tmp_path / f"ws_{tag}")

    return configure


def outputs(paths: WorkspacePaths) -> dict[str, bytes]:
    """The bytes of every output a resume must reproduce. The search result's
    recipe names the workspace's own archives, so it is left out."""
    result = json.loads(paths.search_result.read_text())
    del result["recipe"]
    files = {
        "difficulty_records": paths.difficulty_records,
        "adaptation_set": paths.adaptation_set,
        "tau_sft": paths.tau_sft,
        "tau_rlvr": paths.tau_rlvr,
        "vector_summary": paths.vector_summary,
        "trial_log": paths.trial_log,
        "merged_model": paths.merged_model,
    }
    return {
        **{label: path.read_bytes() for label, path in files.items()},
        "search_result": json.dumps(result, sort_keys=True).encode(),
    }


# Each kill: where the process ends, its count, and two files of the
# workspace that show it ended there: one that exists, and one not yet. The
# third narrowing is stage 2's second tensor of the sft archive.
KILLS = {
    "after-select-data": (0, "stage1/adaptation_set.json", "stage2"),
    "mid-archive-write": (3, "stage2/tau_sft.safetensors.tmp", "stage2/tau_sft.safetensors"),
    "after-task-vectors": (0, "stage2/summary.json", "stage3/trials.jsonl"),
    "after-trials": (5, "stage3/trials.jsonl", "stage3/search_result.json"),
}


@pytest.mark.parametrize("point", list(KILLS))
def test_a_killed_run_resumes_to_the_outputs_of_an_uninterrupted_run(inputs, point):
    reference_config, reference = inputs("reference")
    assert main(["run", "--config", str(reference_config), *SETTINGS]) == 0
    config, paths = inputs("killed")
    count, present, absent = KILLS[point]
    run_args = ["--config", str(config), *SETTINGS]
    killed = subprocess.run(
        [sys.executable, str(TESTS / "interrupt.py"), point, str(count), "--", *run_args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert killed.returncode == KILLED, killed.stderr
    assert (paths.root / present).exists() and not (paths.root / absent).exists()
    if point == "after-trials":
        assert len(paths.trial_log.read_text().splitlines()) == count
    assert main(["run", *run_args, "--resume"]) == 0
    assert outputs(paths) == outputs(reference)
    assert not list(paths.root.rglob("*.tmp"))


@pytest.fixture()
def served(inputs, monkeypatch):
    """A run over the HTTP backend, against a mock server of the config's
    landscape in this process: `run(tag, storms)` runs `tvfuse run` in a new
    workspace with `storms[stage]` requests answered 500 from the start of
    each named stage, and returns the exit code and the workspace."""

    def run(tag: str, storms: dict[str, int]) -> tuple[int, WorkspacePaths]:
        config_path, paths = inputs(tag)
        backend = build_backend(load_config(config_path, {}))
        backend.aliases = {**backend.aliases, str(paths.candidate): (0.8, 1.45)}
        with MockInferenceServer(backend) as server:
            for stage, count in storms.items():
                original = getattr(pipeline, stage)

                def storming(*args, _original=original, _count=count, **kwargs):
                    server.fail_next(_count)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(pipeline, stage, storming)
            http = ["--set", "backend.kind=http", "--set", f"backend.url={server.url}"]
            code = main(["run", "--config", str(config_path), *SETTINGS, *http])
        return code, paths

    return run


def test_two_500s_at_the_start_of_each_stage_are_absorbed_by_retries(served, slept):
    code, reference = served("reference", {})
    assert code == 0 and not slept
    code, paths = served("stormed", {"_stage_select_data": 2, "_stage_search": 2})
    assert code == 0 and slept
    assert outputs(paths) == outputs(reference)


def one_error_line(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    return lines[0]


def test_a_storm_from_the_first_trial_on_ends_in_too_many_failed_trials(served, slept, capsys):
    code, paths = served("stormed", {"_stage_search": 10**9})
    assert code == 2
    line = one_error_line(capsys)
    assert "trials failed" in line and "cap 20%" in line, line
    trials = [json.loads(t) for t in paths.trial_log.read_text().splitlines()]
    assert [t["status"] for t in trials] == ["failed"] * 3
    assert not paths.search_result.exists() and not paths.merged_model.exists()


def test_a_storm_in_stage_one_ends_in_one_error_line_for_select_data(served, slept, capsys):
    code, paths = served("stormed", {"_stage_select_data": 10**9})
    assert code == 2
    assert "select-data" in one_error_line(capsys)
    assert not paths.adaptation_set.exists() and not paths.stage2.exists()
