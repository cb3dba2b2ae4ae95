"""Run `tvfuse run` in this process and end it abruptly at one point, as a
killed process ends: `os._exit` runs no cleanup, flushes nothing and leaves
every temp file and the workspace lock where they are.

    python tests/interrupt.py POINT COUNT -- RUN_ARGS...

POINT is where the process ends, exiting with `KILLED`:

- `after-select-data`: once stage 1 has returned;
- `mid-archive-write`: at the COUNT-th narrowing of a block of values, so
  inside the stage-2 archive writes;
- `after-task-vectors`: once stage 2 has returned;
- `after-trials`: when trial COUNT (0-based) is about to be evaluated, so
  after COUNT logged trials.
"""

from __future__ import annotations

import os
import sys

from tvfuse import archive, cli, pipeline
from tvfuse.optimizer import search

KILLED = 86


def exit_after(module, name: str) -> None:
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        original(*args, **kwargs)
        os._exit(KILLED)

    setattr(module, name, wrapped)


def exit_at_call(module, name: str, count: int) -> None:
    """End the process when `module.name` is called for the count-th time
    (1-based), before that call runs."""
    original = getattr(module, name)
    calls = 0

    def wrapped(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == count:
            os._exit(KILLED)
        return original(*args, **kwargs)

    setattr(module, name, wrapped)


POINTS = {
    "after-select-data": lambda count: exit_after(pipeline, "_stage_select_data"),
    "mid-archive-write": lambda count: exit_at_call(archive, "narrow_from_f64", count),
    "after-task-vectors": lambda count: exit_after(pipeline, "_stage_task_vectors"),
    "after-trials": lambda count: exit_at_call(search, "_evaluate_trial", count + 1),
}


def main(argv: list[str]) -> int:
    point, count, separator, *run_args = argv
    if separator != "--" or point not in POINTS:
        raise SystemExit(__doc__)
    POINTS[point](int(count))
    return cli.main(["run", *run_args])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
