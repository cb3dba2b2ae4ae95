"""Line coverage of `src/tvfuse` over the test suite, with the stdlib alone.

Run from the repository root:

    PYTHONPATH=src python tests/linecov.py [pytest arguments, e.g. -p no:cacheprovider]

It runs `pytest tests/` in this process under `sys.settrace` and
`threading.settrace`, and takes each source file's executable lines from
its code objects' `co_lines()`. Tests that run the program in a subprocess
are not counted. It exits non-zero when the tests fail, when a line is
never reached and `ALLOWED` does not list it, or when a line `ALLOWED` lists
is reached (a stale entry). `ALLOWED` is keyed by file and stripped source
text, not by line number, so an edit above a listed line does not move it.

The sets of executable lines differ across Python versions; the list is
kept for Python 3.11.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

# (path under the package, stripped source line, why no test reaches it).
# Each entry allows one unreached line with that text.
ALLOWED: list[tuple[str, str, str]] = [
    ("cli.py", "except Exception as exc:  # unexpected; still a runtime failure",
     "the last resort for a bug: every failure a test causes is a TvfuseError or a UsageError"),
    ("cli.py", 'logger.exception("unhandled failure")', "the last resort, as above"),
    ("cli.py", 'print(f"error: {exc}", file=sys.stderr)', "the last resort, as above"),
    ("cli.py", "return 2", "the last resort, as above"),
    ("cli.py", "sys.exit(main())",
     "the `__main__` guard runs only in a subprocess, which is not traced"),
    ("evaluator/mock_server.py", "except OSError:",
     "a handler closed its socket, or the peer reset it, after `server_close` read the live set: "
     "a race no test can force"),
    ("evaluator/mock_server.py", "pass", "the body of the except above"),
]


def executable_lines(path: Path) -> set[int]:
    """Every line an instruction of `path`'s compiled code belongs to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def traced_run(package: Path, args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `args`; return its exit code and the lines reached per file under `package`."""
    prefix = str(package) + os.sep
    reached: dict[str, set[int]] = {}
    # Per code filename: the local tracer of a file under `package`, else None.
    tracers: dict[str, object] = {}

    def tracer_for(filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(prefix):
            return None
        lines = reached.setdefault(path, set())

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = tracers[filename]
        except KeyError:
            local = tracers[filename] = tracer_for(filename)
        return local and local(frame, event, arg)

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main(argv: list[str]) -> int:
    # find_spec locates the package without importing it, so its module-level
    # lines run under the tracer.
    spec = importlib.util.find_spec("tvfuse")
    if spec is None or not spec.submodule_search_locations:
        print("linecov: tvfuse is not importable; run with PYTHONPATH=src", file=sys.stderr)
        return 2
    package = Path(spec.submodule_search_locations[0]).resolve()
    status, reached = traced_run(package, [str(TESTS), "-q", *argv])
    if status != 0:
        print(f"linecov: pytest exited {status}; coverage not checked", file=sys.stderr)
        return status

    allowed = Counter((rel, text) for rel, text, _ in ALLOWED)
    unreached: dict[tuple[str, str], list[int]] = {}
    total = 0
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - reached.get(str(path), set())):
            unreached.setdefault((rel, source[line - 1].strip()), []).append(line)
    missed = sum(map(len, unreached.values()))
    print(f"linecov: {total - missed} of {total} executable lines reached, {missed} unreached")
    failed = False
    for key in sorted(allowed.keys() | unreached.keys()):
        rel, text = key
        lines = unreached.get(key, [])
        if len(lines) > allowed[key]:
            failed = True
            print(f"unreached: {rel}:{','.join(map(str, lines))}: {text}")
        elif len(lines) < allowed[key]:
            failed = True
            print(f"listed but reached: {rel}: {text}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
