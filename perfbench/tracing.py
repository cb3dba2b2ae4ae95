"""Outside-in tracing: spans recorded by wrappers at the program's import sites.

A wrapper replaces a function where a module imports it (for example
``tvfuse.archive.narrow_from_f64``), so every call the program makes through
that name opens a span. Spans record name, start, end, parent and run id;
they stay in memory and are written out when the run ends. A span opened on
a worker thread with no span of its own open takes the main thread's open
span as its parent, so backend calls made from the client thread pool nest
under the stage or trial that issued them.

Self time is a span's duration minus the part of that interval its child
spans cover. One sampler thread reads the process's own resident set size
and attributes the peak to the pipeline stage open at the time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# Spans that only group other work; their self time is glue the per-layer
# metrics do not attribute.
ROOT_SPANS = ("pipeline.run", "analyze.run")
STAGE_PREFIX = "pipeline.stage."

_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    def __init__(self, run_id: str, sample_interval: float = 0.01):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.values: dict[str, float] = defaultdict(float)
        self.sparsify_keys: set[tuple[int, float]] = set()
        self.stage_peak_rss: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._stage = "none"
        self._interval = sample_interval
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, name="rss-sampler", daemon=True)

    # --- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """`fn` with a span named `name`; `after(args, kwargs, result)` runs post-call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.add(name + ".errors", 1)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set `owner.attr` to `make(original)` until `restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def patch(self, owner: object, attr: str, name: str, after: Callable | None = None) -> None:
        """Trace every call made through `owner.attr` as a span named `name`."""
        self.replace(owner, attr, lambda original: self.wrap(name, original, after))

    def patch_stage(self, owner: object, attr: str, stage: str) -> None:
        """Like `patch`, and mark `stage` open for the RSS sampler meanwhile."""

        def make(original: Callable) -> Callable:
            traced = self.wrap(STAGE_PREFIX + stage, original)

            @functools.wraps(original)
            def staged(*args, **kwargs):
                previous, self._stage = self._stage, stage
                try:
                    return traced(*args, **kwargs)
                finally:
                    self._stage = previous

            return staged

        self.replace(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.values[key] += amount

    # --- RSS sampler -------------------------------------------------------

    def _sample(self) -> None:
        while not self._stop.wait(self._interval):
            rss = current_rss()
            stage = self._stage
            if rss > self.stage_peak_rss.get(stage, 0):
                self.stage_peak_rss[stage] = rss

    def start(self) -> None:
        self._sampler.start()

    def stop(self) -> None:
        self._stop.set()
        self._sampler.join(timeout=5.0)
        self.restore()

    # --- derived numbers ---------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent in self.spans:
            children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[sid] = (end - start) - covered
        return out

    def by_name(self) -> dict[str, dict[str, list[float] | float]]:
        """Per span name: inclusive durations, start times and total self time."""
        selfs = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {"durations": [], "starts": [], "ends": [], "self": 0.0})
        for sid, name, start, end, _ in self.spans:
            entry = out[name]
            entry["durations"].append(end - start)
            entry["starts"].append(start)
            entry["ends"].append(end)
            entry["self"] += selfs[sid]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
                    )
                    + "\n"
                )
