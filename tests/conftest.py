from __future__ import annotations

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture()
def slept(monkeypatch):
    """The HTTP client's backoff sleeps, recorded in place of being slept."""
    from tvfuse.evaluator import http_backend

    calls: list[float] = []
    monkeypatch.setattr(http_backend.time, "sleep", calls.append)
    return calls
