"""Final-answer extraction and majority-vote consistency, which the query
evaluator (`backend.sample_consistency`) applies to every set of samples."""

from __future__ import annotations

import re
from collections import Counter
from typing import Sequence

from ..errors import LengthMismatchError

_BOXED_MARKER = "\\boxed{"
_NUMBER_RE = re.compile(r"[-+]?\d+(?:\.\d+)?")


def normalize_answer(text: str) -> str | None:
    """Trim, collapse internal whitespace, strip one trailing period."""
    collapsed = " ".join(text.split())
    if collapsed.endswith("."):
        collapsed = collapsed[:-1].rstrip()
    return collapsed or None


def _boxed_groups(text: str) -> list[str]:
    """Contents of every balanced \\boxed{...} group, in order."""
    groups = []
    start = 0
    while True:
        pos = text.find(_BOXED_MARKER, start)
        if pos < 0:
            break
        depth = 1
        i = pos + len(_BOXED_MARKER)
        begin = i
        while i < len(text) and depth > 0:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        if depth == 0:
            groups.append(text[begin : i - 1])
            start = i
        else:
            start = pos + len(_BOXED_MARKER)  # unbalanced; skip this marker
    return groups


def extract_answer(text: str) -> str | None:
    """Pull a normalized final answer out of generated text.

    Returns the content of the last balanced ``\\boxed{...}`` group,
    falling back to the last standalone number token. Absence is a value
    (None), never an error.
    """
    groups = _boxed_groups(text)
    if groups:
        return normalize_answer(groups[-1])
    numbers = _NUMBER_RE.findall(text)
    if numbers:
        return normalize_answer(numbers[-1])
    return None


def consistency(answers: Sequence[str | None], m: int) -> float:
    """Majority-vote agreement: count of the most frequent answer over m.

    Absent answers (None) never form a majority; if every answer is absent
    the consistency is 0. The result is always a multiple of 1/m.
    """
    if len(answers) != m:
        raise LengthMismatchError(f"got {len(answers)} answers, declared m={m}")
    counts = Counter(a for a in answers if a is not None)
    if not counts:
        return 0.0
    return max(counts.values()) / m
