"""Deterministic in-process backend driven by a synthetic landscape.

A landscape maps a coefficient pair to (consistency, perplexity), two
numbers; per-query variation comes from `query_jitter`, a deterministic
offset to the consistency keyed on the prompt. The mock fabricates texts
whose boxed answers' majority fraction equals that consistency quantized to
multiples of 1/num_samples, and log-probabilities whose perplexity is the
landscape's, so the query evaluator in `backend` and the search above it
can be tested against a known optimum without any model inference.

Everything is derived from SHA-256 of (seed, model_ref, prompt); outputs
are reproducible across runs, platforms and thread schedules.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Callable

from ..errors import UnknownModelRefError
from .backend import GenerationRequest

Landscape = Callable[[float, float], tuple[float, float]]

_MERGED_REF_RE = re.compile(r"^merged:([^:]+):([^:]+)$")

DEFAULT_ALIASES: dict[str, tuple[float, float]] = {
    "base": (0.0, 0.0),
    "sft": (1.0, 0.0),
    "rlvr": (0.0, 1.0),
}


def encode_model_ref(coeff_sft: float, coeff_rlvr: float) -> str:
    """Canonical mock-resolvable reference for a merged coefficient pair."""
    return f"merged:{coeff_sft!r}:{coeff_rlvr!r}"


def decode_model_ref(model_ref: str) -> tuple[float, float] | None:
    match = _MERGED_REF_RE.match(model_ref)
    if match is None:
        return None
    try:
        return float(match.group(1)), float(match.group(2))
    except ValueError:
        return None


def quadratic_landscape(
    peak: tuple[float, float], falloff: float, ppl_base: float, ppl_slope: float
) -> Landscape:
    """Consistency 1 - falloff * d^2 (clamped to [0, 1]) around a single peak;
    perplexity grows linearly in d^2, so the peak is also the perplexity floor."""

    def landscape(coeff_sft: float, coeff_rlvr: float) -> tuple[float, float]:
        d2 = (coeff_sft - peak[0]) ** 2 + (coeff_rlvr - peak[1]) ** 2
        return max(0.0, min(1.0, 1.0 - falloff * d2)), ppl_base + ppl_slope * d2

    return landscape


def _digest(*parts: object) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return h.digest()


class MockBackend:
    """EvaluationBackend over a synthetic coefficient landscape."""

    # Model refs are aliases or `merged:c_sft:c_rlvr` refs; no weights are read.
    loads_weights = False

    def __init__(
        self,
        landscape: Landscape,
        seed: int,
        aliases: dict[str, tuple[float, float]] | None,
        query_jitter: float,
    ):
        self.landscape = landscape
        self.seed = seed
        self.aliases = DEFAULT_ALIASES if aliases is None else aliases
        self.query_jitter = query_jitter

    def _resolve(self, model_ref: str) -> tuple[float, float]:
        if model_ref in self.aliases:
            return self.aliases[model_ref]
        coeffs = decode_model_ref(model_ref)
        if coeffs is None:
            raise UnknownModelRefError(f"mock backend cannot resolve {model_ref!r}")
        return coeffs

    def _consistency_at(self, model_ref: str, prompt: str) -> float:
        value, _ = self.landscape(*self._resolve(model_ref))
        if self.query_jitter > 0.0:
            # Deterministic per-query offset in [-jitter, +jitter].
            unit = int.from_bytes(_digest("jitter", self.seed, prompt)[:8], "big") / 2**64
            value += self.query_jitter * (2.0 * unit - 1.0)
        return max(0.0, min(1.0, value))

    def generate(self, request: GenerationRequest) -> list[str]:
        k = request.num_samples
        target = self._consistency_at(request.model_ref, request.prompt)
        # Quantize to multiples of 1/k; a majority answer always exists, so
        # the smallest reachable consistency is 1/k.
        agree = min(k, max(1, round(target * k)))
        token = _digest(self.seed, request.prompt).hex()[:8]
        majority = str(100 + int(token, 16) % 900)
        return [
            f"Working through it, the final answer is \\boxed{{{majority}}}."
            if i < agree
            else f"An alternative path gives \\boxed{{alt-{i}-{token}}}."
            for i in range(k)
        ]

    def score(self, model_ref: str, text: str) -> list[float]:
        _, ppl = self.landscape(*self._resolve(model_ref))
        return [-math.log(ppl)] * 8
