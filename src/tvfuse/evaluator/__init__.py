"""Pluggable model-evaluation layer.

Data selection and coefficient search never talk to an inference engine
directly; they go through the `EvaluationBackend` contract defined here.
Both measure queries with the one query evaluator in `backend`:
`sample_consistency` under shared `GenerationParams`, fanned out over the
queries by one stage-long `QueryFanOut`. Two implementations ship with the
package: an HTTP client for a remote generation/scoring service, and a
fully deterministic in-process mock driven by a synthetic coefficient
landscape (plus an HTTP server wrapper around it for wire-protocol tests).
"""

from .answers import consistency, extract_answer, normalize_answer
from .backend import (
    EvaluationBackend,
    GenerationRequest,
    GenerationSample,
    ScoreResult,
)
from .http_backend import HttpBackend
from .mock import MockBackend, encode_model_ref, quadratic_landscape
from .mock_server import MockInferenceServer
from .prompts import PROMPT_PRESETS, render_prompt

__all__ = [
    "EvaluationBackend",
    "GenerationRequest",
    "GenerationSample",
    "HttpBackend",
    "MockBackend",
    "MockInferenceServer",
    "PROMPT_PRESETS",
    "ScoreResult",
    "consistency",
    "encode_model_ref",
    "extract_answer",
    "normalize_answer",
    "quadratic_landscape",
    "render_prompt",
]
