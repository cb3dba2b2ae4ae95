"""Pluggable model-evaluation layer.

Data selection and coefficient search never talk to an inference engine
directly; they go through the `EvaluationBackend` contract defined here.
A backend returns raw outputs: sampled texts and token log-probabilities.
The one query evaluator in `backend` derives both objectives from them:
`sample_consistency` (majority share of the extracted answers, under shared
`GenerationParams`) and `score_perplexity`, fanned out over the queries by
one stage-long `QueryFanOut`. Two implementations ship with the
package: an HTTP client for a remote generation/scoring service, and a
fully deterministic in-process mock driven by a synthetic coefficient
landscape (plus an HTTP server wrapper around it for wire-protocol tests).
`HttpBackend` and `MockInferenceServer` are imported on first use, so the
mock backend and the analysis commands load no HTTP or TLS modules.
"""

from .answers import consistency, extract_answer, normalize_answer
from .backend import EvaluationBackend, GenerationRequest
from .mock import MockBackend, encode_model_ref, quadratic_landscape
from .prompts import PROMPT_PRESETS, render_prompt

__all__ = [
    "EvaluationBackend",
    "GenerationRequest",
    "HttpBackend",
    "MockBackend",
    "MockInferenceServer",
    "PROMPT_PRESETS",
    "consistency",
    "encode_model_ref",
    "extract_answer",
    "normalize_answer",
    "quadratic_landscape",
    "render_prompt",
]


def __getattr__(name: str):
    if name == "HttpBackend":
        from .http_backend import HttpBackend

        return HttpBackend
    if name == "MockInferenceServer":
        from .mock_server import MockInferenceServer

        return MockInferenceServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
