"""The program's objects at their defaults, which live in `PipelineConfig`.

The search, the evaluator and the mock backend take every setting from
their caller. These build them as a run whose config sets nothing would,
with the named `changes`, so a test repeats no default.
"""

from __future__ import annotations

from dataclasses import replace

from tvfuse.adaptation import build_adaptation_set, score_difficulty
from tvfuse.evaluator import HttpBackend, MockBackend, quadratic_landscape
from tvfuse.evaluator.backend import GenerationRequest
from tvfuse.evaluator.mock import Landscape
from tvfuse.optimizer import SearchResult, TpeConfig, run_search
from tvfuse.pipeline import PipelineConfig

CONFIG = PipelineConfig()
SPACE = CONFIG.search_space()
GEN_PARAMS = CONFIG.gen_params()


def tpe_config(**changes) -> TpeConfig:
    return replace(CONFIG.tpe_config(), **changes)


def default_search(**arguments) -> SearchResult:
    """`run_search` with each setting that `arguments` leave out taken from
    the config, on a fresh trial log unless they set `resume`."""
    search = CONFIG.search
    settings = {
        "space": SPACE,
        "samples_per_query": search.k,
        "gen_params": GEN_PARAMS,
        "selection_rule": search.selection_rule,
        "concurrency": search.concurrency,
        "resume": False,
    }
    return run_search(**{**settings, **arguments})


def default_scoring(pool, backend, sft_ref: str, rlvr_ref: str, m: int):
    """`score_difficulty` at the config's sampling settings, seed and concurrency."""
    search = CONFIG.search
    return score_difficulty(
        pool, backend, sft_ref, rlvr_ref, m, GEN_PARAMS, CONFIG.seed, search.concurrency
    )


def default_selection(records, m: int, n: int, seed: int, **arguments):
    """`build_adaptation_set` with the config's threshold and easy ratio
    unless `arguments` set them."""
    settings = {"threshold": CONFIG.difficulty_threshold, "easy_ratio": CONFIG.easy_medium_ratio}
    return build_adaptation_set(records, m, n, seed, **{**settings, **arguments})


def mock_landscape(**changes) -> Landscape:
    mock = replace(CONFIG.backend.mock, **changes)
    return quadratic_landscape(mock.peak, mock.falloff, mock.ppl_base, mock.ppl_slope)


def mock_backend(landscape: Landscape, backend_type: type = MockBackend, **changes) -> MockBackend:
    """A `backend_type`, a `MockBackend` or a subclass, over `landscape`."""
    mock = replace(CONFIG.backend.mock, **changes)
    return backend_type(landscape, mock.seed, mock.aliases, mock.query_jitter)


def http_client(url: str, **changes) -> HttpBackend:
    backend = replace(CONFIG.backend, **changes)
    return HttpBackend(url, backend.max_attempts, backend.timeout)


def gen_request(model_ref: str, prompt: str, num_samples: int, **changes) -> GenerationRequest:
    """An unseeded request at the config's temperature and token cap."""
    fields = {"temperature": GEN_PARAMS.temperature, "max_tokens": GEN_PARAMS.max_tokens, "seed": None}
    return GenerationRequest(model_ref, prompt, num_samples, **{**fields, **changes})
