"""Exception taxonomy shared across the package.

Every error raised by tvfuse derives from ``TvfuseError`` so callers can
catch package failures with a single except clause; the CLI maps them to
exit code 2.
"""

from __future__ import annotations


class TvfuseError(Exception):
    """Base class for all tvfuse errors."""


# --- tensor archive ---------------------------------------------------------


class ArchiveError(TvfuseError):
    """Base class for tensor-archive file errors."""


class MalformedHeaderError(ArchiveError):
    """Header length prefix or header document cannot be interpreted."""


class OverlappingRegionsError(ArchiveError):
    """Two tensor data regions overlap inside the data block."""


class UnknownDtypeError(ArchiveError):
    """Header declares a dtype outside {F32, F16, BF16}."""


class TruncatedFileError(ArchiveError):
    """File ends before the data the header promises."""


class NameNotFoundError(ArchiveError, KeyError):
    """Requested tensor name is not present in the archive."""


class DuplicateNameError(ArchiveError):
    """Two entries share the same tensor name."""


class IoFailureError(ArchiveError):
    """Underlying filesystem operation failed."""


# --- task vectors ------------------------------------------------------------


class ShapeMismatchError(TvfuseError):
    """Tensors with the same name have different shapes (or dtypes)."""


class NameSetMismatchError(TvfuseError):
    """Two archives do not contain the same tensor names."""


class EmptyVectorError(TvfuseError):
    """Operation requires at least one parameter."""


class NonFiniteVectorError(TvfuseError):
    """A task vector holds inf or NaN, so its magnitudes have no order."""


class DegenerateRescaleWarning(UserWarning):
    """Rescaling an all-zero sparse vector: gamma collapses to norm/epsilon."""


# --- diagnostics --------------------------------------------------------------


class InvalidPatternError(TvfuseError):
    """Layer pattern is not a valid regex or has no capturing group."""


# --- evaluator ----------------------------------------------------------------


class LengthMismatchError(TvfuseError):
    """Answer list length disagrees with the declared sample count."""


class EmptyTextError(TvfuseError):
    """Text to score is empty."""


class BackendFailure(TvfuseError):
    """Evaluation backend could not serve a request."""


class BackendTimeoutError(BackendFailure):
    """Backend did not answer within the configured timeout."""


class HttpStatusError(BackendFailure):
    """Backend answered with a non-success HTTP status."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message or f"HTTP status {status}")
        self.status = status


class MalformedResponseError(BackendFailure):
    """Backend response is missing fields or is not valid JSON."""


class UnknownModelRefError(BackendFailure):
    """Backend cannot resolve the given model reference."""


# --- adaptation ---------------------------------------------------------------


class InsufficientQueriesError(TvfuseError):
    """Too few queries survive filtering to build the requested set."""


# --- optimizer ----------------------------------------------------------------


class EmptySpaceError(TvfuseError):
    """Search space has no dimensions."""


class NoSuccessfulTrialsError(TvfuseError):
    """Every trial failed; no frontier can be built."""


class EmptyFrontierError(TvfuseError):
    """Selection requested on an empty frontier."""


class TooManyFailedTrialsError(TvfuseError):
    """More than the tolerated fraction of trials failed."""


class TrialLogError(TvfuseError):
    """Trial log holds a corrupt line before its last, or a misnumbered record."""


# --- pipeline / CLI -----------------------------------------------------------


class ConfigError(TvfuseError):
    """Pipeline configuration is invalid."""


class PipelineLockedError(TvfuseError):
    """Another pipeline owns the workspace lock."""


class StageError(TvfuseError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage
