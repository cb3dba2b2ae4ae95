"""Tree-structured Parzen Estimator over a small box-bounded space.

Completed trials are split by objective into a good set (top gamma
fraction) and a bad set. Each dimension gets two Parzen mixtures of
truncated Gaussians, one per set, each with a uniform prior component;
candidates are sampled from the good mixture and the one maximizing the
good/bad density ratio is suggested. All candidates are drawn first and
then scored in one array pass per dimension and mixture, bit for bit what
scoring them one point at a time gives. Until enough trials exist, points
are drawn uniformly.

Suggestions are a pure function of (history, space, config): the random
stream is keyed on the config seed and the history length, which is what
makes interrupted searches resume identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import EmptySpaceError

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_MAX_REJECTION_DRAWS = 100


@dataclass(frozen=True)
class SearchSpace:
    """Closed interval per dimension; defaults to two coefficients in [0, 2]."""

    bounds: tuple[tuple[float, float], ...] = ((0.0, 2.0), (0.0, 2.0))

    def __post_init__(self):
        if len(self.bounds) == 0:
            raise EmptySpaceError("search space has no dimensions")
        for lo, hi in self.bounds:
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ValueError(f"bound ({lo}, {hi}) is not a proper interval of finite width")


@dataclass
class TpeConfig:
    n_trials: int = 100
    n_startup: int = 10
    gamma_split: float = 0.25
    n_candidates: int = 24
    bandwidth_floor: float = 0.05  # per unit of dimension range
    seed: int = 0
    # 0 keeps the objective at consistency alone; positive values blend in
    # -w * log(perplexity) when ranking trials for the good/bad split.
    scalarize_ppl_weight: float = 0.0

    def __post_init__(self):
        if not 0 < self.n_startup < self.n_trials:
            raise ValueError("need 0 < n_startup < n_trials")
        if not 0.0 < self.gamma_split < 1.0:
            raise ValueError("gamma_split must be in (0, 1)")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if not self.bandwidth_floor > 0:
            raise ValueError("bandwidth_floor must be > 0")
        if not self.scalarize_ppl_weight >= 0:
            raise ValueError("scalarize_ppl_weight must be >= 0")


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


class _ParzenMixture:
    """Equal-weight truncated Gaussians around observations plus a uniform prior."""

    def __init__(self, observations: Sequence[float], lo: float, hi: float, bandwidth_floor: float):
        self.lo = lo
        self.hi = hi
        self.centers = np.asarray(observations, dtype=np.float64)
        n = self.centers.size
        spread = float(np.std(self.centers, ddof=1)) if n > 1 else 0.0
        silverman = 1.06 * spread * n ** (-0.2) if n > 0 else 0.0
        self.bandwidth = max(bandwidth_floor * (hi - lo), silverman)
        self.weight = 1.0 / (n + 1)
        z_hi = (hi - self.centers) / self.bandwidth
        z_lo = (lo - self.centers) / self.bandwidth
        self.truncation = np.array([_norm_cdf(a) - _norm_cdf(b) for a, b in zip(z_hi, z_lo)])

    def log_densities(self, xs: Sequence[float]) -> list[float]:
        """Log density at each of `xs`: one kernel matrix of points x centres,
        summed along each row as `np.sum` sums one point's kernel row."""
        prior = self.weight / (self.hi - self.lo)  # uniform prior component
        z = (np.asarray(xs, dtype=np.float64)[:, None] - self.centers) / self.bandwidth
        kernel = np.exp(-0.5 * z * z) / (self.bandwidth * _SQRT2PI)
        row_sums = np.sum(kernel / self.truncation, axis=1)
        return [math.log(prior + self.weight * float(s)) for s in row_sums]

    def sample(self, rng: np.random.Generator) -> float:
        idx = int(rng.integers(0, self.centers.size + 1))
        if idx == self.centers.size:
            return float(rng.uniform(self.lo, self.hi))
        mu = float(self.centers[idx])
        for _ in range(_MAX_REJECTION_DRAWS):
            x = float(rng.normal(mu, self.bandwidth))
            if self.lo <= x <= self.hi:
                return x
        return min(max(mu, self.lo), self.hi)


def _objective(trial, weight: float) -> float:
    if weight > 0.0:
        return trial.consistency - weight * math.log(trial.perplexity)
    return trial.consistency


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """The per-trial random stream; keyed so resume replays identically."""
    return np.random.default_rng([seed, trial_index])


def _uniform_point(space: SearchSpace, rng: np.random.Generator) -> tuple[float, ...]:
    return tuple(float(rng.uniform(lo, hi)) for lo, hi in space.bounds)


def tpe_suggest(history: Sequence, space: SearchSpace, config: TpeConfig) -> tuple[float, ...]:
    """Propose the next coefficient point given completed trials.

    `history` holds TrialRecords; failed ones count toward the stream key
    but are excluded from fitting.
    """
    rng = trial_rng(config.seed, len(history))
    completed = [t for t in history if t.status == "ok"]
    if len(completed) < config.n_startup:
        return _uniform_point(space, rng)

    ranked = sorted(
        completed,
        key=lambda t: (-_objective(t, config.scalarize_ppl_weight), t.index),
    )
    n_good = math.ceil(config.gamma_split * len(ranked))
    good, bad = ranked[:n_good], ranked[n_good:]
    if not bad:  # degenerate split with very short histories
        bad = ranked

    mixtures: list[tuple[_ParzenMixture, _ParzenMixture]] = []
    for dim, (lo, hi) in enumerate(space.bounds):
        gm = _ParzenMixture([t.coeffs[dim] for t in good], lo, hi, config.bandwidth_floor)
        bm = _ParzenMixture([t.coeffs[dim] for t in bad], lo, hi, config.bandwidth_floor)
        mixtures.append((gm, bm))

    points = [tuple(gm.sample(rng) for gm, _ in mixtures) for _ in range(config.n_candidates)]
    terms = [  # per dimension, the log density ratio at each candidate
        [g - b for g, b in zip(gm.log_densities(xs), bm.log_densities(xs))]
        for xs, (gm, bm) in zip(zip(*points), mixtures)
    ]
    best_point: tuple[float, ...] | None = None
    best_score = -math.inf
    for point, point_terms in zip(points, zip(*terms)):
        score = sum(point_terms)
        if score > best_score:
            best_score = score
            best_point = point
    assert best_point is not None
    return best_point
