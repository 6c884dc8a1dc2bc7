"""Noise channels and outcome-extraction strategies.

Three independent knobs model the device: Gaussian jitter on the
physical phase-shifter settings, a depolarizing transform that mixes
the outcome probability toward 1/2 with weight growing in the evolution
length, and shot statistics (binomial at fixed total, or two independent
Poisson counts). A strategy then collapses a measured count pair into
one or more binary data for the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .phases import FieldError


def readouts(strategy: str) -> int:
    """Number of binary data one measurement yields under a readout strategy.

    'single_shot' draws one Bernoulli datum with P(0) = n0/(n0+n1);
    'sampled:<n>' draws n such data ('sampled' means 'sampled:3');
    'majority_vote' gives the more frequent outcome, a fair coin on ties.
    Any other name raises ValueError.
    """
    if strategy in ("single_shot", "majority_vote"):
        return 1
    if strategy == "sampled":
        return 3
    if strategy.startswith("sampled:"):
        try:
            n = int(strategy.split(":", 1)[1])
        except ValueError:
            raise ValueError("sampled strategy needs an integer n, got "
                             f"{strategy!r}") from None
        if n < 1:
            raise ValueError(f"sampled strategy needs n >= 1, got {n}")
        return n
    raise ValueError(f"unknown strategy name {strategy!r}")


@dataclass(frozen=True)
class NoiseConfig:
    """All noise knobs for the simulated device.

    t2 is in units of the per-controlled-gate time, so the depolarizing
    weight after m repetitions is 1 - exp(-m/t2). t2=None disables
    decoherence entirely. strategy is a readout-strategy name that
    `readouts` accepts. `__post_init__` bounds a scenario's `noise`
    object too.
    """

    sigma_phase: float = 0.0
    t2: Optional[float] = None
    shots: int = 2000
    strategy: str = "majority_vote"
    poissonian: bool = False

    def __post_init__(self):
        if not (self.sigma_phase >= 0.0):
            raise FieldError("sigma_phase", f"must be >= 0.0, got {self.sigma_phase}")
        if self.t2 is not None and not (self.t2 > 0.0):
            raise FieldError("t2", f"must be > 0.0, got {self.t2}")
        if not (self.shots >= 1):
            raise FieldError("shots", f"must be >= 1, got {self.shots}")
        try:
            readouts(self.strategy)
        except ValueError as exc:
            raise FieldError("strategy", str(exc)) from None


@dataclass(frozen=True)
class CountPair:
    n0: int
    n1: int

    def __post_init__(self):
        if self.n0 < 0 or self.n1 < 0:
            raise ValueError(f"counts must be non-negative, got ({self.n0}, {self.n1})")
        if self.n0 + self.n1 < 1:
            raise ValueError("count pair must contain at least one event")

    @property
    def total(self) -> int:
        return self.n0 + self.n1


def depolarize(p: float, m: int, t2: float) -> float:
    """Mix an outcome probability toward 1/2 with weight 1 - exp(-m/t2)."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability out of range: {p}")
    if not (t2 > 0.0):
        raise ValueError(f"t2 must be positive, got {t2}")
    damp = math.exp(-m / t2)
    return damp * p + 0.5 * (1.0 - damp)


def perturb_phases(nominal: Sequence[float], sigma_phase: float,
                   rng: np.random.Generator) -> list[float]:
    """Independent Gaussian jitter on each phase; sigma 0 is the identity."""
    if sigma_phase < 0.0:
        raise ValueError(f"sigma_phase must be non-negative, got {sigma_phase}")
    if sigma_phase == 0.0:
        return [float(v) for v in nominal]
    draws = rng.normal(np.asarray(nominal, dtype=float), sigma_phase)
    return [float(v) for v in np.atleast_1d(draws)]


def sample_counts(p: float, shots: int, poissonian: bool,
                  rng: np.random.Generator) -> CountPair:
    """Draw a count pair for outcome probability p.

    Poissonian mode fluctuates the total (two independent Poisson counts,
    equivalent to a Poisson total split binomially); otherwise the total
    is exactly `shots`. Empty pairs are redrawn so a vote is always possible.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability out of range: {p}")
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    while True:
        if poissonian:
            n0 = int(rng.poisson(shots * p))
            n1 = int(rng.poisson(shots * (1.0 - p)))
        else:
            n0 = int(rng.binomial(shots, p))
            n1 = shots - n0
        if n0 + n1 >= 1:
            return CountPair(n0=n0, n1=n1)


def majority(n0: int, n1: int, rng: np.random.Generator) -> int:
    """The more frequent outcome; only a tie draws (one fair coin) from rng."""
    if n0 > n1:
        return 0
    if n1 > n0:
        return 1
    return int(rng.integers(0, 2))


def reduce_outcome(counts: CountPair, strategy: str,
                   rng: np.random.Generator) -> list[int]:
    """Collapse a count pair into the binary data fed to the estimator.

    The returned list drives that many sequential Bayesian updates at
    the same experiment setting.
    """
    if strategy == "majority_vote":
        return [majority(counts.n0, counts.n1, rng)]
    p0 = counts.n0 / counts.total
    return [int(v) for v in (rng.random(readouts(strategy)) >= p0).astype(int)]
