"""Closed-form analysis of majority-voting breakdown.

A bit inferred from n shots with per-shot success probability P > 1/2
fails with probability at most exp(-n(P-1/2)^2/(2P)) (Chernoff). With a
depolarizing error channel of strength pe the effective per-shot
probability is P = P0(1-pe) + pe/2, so the suppression collapses as pe
approaches 1; the critical-signal threshold quantifies the P0 needed to
keep a whole bit string reliable. An exact binomial minority-tail
companion is provided as the brute-force check on the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class VotingScenario:
    p0: float
    pe: float
    n: int
    n_bits: int

    def __post_init__(self):
        if not (0.5 < self.p0 <= 1.0):
            raise ValueError(f"p0 must lie in (1/2, 1], got {self.p0}")
        if not (0.0 <= self.pe < 1.0):
            raise ValueError(f"pe must lie in [0, 1), got {self.pe}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.n_bits < 0:
            raise ValueError(f"n_bits must be non-negative, got {self.n_bits}")


def effective_probability(s: VotingScenario) -> float:
    """Per-shot success probability after the error channel,
    P = P0(1-pe) + pe/2."""
    return s.p0 * (1.0 - s.pe) + 0.5 * s.pe


def chernoff_bound(p: float, n: int) -> float:
    """Upper bound exp(-n(p-1/2)^2/(2p)) on the majority-vote error."""
    if not (p > 0.5):
        raise ValueError(f"bound requires p > 1/2, got {p}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return math.exp(-n * (p - 0.5) ** 2 / (2.0 * p))


def exact_minority_tail(p: float, n: int) -> float:
    """P(Bin(n, p) <= floor(n/2)), summed in log space.

    The brute-force oracle the Chernoff bound is checked against; kept
    free of library special functions beyond lgamma on purpose. At p = 1
    every shot succeeds, so the tail is exactly 0.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if p == 1.0:
        return 0.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lg_n = math.lgamma(n + 1)
    total = 0.0
    for k in range(n // 2 + 1):
        log_term = (lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * log_p + (n - k) * log_q)
        total += math.exp(log_term)
    return min(total, 1.0)


def expected_bad_bits(s: VotingScenario) -> float:
    """Mean number of wrong bits: n_bits times the per-bit bound."""
    if s.n_bits == 0:
        return 0.0
    return s.n_bits * chernoff_bound(effective_probability(s), s.n)


def critical_signal(n_bits: int, n: int, pe: float, mode: str = "default") -> float:
    """Signal threshold P0 above which a full bit string stays reliable.

    mode="default": 1/2 + (sqrt(n_bits*ln n_bits + ln^2 n_bits) - ln n_bits)
    / (n*|1-pe|). The |1-pe| denominator makes the threshold exceed 1/2
    and diverge as pe -> 1, as the surrounding analysis requires.
    mode="exact" solves expected_bad_bits = 1 for P0 outright: the
    effective-probability excess is s = (L + sqrt(L^2 + n*L))/n with
    L = ln n_bits, mapped back through the error channel. Only this mode
    satisfies the mean-one-bad-bit condition it advertises; the value
    may exceed 1, meaning no signal suffices.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n_bits < 2:
        raise ValueError(f"n_bits must be at least 2, got {n_bits}")
    if not (0.0 <= pe < 1.0):
        raise ValueError(f"pe must lie in [0, 1), got {pe}")
    log_nb = math.log(n_bits)
    if mode == "default":
        return 0.5 + (math.sqrt(n_bits * log_nb + log_nb ** 2) - log_nb) / (
            n * abs(1.0 - pe))
    if mode == "exact":
        s = (log_nb + math.sqrt(log_nb ** 2 + n * log_nb)) / n
        return (0.5 + s - 0.5 * pe) / (1.0 - pe)
    raise ValueError(f"unknown mode {mode!r}")
