"""Phase arithmetic and the two-outcome measurement model.

All phases are plain floats in radians, canonicalised to [0, 2*pi). An
experiment is a pair (m, theta): m repetitions of the controlled unitary
followed by a feedback rotation theta on the control qubit. Outcomes are
0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


class FieldError(ValueError):
    """A config field out of bounds: args (field, reason), read 'field: reason'."""

    def __str__(self):
        return "%s: %s" % self.args


def wrap_phase(x: float) -> float:
    """Reduce x modulo 2*pi into [0, 2*pi)."""
    x = math.fmod(x, TWO_PI)
    if x < 0.0:
        x += TWO_PI
    # fmod of values just below a multiple of 2*pi can round up to 2*pi
    if x >= TWO_PI:
        x -= TWO_PI
    return x


def circular_distance(a: float, b: float) -> float:
    """Shortest angular separation between a and b, in [0, pi]."""
    d = math.fmod(a - b, TWO_PI)
    if d < 0.0:
        d += TWO_PI
    return min(d, TWO_PI - d)


@dataclass(frozen=True)
class ExperimentSetting:
    """m controlled-unitary applications and a feedback phase theta."""

    m: int
    theta: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        object.__setattr__(self, "theta", wrap_phase(self.theta))


# An experiment: a setting in, the sequence of its outcomes out.
Oracle = Callable[[ExperimentSetting], Sequence[int]]


def fringe(outcome: int, x, m, theta):
    """Probability of `outcome` at eigenphase x, a float or an array.

    P(0) = cos^2(m (x - theta) / 2) and P(1) is its complement, the
    interference fringe of a single-ancilla controlled-U^m circuit with
    feedback phase theta.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    c = np.cos(0.5 * m * (x - theta))
    p0 = c * c
    return p0 if outcome == 0 else 1.0 - p0


def likelihood(outcome: int, phi: float, setting: ExperimentSetting) -> float:
    """The fringe at eigenphase phi under `setting`."""
    return float(fringe(outcome, phi, setting.m, setting.theta))
