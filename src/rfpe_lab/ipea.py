"""Iterative phase estimation baseline.

Bits of the eigenphase binary fraction are inferred least significant
first. At iteration j of n the experiment runs M = 2^(n-j) applications
of the unitary while the ancilla reference shifter carries the feedback
phase built from the bits already known. ExperimentSetting.theta is a
per-application angle (the physical reference shifter carries M*theta),
so the feedback phase omega is passed as theta = omega / M; the division
by a power of two is exact in binary floating point, which preserves the
algorithm's determinism on noiseless hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .noise import majority
from .phases import TWO_PI, ExperimentSetting, FieldError, Oracle, wrap_phase


@dataclass(frozen=True)
class IpeaConfig:
    """IPEA knobs; `__post_init__` bounds a scenario's `ipea` object too."""

    n_bits: int = 16
    shots_per_bit: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.n_bits >= 1):
            raise FieldError("n_bits", f"must be >= 1, got {self.n_bits}")
        if not (self.shots_per_bit >= 1):
            raise FieldError("shots_per_bit", f"must be >= 1, got {self.shots_per_bit}")


@dataclass(frozen=True)
class BitRecord:
    """One inferred bit: significance index k (1 = most significant),
    the queried setting, the vote tally, and the decision."""

    k: int
    m: int
    theta: float
    n0: int
    n1: int
    bit: int


def theta_feedback(known_low_bits: Sequence[int]) -> float:
    """Feedback phase from already-inferred bits, least significant last.

    Returns 2*pi times the binary fraction 0.0 b1 b2 ..., i.e. the most
    recently inferred bit sits in the second fractional position.
    """
    acc = 0.0
    for i, b in enumerate(known_low_bits):
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        acc += b * 2.0 ** -(i + 2)
    return wrap_phase(TWO_PI * acc)


def ipea_run(oracle: Oracle, config: IpeaConfig) -> tuple[float, list[BitRecord]]:
    """Infer n_bits of the eigenphase, majority-voting each bit.

    Returns the estimate 2*pi*0.b1...bn and the per-bit records. Ties
    are broken by a fair coin drawn from the config.rng_seed stream,
    which nothing else consults.
    """
    rng = np.random.default_rng(config.rng_seed)
    n = config.n_bits
    bits: list[int] = []  # most recently inferred first
    records: list[BitRecord] = []
    for j in range(1, n + 1):
        m = 2 ** (n - j)
        omega = theta_feedback(bits)
        setting = ExperimentSetting(m=m, theta=wrap_phase(omega / m))
        n1 = total = 0
        for _ in range(config.shots_per_bit):
            for e in oracle(setting):
                if e not in (0, 1):
                    raise ValueError(f"oracle outcome must be 0 or 1, got {e!r}")
                n1 += e
                total += 1
        n0 = total - n1
        bit = majority(n0, n1, rng)
        bits.insert(0, bit)
        records.append(BitRecord(k=n - j + 1, m=m, theta=setting.theta,
                                 n0=n0, n1=n1, bit=bit))
    estimate = wrap_phase(TWO_PI * sum(b * 2.0 ** -(i + 1) for i, b in enumerate(bits)))
    return estimate, records
