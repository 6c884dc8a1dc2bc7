"""Experiment oracles: callables mapping a setting to measured outcomes.

DeviceOracle runs the full physical pipeline per measurement: draw
phase jitter on the seven shifter angles, evaluate the circuit
probability, apply the depolarizing transform, sample shot counts, and
reduce them with the configured strategy. SyntheticOracle skips the
device and samples straight from the analytic fringe; it supports the
count-level noise knobs only and exists as an independent cross-check
and a fast path for shot-statistics studies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .device import (StatePrepSpec, UnitarySpec, compose_power, euler_angles,
                     probability_from_phases)
from .noise import NoiseConfig, depolarize, perturb_phases, reduce_outcome, sample_counts
from .phases import ExperimentSetting, likelihood


class DeviceOracle:
    """Simulated chip: phases are programmed once per measurement, then
    `shots` detection events accumulate under those phases."""

    def __init__(self, unitary: UnitarySpec, prep: StatePrepSpec,
                 noise: NoiseConfig, rng: np.random.Generator):
        self.unitary = unitary
        self.prep = prep
        self.noise = noise
        self.rng = rng
        self._v = unitary.matrix()
        self._euler_cache: dict[int, tuple[float, float, float, float]] = {}

    def _composite_euler(self, m: int) -> tuple[float, float, float, float]:
        cached = self._euler_cache.get(m)
        if cached is None:
            cached = euler_angles(compose_power(self._v, m))
            self._euler_cache[m] = cached
        return cached

    def nominal_phases(self, setting: ExperimentSetting) -> tuple[float, ...]:
        am, bm, gm, dm = self._composite_euler(setting.m)
        return (self.prep.theta_z, self.prep.theta_y, am, bm, gm, dm,
                -setting.m * setting.theta)

    def probability(self, setting: ExperimentSetting,
                    noisy: bool = True) -> float:
        """Outcome-0 probability for one programming of the shifters."""
        phases = self.nominal_phases(setting)
        if noisy and self.noise.sigma_phase > 0.0:
            phases = perturb_phases(phases, self.noise.sigma_phase, self.rng)
        p = probability_from_phases(phases)
        if noisy and self.noise.t2 is not None:
            p = depolarize(p, setting.m, self.noise.t2)
        return p

    def __call__(self, setting: ExperimentSetting) -> list[int]:
        p = self.probability(setting)
        counts = sample_counts(p, self.noise.shots, self.noise.poissonian, self.rng)
        return reduce_outcome(counts, self.noise.strategy, self.rng)


class SyntheticOracle:
    """Samples the analytic fringe directly; no phase-level model.

    Rejects sigma_phase > 0 because jitter on individual shifters has
    no counterpart in the bare likelihood; use DeviceOracle for that.
    """

    def __init__(self, truth: float, noise: NoiseConfig, rng: np.random.Generator):
        if noise.sigma_phase > 0.0:
            raise ValueError("SyntheticOracle cannot model phase-shifter noise")
        self.truth = truth
        self.noise = noise
        self.rng = rng

    def probability(self, setting: ExperimentSetting) -> float:
        p = likelihood(0, self.truth, setting)
        if self.noise.t2 is not None:
            p = depolarize(p, setting.m, self.noise.t2)
        return p

    def __call__(self, setting: ExperimentSetting) -> list[int]:
        p = self.probability(setting)
        counts = sample_counts(p, self.noise.shots, self.noise.poissonian, self.rng)
        return reduce_outcome(counts, self.noise.strategy, self.rng)


def device_oracle_for_phase(phi: float, noise: NoiseConfig,
                            rng: np.random.Generator,
                            prep_excited: bool = True) -> DeviceOracle:
    """Oracle for the default diagonal target with eigenphase phi."""
    from .device import phase_gate_instance

    unitary, prep = phase_gate_instance(phi)
    if not prep_excited:
        prep = StatePrepSpec(theta_z=0.0, theta_y=0.0)
    return DeviceOracle(unitary=unitary, prep=prep, noise=noise, rng=rng)
