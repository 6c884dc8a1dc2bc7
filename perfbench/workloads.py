"""The benchmark's workloads, their acceptance clauses, and the gate.

Each workload is one default study kind, run in a single process as a
closed loop: the next study starts when the previous one has returned.
The benchmark's seed becomes the study's `rng_seed`; nothing else in
the configuration changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from rfpe_lab.device import (UnitarySpec, build_instance, eigenstate_prep,
                             simulate_probability)
from rfpe_lab.experiment import DeviceOracle
from rfpe_lab.noise import NoiseConfig
from rfpe_lab.phases import (TWO_PI, ExperimentSetting, circular_distance,
                             likelihood, wrap_phase)
from rfpe_lab.rfpe import (GaussianBelief, RfpeConfig, acceptance_probability,
                           grid_posterior, rejection_update)

SCHEMA = "rfpe-lab/1"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    kind: str
    workers: int
    why: str
    checks: Callable[[dict], list[Check]]
    # Acceptance clauses the program fails at most seeds: reported on every
    # run, never gated. The suite runs seed 0, where they may hold.
    known_failing: Callable[[dict], list[Check]]

    def config(self, name: str, seed: int) -> dict:
        return {"schema": SCHEMA, "kind": self.kind, "label": name,
                "rng_seed": seed}


def trials(cfg: dict) -> int:
    """Monte-Carlo trials in one study: estimator runs, or fidelity samples."""
    if cfg["kind"] == "fidelity_curve":
        return cfg["samples"] * sum(1 for s in cfg["sigma_grid"] if s > 0.0)
    grid = cfg["sigma_grid"] if "sigma_grid" in cfg else cfg["t2_grid"]
    return len(grid) * (cfg["ensemble"] + cfg["ipea"]["repetitions"])


def _criterion_4(s: dict) -> list[Check]:
    at = s["sigma_grid"].index(0.2)
    ratio = s["rfpe_median_error"][at] / s["ipea_median_error"][at]
    return [Check("criterion_4.rfpe_over_ipea_at_0.2", ratio <= 0.1,
                  f"{ratio:.4f}, needs <= 0.1")]


def _criterion_4_noiseless_multiple(s: dict) -> list[Check]:
    grid, rfpe = s["sigma_grid"], s["rfpe_median_error"]
    worst = max(rfpe[i] / rfpe[0] for i in range(len(grid)) if grid[i] <= 0.2)
    return [Check("criterion_4.within_3x_of_noiseless", worst <= 3.0,
                  f"{worst:.2f}, needs <= 3")]


def _criterion_6_rfpe(s: dict) -> list[Check]:
    jump = s["rfpe_max_adjacent_ratio"]
    worst = max(e for t2, e in zip(s["t2_grid"], s["rfpe_median_error"])
                if t2 >= 8.0)
    return [Check("criterion_6.rfpe_adjacent_jump", jump < 10.0,
                  f"{jump:.2f}, needs < 10"),
            Check("criterion_6.rfpe_error_down_to_t2_8", worst <= 0.1,
                  f"{worst:.4f}, needs <= 0.1")]


def _criterion_6_ipea_cliff(s: dict) -> list[Check]:
    jump = s["ipea_max_adjacent_ratio"]
    return [Check("criterion_6.ipea_coherence_cliff", jump >= 10.0,
                  f"{jump:.2f}, needs >= 10")]


def _criterion_5(s: dict) -> list[Check]:
    grid = s["sigma_grid"]
    state = s["state_fidelity"][grid.index(0.55)]
    gate = s["gate_fidelity"][grid.index(0.55)]
    s0, g0 = s["state_fidelity"][0], s["gate_fidelity"][0]
    return [Check("criterion_5.state_fidelity_at_0.55",
                  abs(state - 0.94) <= 0.03, f"{state:.4f}, needs 0.94+-0.03"),
            Check("criterion_5.gate_fidelity_at_0.55",
                  abs(gate - 0.91) <= 0.03, f"{gate:.4f}, needs 0.91+-0.03"),
            Check("criterion_5.noiseless",
                  abs(s0 - 1.0) <= 1e-3 and abs(g0 - 1.0) <= 1e-3,
                  f"{s0:.4f}/{g0:.4f}, needs 1+-0.001")]


WORKLOADS = {
    "noise_sweep": Workload(
        "phase_noise_sweep", 1,
        "device-heavy: jitter on all seven phases and an uncapped m, so the "
        "per-oracle V^m cache misses most calls",
        _criterion_4, _criterion_4_noiseless_multiple),
    "t2_sweep_w2": Workload(
        "t2_sweep", 2,
        "m capped at T2 so V^m compiles hit the cache; rejection update "
        "dominates, and each grid point builds a worker pool",
        _criterion_6_rfpe, _criterion_6_ipea_cliff),
    "fidelity": Workload(
        "fidelity_curve", 1,
        "per-sample fidelity loop in device and noise; never reaches rfpe, "
        "ipea or the oracle",
        _criterion_5, lambda s: []),
}


# --------------------------------------------------------------------------
# Correctness gate, run before anything is timed. Its inputs are fixed so
# that a verdict never depends on the workload seed.

GATE_SEED = 20170315
# Allowed distance, in Monte-Carlo standard errors, between a sampled
# refit and the grid posterior. At 100,000 particles one standard error
# of the mean is sigma_post / ~300.
REFIT_Z = 6.0
ORACLE_TOL = 1e-9


def _kernel_refit_checks() -> list[Check]:
    rng = np.random.default_rng(np.random.SeedSequence([GATE_SEED, 0]))
    config = RfpeConfig(n_particles=100_000)
    out = []
    for case in range(12):
        mu = float(rng.uniform(0.0, TWO_PI))
        sigma = float(np.exp(rng.uniform(np.log(0.05), np.log(1.0))))
        setting = ExperimentSetting(
            m=max(1, math.ceil(1.25 / sigma)),
            theta=wrap_phase(mu + sigma * float(rng.standard_normal())))
        outcome = case % 2
        prior = GaussianBelief(mu=mu, sigma=sigma)
        ref = grid_posterior(outcome, prior, setting)
        post = rejection_update(
            outcome, prior, setting, config,
            np.random.default_rng(np.random.SeedSequence([GATE_SEED, 1, case])))
        n_acc = config.n_particles * acceptance_probability(outcome, prior,
                                                            setting)
        se = ref.sigma / math.sqrt(n_acc)
        z_mu = circular_distance(post.mu, ref.mu) / se
        z_sigma = abs(post.sigma - ref.sigma) / (se / math.sqrt(2.0))
        out.append(Check(f"gate.kernel_refit.{case}",
                         max(z_mu, z_sigma) <= REFIT_Z,
                         f"z_mu {z_mu:.2f}, z_sigma {z_sigma:.2f}, "
                         f"needs <= {REFIT_Z}"))
    return out


def _oracle_checks() -> list[Check]:
    rng = np.random.default_rng(np.random.SeedSequence([GATE_SEED, 2]))
    out = []
    for case in range(12):
        unitary = UnitarySpec(*(float(v) for v in rng.uniform(0.0, TWO_PI, 4)))
        prep, phi = eigenstate_prep(unitary, which=case % 2)
        m = int(rng.integers(1, 20_000)) if case >= 2 else case + 1
        setting = ExperimentSetting(m=m, theta=float(rng.uniform(0.0, TWO_PI)))
        oracle = DeviceOracle(unitary, prep, NoiseConfig(), rng)
        p = oracle.probability(setting, noisy=False)
        p_sim = simulate_probability(build_instance(unitary, prep, setting),
                                     0.0)
        p_lik = likelihood(0, phi, setting)
        dev = max(abs(p - p_sim), abs(p - p_lik))
        out.append(Check(f"gate.oracle_probability.{case}", dev <= ORACLE_TOL,
                         f"m={m}: deviation {dev:.1e}, needs <= {ORACLE_TOL}"))
    return out


def gate() -> list[Check]:
    return _kernel_refit_checks() + _oracle_checks()
