"""Rejection-filtering Bayesian phase estimation.

The belief over the eigenphase is a single Gaussian N(mu, sigma^2),
understood modulo 2*pi. Each update draws particles from the prior,
keeps those that survive a rejection test against the outcome fringe
(`phases.fringe`), and refits a Gaussian to the survivors. Statistics are
computed both in the original frame and in a frame shifted by pi, and
the frame with the smaller sample variance wins; that makes the refit
robust to posteriors straddling the 0/2*pi seam.

`analytic_posterior` is the same update in closed form, taken when too
few particles survive; `grid_posterior` is an independent dense-grid
reference (exact moments under the same frame rule) that checks both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .phases import (TWO_PI, ExperimentSetting, FieldError, Oracle,
                     circular_distance, fringe, wrap_phase)

# Smallest admissible belief width; a refit collapsing below this is clamped.
SIGMA_FLOOR = 1e-15


class UpdateFailure(RuntimeError):
    """Raised when a rejection update cannot produce a valid refit."""


class DegenerateUpdateError(RuntimeError):
    """Raised when the reference grid posterior has no numerical mass."""


@dataclass(frozen=True)
class GaussianBelief:
    """Belief N(mu, sigma^2) mod 2*pi; `__post_init__` bounds a `prior` too."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise FieldError("mu", f"must be finite, got {self.mu}")
        if not (0.0 < self.sigma < math.inf):
            raise FieldError("sigma", f"must be finite and > 0.0, got {self.sigma}")
        object.__setattr__(self, "mu", wrap_phase(self.mu))


@dataclass(frozen=True)
class RfpeConfig:
    """Knobs for a rejection-filtering run.

    t2_cap, when set, limits m to floor(t2) so experiments stay inside
    the coherence window. `__post_init__` bounds a scenario's `rfpe`
    object too.
    """

    n_particles: int = 1000
    n_steps: int = 50
    t2_cap: Optional[float] = None
    rng_seed: int = 0

    def __post_init__(self):
        if not (self.n_particles >= 2):
            raise FieldError("n_particles", f"must be >= 2, got {self.n_particles}")
        if not (self.n_steps >= 0):
            raise FieldError("n_steps", f"must be >= 0, got {self.n_steps}")
        if self.t2_cap is not None and not (self.t2_cap >= 1.0):
            raise FieldError("t2_cap", "a T2 cap below one gate time is unusable, "
                             f"got {self.t2_cap}")
        if self.t2_cap == math.inf:  # m is capped at floor(t2_cap), an int
            raise FieldError("t2_cap", f"must be finite, got {self.t2_cap}")


@dataclass(frozen=True)
class InferenceTraceRow:
    """One step of `rfpe_run`; `fallbacks` counts the step's data whose
    update starved and took `analytic_posterior`."""

    step: int
    setting: ExperimentSetting
    outcome: int
    posterior: GaussianBelief
    error: Optional[float] = None
    fallbacks: int = 0


def particle_guess(belief: GaussianBelief, rng: np.random.Generator) -> ExperimentSetting:
    """Experiment chooser: m = ceil(1.25 / sigma), theta drawn from the belief."""
    m = max(1, math.ceil(1.25 / belief.sigma))
    theta = wrap_phase(float(rng.normal(belief.mu, belief.sigma)))
    return ExperimentSetting(m=m, theta=theta)


def particle_guess_capped(belief: GaussianBelief, rng: np.random.Generator,
                          t2: float) -> ExperimentSetting:
    """Coherence-limited variant: m additionally capped at floor(t2)."""
    if t2 < 1.0:
        raise ValueError(f"t2 cap below one gate time is unusable, got {t2}")
    m = max(1, min(math.ceil(1.25 / belief.sigma), math.floor(t2)))
    theta = wrap_phase(float(rng.normal(belief.mu, belief.sigma)))
    return ExperimentSetting(m=m, theta=theta)


def _refit(n_acc, s1, s2, s1p, s2p, mu_prior):
    """Turn accumulated two-frame moments into a Gaussian refit.

    Moments are centred on the prior mean (shifted appropriately in the
    pi-frame), so s1/s2 are sums of small residuals for tight priors.
    """
    c0 = wrap_phase(mu_prior)
    cpi = wrap_phase(c0 + math.pi)
    var0 = (s2 - s1 * s1 / n_acc) / (n_acc - 1)
    varp = (s2p - s1p * s1p / n_acc) / (n_acc - 1)
    if varp < var0:
        mu = wrap_phase(cpi + s1p / n_acc - math.pi)
        var = varp
    else:
        mu = wrap_phase(c0 + s1 / n_acc)
        var = var0
    if not (var >= 0.0) or not math.isfinite(var):
        raise UpdateFailure(f"invalid refit variance {var}")
    return GaussianBelief(mu=mu, sigma=max(math.sqrt(var), SIGMA_FLOOR))


def rejection_update(outcome: int, belief: GaussianBelief, setting: ExperimentSetting,
                     config: RfpeConfig, rng: np.random.Generator) -> GaussianBelief:
    """Single Bayesian update by rejection sampling against the outcome likelihood.

    A particle survives when the fringe, whose peak is 1, is at least its
    uniform draw. Raises UpdateFailure if fewer than two particles survive.
    """
    x = rng.normal(belief.mu, belief.sigma, config.n_particles)
    u = rng.uniform(0.0, 1.0, config.n_particles)
    n_acc, s1, s2, s1p, s2p = kernels.rejection_accumulate(
        x, u, outcome, float(setting.m), setting.theta, belief.mu)
    if n_acc < 2:
        raise UpdateFailure(f"only {n_acc} particles accepted")
    return _refit(n_acc, s1, s2, s1p, s2p, belief.mu)


def grid_posterior(outcome: int, belief: GaussianBelief, setting: ExperimentSetting,
                   n_grid: int = 1 << 16) -> GaussianBelief:
    """Dense-grid reference posterior with the same dual-frame moment rule.

    The prior is the wrapped normal matching what the sampler draws
    (normal draws reduced mod 2*pi); the posterior mean and standard
    deviation are exact moments of the discretised posterior. Exponents
    are max-shifted before exponentiation, so tight priors do not
    underflow the gridded density.
    """
    if n_grid < 1024:
        raise ValueError(f"n_grid must be at least 1024, got {n_grid}")
    x = (np.arange(n_grid) + 0.5) * (TWO_PI / n_grid)
    n_wraps = int(np.ceil(5.0 * belief.sigma / TWO_PI)) + 1
    ks = np.arange(-n_wraps, n_wraps + 1)
    expo = -0.5 * ((x[None, :] - belief.mu + TWO_PI * ks[:, None]) / belief.sigma) ** 2
    prior = np.exp(expo - expo.max()).sum(axis=0)
    w = prior * fringe(outcome, x, setting.m, setting.theta)
    total = w.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateUpdateError("posterior carries no numerical mass on the grid")
    w /= total

    m0 = float(w @ x)
    var0 = float(w @ (x - m0) ** 2)
    xs = np.mod(x + np.pi, TWO_PI)
    mp = float(w @ xs)
    varp = float(w @ (xs - mp) ** 2)
    if varp < var0:
        return GaussianBelief(mu=wrap_phase(mp - np.pi), sigma=max(math.sqrt(varp), SIGMA_FLOOR))
    return GaussianBelief(mu=wrap_phase(m0), sigma=max(math.sqrt(var0), SIGMA_FLOOR))


def rfpe_run(oracle: Oracle, initial: GaussianBelief, config: RfpeConfig,
             truth: Optional[float] = None) -> list[InferenceTraceRow]:
    """Adaptive estimation loop: choose experiment, query oracle, update.

    The oracle returns a sequence of outcomes (one per datum of its
    readout strategy); each feeds one update at the same setting, in
    closed form when the sampler starves. One trace row per step carries
    the last outcome consumed, the end-of-step posterior and the count of
    closed-form updates.
    """
    rng = np.random.default_rng(config.rng_seed)
    belief = initial
    trace: list[InferenceTraceRow] = []
    for step in range(1, config.n_steps + 1):
        if config.t2_cap is not None:
            setting = particle_guess_capped(belief, rng, config.t2_cap)
        else:
            setting = particle_guess(belief, rng)
        outcomes = list(oracle(setting))
        if not outcomes:
            raise ValueError("oracle returned no outcomes")
        fallbacks = 0
        for outcome in map(int, outcomes):
            try:
                belief = rejection_update(outcome, belief, setting, config, rng)
            except UpdateFailure:
                belief = analytic_posterior(outcome, belief, setting)
                fallbacks += 1
        error = circular_distance(belief.mu, wrap_phase(truth)) if truth is not None else None
        trace.append(InferenceTraceRow(step=step, setting=setting,
                                       outcome=outcome, posterior=belief,
                                       error=error, fallbacks=fallbacks))
    return trace


def acceptance_probability(outcome: int, belief: GaussianBelief,
                           setting: ExperimentSetting) -> float:
    """Z = (1 +- D c) / 2, the Gaussian average of the fringe (+ for outcome 0).

    D = exp(-(m sigma)^2 / 2) and c = cos(m (mu - theta)); Z is summed as
    the fringe at mu plus -+c (1 - D) / 2, so a starved Z stays precise.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    half = 0.5 * setting.m * (belief.mu - setting.theta)
    edge = math.sin(half) ** 2 if outcome else math.cos(half) ** 2
    return edge + (0.5 - outcome) * math.cos(2.0 * half) * math.expm1(
        -0.5 * (setting.m * belief.sigma) ** 2)


def analytic_posterior(outcome: int, belief: GaussianBelief,
                       setting: ExperimentSetting) -> GaussianBelief:
    """The rejection update's infinite-particle limit, ignoring the wrap.

    With s = sin(m (mu - theta)) and D, c, Z as in `acceptance_probability`,
    E[x - mu] = -+m sigma^2 D s / (2Z) and E[(x - mu)^2] = (sigma^2 +-
    (sigma^2 - m^2 sigma^4) D c) / (2Z), summed as sigma^2 -+ m^2 sigma^4 D c / (2Z).
    """
    sign, m, var = 1.0 - 2.0 * outcome, setting.m, belief.sigma ** 2
    phase = m * (belief.mu - setting.theta)
    gain = m * var * math.exp(-0.5 * m * m * var) / (
        2.0 * acceptance_probability(outcome, belief, setting))
    shift = -sign * gain * math.sin(phase)
    var_post = var - sign * m * var * gain * math.cos(phase) - shift * shift
    return GaussianBelief(mu=belief.mu + shift,
                          sigma=max(math.sqrt(var_post), SIGMA_FLOOR))
