"""Rejection-filtering Bayesian phase estimation.

The belief over the eigenphase is a single Gaussian N(mu, sigma^2),
understood modulo 2*pi. Each update draws particles from the prior,
keeps those that survive a rejection test against the outcome
likelihood, and refits a Gaussian to the survivors. Statistics are
computed both in the original frame and in a frame shifted by pi, and
the frame with the smaller sample variance wins; that makes the refit
robust to posteriors straddling the 0/2*pi seam.

`grid_posterior` is an independent dense-grid reference for the same
update (exact posterior moments under the same frame rule), used to
cross-check the sampler.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import kernels
from .phases import TWO_PI, ExperimentSetting, circular_distance, likelihood, wrap_phase

# Smallest admissible belief width; a refit collapsing below this is clamped.
SIGMA_FLOOR = 1e-15


class UpdateFailure(RuntimeError):
    """Raised when a rejection update cannot produce a valid refit."""


class DegenerateUpdateError(RuntimeError):
    """Raised when the reference grid posterior has no numerical mass."""


@dataclass(frozen=True)
class GaussianBelief:
    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        object.__setattr__(self, "mu", wrap_phase(self.mu))


@dataclass(frozen=True)
class RfpeConfig:
    """Knobs for a rejection-filtering run.

    kappa_e is the rejection-test scale (an upper bound on the outcome
    likelihood; 1.0 is always safe for a two-outcome fringe).
    t2_cap, when set, limits m to floor(t2) so experiments stay inside
    the coherence window.
    """

    n_particles: int = 1000
    n_steps: int = 50
    kappa_e: float = 1.0
    t2_cap: Optional[float] = None
    rng_seed: int = 0
    max_retries: int = 10
    sigma_inflation: float = 1.5

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be at least 2")
        if not (0.0 < self.kappa_e <= 1.0):
            raise ValueError("kappa_e must lie in (0, 1]")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")


@dataclass(frozen=True)
class InferenceTraceRow:
    step: int
    setting: ExperimentSetting
    outcome: int
    posterior: GaussianBelief
    error: Optional[float] = None


Oracle = Callable[[ExperimentSetting], Union[int, Sequence[int]]]


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

    Raises UpdateFailure if fewer than two particles survive; the caller
    decides the retry policy.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    x = rng.normal(belief.mu, belief.sigma, config.n_particles)
    u = rng.uniform(0.0, 1.0, config.n_particles)
    n_acc, s1, s2, s1p, s2p = kernels.rejection_accumulate(
        x, u, outcome, float(setting.m), setting.theta, config.kappa_e, belief.mu)
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
    p0 = np.cos(0.5 * setting.m * (x - setting.theta)) ** 2
    lik = p0 if outcome == 0 else 1.0 - p0
    w = prior * lik
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


def _update_with_retries(outcome, belief, setting, config, rng):
    for _ in range(config.max_retries):
        try:
            return rejection_update(outcome, belief, setting, config, rng)
        except UpdateFailure:
            continue
    # Last resort: widen the prior once and try again.
    inflated = GaussianBelief(mu=belief.mu, sigma=belief.sigma * config.sigma_inflation)
    try:
        return rejection_update(outcome, inflated, setting, config, rng)
    except UpdateFailure as exc:
        raise UpdateFailure(
            f"update failed after {config.max_retries} retries and one "
            f"sigma inflation (m={setting.m}, outcome={outcome})") from exc


def rfpe_run(oracle: Oracle, initial: GaussianBelief, config: RfpeConfig,
             truth: Optional[float] = None) -> list[InferenceTraceRow]:
    """Adaptive estimation loop: choose experiment, query oracle, update.

    The oracle may return a single outcome or a sequence (a multi-sample
    readout strategy); each outcome feeds one sequential update at the
    same setting. One trace row is recorded per step, carrying the last
    outcome consumed and the end-of-step posterior.
    """
    rng = np.random.default_rng(config.rng_seed)
    belief = initial
    trace: list[InferenceTraceRow] = []
    for step in range(1, config.n_steps + 1):
        if config.t2_cap is not None:
            setting = particle_guess_capped(belief, rng, config.t2_cap)
        else:
            setting = particle_guess(belief, rng)
        result = oracle(setting)
        outcomes = [result] if isinstance(result, (int, np.integer)) else list(result)
        if not outcomes:
            raise ValueError("oracle returned no outcomes")
        for outcome in outcomes:
            belief = _update_with_retries(int(outcome), belief, setting, config, rng)
        error = circular_distance(belief.mu, wrap_phase(truth)) if truth is not None else None
        trace.append(InferenceTraceRow(step=step, setting=setting,
                                       outcome=int(outcomes[-1]),
                                       posterior=belief, error=error))
    return trace


TRACE_FIELDS = ["step", "m", "theta", "outcome", "mu", "sigma", "error"]


def _trace_record(row: InferenceTraceRow) -> dict:
    return {
        "step": row.step,
        "m": row.setting.m,
        "theta": row.setting.theta,
        "outcome": row.outcome,
        "mu": row.posterior.mu,
        "sigma": row.posterior.sigma,
        "error": row.error,
    }


def write_trace_csv(trace: Iterable[InferenceTraceRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for row in trace:
            rec = _trace_record(row)
            writer.writerow([
                rec["step"], rec["m"], repr(rec["theta"]), rec["outcome"],
                repr(rec["mu"]), repr(rec["sigma"]),
                "" if rec["error"] is None else repr(rec["error"]),
            ])


def write_trace_json(trace: Iterable[InferenceTraceRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([_trace_record(r) for r in trace], fh, indent=2, sort_keys=True)
        fh.write("\n")


def acceptance_probability(outcome: int, belief: GaussianBelief,
                           setting: ExperimentSetting) -> float:
    """Expected accept fraction of the rejection test at kappa_e = 1.

    Closed form of the Gaussian average of the fringe, handy as an
    analytic cross-check of the sampler.
    """
    damp = math.exp(-0.5 * (setting.m * belief.sigma) ** 2)
    c = math.cos(setting.m * (belief.mu - setting.theta))
    p0 = 0.5 * (1.0 + damp * c)
    return p0 if outcome == 0 else 1.0 - p0
