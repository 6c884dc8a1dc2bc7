"""Thermo-optic fringe calibration.

Optical power vs heater electrical power follows
P_op = B + A*cos(2*pi*(P_el - P_Phi)/T). The fit is a random-restart
local least-squares search: the period is the only genuinely nonlinear
parameter, so every restart seeds T (spectral scan plus jitter), solves
the remaining three linearly, then polishes all four together. The
winning fit is canonicalized (A > 0, T > 0, P_Phi modulo T) and
reported with linearized standard errors, t-statistics, p-values and
R^2, mirroring standard nonlinear-regression practice.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phases import TWO_PI

PARAM_NAMES = ("b", "a", "t", "p_phi")


class FitUnidentifiableError(RuntimeError):
    """Data cannot pin down the fringe parameters."""


@dataclass(frozen=True)
class FringeSample:
    p_el: float
    p_op: float

    def __post_init__(self):
        if self.p_el < 0.0:
            raise ValueError(f"electrical power must be non-negative, got {self.p_el}")


@dataclass(frozen=True)
class FringeFit:
    b: float
    a: float
    t: float
    p_phi: float
    std_errors: tuple[float, float, float, float]
    t_stats: tuple[float, float, float, float]
    p_values: tuple[float, float, float, float]
    r_squared: float
    residual_norm: float
    n_samples: int

    @property
    def params(self) -> tuple[float, float, float, float]:
        return (self.b, self.a, self.t, self.p_phi)


def fringe_model(b: float, a: float, t: float, p_phi: float, p_el):
    """Interference fringe p_op = b + a*cos(2*pi*(p_el - p_phi)/t)."""
    return b + a * np.cos(TWO_PI * (np.asarray(p_el, dtype=float) - p_phi) / t)


def _model(params, p_el):
    b, a, t, p_phi = params
    return fringe_model(b, a, t, p_phi, p_el)


def _residuals(params, p_el, p_op):
    return _model(params, p_el) - p_op


def _jacobian(params, p_el, p_op):
    _, a, t, p_phi = params
    w = TWO_PI / t
    d = p_el - p_phi
    s = np.sin(w * d)
    jac = np.empty((p_el.size, 4))
    jac[:, 0] = 1.0
    jac[:, 1] = np.cos(w * d)
    jac[:, 2] = a * s * w * d / t
    jac[:, 3] = a * s * w
    return jac


def _spectral_period(p_el, p_op):
    """Dominant period from a dense direct-DFT scan (handles uneven sampling)."""
    span = p_el.max() - p_el.min()
    gaps = np.diff(np.sort(p_el))
    min_gap = gaps[gaps > 0].min() if (gaps > 0).any() else span
    f_lo = 0.5 / span
    f_hi = 0.5 / min_gap
    freqs = np.linspace(f_lo, f_hi, 4096)
    y = p_op - p_op.mean()
    power = np.abs(np.exp(-2j * np.pi * freqs[:, None] * p_el[None, :]) @ y)
    return 1.0 / freqs[int(np.argmax(power))]


def _linear_seed(t0, p_el, p_op):
    """Best (B, A, P_Phi) for a fixed period, via the linear reparametrization."""
    w = TWO_PI / t0
    design = np.column_stack([np.ones_like(p_el), np.cos(w * p_el), np.sin(w * p_el)])
    coef, *_ = np.linalg.lstsq(design, p_op, rcond=None)
    b0, c0, s0 = coef
    a0 = math.hypot(c0, s0)
    p_phi0 = math.atan2(s0, c0) / w
    return b0, a0, p_phi0


def fit_fringe(data: Sequence[FringeSample], restarts: int = 16,
               rng: np.random.Generator | None = None) -> FringeFit:
    """Fit the fringe model, best of `restarts` seeded local descents.

    Raises FitUnidentifiableError for degenerate data: constant optical
    power, or an electrical-power span shorter than the fitted period.
    Singular normal matrices yield infinite standard errors instead of
    failure.
    """
    # scipy is imported here, not at module level: it dominates the
    # package's import time and only the fit needs it.
    from scipy.optimize import least_squares
    from scipy.stats import t as student_t

    if rng is None:
        rng = np.random.default_rng(0)
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if len(data) < 8:
        raise ValueError(f"need at least 8 samples, got {len(data)}")
    p_el = np.array([s.p_el for s in data], dtype=float)
    p_op = np.array([s.p_op for s in data], dtype=float)
    if np.ptp(p_op) == 0.0:
        raise FitUnidentifiableError("optical power is constant; no fringe to fit")
    span = float(np.ptp(p_el))
    if span == 0.0:
        raise FitUnidentifiableError("electrical power does not vary")

    t_spec = _spectral_period(p_el, p_op)
    best = None
    for i in range(restarts):
        if i == 0:
            t0 = t_spec
        elif i % 4 == 3:
            # occasional wildcard in case the spectral peak is an alias
            t0 = math.exp(rng.uniform(math.log(span / 8.0), math.log(2.0 * span)))
        else:
            t0 = t_spec * math.exp(rng.normal(0.0, 0.2))
        b0, a0, p_phi0 = _linear_seed(t0, p_el, p_op)
        if a0 == 0.0:
            a0 = float(np.ptp(p_op)) / 2.0
        try:
            res = least_squares(_residuals, x0=[b0, a0, t0, p_phi0],
                                jac=_jacobian, args=(p_el, p_op),
                                method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14)
        except Exception:
            continue
        ssr = float(res.cost * 2.0)
        if best is None or ssr < best[0]:
            best = (ssr, res)
    if best is None:
        raise FitUnidentifiableError("no restart converged")
    ssr, res = best

    b, a, t, p_phi = (float(v) for v in res.x)
    # Canonical representative: positive amplitude and period, offset mod T.
    if t < 0.0:
        t = -t
    if a < 0.0:
        a = -a
        p_phi = p_phi + 0.5 * t
    p_phi = p_phi % t
    # A fitted period slightly past the window length is still pinned by
    # the curvature at both ends; only a period well beyond the span
    # means the data cover less than a full cycle and the parameters
    # trade off freely.
    if t > 1.25 * span:
        raise FitUnidentifiableError(
            f"data span {span:.6g} covers less than a period (fit {t:.6g})")

    params = np.array([b, a, t, p_phi])
    jac = _jacobian(params, p_el, p_op)
    n, k = p_el.size, 4
    dof = n - k
    s2 = ssr / dof if dof > 0 else math.inf
    jtj = jac.T @ jac
    try:
        cov = s2 * np.linalg.inv(jtj)
        variances = np.diag(cov).copy()
        variances[variances < 0.0] = math.inf
        std = np.sqrt(variances)
    except np.linalg.LinAlgError:
        std = np.full(4, math.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.where(std > 0, params / std, math.inf)
    pvals = np.array([2.0 * student_t.sf(abs(v), dof) if math.isfinite(v) else 0.0
                      for v in tstat])
    tss = float(((p_op - p_op.mean()) ** 2).sum())
    r2 = 1.0 - ssr / tss if tss > 0 else 1.0
    return FringeFit(b=b, a=a, t=t, p_phi=p_phi,
                     std_errors=tuple(float(v) for v in std),
                     t_stats=tuple(float(v) for v in tstat),
                     p_values=tuple(float(v) for v in pvals),
                     r_squared=float(r2),
                     residual_norm=math.sqrt(ssr),
                     n_samples=n)


def propagate_phase_uncertainty(fit: FringeFit,
                                p_el_range: tuple[float, float]) -> float:
    """First-order uncertainty of the average implemented phase.

    The average phase over a power interval is 2*pi*(mean(P_el)-P_Phi)/T;
    propagating the fitted (T, P_Phi) errors through it gives
    sqrt((phi_avg*sigma_T/T)^2 + (2*pi*sigma_PPhi/T)^2). The supplied
    current's relative error is orders of magnitude smaller and is
    neglected. Homogeneous of degree one in the standard errors.
    """
    lo, hi = p_el_range
    if hi < lo:
        raise ValueError(f"empty power interval ({lo}, {hi})")
    sigma_t = fit.std_errors[2]
    sigma_pphi = fit.std_errors[3]
    phi_avg = TWO_PI * (0.5 * (lo + hi) - fit.p_phi) / fit.t
    term_t = phi_avg * sigma_t / fit.t
    term_pphi = TWO_PI * sigma_pphi / fit.t
    return math.hypot(term_t, term_pphi)


def load_fringe_csv(path) -> list[FringeSample]:
    samples = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"p_el", "p_op"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns p_el, p_op")
        for i, row in enumerate(reader, start=2):
            try:
                samples.append(FringeSample(p_el=float(row["p_el"]),
                                            p_op=float(row["p_op"])))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {i}: {exc}") from exc
    return samples


def fit_report_json(fit: FringeFit, path=None) -> dict:
    report = {
        "model": "p_op = b + a*cos(2*pi*(p_el - p_phi)/t)",
        "parameters": {name: val for name, val in zip(PARAM_NAMES, fit.params)},
        "std_errors": {name: val for name, val in zip(PARAM_NAMES, fit.std_errors)},
        "t_stats": {name: val for name, val in zip(PARAM_NAMES, fit.t_stats)},
        "p_values": {name: val for name, val in zip(PARAM_NAMES, fit.p_values)},
        "r_squared": fit.r_squared,
        "residual_norm": fit.residual_norm,
        "n_samples": fit.n_samples,
    }
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
