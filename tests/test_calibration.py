"""Fringe fitting, reports and phase-uncertainty propagation."""

import json
import math

import numpy as np
import pytest

from rfpe_lab.calibration import (FitUnidentifiableError, FringeFit,
                                  FringeSample, fit_fringe, fit_report_json,
                                  fringe_model, load_fringe_csv,
                                  propagate_phase_uncertainty)
from rfpe_lab.phases import TWO_PI

TRUTH = dict(b=0.55, a=0.45, t=75.0, p_phi=42.5)


def _samples(n=40, lo=5.0, hi=80.0, sigma=0.0, rng=None, **over):
    p = dict(TRUTH, **over)
    x = np.linspace(lo, hi, n)
    y = fringe_model(p["b"], p["a"], p["t"], p["p_phi"], x)
    if sigma > 0.0:
        y = y + rng.normal(0.0, sigma, size=x.size)
    return [FringeSample(float(a), float(b)) for a, b in zip(x, y)]


def test_fringe_model_shape():
    y = fringe_model(1.0, 0.5, 10.0, 2.0, [2.0, 4.5, 7.0])
    assert y[0] == pytest.approx(1.5)  # on the crest
    assert y[1] == pytest.approx(1.0)  # quarter period later
    assert y[2] == pytest.approx(0.5)


def test_noiseless_fit_recovers_parameters():
    fit = fit_fringe(_samples(), rng=np.random.default_rng(1))
    for name, want in TRUTH.items():
        assert abs(getattr(fit, name) - want) / abs(want) < 1e-8
    assert fit.r_squared > 1.0 - 1e-10
    assert fit.n_samples == 40
    assert fit.params == (fit.b, fit.a, fit.t, fit.p_phi)


def test_negative_amplitude_generator_is_canonicalised():
    # same curve written with a < 0 and a half-period offset shift
    samples = _samples(a=-TRUTH["a"], p_phi=TRUTH["p_phi"] - TRUTH["t"] / 2)
    fit = fit_fringe(samples, rng=np.random.default_rng(2))
    assert fit.a > 0.0
    assert 0.0 <= fit.p_phi < fit.t
    assert fit.a == pytest.approx(TRUTH["a"], rel=1e-6)
    assert fit.p_phi == pytest.approx(TRUTH["p_phi"], rel=1e-6)


def test_noisy_fit_errors_are_usable():
    rng = np.random.default_rng(3)
    fit = fit_fringe(_samples(sigma=0.02, rng=rng), restarts=8, rng=rng)
    assert all(0.0 < se < 10.0 for se in fit.std_errors)
    for est, se, ts in zip(fit.params, fit.std_errors, fit.t_stats):
        assert ts == pytest.approx(est / se, rel=1e-9)
    # all four parameters are overwhelmingly significant here
    assert all(p < 1e-6 for p in fit.p_values)
    assert 0.9 < fit.r_squared < 1.0


def test_exactly_one_period_is_identifiable():
    samples = _samples(n=30, lo=0.0, hi=TRUTH["t"])
    fit = fit_fringe(samples, rng=np.random.default_rng(4))
    assert fit.t == pytest.approx(TRUTH["t"], rel=1e-6)


def test_short_arc_is_rejected():
    # a tenth of a period looks locally linear; the period is unpinned
    samples = _samples(n=20, lo=0.0, hi=7.5)
    with pytest.raises(FitUnidentifiableError, match="less than a period"):
        fit_fringe(samples, rng=np.random.default_rng(5))


def test_degenerate_inputs():
    flat = [FringeSample(float(x), 0.7) for x in np.linspace(0, 50, 20)]
    with pytest.raises(FitUnidentifiableError, match="constant"):
        fit_fringe(flat, rng=np.random.default_rng(6))
    pinned = [FringeSample(10.0, float(v))
              for v in np.linspace(0.1, 0.9, 20)]
    with pytest.raises(FitUnidentifiableError, match="does not vary"):
        fit_fringe(pinned, rng=np.random.default_rng(7))
    with pytest.raises(ValueError, match="at least 8 samples"):
        fit_fringe(_samples(n=7))
    with pytest.raises(ValueError, match="restarts"):
        fit_fringe(_samples(), restarts=0)
    with pytest.raises(ValueError):
        FringeSample(-1.0, 0.5)


def test_load_fringe_csv(tmp_path):
    path = tmp_path / "fringe.csv"
    path.write_text("p_el,p_op\n1.0,0.5\n2.0,0.6\n")
    samples = load_fringe_csv(path)
    assert samples == [FringeSample(1.0, 0.5), FringeSample(2.0, 0.6)]

    bad_cols = tmp_path / "cols.csv"
    bad_cols.write_text("power,signal\n1,2\n")
    with pytest.raises(ValueError, match="expected columns p_el, p_op"):
        load_fringe_csv(bad_cols)

    bad_cell = tmp_path / "cell.csv"
    bad_cell.write_text("p_el,p_op\n1.0,0.5\nx,0.6\n")
    with pytest.raises(ValueError, match="line 3"):
        load_fringe_csv(bad_cell)


def _exact_fit() -> FringeFit:
    fit = fit_fringe(_samples(), rng=np.random.default_rng(8))
    return fit


def test_propagation_hand_formula():
    fit = FringeFit(b=0.5, a=0.4, t=50.0, p_phi=10.0,
                    std_errors=(0.01, 0.01, 0.5, 0.2),
                    t_stats=(0.0,) * 4, p_values=(0.0,) * 4,
                    r_squared=1.0, residual_norm=0.0, n_samples=20)
    lo, hi = 20.0, 40.0
    phi_avg = TWO_PI * (0.5 * (lo + hi) - 10.0) / 50.0
    want = math.hypot(phi_avg * 0.5 / 50.0, TWO_PI * 0.2 / 50.0)
    assert propagate_phase_uncertainty(fit, (lo, hi)) == pytest.approx(
        want, rel=1e-12)
    # degree-one homogeneity in the standard errors
    doubled = FringeFit(b=0.5, a=0.4, t=50.0, p_phi=10.0,
                        std_errors=(0.02, 0.02, 1.0, 0.4),
                        t_stats=(0.0,) * 4, p_values=(0.0,) * 4,
                        r_squared=1.0, residual_norm=0.0, n_samples=20)
    assert propagate_phase_uncertainty(doubled, (lo, hi)) == pytest.approx(
        2.0 * want, rel=1e-12)
    with pytest.raises(ValueError):
        propagate_phase_uncertainty(fit, (5.0, 1.0))


def test_propagation_with_published_relative_errors():
    # 1.1% on the period, 0.2% of full scale on the offset, 5-80 mW window
    fit = FringeFit(**TRUTH,
                    std_errors=(0.0, 0.0, 0.011 * TRUTH["t"], 0.002 * 80.0),
                    t_stats=(0.0,) * 4, p_values=(0.0,) * 4,
                    r_squared=1.0, residual_norm=0.0, n_samples=40)
    sigma = propagate_phase_uncertainty(fit, (5.0, 80.0))
    assert 0.005 <= sigma <= 0.015


def test_reports(tmp_path):
    fit = _exact_fit()
    path = tmp_path / "report.json"
    report = fit_report_json(fit, path)
    on_disk = json.loads(path.read_text())
    assert on_disk == report
    assert set(report["parameters"]) == {"b", "a", "t", "p_phi"}
    assert report["r_squared"] == fit.r_squared
