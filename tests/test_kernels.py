"""The rejection-accumulate kernel against a straight-line reference.

The kernel must produce the reference's acceptance count and matching
dual-frame moment sums; the reference recomputes the moments with
plain numpy, independent of the implementation.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import rfpe_lab
from rfpe_lab import kernels

TWO_PI = 2.0 * math.pi


def _reference(samples, uniforms, outcome, m, theta, mu):
    """Straight-line numpy restatement of the kernel contract."""
    x = np.mod(np.asarray(samples, dtype=float), TWO_PI)
    c = np.cos(0.5 * m * (x - theta))
    p0 = c * c
    lik = p0 if outcome == 0 else 1.0 - p0
    keep = lik >= np.asarray(uniforms, dtype=float)
    xk = x[keep]
    if xk.size == 0:
        return 0, 0.0, 0.0, 0.0, 0.0
    c0 = mu % TWO_PI
    cpi = (c0 + math.pi) % TWO_PI
    z = xk - c0
    zp = (xk + math.pi) % TWO_PI - cpi
    return (int(xk.size), float(z.sum()), float((z * z).sum()),
            float(zp.sum()), float((zp * zp).sum()))


def _random_case(rng):
    n = int(rng.integers(2, 4000))
    mu = float(rng.uniform(-2.0, 8.0))
    sigma = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
    samples = rng.normal(mu, sigma, size=n)
    uniforms = rng.random(n)
    outcome = int(rng.integers(0, 2))
    m = float(max(1, math.ceil(1.25 / sigma)))
    theta = float(rng.uniform(0.0, TWO_PI))
    return samples, uniforms, outcome, m, theta, mu


def test_kernel_matches_reference():
    rng = np.random.default_rng(21)
    for _ in range(60):
        case = _random_case(rng)
        got = kernels.rejection_accumulate(*case)
        want = _reference(*case)
        assert got[0] == want[0]
        for g, w in zip(got[1:], want[1:]):
            assert g == pytest.approx(w, rel=1e-11, abs=1e-11)


def test_zero_acceptance_edge():
    # outcome 1 with every sample at theta has likelihood exactly 0,
    # below every uniform of 1
    samples = np.full(50, math.pi)
    uniforms = np.full(50, 1.0)
    out = kernels.rejection_accumulate(samples, uniforms, 1, 2.0,
                                       math.pi, math.pi)
    assert out == (0, 0.0, 0.0, 0.0, 0.0)


def test_backend_reexport_consistent(monkeypatch):
    # perfbench records the package's BACKEND with every result and
    # refuses to compare records whose backends differ.
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
    import measure

    assert rfpe_lab.BACKEND == "python"
    assert measure.run_context()["backend"] == "python"
