"""Rejection-sampling kernel of the RFPE update.

`rejection_accumulate` keeps the particles that pass the rejection
test against the outcome likelihood and returns their count plus the
first and second moment sums in the frame centred on the prior mean and
in the frame shifted by pi.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def rejection_accumulate(samples, uniforms, outcome, m, theta, kappa, mu):
    x = np.mod(samples, TWO_PI)
    p0 = np.cos(0.5 * m * (x - theta)) ** 2
    lik = p0 if outcome == 0 else 1.0 - p0
    keep = lik >= kappa * uniforms
    x = x[keep]
    n_acc = int(x.size)
    if n_acc == 0:
        return 0, 0.0, 0.0, 0.0, 0.0

    c0 = np.mod(mu, TWO_PI)
    cpi = np.mod(c0 + np.pi, TWO_PI)
    z = x - c0
    xs = np.mod(x + np.pi, TWO_PI)
    zp = xs - cpi
    return (n_acc, float(z.sum()), float((z * z).sum()),
            float(zp.sum()), float((zp * zp).sum()))
