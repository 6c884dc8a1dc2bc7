"""Rejection-sampling kernel of the RFPE update.

`rejection_accumulate` keeps the particles whose outcome fringe
`phases.fringe`, evaluated on the whole particle array, is at least
their uniform draw, and returns their count plus the first and second
moment sums in the frame centred on the prior mean and in the frame
shifted by pi.
"""

from __future__ import annotations

import numpy as np

from .phases import TWO_PI, fringe


def rejection_accumulate(samples, uniforms, outcome, m, theta, mu):
    x = np.mod(samples, TWO_PI)
    keep = fringe(outcome, x, m, theta) >= uniforms
    x = x[keep]
    n_acc = int(x.size)
    c0 = np.mod(mu, TWO_PI)
    cpi = np.mod(c0 + np.pi, TWO_PI)
    z = x - c0
    xs = np.mod(x + np.pi, TWO_PI)
    zp = xs - cpi
    return (n_acc, float(z.sum()), float((z * z).sum()),
            float(zp.sum()), float((zp * zp).sum()))
