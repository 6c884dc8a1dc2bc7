"""Majority-voting failure bounds and thresholds.

The exact binomial tail is cross-checked against scipy's CDF so the two
routes to the same number stay independent.
"""

import math

import pytest
from scipy import stats

from rfpe_lab.voting import (VotingScenario, chernoff_bound, critical_signal,
                             effective_probability, exact_minority_tail,
                             expected_bad_bits)


def test_chernoff_reference_point():
    want = math.exp(-125.0 / 12.0)
    got = chernoff_bound(2.0 / 3.0, 500)
    assert abs(got - want) / want < 1e-12


def test_chernoff_validation():
    with pytest.raises(ValueError):
        chernoff_bound(0.5, 10)
    with pytest.raises(ValueError):
        chernoff_bound(0.7, -1)
    assert chernoff_bound(0.7, 0) == 1.0


def test_exact_tail_matches_scipy():
    for p, n in [(0.55, 11), (2.0 / 3.0, 500), (0.9, 7), (0.51, 200),
                 (0.999, 3), (1.0, 1), (1.0, 4), (1.0, 500)]:
        want = float(stats.binom.cdf(n // 2, n, p))
        assert exact_minority_tail(p, n) == pytest.approx(want, rel=1e-10)
    for p in (0.0, 1.0 + 1e-12):
        with pytest.raises(ValueError):
            exact_minority_tail(p, 5)
    with pytest.raises(ValueError):
        exact_minority_tail(0.4, 0)


def test_bound_dominates_exact_tail():
    for n in (1, 5, 51, 500, 999):
        for i in range(1, 50):
            p = 0.5 + 0.5 * i / 50.0
            if p >= 1.0:
                continue
            assert chernoff_bound(p, n) >= exact_minority_tail(p, n)


def test_effective_probability():
    s = VotingScenario(p0=0.8, pe=0.25, n=10, n_bits=4)
    assert effective_probability(s) == pytest.approx(0.8 * 0.75 + 0.125)
    clean = VotingScenario(p0=0.8, pe=0.0, n=10, n_bits=4)
    assert effective_probability(clean) == 0.8


def test_scenario_validation():
    with pytest.raises(ValueError):
        VotingScenario(p0=0.5, pe=0.0, n=10, n_bits=4)
    with pytest.raises(ValueError):
        VotingScenario(p0=0.8, pe=1.0, n=10, n_bits=4)
    with pytest.raises(ValueError):
        VotingScenario(p0=0.8, pe=0.0, n=0, n_bits=4)
    with pytest.raises(ValueError):
        VotingScenario(p0=0.8, pe=0.0, n=10, n_bits=-1)


def test_expected_bad_bits():
    s = VotingScenario(p0=2.0 / 3.0, pe=0.0, n=500, n_bits=16)
    assert expected_bad_bits(s) == pytest.approx(16 * math.exp(-125.0 / 12.0),
                                                 rel=1e-12)
    empty = VotingScenario(p0=0.9, pe=0.0, n=10, n_bits=0)
    assert expected_bad_bits(empty) == 0.0


def test_critical_signal_frozen_values():
    assert critical_signal(16, 500, 0.0) == pytest.approx(
        0.5088837750855592, rel=1e-12)
    assert critical_signal(16, 500, 0.0, mode="exact") == pytest.approx(
        0.5802173036856033, rel=1e-12)


def test_critical_signal_monotone_in_pe():
    for mode in ("default", "exact"):
        values = [critical_signal(16, 500, pe, mode=mode)
                  for pe in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_critical_signal_limits():
    # threshold decays to 1/2 as the shot count grows
    ns = (100, 10_000, 1_000_000, 10 ** 9)
    values = [critical_signal(16, n, 0.0) for n in ns]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.5, abs=1e-7)
    assert critical_signal(16, 10 ** 9, 0.0, mode="exact") == pytest.approx(
        0.5, abs=1e-3)
    assert all(v > 0.5 for v in values)


def test_critical_signal_exact_solves_one_bad_bit():
    # in exact mode the resulting P0 makes expected_bad_bits exactly 1
    for pe in (0.0, 0.3):
        p0 = critical_signal(16, 500, pe, mode="exact")
        s = VotingScenario(p0=p0, pe=pe, n=500, n_bits=16)
        assert expected_bad_bits(s) == pytest.approx(1.0, rel=1e-9)


def test_critical_signal_validation():
    with pytest.raises(ValueError):
        critical_signal(1, 500, 0.0)
    with pytest.raises(ValueError):
        critical_signal(16, 0, 0.0)
    with pytest.raises(ValueError):
        critical_signal(16, 500, 1.0)
    with pytest.raises(ValueError):
        critical_signal(16, 500, 0.0, mode="other")
