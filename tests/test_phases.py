"""Angle arithmetic and the single-experiment fringe."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpe_lab.phases import (TWO_PI, ExperimentSetting, FieldError,
                             circular_distance, fringe, likelihood, wrap_phase)


def test_field_error_names_its_field_and_survives_pickling():
    err = FieldError("shots", "must be >= 1, got 0")
    assert isinstance(err, ValueError)
    assert str(err) == "shots: must be >= 1, got 0"
    back = pickle.loads(pickle.dumps(err))  # as a worker process returns it
    assert (back.args, str(back)) == (("shots", "must be >= 1, got 0"),
                                      str(err))


def test_wrap_phase_spot_values():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(TWO_PI) == 0.0
    assert wrap_phase(-0.5) == pytest.approx(TWO_PI - 0.5, abs=1e-15)
    assert wrap_phase(7.0) == pytest.approx(7.0 - TWO_PI, abs=1e-15)
    assert wrap_phase(-TWO_PI) == 0.0


def test_wrap_phase_range_property():
    rng = np.random.default_rng(11)
    for x in rng.normal(0.0, 50.0, size=2000):
        w = wrap_phase(float(x))
        assert 0.0 <= w < TWO_PI
        # congruent to the input mod 2*pi
        assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-9)


def test_circular_distance_basics():
    assert circular_distance(0.1, 0.1) == 0.0
    assert circular_distance(0.0, math.pi) == pytest.approx(math.pi)
    # short way around the seam
    assert circular_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-12)
    assert circular_distance(1.0, 2.5) == pytest.approx(1.5)


def test_circular_distance_properties():
    rng = np.random.default_rng(12)
    for a, b, c in rng.uniform(-20, 20, size=(500, 3)):
        d_ab = circular_distance(a, b)
        assert 0.0 <= d_ab <= math.pi + 1e-12
        assert d_ab == pytest.approx(circular_distance(b, a), abs=1e-12)
        # shift invariance
        assert circular_distance(a + c, b + c) == pytest.approx(d_ab, abs=1e-9)


def test_experiment_setting_validation():
    s = ExperimentSetting(m=3, theta=-1.0)
    assert s.m == 3
    assert s.theta == pytest.approx(TWO_PI - 1.0)
    with pytest.raises(ValueError):
        ExperimentSetting(m=0, theta=0.0)


def test_likelihood_closed_form():
    s = ExperimentSetting(m=4, theta=0.3)
    for phi in (0.0, 0.7, 3.9, 6.1):
        p0 = math.cos(0.5 * s.m * (phi - s.theta)) ** 2
        assert likelihood(0, phi, s) == pytest.approx(p0, abs=1e-12)
        assert likelihood(1, phi, s) == pytest.approx(1.0 - p0, abs=1e-12)


def test_likelihood_normalisation_and_bounds():
    rng = np.random.default_rng(13)
    for _ in range(300):
        s = ExperimentSetting(m=int(rng.integers(1, 200)),
                              theta=float(rng.uniform(0, TWO_PI)))
        phi = float(rng.uniform(-10, 10))
        p0 = likelihood(0, phi, s)
        p1 = likelihood(1, phi, s)
        assert 0.0 <= p0 <= 1.0
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_likelihood_outcome_validation():
    s = ExperimentSetting(m=1, theta=0.0)
    with pytest.raises(ValueError):
        likelihood(2, 0.0, s)
    with pytest.raises(ValueError, match="outcome must be 0 or 1"):
        fringe(2, np.linspace(0.0, TWO_PI, 7), 3, 0.1)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40),
       m=st.integers(1, 1_000_000), theta=st.floats(0.0, TWO_PI))
def test_fringe_on_arrays_is_the_scalar_likelihood(xs, m, theta):
    setting = ExperimentSetting(m=m, theta=theta)
    x = np.array(xs)
    p0 = fringe(0, x, m, setting.theta)
    p1 = fringe(1, x, m, setting.theta)
    for outcome, p in ((0, p0), (1, p1)):
        want = [likelihood(outcome, v, setting) for v in xs]
        assert p.tolist() == want  # bit for bit
        assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.all(np.abs(p0 + p1 - 1.0) <= 2.0 ** -52)
