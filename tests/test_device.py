"""Phase-programmable device model: decompositions, circuit, fidelity."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpe_lab.device import (CircuitInstance, NonUnitaryError, StatePrepSpec,
                             UnitarySpec, build_instance, check_unitary,
                             compose_power, eigenstate_prep, euler_angles,
                             fidelity_vs_noise, phase_gate_instance,
                             probability_from_phases, simulate_probability)
from rfpe_lab.phases import TWO_PI, ExperimentSetting, likelihood, wrap_phase


def _random_unitary(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def _spec_matrix(angles) -> np.ndarray:
    a, b, g, d = angles
    return UnitarySpec(alpha=a, beta=b, gamma=g, delta=d).matrix()


# ------------------------------------------------------------ specifications


def test_unitary_spec_matrix_is_unitary():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m = UnitarySpec(*rng.uniform(-6, 6, size=4)).matrix()
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


def test_state_prep_components():
    s = StatePrepSpec(theta_z=0.7, theta_y=1.1).state()
    assert abs(s[0] - cmath.exp(-0.35j) * math.cos(0.55)) < 1e-12
    assert abs(s[1] - cmath.exp(0.35j) * math.sin(0.55)) < 1e-12
    assert np.vdot(s, s).real == pytest.approx(1.0, abs=1e-12)


def test_check_unitary_raises_with_deviation():
    with pytest.raises(NonUnitaryError, match="deviates from unitarity"):
        check_unitary(np.array([[1.0, 0.0], [0.0, 1.5]]))
    check_unitary(np.eye(2))  # no exception


# ------------------------------------------------------- Euler decomposition


def test_euler_round_trip_random_unitaries():
    rng = np.random.default_rng(42)
    for _ in range(200):
        u = _random_unitary(rng)
        assert np.max(np.abs(_spec_matrix(euler_angles(u)) - u)) < 1e-12


def test_euler_gimbal_branches():
    rng = np.random.default_rng(43)
    for _ in range(50):
        phi, d = rng.uniform(0, TWO_PI, size=2)
        diag = np.exp(1j * d) * np.diag([np.exp(-0.5j * phi),
                                         np.exp(0.5j * phi)])
        assert np.max(np.abs(_spec_matrix(euler_angles(diag)) - diag)) < 1e-12
        anti = np.exp(1j * d) * np.array([[0.0, -np.exp(-0.5j * phi)],
                                          [np.exp(0.5j * phi), 0.0]])
        assert np.max(np.abs(_spec_matrix(euler_angles(anti)) - anti)) < 1e-12


def test_euler_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        euler_angles(np.array([[1.0, 0.2], [0.0, 1.0]]))


# ------------------------------------------------------------- composition


@settings(max_examples=150, deadline=None)
@given(angles=st.tuples(*[st.floats(-6.0, 6.0)] * 4),
       m=st.integers(1, 1_000_000))
def test_compose_power_small_m_matches_products(angles, m):
    v = _spec_matrix(angles)
    direct = np.eye(2)
    for k in range(1, 9):
        direct = direct @ v
        assert np.max(np.abs(compose_power(v, k) - direct)) < 1e-11
    # Compared as matrices, not Euler angles: (alpha + 2pi, delta + pi)
    # is the same gate. The scalar gates are the sin(w/2) = 0 branch.
    scalar = cmath.exp(1j * angles[3]) * np.eye(2)
    for w in (v, scalar, -scalar):
        want = np.linalg.matrix_power(w, m)
        assert np.max(np.abs(compose_power(w, m) - want)) <= 1e-15 * m


def test_compose_power_large_m_stays_unitary():
    rng = np.random.default_rng(45)
    v = _random_unitary(rng)
    for m in (10_000, 1_048_576, 10**12):
        w = compose_power(v, m)
        assert np.max(np.abs(w @ w.conj().T - np.eye(2))) < 1e-13


def test_compose_power_diagonal_eigenphase():
    phi = 0.37
    v = np.diag([1.0, np.exp(1j * phi)])
    for m in (1, 7, 512, 100_000):
        w = compose_power(v, m)
        assert cmath.phase(w[1, 1] / w[0, 0]) == pytest.approx(
            math.remainder(m * phi, TWO_PI), abs=1e-9)


def test_compose_power_rejects_non_unitary():
    with pytest.raises(NonUnitaryError):
        compose_power(np.array([[1.0, 0.0], [0.0, 1.1]]), 4)


# --------------------------------------------------------------- the circuit


def test_build_instance_phases():
    unitary, prep = phase_gate_instance(1.1)
    setting = ExperimentSetting(m=5, theta=0.4)
    inst = build_instance(unitary, prep, setting)
    assert len(inst.phases) == 7
    assert inst.phases[0] == prep.theta_z
    assert inst.phases[1] == prep.theta_y
    assert inst.phases[6] == pytest.approx(-5 * 0.4)
    with pytest.raises(ValueError):
        CircuitInstance(unitary=unitary, prep=prep, setting=setting,
                        phases=(0.0,) * 6)


def test_fast_path_matches_matrix_pipeline():
    rng = np.random.default_rng(46)
    for _ in range(40):
        unitary = UnitarySpec(*rng.uniform(-6, 6, size=4))
        prep = StatePrepSpec(*rng.uniform(-3, 3, size=2))
        setting = ExperimentSetting(m=int(rng.integers(1, 40)),
                                    theta=float(rng.uniform(0, TWO_PI)))
        inst = build_instance(unitary, prep, setting)
        fast = probability_from_phases(inst.phases)
        slow = simulate_probability(inst, sigma_phase=0.0)
        assert abs(fast - slow) < 1e-10


def test_simulate_probability_requires_rng_for_noise():
    unitary, prep = phase_gate_instance(1.0)
    inst = build_instance(unitary, prep, ExperimentSetting(m=1, theta=0.0))
    with pytest.raises(ValueError, match="rng"):
        simulate_probability(inst, sigma_phase=0.1)
    # with an rng the noisy value is a valid probability
    p = simulate_probability(inst, sigma_phase=0.1,
                             rng=np.random.default_rng(0))
    assert 0.0 <= p <= 1.0


def test_phase_gate_instance_realises_the_fringe():
    phi = 4.8741
    unitary, prep = phase_gate_instance(phi)
    for m, theta in [(1, 0.0), (3, 2.0), (16, 4.9), (128, 0.77)]:
        setting = ExperimentSetting(m=m, theta=theta)
        inst = build_instance(unitary, prep, setting)
        want = likelihood(0, phi, setting)
        assert probability_from_phases(inst.phases) == pytest.approx(
            want, abs=1e-9)


def test_eigenstate_prep_reproduces_likelihood():
    rng = np.random.default_rng(47)
    for which in (0, 1):
        unitary = UnitarySpec(*rng.uniform(-4, 4, size=4))
        prep, eigenphase = eigenstate_prep(unitary, which=which)
        vals = np.linalg.eigvals(unitary.matrix())
        assert min(abs(wrap_phase(cmath.phase(v)) - eigenphase)
                   for v in vals) < 1e-9
        for m in (1, 2, 9):
            setting = ExperimentSetting(m=m, theta=1.3)
            inst = build_instance(unitary, prep, setting)
            want = likelihood(0, eigenphase, setting)
            assert probability_from_phases(inst.phases) == pytest.approx(
                want, abs=1e-9)
    with pytest.raises(ValueError):
        eigenstate_prep(UnitarySpec(1.0, 0.5, 0.2, 0.0), which=2)


# ------------------------------------------------------------------ fidelity


def test_fidelity_noiseless_is_exact():
    unitary, prep = phase_gate_instance(2.0)
    pts = fidelity_vs_noise(unitary, prep, [0.0], 2000,
                            np.random.default_rng(0))
    assert pts[0].state_fidelity == 1.0
    assert pts[0].gate_fidelity == 1.0
    assert pts[0].state_stderr == 0.0
    assert pts[0].gate_stderr == 0.0


def test_fidelity_matches_analytic_state_average():
    # for the |1>-eigenstate prep only theta_y jitter matters and
    # E|<psi|psi_noisy>|^2 = (1 + exp(-sigma^2/2)) / 2
    unitary, prep = phase_gate_instance(2.0)
    sigma = 0.55
    pts = fidelity_vs_noise(unitary, prep, [sigma], 20000,
                            np.random.default_rng(48))
    want = 0.5 * (1.0 + math.exp(-0.5 * sigma * sigma))
    pt = pts[0]
    assert pt.state_stderr == pytest.approx(6.5e-4, rel=0.5)
    assert abs(pt.state_fidelity - want) < 4.0 * pt.state_stderr


def test_fidelity_declines_with_noise():
    unitary, prep = phase_gate_instance(2.0)
    grid = [0.0, 0.1, 0.3, 0.55]
    pts = fidelity_vs_noise(unitary, prep, grid, 4000,
                            np.random.default_rng(49))
    state = [p.state_fidelity for p in pts]
    gate = [p.gate_fidelity for p in pts]
    for a, b in zip(state, state[1:]):
        assert b < a
    for a, b in zip(gate, gate[1:]):
        assert b < a


def test_fidelity_sample_floor():
    unitary, prep = phase_gate_instance(2.0)
    with pytest.raises(ValueError):
        fidelity_vs_noise(unitary, prep, [0.1], 999, np.random.default_rng(0))
