"""The device oracle: the simulated chip versus the bare analytic fringe."""

import numpy as np
import pytest

from rfpe_lab.device import StatePrepSpec, phase_gate_instance
from rfpe_lab.experiment import DeviceOracle, device_oracle_for_phase
from rfpe_lab.noise import NoiseConfig, depolarize
from rfpe_lab.phases import TWO_PI, ExperimentSetting, likelihood


def _settings(rng, n=25, m_max=200):
    return [ExperimentSetting(m=int(rng.integers(1, m_max)),
                              theta=float(rng.uniform(0, TWO_PI)))
            for _ in range(n)]


def test_device_matches_analytic_fringe_noiselessly():
    truth = 4.8741
    rng = np.random.default_rng(51)
    device = device_oracle_for_phase(truth, NoiseConfig(), rng)
    for setting in _settings(np.random.default_rng(52)):
        assert device.probability(setting) == pytest.approx(
            likelihood(0, truth, setting), abs=1e-9)


def test_device_t2_equals_depolarized_noiseless():
    truth = 2.31
    noise = NoiseConfig(t2=16.0)
    device = device_oracle_for_phase(truth, noise, np.random.default_rng(53))
    for setting in _settings(np.random.default_rng(54), m_max=64):
        clean = device.probability(setting, noisy=False)
        assert device.probability(setting) == pytest.approx(
            depolarize(clean, setting.m, 16.0), abs=1e-12)


def test_device_phase_noise_perturbs_only_noisy_path():
    truth = 1.0
    device = device_oracle_for_phase(truth, NoiseConfig(sigma_phase=0.3),
                                     np.random.default_rng(55))
    setting = ExperimentSetting(m=4, theta=0.2)
    nominal = device.probability(setting, noisy=False)
    assert nominal == pytest.approx(likelihood(0, truth, setting), abs=1e-9)
    draws = {device.probability(setting) for _ in range(8)}
    assert len(draws) > 1  # jitter resampled per programming
    assert all(0.0 <= p <= 1.0 for p in draws)


def test_composite_euler_cache_reused():
    device = device_oracle_for_phase(2.0, NoiseConfig(),
                                     np.random.default_rng(56))
    setting = ExperimentSetting(m=12, theta=1.0)
    first = device.probability(setting)
    assert set(device._euler_cache) == {12}
    device.probability(ExperimentSetting(m=12, theta=2.0))
    assert set(device._euler_cache) == {12}
    assert device.probability(setting) == first
    device.probability(ExperimentSetting(m=13, theta=1.0))
    assert set(device._euler_cache) == {12, 13}


def test_call_respects_strategy_shape():
    truth = 0.9
    one = device_oracle_for_phase(truth, NoiseConfig(),
                                  np.random.default_rng(57))
    assert len(one(ExperimentSetting(m=1, theta=0.0))) == 1
    four = device_oracle_for_phase(
        truth, NoiseConfig(strategy="sampled:4"), np.random.default_rng(58))
    out = four(ExperimentSetting(m=1, theta=0.0))
    assert len(out) == 4
    assert all(o in (0, 1) for o in out)


def test_call_outcome_statistics():
    truth = 1.7
    setting = ExperimentSetting(m=1, theta=truth)  # P(0) = 1 exactly
    oracle = device_oracle_for_phase(truth, NoiseConfig(shots=100),
                                     np.random.default_rng(59))
    assert all(oracle(setting) == [0] for _ in range(20))


def test_prep_excited_flag_selects_the_other_eigenstate():
    unitary, _ = phase_gate_instance(2.5)
    # ground prep points at the eigenvalue-1 eigenvector: eigenphase 0
    oracle = DeviceOracle(unitary, StatePrepSpec(0.0, 0.0), NoiseConfig(),
                          np.random.default_rng(60))
    for setting in _settings(np.random.default_rng(61), n=10):
        assert oracle.probability(setting) == pytest.approx(
            likelihood(0, 0.0, setting), abs=1e-9)


def test_oracle_streams_are_deterministic():
    noise = NoiseConfig(sigma_phase=0.1, t2=32.0, shots=50)
    runs = []
    for _ in range(2):
        oracle = device_oracle_for_phase(3.3, noise, np.random.default_rng(62))
        runs.append([oracle(ExperimentSetting(m=m, theta=0.5))[0]
                     for m in range(1, 30)])
    assert runs[0] == runs[1]
