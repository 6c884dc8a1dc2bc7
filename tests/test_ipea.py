"""Iterative phase estimation: bit ladder and feedback."""

import math

import numpy as np
import pytest

from rfpe_lab.experiment import device_oracle_for_phase
from rfpe_lab.ipea import IpeaConfig, ipea_run, theta_feedback
from rfpe_lab.noise import NoiseConfig
from rfpe_lab.phases import TWO_PI, circular_distance, likelihood, wrap_phase


def _oracle(truth, seed=0, shots=2000):
    return device_oracle_for_phase(truth, NoiseConfig(shots=shots),
                                   np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        IpeaConfig(n_bits=0)
    with pytest.raises(ValueError):
        IpeaConfig(shots_per_bit=0)


def test_theta_feedback_spot_values():
    assert theta_feedback([]) == 0.0
    assert theta_feedback([1]) == pytest.approx(math.pi / 2)
    assert theta_feedback([1, 0, 1]) == pytest.approx(TWO_PI * 5 / 16)
    assert theta_feedback([0, 0]) == 0.0
    with pytest.raises(ValueError):
        theta_feedback([1, 2])


def test_exact_dyadic_phase_recovered():
    truth = TWO_PI * 0.625  # binary .101
    estimate, records = ipea_run(_oracle(truth), IpeaConfig(n_bits=3))
    assert estimate == pytest.approx(truth, abs=1e-12)
    assert [r.bit for r in records] == [1, 0, 1]  # LSB inferred first


def test_record_ladder_structure():
    truth = TWO_PI * 0.625
    n = 5
    _, records = ipea_run(_oracle(truth), IpeaConfig(n_bits=n))
    for j, rec in enumerate(records, start=1):
        assert rec.m == 2 ** (n - j)
        assert rec.k == n - j + 1
        assert rec.n0 + rec.n1 >= 1
    # each round's feedback encodes the bits known so far
    low_bits: list[int] = []
    for rec in records:
        omega = theta_feedback(low_bits)
        assert rec.theta == pytest.approx(wrap_phase(omega / rec.m), abs=1e-12)
        low_bits.insert(0, rec.bit)


def test_quantisation_floor_8_and_16_bits():
    truth = 4.8741
    est8, _ = ipea_run(_oracle(truth, seed=1), IpeaConfig(n_bits=8))
    assert circular_distance(est8, truth) == pytest.approx(
        0.01009482862788147, abs=1e-12)
    est16, _ = ipea_run(_oracle(truth, seed=2), IpeaConfig(n_bits=16))
    assert circular_distance(est16, truth) == pytest.approx(
        2.8079707381500896e-05, abs=1e-12)


def test_device_oracle_agrees_with_synthetic_ladder():
    # the synthetic ladder votes on the analytic fringe with no shot noise
    truth = 4.8741
    est, _ = ipea_run(_oracle(truth, seed=3), IpeaConfig(n_bits=12))
    synth, _ = ipea_run(lambda s: [int(likelihood(1, truth, s) > 0.5)],
                        IpeaConfig(n_bits=12))
    assert est == pytest.approx(synth, abs=1e-12)


def test_shots_per_bit_pool_votes():
    calls = []

    def stub(setting):
        calls.append(setting)
        return [1, 1, 0]

    est, records = ipea_run(stub, IpeaConfig(n_bits=2, shots_per_bit=4))
    # 4 calls x 3 outcomes each = 12 data per bit
    assert len(calls) == 2 * 4
    assert all(r.n0 + r.n1 == 12 for r in records)
    assert all(r.bit == 1 for r in records)
    assert est == pytest.approx(TWO_PI * 0.75)


def test_tie_breaks_with_fair_coin():
    decisions = []
    for seed in range(400):
        est, records = ipea_run(lambda s: [0, 1],
                                IpeaConfig(n_bits=1, rng_seed=seed))
        decisions.append(records[0].bit)
    assert 0.4 < np.mean(decisions) < 0.6


def test_invalid_outcome_rejected():
    with pytest.raises(ValueError, match="outcome must be 0 or 1"):
        ipea_run(lambda s: [2], IpeaConfig(n_bits=1))
    # an oracle returns a sequence of outcomes, never a bare int
    with pytest.raises(TypeError):
        ipea_run(lambda s: 1, IpeaConfig(n_bits=1))
