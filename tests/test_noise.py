"""Noise channels, shot statistics, and readout strategies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpe_lab.experiment import device_oracle_for_phase
from rfpe_lab.noise import (CountPair, NoiseConfig, depolarize, majority,
                            perturb_phases, readouts, reduce_outcome,
                            sample_counts)
from rfpe_lab.phases import ExperimentSetting, FieldError
from rfpe_lab.scenarios import ConfigError, validate_config


# ----------------------------------------------------------------- strategies


def _data_per_measurement(strategy: str) -> int:
    noise = NoiseConfig(shots=20, strategy=strategy)
    oracle = device_oracle_for_phase(1.3, noise, np.random.default_rng(0))
    out = oracle(ExperimentSetting(m=3, theta=0.4))
    assert all(o in (0, 1) for o in out)
    return len(out)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=64))
def test_strategy_names_give_their_data_counts(n):
    assert _data_per_measurement(f"sampled:{n}") == n
    assert _data_per_measurement("single_shot") == 1
    assert _data_per_measurement("majority_vote") == 1
    assert _data_per_measurement("sampled") == 3


def test_strategy_validation():
    for name in ("plurality", "sampled:0", "sampled:-1", "sampled:x"):
        with pytest.raises(ValueError):
            NoiseConfig(strategy=name)
        text = ('{\n  "kind": "convergence",\n'
                f'  "noise": {{"strategy": "{name}"}}\n}}\n')
        with pytest.raises(ConfigError,
                           match=r"^cfg\.json:3: noise\.strategy: "):
            validate_config({"schema": "rfpe-lab/1", "kind": "convergence",
                             "noise": {"strategy": name}},
                            source="cfg.json", text=text)
    with pytest.raises(FieldError, match="^strategy: unknown strategy"):
        NoiseConfig(strategy="plurality")
    with pytest.raises(ValueError, match="'sampled:x'"):
        readouts("sampled:x")


# --------------------------------------------------------------------- config


def test_noise_config_validation():
    NoiseConfig()  # defaults are valid
    for sigma in (-0.1, math.nan):
        with pytest.raises(FieldError, match=r"^sigma_phase: must be >= 0\.0"):
            NoiseConfig(sigma_phase=sigma)
    with pytest.raises(ValueError):
        NoiseConfig(t2=0.0)
    with pytest.raises(ValueError):
        NoiseConfig(shots=0)


def test_count_pair_validation():
    assert CountPair(3, 4).total == 7
    with pytest.raises(ValueError):
        CountPair(-1, 2)
    with pytest.raises(ValueError):
        CountPair(0, 0)


# ----------------------------------------------------------------- depolarize


def test_depolarize_closed_form():
    assert depolarize(1.0, 2, 4.0) == pytest.approx(
        0.5 * (1.0 + math.exp(-0.5)))
    assert depolarize(0.0, 2, 4.0) == pytest.approx(
        0.5 * (1.0 - math.exp(-0.5)))
    # 1/2 is the channel's fixed point at any strength
    for m in (1, 10, 1000):
        assert depolarize(0.5, m, 3.0) == 0.5


def test_depolarize_semigroup():
    # applying m1 then m2 repetitions equals applying m1+m2 at once
    for p in (0.0, 0.3, 0.9):
        for m1, m2 in [(1, 1), (3, 5), (10, 90)]:
            two_step = depolarize(depolarize(p, m1, 7.0), m2, 7.0)
            assert two_step == pytest.approx(depolarize(p, m1 + m2, 7.0),
                                             abs=1e-14)


def test_depolarize_monotone_toward_half():
    p = 0.97
    values = [depolarize(p, m, 16.0) for m in (1, 4, 16, 64, 256)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(0.5, abs=1e-4)


def test_depolarize_validation():
    with pytest.raises(ValueError):
        depolarize(1.2, 1, 1.0)
    with pytest.raises(ValueError):
        depolarize(0.5, 1, 0.0)


# ------------------------------------------------------------- phase jitter


def test_perturb_phases_zero_sigma_is_identity():
    nominal = [0.1, -2.0, 7.5]
    out = perturb_phases(nominal, 0.0, np.random.default_rng(0))
    assert out == nominal


def test_perturb_phases_statistics():
    rng = np.random.default_rng(31)
    nominal = [1.0, 2.0, 3.0]
    draws = np.array([perturb_phases(nominal, 0.2, rng) for _ in range(4000)])
    assert np.allclose(draws.mean(axis=0), nominal, atol=0.02)
    assert np.allclose(draws.std(axis=0), 0.2, atol=0.02)
    with pytest.raises(ValueError):
        perturb_phases(nominal, -1.0, rng)


# ------------------------------------------------------------------ counting


def test_sample_counts_binomial():
    rng = np.random.default_rng(32)
    for p in (0.0, 0.5, 1.0):
        c = sample_counts(p, 100, False, rng)
        assert c.total == 100
    assert sample_counts(1.0, 50, False, rng).n0 == 50
    assert sample_counts(0.0, 50, False, rng).n1 == 50
    counts = [sample_counts(0.7, 200, False, rng).n0 for _ in range(500)]
    assert np.mean(counts) == pytest.approx(140, abs=2.0)


def test_sample_counts_poissonian():
    rng = np.random.default_rng(33)
    totals = [sample_counts(0.7, 100, True, rng).total for _ in range(300)]
    assert min(totals) >= 1
    assert len(set(totals)) > 1  # totals fluctuate
    assert np.mean(totals) == pytest.approx(100, rel=0.05)
    # even a tiny expected count never yields an empty pair
    for _ in range(50):
        assert sample_counts(0.5, 1, True, rng).total >= 1


# ------------------------------------------------------------------ reduction


def test_majority_vote_clear_cases():
    rng = np.random.default_rng(34)
    assert reduce_outcome(CountPair(60, 40), "majority_vote", rng) == [0]
    assert reduce_outcome(CountPair(40, 60), "majority_vote", rng) == [1]


def test_majority_vote_tie_is_a_fair_coin():
    rng = np.random.default_rng(35)
    outcomes = [reduce_outcome(CountPair(5, 5), "majority_vote", rng)[0]
                for _ in range(2000)]
    assert 0.45 < np.mean(outcomes) < 0.55


@settings(max_examples=60, deadline=None)
@given(n0=st.integers(0, 50), n1=st.integers(0, 50), seed=st.integers(0, 2**32))
def test_majority_draws_one_coin_only_on_a_tie(n0, n1, seed):
    rng = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    bit = majority(n0, n1, rng)
    if n0 == n1:
        assert bit == int(twin.integers(0, 2))
    else:
        assert bit == int(n1 > n0)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_single_shot_samples_the_empirical_rate():
    rng = np.random.default_rng(36)
    outs = [reduce_outcome(CountPair(30, 70), "single_shot", rng)[0]
            for _ in range(3000)]
    assert all(o in (0, 1) for o in outs)
    assert np.mean(outs) == pytest.approx(0.7, abs=0.03)


def test_sampled_returns_n_data():
    rng = np.random.default_rng(37)
    out = reduce_outcome(CountPair(30, 70), "sampled:4", rng)
    assert len(out) == 4
    assert all(o in (0, 1) for o in out)
    rates = [np.mean(reduce_outcome(CountPair(90, 10), "sampled:3", rng))
             for _ in range(2000)]
    assert np.mean(rates) == pytest.approx(0.1, abs=0.02)


def test_deterministic_extremes():
    rng = np.random.default_rng(38)
    assert reduce_outcome(CountPair(10, 0), "single_shot", rng) == [0]
    assert reduce_outcome(CountPair(0, 10), "sampled:5", rng) == [1] * 5
