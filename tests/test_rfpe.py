"""Rejection-filtering update, its grid oracle, and the run loop."""

import csv
import json
import math

import numpy as np
import pytest

import rfpe_lab.rfpe as rfpe_mod
from rfpe_lab.experiment import SyntheticOracle
from rfpe_lab.noise import NoiseConfig
from rfpe_lab.phases import TWO_PI, ExperimentSetting, circular_distance, likelihood
from rfpe_lab.rfpe import (DegenerateUpdateError, GaussianBelief, RfpeConfig,
                           TRACE_FIELDS, UpdateFailure, acceptance_probability,
                           grid_posterior, particle_guess,
                           particle_guess_capped, rejection_update, rfpe_run,
                           write_trace_csv, write_trace_json)


# ----------------------------------------------------------------- containers


def test_gaussian_belief_wraps_and_validates():
    b = GaussianBelief(mu=-0.5, sigma=0.1)
    assert b.mu == pytest.approx(TWO_PI - 0.5)
    with pytest.raises(ValueError):
        GaussianBelief(mu=0.0, sigma=0.0)
    with pytest.raises(ValueError):
        GaussianBelief(mu=0.0, sigma=-1.0)
    with pytest.raises(ValueError):
        GaussianBelief(mu=math.nan, sigma=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        RfpeConfig(n_particles=1)
    with pytest.raises(ValueError):
        RfpeConfig(kappa_e=0.0)
    with pytest.raises(ValueError):
        RfpeConfig(kappa_e=1.5)
    with pytest.raises(ValueError):
        RfpeConfig(n_steps=-1)
    RfpeConfig(n_steps=0)  # allowed: empty run


# ------------------------------------------------------------- design choices


def test_particle_guess_scaling():
    rng = np.random.default_rng(0)
    assert particle_guess(GaussianBelief(3.0, 0.01), rng).m == 125
    assert particle_guess(GaussianBelief(3.0, 10.0), rng).m == 1
    assert particle_guess(GaussianBelief(3.0, 1.25), rng).m == 1


def test_particle_guess_capped():
    rng = np.random.default_rng(0)
    assert particle_guess_capped(GaussianBelief(3.0, 0.01), rng, t2=16.0).m == 16
    assert particle_guess_capped(GaussianBelief(3.0, 0.01), rng, t2=16.7).m == 16
    # cap not binding
    assert particle_guess_capped(GaussianBelief(3.0, 1.0), rng, t2=16.0).m == 2
    with pytest.raises(ValueError):
        particle_guess_capped(GaussianBelief(3.0, 0.01), rng, t2=0.5)


def test_particle_guess_theta_follows_belief():
    rng = np.random.default_rng(1)
    thetas = [particle_guess(GaussianBelief(2.0, 0.05), rng).theta
              for _ in range(200)]
    assert abs(np.mean(thetas) - 2.0) < 0.02
    assert 0.03 < np.std(thetas) < 0.08


# -------------------------------------------------------- analytic acceptance


def test_acceptance_probability_closed_form_vs_monte_carlo():
    rng = np.random.default_rng(2)
    for mu, sigma, m, theta in [(3.0, 0.4, 3, 2.7), (0.2, 1.1, 1, 5.8),
                                (5.0, 0.08, 15, 5.1)]:
        belief = GaussianBelief(mu, sigma)
        setting = ExperimentSetting(m=m, theta=theta)
        x = rng.normal(mu, sigma, size=200_000)
        mc0 = np.mean(np.cos(0.5 * m * (x - setting.theta)) ** 2)
        p0 = acceptance_probability(0, belief, setting)
        p1 = acceptance_probability(1, belief, setting)
        assert p0 == pytest.approx(mc0, abs=4e-3)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------- sampler against the grid oracle


def _replicated_update(outcome, belief, setting, n_reps, seed):
    mus, sigmas = [], []
    config = RfpeConfig(n_particles=1000)
    for rep in range(n_reps):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep]))
        post = rejection_update(outcome, belief, setting, config, rng)
        mus.append(post.mu)
        sigmas.append(post.sigma)
    z = np.exp(1j * np.array(mus))
    mu_hat = float(np.angle(np.mean(z))) % TWO_PI
    dev = np.array([circular_distance(m, mu_hat) for m in mus])
    se_mu = math.sqrt(float(np.mean(dev ** 2)) / n_reps)
    return mu_hat, se_mu, float(np.mean(sigmas)), float(np.std(sigmas, ddof=1) / math.sqrt(n_reps))


@pytest.mark.parametrize("mu,sigma,m,theta,outcome", [
    (3.1, 0.5, 3, 2.9, 0),
    (0.1, 0.25, 5, 6.2, 1),
    (4.9, 0.08, 16, 4.85, 0),
])
def test_rejection_update_matches_grid(mu, sigma, m, theta, outcome):
    belief = GaussianBelief(mu, sigma)
    setting = ExperimentSetting(m=m, theta=theta)
    ref = grid_posterior(outcome, belief, setting)
    mu_hat, se_mu, sig_hat, se_sig = _replicated_update(
        outcome, belief, setting, n_reps=40, seed=hash((m, outcome)) % 1000)
    assert circular_distance(mu_hat, ref.mu) <= 3.0 * se_mu
    assert abs(sig_hat - ref.sigma) <= 3.0 * se_sig


def test_grid_posterior_refinement_converges():
    belief = GaussianBelief(3.0, 0.3)
    setting = ExperimentSetting(m=4, theta=2.8)
    g15 = grid_posterior(0, belief, setting, n_grid=1 << 15)
    g16 = grid_posterior(0, belief, setting, n_grid=1 << 16)
    assert circular_distance(g15.mu, g16.mu) < 1e-9
    assert abs(g15.sigma - g16.sigma) < 1e-9


def test_grid_posterior_delta_prior():
    # prior much narrower than the grid: posterior snaps to the nearest
    # node and the floor keeps sigma positive
    g = grid_posterior(0, GaussianBelief(2.0, 1e-9),
                       ExperimentSetting(m=3, theta=1.0))
    assert circular_distance(g.mu, 2.0) < 1e-4
    assert 0.0 < g.sigma < 1e-4


def test_grid_posterior_validation_and_degeneracy():
    belief = GaussianBelief(3.0, 0.3)
    setting = ExperimentSetting(m=1, theta=0.0)
    with pytest.raises(ValueError):
        grid_posterior(0, belief, setting, n_grid=512)
    # prior concentrated on a single node where the likelihood is exactly 0
    n = 1 << 16
    node = (32768 + 0.5) * (TWO_PI / n)
    with pytest.raises(DegenerateUpdateError):
        grid_posterior(1, GaussianBelief(node, 1e-9),
                       ExperimentSetting(m=1, theta=node), n_grid=n)


def test_rejection_update_validation():
    belief = GaussianBelief(3.0, 0.3)
    setting = ExperimentSetting(m=1, theta=3.0)
    config = RfpeConfig()
    with pytest.raises(ValueError):
        rejection_update(2, belief, setting, config, np.random.default_rng(0))


def test_rejection_update_starved_posterior_fails():
    # outcome 1 has likelihood ~0 across a tight prior centred on theta:
    # essentially every particle is rejected
    belief = GaussianBelief(3.0, 1e-6)
    setting = ExperimentSetting(m=1, theta=3.0)
    config = RfpeConfig()
    with pytest.raises(UpdateFailure):
        rejection_update(1, belief, setting, config, np.random.default_rng(3))


def test_dual_frame_refit_near_seam():
    # posterior mass straddles 0; a naive linear mean would report ~pi
    post = rejection_update(0, GaussianBelief(0.05, 0.3),
                            ExperimentSetting(m=4, theta=0.1),
                            RfpeConfig(rng_seed=7), np.random.default_rng(7))
    assert circular_distance(post.mu, 0.05) < 0.1
    assert post.sigma < 0.3


# ------------------------------------------------------------------ run loop


def _noiseless_oracle(truth, seed=0, shots=2000):
    return SyntheticOracle(truth, NoiseConfig(shots=shots),
                           np.random.default_rng(seed))


def test_rfpe_run_converges_noiseless():
    truth = 4.8741
    trace = rfpe_run(_noiseless_oracle(truth, seed=10),
                     GaussianBelief(math.pi, math.pi),
                     RfpeConfig(n_steps=30, rng_seed=10), truth=truth)
    assert len(trace) == 30
    assert trace[-1].error < 0.05
    assert trace[-1].posterior.sigma < trace[0].posterior.sigma


def test_rfpe_run_trace_contents():
    truth = 2.2
    trace = rfpe_run(_noiseless_oracle(truth, seed=11),
                     GaussianBelief(math.pi, math.pi),
                     RfpeConfig(n_steps=8, rng_seed=11), truth=truth)
    for i, row in enumerate(trace, start=1):
        assert row.step == i
        assert row.outcome in (0, 1)
        assert row.setting.m >= 1
        assert row.error == pytest.approx(
            circular_distance(row.posterior.mu, truth), abs=1e-12)


def test_rfpe_run_deterministic_given_seed():
    truth = 1.3
    runs = [rfpe_run(_noiseless_oracle(truth, seed=12),
                     GaussianBelief(math.pi, math.pi),
                     RfpeConfig(n_steps=12, rng_seed=3), truth=truth)
            for _ in range(2)]
    assert [r.posterior.mu for r in runs[0]] == [r.posterior.mu for r in runs[1]]
    assert [r.setting.m for r in runs[0]] == [r.setting.m for r in runs[1]]


def test_rfpe_run_without_truth_and_zero_steps():
    trace = rfpe_run(_noiseless_oracle(1.0, seed=13),
                     GaussianBelief(math.pi, math.pi),
                     RfpeConfig(n_steps=3, rng_seed=0))
    assert all(row.error is None for row in trace)
    assert rfpe_run(_noiseless_oracle(1.0, seed=13),
                    GaussianBelief(math.pi, math.pi),
                    RfpeConfig(n_steps=0, rng_seed=0)) == []


def test_rfpe_run_rejects_empty_oracle():
    with pytest.raises(ValueError, match="no outcomes"):
        rfpe_run(lambda setting: [], GaussianBelief(math.pi, math.pi),
                 RfpeConfig(n_steps=1, rng_seed=0))


def test_rfpe_run_consumes_multi_outcome_readout():
    calls = []

    def oracle(setting):
        calls.append(setting)
        return [0, 0, 1]

    trace = rfpe_run(oracle, GaussianBelief(math.pi, 1.0),
                     RfpeConfig(n_steps=2, rng_seed=1))
    assert len(calls) == 2
    # the recorded outcome is the last one consumed
    assert all(row.outcome == 1 for row in trace)


def test_retry_ladder_counts_attempts(monkeypatch):
    attempts = []

    def always_fail(outcome, belief, setting, config, rng):
        attempts.append(belief.sigma)
        raise UpdateFailure("forced")

    monkeypatch.setattr(rfpe_mod, "rejection_update", always_fail)
    with pytest.raises(UpdateFailure, match="10 retries and one sigma inflation"):
        rfpe_run(_noiseless_oracle(1.0, seed=14),
                 GaussianBelief(math.pi, 0.5),
                 RfpeConfig(n_steps=1, rng_seed=0))
    assert len(attempts) == 11
    # the final attempt ran against the widened prior
    assert attempts[-1] == pytest.approx(0.5 * 1.5)
    assert all(a == pytest.approx(0.5) for a in attempts[:-1])


# ------------------------------------------------------------------- persistence


def test_trace_csv_round_trip(tmp_path):
    truth = 2.2
    trace = rfpe_run(_noiseless_oracle(truth, seed=15),
                     GaussianBelief(math.pi, math.pi),
                     RfpeConfig(n_steps=5, rng_seed=2), truth=truth)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["step"] for r in rows] == [str(i) for i in range(1, 6)]
    assert list(rows[0]) == TRACE_FIELDS
    for row, got in zip(trace, rows):
        assert float(got["mu"]) == row.posterior.mu
        assert float(got["sigma"]) == row.posterior.sigma
        assert float(got["error"]) == row.error


def test_trace_csv_blank_error_without_truth(tmp_path):
    trace = rfpe_run(_noiseless_oracle(1.0, seed=16),
                     GaussianBelief(math.pi, math.pi),
                     RfpeConfig(n_steps=2, rng_seed=2))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["error"] == "" for r in rows)


def test_trace_json_round_trip(tmp_path):
    truth = 3.0
    trace = rfpe_run(_noiseless_oracle(truth, seed=17),
                     GaussianBelief(math.pi, math.pi),
                     RfpeConfig(n_steps=4, rng_seed=4), truth=truth)
    path = tmp_path / "trace.json"
    write_trace_json(trace, path)
    data = json.loads(path.read_text())
    assert len(data) == 4
    assert data[0]["step"] == 1
    assert data[-1]["mu"] == trace[-1].posterior.mu
    assert path.read_text().endswith("\n")
