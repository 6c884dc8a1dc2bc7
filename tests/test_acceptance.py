"""Acceptance suite: the eleven numbered criteria, one clause per check.

Each criterion gets a terminal summary line (see conftest). Heavy
scenario runs are session fixtures so several criteria can share one
ensemble.
"""

import math
import time

import numpy as np
import pytest

from rfpe_lab.calibration import (FringeFit, FringeSample, fit_fringe,
                                  fringe_model, propagate_phase_uncertainty)
from rfpe_lab.phases import (TWO_PI, ExperimentSetting, circular_distance,
                             likelihood, wrap_phase)
from rfpe_lab.rfpe import GaussianBelief, RfpeConfig, grid_posterior, rejection_update
from rfpe_lab.scenarios import run_scenario_config
from rfpe_lab.voting import (VotingScenario, chernoff_bound, critical_signal,
                             effective_probability, exact_minority_tail)

SCHEMA = "rfpe-lab/1"


def _run(kind, tmp_path_factory, **over):
    out = tmp_path_factory.mktemp(f"acc_{kind}")
    cfg = {"schema": SCHEMA, "kind": kind}
    cfg.update(over)
    start = time.perf_counter()
    manifest = run_scenario_config(cfg, out_dir=out)
    return manifest, time.perf_counter() - start, out


@pytest.fixture(scope="session")
def convergence_study(tmp_path_factory):
    return _run("convergence", tmp_path_factory)


@pytest.fixture(scope="session")
def phase_noise_study(tmp_path_factory):
    return _run("phase_noise_sweep", tmp_path_factory)


@pytest.fixture(scope="session")
def fidelity_study(tmp_path_factory):
    return _run("fidelity_curve", tmp_path_factory)


@pytest.fixture(scope="session")
def t2_sweep_study(tmp_path_factory):
    return _run("t2_sweep", tmp_path_factory)


@pytest.fixture(scope="session")
def t2_convergence_study(tmp_path_factory):
    return _run("t2_convergence", tmp_path_factory)


@pytest.fixture(scope="session")
def strategy_study(tmp_path_factory):
    return _run("strategy_comparison", tmp_path_factory)


@pytest.fixture(scope="session")
def calibration_study(tmp_path_factory):
    return _run("calibration_fit", tmp_path_factory)


@pytest.fixture(scope="session")
def molecular_study(tmp_path_factory):
    # synthetic dissociation-style curve; each reference energy is the
    # scaled true eigenphase exactly, so estimation is the only error
    out = tmp_path_factory.mktemp("acc_molecular_table")
    scale, offset = -0.22, 0.05
    lines = ["distance,eigenphase,reference_energy,scale,offset"]
    for i in range(20):
        d = 0.5 + 0.1 * i
        phi = 0.6 + 5.0 * (1.0 - math.exp(-1.2 * (d - 0.4))) ** 2
        lines.append(f"{d!r},{phi!r},{scale * phi + offset!r},"
                     f"{scale!r},{offset!r}")
    table = out / "dissociation.csv"
    table.write_text("\n".join(lines) + "\n")
    return _run("molecular_scan", tmp_path_factory, table=str(table))


# ------------------------------------------------------------ criteria 1, 2


def test_criterion_1_noiseless_convergence(convergence_study, criteria):
    manifest, elapsed, _ = convergence_study
    s = manifest["summary"]
    criteria.check(1, s["rfpe_final_median_error"] < 1e-3,
                   f"median final error {s['rfpe_final_median_error']:.2e} "
                   "(< 1e-3)")
    criteria.check(1, s["rfpe_log_slope"] < 0.0,
                   f"log-error slope {s['rfpe_log_slope']:.3f} (< 0)")
    criteria.check(1, elapsed < 60.0, f"ensemble ran in {elapsed:.1f}s (< 60s)")
    # the 16-bit ladder lands on the dyadic floor for this eigenphase
    assert s["ipea_final_median_error"] == pytest.approx(
        2.8079707381500896e-05, rel=1e-9)


def test_criterion_2_reported_sigma_covers_error(convergence_study, criteria):
    manifest, _, _ = convergence_study
    cov = manifest["summary"]["rfpe_coverage_2sigma"]
    criteria.check(2, cov >= 0.5,
                   f"final error within 2 sigma in {cov:.0%} of runs (>= 50%)")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_update_matches_grid_posterior(criteria):
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([3, 0]))
    config = RfpeConfig(n_particles=1000)
    n_cases, n_reps = 200, 30
    passes = 0
    for case in range(n_cases):
        mu = float(rng.uniform(0.0, TWO_PI))
        sigma = float(np.exp(rng.uniform(np.log(0.05), np.log(1.0))))
        setting = ExperimentSetting(
            m=max(1, math.ceil(1.25 / sigma)),
            theta=wrap_phase(mu + sigma * float(rng.standard_normal())))
        truth = wrap_phase(mu + sigma * float(rng.standard_normal()))
        outcome = 1 if float(rng.random()) < likelihood(1, truth, setting) else 0

        prior = GaussianBelief(mu=mu, sigma=sigma)
        ref = grid_posterior(outcome, prior, setting)

        mus, sigs = [], []
        for rep in range(n_reps):
            rep_rng = np.random.default_rng(
                np.random.SeedSequence([3, 1, case, rep]))
            post = rejection_update(outcome, prior, setting, config, rep_rng)
            mus.append(post.mu)
            sigs.append(post.sigma)
        mean_mu = float(np.angle(np.mean(np.exp(1j * np.array(mus))))) % TWO_PI
        devs = np.array([circular_distance(v, mean_mu) for v in mus])
        se_mu = math.sqrt(float(np.mean(devs ** 2)) / n_reps)
        se_sig = float(np.std(sigs, ddof=1)) / math.sqrt(n_reps)
        ok_mu = circular_distance(mean_mu, ref.mu) <= 3.0 * se_mu
        ok_sig = abs(float(np.mean(sigs)) - ref.sigma) <= 3.0 * se_sig
        passes += ok_mu and ok_sig
    elapsed = time.perf_counter() - start
    criteria.check(3, passes / n_cases >= 0.95,
                   f"{passes}/{n_cases} cases within 3 MC standard errors "
                   "(>= 95%)")
    criteria.check(3, elapsed < 60.0, f"ran in {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_phase_noise_robustness(phase_noise_study, criteria):
    manifest, elapsed, _ = phase_noise_study
    s = manifest["summary"]
    grid = s["sigma_grid"]
    rfpe = s["rfpe_median_error"]
    ipea = s["ipea_median_error"]
    at = grid.index(0.2)
    ratio = rfpe[at] / ipea[at]
    criteria.check(4, ratio <= 0.1,
                   f"RFPE/IPEA median error at sigma=0.2 is {ratio:.3f} "
                   "(<= 0.1)")
    worst = max(rfpe[i] / rfpe[0] for i in range(len(grid))
                if grid[i] <= 0.2)
    criteria.check(4, worst <= 3.0,
                   f"RFPE error up to sigma=0.2 stays within {worst:.2f}x "
                   "of the noiseless value (<= 3x)")
    criteria.check(4, elapsed < 600.0, f"sweep ran in {elapsed:.1f}s (< 600s)")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_fidelity_benchmarks(fidelity_study, criteria):
    manifest, elapsed, _ = fidelity_study
    s = manifest["summary"]
    grid = s["sigma_grid"]
    state = s["state_fidelity"][grid.index(0.55)]
    gate = s["gate_fidelity"][grid.index(0.55)]
    criteria.check(5, abs(state - 0.94) <= 0.03,
                   f"state fidelity at sigma=0.55 is {state:.4f} (0.94+-0.03)")
    criteria.check(5, abs(gate - 0.91) <= 0.03,
                   f"gate fidelity at sigma=0.55 is {gate:.4f} (0.91+-0.03)")
    s0, g0 = s["state_fidelity"][0], s["gate_fidelity"][0]
    criteria.check(5, abs(s0 - 1.0) <= 1e-3 and abs(g0 - 1.0) <= 1e-3,
                   f"noiseless fidelities {s0:.4f}/{g0:.4f} (1.000+-0.001)")
    criteria.check(5, elapsed < 60.0, f"ran in {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_rfpe_survives_short_t2(t2_sweep_study, criteria):
    manifest, _, _ = t2_sweep_study
    s = manifest["summary"]
    jump = s["rfpe_max_adjacent_ratio"]
    criteria.check(6, jump < 10.0,
                   f"largest RFPE adjacent-octave jump {jump:.2f}x (< 10x)")
    worst = max(err for t2, err in zip(s["t2_grid"], s["rfpe_median_error"])
                if t2 >= 8.0)
    criteria.check(6, worst <= 0.1,
                   f"capped-PGH RFPE error down to T2=8 at most {worst:.3f} "
                   "rad (<= 0.1)")


def test_criterion_6_ipea_coherence_cliff(t2_sweep_study, criteria):
    # exp(-M/T2) damping leaves the bits with M = 2^(n-j) <~ T2 intact,
    # so each halving of T2 costs IPEA about one trustworthy bit: its
    # median error should scale as T2^-1. A slope near 0 means the ladder
    # ignores T2 (or has collapsed to random guessing everywhere).
    manifest, _, _ = t2_sweep_study
    s = manifest["summary"]
    slope = np.polyfit(np.log2(s["t2_grid"]),
                       np.log2(s["ipea_median_error"]), 1)[0]
    criteria.check(6, -1.5 <= slope <= -0.5,
                   f"IPEA log2 median error vs log2 T2 slope {slope:.2f} "
                   "(one bit per octave: in [-1.5, -0.5])")


def test_criterion_6_knee_tracks_t2(t2_sweep_study, t2_convergence_study,
                                    criteria):
    manifest, elapsed_conv, _ = t2_convergence_study
    _, elapsed_sweep, _ = t2_sweep_study
    knees = manifest["summary"]["knees"]
    ratios = [k["inv_sigma_over_t2"] for k in knees]
    ok = all(0.5 <= r <= 2.0 for r in ratios)
    criteria.check(6, ok,
                   "1/sigma at the detected knee over T2 in "
                   f"[{min(ratios):.2f}, {max(ratios):.2f}] "
                   "(within a factor 2 of 1)")
    total = elapsed_sweep + elapsed_conv
    criteria.check(6, total < 900.0, f"both sweeps ran in {total:.1f}s (< 900s)")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_strategy_ordering(strategy_study, criteria):
    manifest, elapsed, _ = strategy_study
    per = manifest["summary"]["per_step"]
    sampled, majority = per["sampled:3"], per["majority_vote"]
    single = per["single_shot"]
    violations = []
    for step in range(10):
        slack = 2.0 * math.hypot(sampled["stderr"][step],
                                 majority["stderr"][step])
        if sampled["median"][step] > majority["median"][step] + slack:
            violations.append(f"step {step + 1}: sampled > majority")
        slack = 2.0 * math.hypot(majority["stderr"][step],
                                 single["stderr"][step])
        if majority["median"][step] > single["median"][step] + slack:
            violations.append(f"step {step + 1}: majority > single-shot")
    criteria.check(7, not violations,
                   "sampled(3) <= majority <= single-shot at every one of "
                   "the first 10 steps within 2 bootstrap standard errors"
                   + ("; " + "; ".join(violations) if violations else ""))
    criteria.check(7, elapsed < 300.0, f"ran in {elapsed:.1f}s (< 300s)")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_vote_error_theory(criteria):
    bound = chernoff_bound(2.0 / 3.0, 500)
    target = math.exp(-125.0 / 12.0)
    criteria.check(8, abs(bound - target) <= 1e-12 * target,
                   f"chernoff_bound(2/3, 500) = {bound:.12e} matches "
                   "exp(-125/12) to 1e-12 relative")

    gaps = []
    for pe in [0.02 * i for i in range(21)]:
        sc = VotingScenario(p0=2.0 / 3.0, pe=pe, n=500, n_bits=16)
        eff = effective_probability(sc)
        gaps.append(chernoff_bound(eff, 500) - exact_minority_tail(eff, 500))
    criteria.check(8, min(gaps) >= 0.0,
                   f"bound >= exact tail across the grid (min gap "
                   f"{min(gaps):.2e})")

    grid = [0.05 * i for i in range(9)]
    default = [critical_signal(16, 500, pe) for pe in grid]
    exact = [critical_signal(16, 500, pe, mode="exact") for pe in grid]
    monotone = (all(b > a for a, b in zip(default, default[1:]))
                and all(b > a for a, b in zip(exact, exact[1:])))
    criteria.check(8, monotone, "critical signal rises with the error rate")
    assert default[0] == pytest.approx(0.5088837750855592, rel=1e-12)

    limit = critical_signal(16, 10 ** 9, 0.0)
    criteria.check(8, 0.5 < limit < 0.5 + 1e-6,
                   f"critical signal tends to 1/2 for huge ensembles "
                   f"({limit - 0.5:.1e} above)")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_fringe_calibration(calibration_study, criteria):
    truth = (0.55, 0.45, 75.0, 42.5)
    p_el = np.linspace(5.0, 80.0, 40)
    clean = fringe_model(*truth, p_el)

    fit = fit_fringe([FringeSample(float(x), float(y))
                      for x, y in zip(p_el, clean)], restarts=8,
                     rng=np.random.default_rng(90))
    worst = max(abs(est - tv) / abs(tv) for est, tv in zip(fit.params, truth))
    criteria.check(9, worst <= 1e-6,
                   f"noiseless fringe recovered to {worst:.1e} relative "
                   "(<= 1e-6)")
    criteria.check(9, fit.r_squared >= 1.0 - 1e-9,
                   f"noiseless R^2 = 1 - {1.0 - fit.r_squared:.1e} "
                   "(>= 1 - 1e-9)")

    hits = total = 0
    for trial in range(200):
        noise_rng = np.random.default_rng(np.random.SeedSequence([9, trial]))
        noisy = clean + noise_rng.normal(0.0, 0.02, p_el.size)
        f = fit_fringe([FringeSample(float(x), float(y))
                        for x, y in zip(p_el, noisy)], restarts=6,
                       rng=np.random.default_rng(
                           np.random.SeedSequence([9, trial, 1])))
        for est, se, tv in zip(f.params, f.std_errors, truth):
            total += 1
            hits += abs(est - tv) <= 3.0 * se
    criteria.check(9, hits / total >= 0.95,
                   f"3-standard-error coverage {hits}/{total} "
                   f"({hits / total:.1%}, >= 95%)")

    # published relative uncertainties for this interferometer:
    # 0.2% of full drive power on the offset, 1.1% on the period
    published = FringeFit(b=0.55, a=0.45, t=75.0, p_phi=42.5,
                          std_errors=(0.0, 0.0, 0.011 * 75.0, 0.002 * 80.0),
                          t_stats=(0.0,) * 4, p_values=(0.0,) * 4,
                          r_squared=1.0, residual_norm=0.0, n_samples=40)
    sigma_phi = propagate_phase_uncertainty(published, (5.0, 80.0))
    criteria.check(9, abs(sigma_phi - 0.01) <= 0.005,
                   f"propagated phase uncertainty {sigma_phi:.4f} rad "
                   "(0.01 within 50%)")

    manifest, _, _ = calibration_study
    scen = manifest["summary"]["propagated_sigma_phase"]
    criteria.record(9, abs(scen - 0.01) <= 0.005,
                    f"scenario-fit propagation {scen:.4f} rad")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_energy_scan(molecular_study, criteria):
    manifest, elapsed, out = molecular_study
    s = manifest["summary"]
    criteria.check(10, s["n_points"] == 20, f"{s['n_points']} scan points")
    criteria.check(10, s["fraction_within_1kcal"] >= 0.9,
                   f"{s['fraction_within_1kcal']:.0%} of points within "
                   "1 kcal/mol (>= 90%)")
    criteria.record(10, True,
                    f"worst point {s['max_abs_error_kcal']:.2e} kcal/mol, "
                    f"ran in {elapsed:.1f}s")
    assert (out / "molecular_scan_scan.csv").exists()


# --------------------------------------------------------------- criterion 11


def test_criterion_11_reruns_are_byte_identical(tmp_path_factory, criteria):
    cfg = {"schema": SCHEMA, "kind": "convergence", "label": "repeat",
           "ensemble": 8, "rng_seed": 11,
           "noise": {"shots": 100},
           "rfpe": {"n_steps": 12, "n_particles": 300},
           "ipea": {"n_bits": 6, "repetitions": 2}}
    dirs = []
    for name, workers in [("rerun_a", 1), ("rerun_b", 1), ("rerun_c", 2)]:
        out = tmp_path_factory.mktemp(name)
        run_scenario_config(dict(cfg), out_dir=out, workers=workers, plot=True)
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert any(n.endswith(".csv") for n in names)
    assert any(n.endswith(".svg") for n in names)
    same = all((d / n).read_bytes() == (dirs[0] / n).read_bytes()
               for d in dirs[1:] for n in names)
    criteria.check(11, same,
                   f"{len(names)} files byte-identical across re-runs "
                   "and worker counts")
