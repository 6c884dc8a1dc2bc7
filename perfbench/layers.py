"""Where the traced run puts its spans, and the per-layer metrics.

Each function is wrapped at the name it is looked up under when a
study runs: `scenarios` calls `rfpe_run`, `ipea_run` and
`fidelity_vs_noise` by their imported names, the oracle finds the
device and noise functions in `experiment`'s namespace, `rfpe` reaches
the kernel through `_backend.kernels`, and `fidelity_vs_noise` jitters
through `device`'s own `perturb_phases`. A span's layer is the part of
its name before the first dot.
"""

from __future__ import annotations

import inspect

import numpy as np

from rfpe_lab import device, experiment, rfpe, scenarios

from tracing import Tracer, self_times

STUDY_SPAN = "scenarios.study"
TRIAL_SPANS = ("rfpe.run", "ipea.run", "device.fidelity_vs_noise")
LAYERS = ("rfpe", "kernel", "oracle", "device", "noise", "ipea")

# Per-layer metric -> (unit, better, the end-to-end metric and workload
# it should move).
LAYER_METRICS = {
    "rfpe.updates": ("count", "lower", "study_s on t2_sweep_w2, noise_sweep"),
    "rfpe.update_us": ("us", "lower", "study_s on t2_sweep_w2, noise_sweep"),
    "rfpe.guess_us": ("us", "lower", "study_s on t2_sweep_w2, noise_sweep"),
    "rfpe.accept_ratio": ("ratio", "higher", "pass_frac, work per update"),
    "rfpe.retries": ("count", "lower", "pass_frac, work per update"),
    "rfpe.trial_ms_p50": ("ms", "lower", "trials_per_s on both sweeps"),
    "rfpe.trial_ms_p98": ("ms", "lower", "trials_per_s on both sweeps"),
    "rfpe.self_s": ("s", "lower", "study_s on both sweeps"),
    "kernel.calls": ("count", "lower", "study_s on t2_sweep_w2"),
    "kernel.us": ("us", "lower",
                  "study_s on t2_sweep_w2, then noise_sweep; not fidelity"),
    "kernel.ns_per_particle": ("ns", "lower", "study_s on t2_sweep_w2"),
    "kernel.bytes_computed": ("bytes", "lower", "study_s on t2_sweep_w2"),
    "kernel.self_s": ("s", "lower", "study_s on t2_sweep_w2"),
    "oracle.calls": ("count", "lower", "study_s on noise_sweep"),
    "oracle.us": ("us", "lower", "study_s on noise_sweep"),
    "oracle.compile_hit_ratio": ("ratio", "higher",
                                 "study_s on noise_sweep; little on t2"),
    "oracle.self_s": ("s", "lower", "study_s on noise_sweep"),
    "device.compose_calls": ("count", "lower", "study_s on noise_sweep"),
    "device.compose_us": ("us", "lower", "study_s on noise_sweep"),
    "device.euler_us": ("us", "lower", "study_s on noise_sweep"),
    "device.prob_us": ("us", "lower", "study_s on noise_sweep"),
    "device.fidelity_sample_us": ("us", "lower", "study_s on fidelity"),
    "device.self_s": ("s", "lower", "study_s on noise_sweep, fidelity"),
    "noise.jitter_calls": ("count", "lower",
                           "study_s on noise_sweep, fidelity"),
    "noise.jitter_us": ("us", "lower", "study_s on noise_sweep, fidelity"),
    "noise.counts_us": ("us", "lower", "study_s on noise_sweep"),
    "noise.reduce_us": ("us", "lower", "study_s on noise_sweep"),
    "noise.self_s": ("s", "lower", "study_s on noise_sweep, fidelity"),
    "ipea.runs": ("count", "lower", "study_s on both sweeps"),
    "ipea.bit_us": ("us", "lower", "study_s on both sweeps"),
    "ipea.self_s": ("s", "lower", "study_s on both sweeps"),
    "scenarios.pools": ("count", "lower", "study_s, cpu_s on t2_sweep_w2"),
    "scenarios.parallel_eff": ("ratio", "higher",
                               "study_s, cpu_s on t2_sweep_w2"),
    "scenarios.overhead_s": ("s", "lower", "study_s on every workload"),
    "trace.study_s": ("s", "lower", "traced study_s; layers sum to it"),
    "trace.overhead_s": ("s", "lower", "none: cost of tracing itself"),
    "trace.spans": ("count", "lower", "none: size of the trace"),
}


def per_call(total: float, calls: float, scale: float = 1.0) -> float:
    """Mean per call in the given unit, 0.0 when nothing was called."""
    return total / calls * scale if calls else 0.0


def percentile(values, q: float) -> float:
    """q-th percentile of `values`, 0.0 for an empty sequence."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _kernel_done(tracer, args, kwargs, result):
    # kernel.bytes_computed is computed from the input array sizes; no
    # memory traffic is measured.
    samples, uniforms = args[0], args[1]
    tracer.counts["kernel.particles"] += samples.size
    tracer.counts["kernel.accepted"] += result[0]
    tracer.counts["kernel.bytes"] += samples.nbytes + uniforms.nbytes


def _update_failed(tracer, exc):
    if isinstance(exc, rfpe.UpdateFailure):
        tracer.counts["rfpe.retries"] += 1


def _ipea_done(tracer, args, kwargs, result):
    tracer.counts["ipea.bits"] += len(result[1])


_FIDELITY_SIGNATURE = inspect.signature(device.fidelity_vs_noise)


def _fidelity_done(tracer, args, kwargs, result):
    bound = _FIDELITY_SIGNATURE.bind(*args, **kwargs).arguments
    noisy = sum(1 for s in bound["sigma_grid"] if s > 0.0)
    tracer.counts["device.fidelity_samples"] += noisy * bound["samples"]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; `tracer.restore()` undoes it."""
    tracer.wrap(scenarios, "rfpe_run", "rfpe.run")
    tracer.wrap(scenarios, "ipea_run", "ipea.run", on_result=_ipea_done)
    tracer.wrap(scenarios, "fidelity_vs_noise", "device.fidelity_vs_noise",
                on_result=_fidelity_done)
    tracer.wrap(rfpe, "particle_guess", "rfpe.guess")
    tracer.wrap(rfpe, "particle_guess_capped", "rfpe.guess")
    tracer.wrap(rfpe, "rejection_update", "rfpe.update",
                on_error=_update_failed)
    tracer.wrap(rfpe.kernels, "rejection_accumulate", "kernel.accumulate",
                on_result=_kernel_done)
    tracer.wrap(experiment.DeviceOracle, "__call__", "oracle.call")
    tracer.wrap(experiment, "compose_power", "device.compose")
    tracer.wrap(experiment, "euler_angles", "device.euler")
    tracer.wrap(experiment, "probability_from_phases", "device.prob")
    tracer.wrap(experiment, "perturb_phases", "noise.jitter")
    tracer.wrap(experiment, "depolarize", "noise.depolarize")
    tracer.wrap(experiment, "sample_counts", "noise.counts")
    tracer.wrap(experiment, "reduce_outcome", "noise.reduce")
    tracer.wrap(device, "perturb_phases", "noise.jitter")
    count_pools(tracer)


def count_pools(tracer: Tracer) -> None:
    """Count worker pools the parent process creates."""
    tracer.count_calls(scenarios, "ProcessPoolExecutor", "scenarios.pools")


def layer_metrics(tracer: Tracer, untraced_study_s: float,
                  workers: int, workers_study_s: float,
                  pools: float) -> dict[str, float]:
    """Per-layer metrics from one traced study.

    `untraced_study_s` is an untraced run at the traced run's single
    worker, `workers_study_s` an untraced run at the workload's worker
    count, which also gave the `pools` count.
    """
    a = tracer.arrays()
    own = self_times(a["start"], a["end"], a["parent"])
    total = a["end"] - a["start"]
    names = np.asarray(tracer.names, dtype=str)[a["name_id"]]

    def calls(name):
        return float(np.count_nonzero(names == name))

    def self_sum(name):
        return float(own[names == name].sum())

    def total_sum(name):
        return float(total[names == name].sum())

    def self_us(name):
        return per_call(self_sum(name), calls(name), 1e6)

    c = tracer.counts
    study_s = total_sum(STUDY_SPAN)
    trial_s = sum(total_sum(name) for name in TRIAL_SPANS)
    oracle_calls = calls("oracle.call")
    rfpe_trials_ms = total[names == "rfpe.run"] * 1e3
    m = {
        "rfpe.updates": calls("rfpe.update"),
        "rfpe.update_us": self_us("rfpe.update"),
        "rfpe.guess_us": self_us("rfpe.guess"),
        "rfpe.accept_ratio": per_call(c["kernel.accepted"],
                                      c["kernel.particles"]),
        "rfpe.retries": c["rfpe.retries"],
        "rfpe.trial_ms_p50": percentile(rfpe_trials_ms, 50),
        "rfpe.trial_ms_p98": percentile(rfpe_trials_ms, 98),
        "kernel.calls": calls("kernel.accumulate"),
        "kernel.us": self_us("kernel.accumulate"),
        "kernel.ns_per_particle": per_call(self_sum("kernel.accumulate"),
                                           c["kernel.particles"], 1e9),
        "kernel.bytes_computed": c["kernel.bytes"],
        "oracle.calls": oracle_calls,
        "oracle.us": self_us("oracle.call"),
        "oracle.compile_hit_ratio": (1.0 - calls("device.compose")
                                     / oracle_calls) if oracle_calls else 0.0,
        "device.compose_calls": calls("device.compose"),
        "device.compose_us": self_us("device.compose"),
        "device.euler_us": self_us("device.euler"),
        "device.prob_us": self_us("device.prob"),
        "device.fidelity_sample_us": per_call(
            total_sum("device.fidelity_vs_noise"),
            c["device.fidelity_samples"], 1e6),
        "noise.jitter_calls": calls("noise.jitter"),
        "noise.jitter_us": self_us("noise.jitter"),
        "noise.counts_us": self_us("noise.counts"),
        "noise.reduce_us": self_us("noise.reduce"),
        "ipea.runs": calls("ipea.run"),
        "ipea.bit_us": per_call(total_sum("ipea.run"), c["ipea.bits"], 1e6),
        "scenarios.pools": pools,
        "scenarios.parallel_eff": per_call(trial_s, workers * workers_study_s),
        "scenarios.overhead_s": self_sum(STUDY_SPAN),
        "trace.study_s": study_s,
        "trace.overhead_s": study_s - untraced_study_s,
        "trace.spans": float(names.size),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(
            self_sum(n) for n in tracer.names if n.split(".", 1)[0] == layer))
    return m
