"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_subtracts_merged_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [9, 12]
    # overhangs the parent; grandchild [1.5, 2.5] sits in [1, 3].
    start = [0.0, 1.0, 2.0, 9.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    parent = [-1, 0, 0, 0, 1]
    own = self_times(start, end, parent)
    np.testing.assert_allclose(own, [10.0 - 4.0 - 1.0, 1.0, 3.0, 3.0, 1.0])


def test_self_times_sum_to_root_duration_when_nested():
    start = [0.0, 0.5, 0.6, 2.0, 2.5]
    end = [4.0, 1.5, 0.9, 3.0, 2.75]
    parent = [-1, 0, 1, 0, 3]
    assert self_times(start, end, parent).sum() == pytest.approx(4.0)


def _fake_module():
    mod = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    return mod


def test_wrappers_record_parents_and_restore():
    mod = _fake_module()
    originals = (mod.inner, mod.outer)
    errors = []
    tracer = Tracer()
    tracer.wrap(mod, "inner", "fake.inner",
                on_error=lambda t, exc: errors.append(exc))
    tracer.wrap(mod, "outer", "fake.outer")
    with tracer.span("root"):
        assert mod.outer(1) == 4
        with pytest.raises(ValueError):
            mod.outer(-1)
        assert mod.inner(0) == 1
    tracer.restore()

    assert (mod.inner, mod.outer) == originals
    assert len(errors) == 1
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["root", "fake.outer", "fake.inner", "fake.outer",
                     "fake.inner", "fake.inner"]
    assert list(tracer.parent) == [-1, 0, 1, 0, 3, 0]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_method_wrapper_restores_class_attribute():
    class Oracle:
        def __call__(self, x):
            return 2 * x

    original = Oracle.__dict__["__call__"]
    tracer = Tracer()
    tracer.wrap(Oracle, "__call__", "oracle.call")
    assert Oracle()(3) == 6
    tracer.restore()
    assert Oracle.__dict__["__call__"] is original
    assert len(tracer.start) == 1


def test_install_restores_every_package_attribute():
    from rfpe_lab import device, experiment, rfpe, scenarios

    watched = [(scenarios, "rfpe_run"), (scenarios, "ipea_run"),
               (scenarios, "fidelity_vs_noise"),
               (scenarios, "ProcessPoolExecutor"),
               (rfpe, "particle_guess"), (rfpe, "particle_guess_capped"),
               (rfpe, "rejection_update"),
               (rfpe.kernels, "rejection_accumulate"),
               (experiment.DeviceOracle, "__call__"),
               (experiment, "compose_power"), (experiment, "euler_angles"),
               (experiment, "probability_from_phases"),
               (experiment, "perturb_phases"), (experiment, "depolarize"),
               (experiment, "sample_counts"), (experiment, "reduce_outcome"),
               (device, "perturb_phases")]
    before = [getattr(owner, attr) for owner, attr in watched]
    tracer = Tracer()
    layers.install(tracer)
    assert all(getattr(o, a) is not f for (o, a), f in zip(watched, before))
    tracer.restore()
    assert all(getattr(o, a) is f for (o, a), f in zip(watched, before))


def test_metric_and_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in spec["per_layer"]}
    assert e2e == measure.END_TO_END
    assert per_layer == {n: (u, b)
                         for n, (u, b, _) in layers.LAYER_METRICS.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    for name in list(e2e) + list(per_layer) + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name), name


def test_layer_metrics_cover_every_declared_metric():
    tracer = Tracer()
    with tracer.span(layers.STUDY_SPAN):
        pass
    metrics = layers.layer_metrics(tracer, 0.0, 1, 1.0, 0.0)
    assert set(metrics) == set(layers.LAYER_METRICS)
    assert metrics["scenarios.overhead_s"] == pytest.approx(
        metrics["trace.study_s"])


def test_differing_files_names_changed_and_missing(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        (d / "same.csv").write_text("1,2\n")
    (a / "changed.csv").write_text("1\n")
    (b / "changed.csv").write_text("2\n")
    (a / "only_a.json").write_text("{}\n")
    assert measure.differing_files(a, b) == ["changed.csv", "only_a.json"]
