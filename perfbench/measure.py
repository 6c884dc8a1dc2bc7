"""Timed and traced runs of one workload, and the result they print.

`run.py` puts the checkout's `src/` on the import path before it
imports this module.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import layers
import rfpe_lab
from rfpe_lab import scenarios
from rfpe_lab.scenarios import run_scenario_config, validate_config
from tracing import Tracer
from workloads import WORKLOADS, Check, gate, trials

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is sampled in this many fresh interpreters and the median kept;
# one interpreter varies by a third from the next.
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "study_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
}

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import rfpe_lab
from rfpe_lab.scenarios import validate_config
validate_config(json.loads(sys.argv[1]))
print(time.perf_counter() - t0)
"""


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child.

    Pages a forked child shares with this process count in both.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_seconds(cfg: dict) -> list[float]:
    """Import plus config validation, timed inside fresh interpreters."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                         if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE,
                               json.dumps(cfg)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout))
    return samples


def run_context() -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    return {"git_sha": sha,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "backend": rfpe_lab.BACKEND,
            "pure_python_env": bool(os.environ.get("RFPE_LAB_PURE_PYTHON"))}


def differing_files(a: Path, b: Path) -> list[str]:
    """Names missing from either directory or whose bytes differ."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [n for n in names
            if not ((a / n).is_file() and (b / n).is_file()
                    and (a / n).read_bytes() == (b / n).read_bytes())]


class Study:
    """Runs one workload's study and collects the checks on its outputs."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.config = self.workload.config(name, seed)
        self.checks: list[Check] = []
        self.known_failing: list[Check] = []
        self.reference: Path | None = None

    def run(self, tag: str, workers: int) -> tuple[float, float]:
        """One study into its own directory; returns (wall s, CPU s)."""
        out_dir = OUT / "studies" / self.name / tag
        shutil.rmtree(out_dir, ignore_errors=True)
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        manifest = run_scenario_config(dict(self.config), out_dir=out_dir,
                                       workers=workers)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        self.checks.append(Check(f"{tag}.manifest_complete",
                                 manifest["complete"], "complete: true"))
        if self.reference is None:
            self.reference = out_dir
            self.checks += self.workload.checks(manifest["summary"])
            self.known_failing += self.workload.known_failing(
                manifest["summary"])
        else:
            diff = differing_files(self.reference, out_dir)
            self.checks.append(Check(
                f"{tag}.same_bytes_as_{self.reference.name}", not diff,
                "differs: " + ", ".join(diff) if diff else "identical"))
        return wall, cpu


def timed(study: Study, seconds: float) -> dict[str, float]:
    """End-to-end metrics: studies back to back for `seconds`, untraced."""
    walls, cpus = [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        wall, cpu = study.run(f"rep{len(walls)}", study.workload.workers)
        walls.append(wall)
        cpus.append(cpu)
    rss = peak_rss_mb()
    setup = setup_seconds(study.config)
    study_s = statistics.median(walls)
    print(f"studies: {len(walls)}; study_s samples "
          + " ".join(f"{w:.3f}" for w in walls)
          + "; setup_s samples " + " ".join(f"{s:.3f}" for s in setup))
    return {"setup_s": statistics.median(setup),
            "study_s": study_s,
            "trials_per_s": trials(validate_config(study.config)) / study_s,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": rss}


def traced(study: Study, spans_path: Path) -> dict[str, float]:
    """Per-layer metrics from a traced study at one worker."""
    workers = study.workload.workers
    counter = Tracer()
    layers.count_pools(counter)
    try:
        workers_s, _ = study.run(f"untraced_w{workers}", workers)
    finally:
        counter.restore()
    one_s = workers_s if workers == 1 else study.run("untraced_w1", 1)[0]

    tracer = Tracer()
    originals = {a: getattr(scenarios, a)
                 for a in ("rfpe_run", "ipea_run", "fidelity_vs_noise",
                           "ProcessPoolExecutor")}
    layers.install(tracer)
    try:
        with tracer.span(layers.STUDY_SPAN):
            study.run("traced_w1", 1)
    finally:
        tracer.restore()
    study.checks.append(Check(
        "trace.wrappers_restored",
        all(getattr(scenarios, a) is f for a, f in originals.items()),
        "scenarios names are the originals again"))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    print(f"spans: {len(tracer.start)} written to "
          f"{spans_path.relative_to(ROOT)}")
    metrics = layers.layer_metrics(tracer, one_s, workers, workers_s,
                                   counter.counts["scenarios.pools"])
    return {name: metrics[name] for name in layers.LAYER_METRICS}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Gate, then measure; prints the result and returns the exit code."""
    study = Study(workload, seed)
    study.checks += gate()

    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics = traced(study, OUT / "spans" / f"{tag}.npz")
        units = {name: spec[0] for name, spec in layers.LAYER_METRICS.items()}
    else:
        metrics = timed(study, seconds)
        units = END_TO_END

    # After the studies: a child forked from this process would report
    # this process's resident set as its own peak.
    context = run_context()
    print("context: " + " ".join(f"{k}={v}" for k, v in context.items()))
    failed = sum(1 for c in study.checks if not c.ok)
    attempted = len(study.checks)
    if not trace:
        metrics["pass_frac"] = 1.0 - failed / attempted
    for c in study.checks:
        print(f"check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
    for c in study.known_failing:
        print(f"known-failing, not gated: {c.name}: "
              f"{'holds' if c.ok else 'fails'} ({c.detail})")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")

    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "seconds": seconds, "context": context,
              "checks": [vars(c) for c in study.checks],
              "known_failing": [vars(c) for c in study.known_failing],
              "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1
