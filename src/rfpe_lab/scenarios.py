"""Declarative study harness: JSON scenarios in, CSV/JSON/SVG out.

A scenario file selects one of nine study kinds (convergence curves,
noise and decoherence sweeps, readout-strategy comparison, molecular
scan, fidelity curve, voting bounds, fringe calibration), and the
harness runs the required Monte-Carlo ensembles against the simulated
device, aggregating each x-value as median with a 16th/84th percentile
band. Every run writes one CSV per data series plus a JSON manifest
echoing the configuration; given the same seed the bytes are
reproducible, including under a worker pool, because every trial owns
an RNG stream derived from (seed, kind, algorithm, grid point, trial)
and aggregation is order-independent.

Schema violations raise ConfigError with a source:line anchor and
produce no output files. A failure in the middle of a run flushes the
series completed so far and writes a manifest with complete = false.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import voting
from .calibration import (FringeSample, fit_fringe, fit_report_json,
                          fringe_model, load_fringe_csv,
                          propagate_phase_uncertainty)
from .device import fidelity_vs_noise, phase_gate_instance
from .experiment import device_oracle_for_phase
from .ipea import IpeaConfig, ipea_run
from .noise import NoiseConfig, strategy_from_name
from .phases import TWO_PI, circular_distance, wrap_phase
from .rfpe import GaussianBelief, RfpeConfig, rfpe_run
from .svgplot import Layer, PlotSpec, emit_plot

SCHEMA_VERSION = "rfpe-lab/1"
KCAL_PER_HARTREE = 627.509
OUT_DIR_ENV = "RFPE_LAB_OUT_DIR"

KINDS = ("convergence", "phase_noise_sweep", "t2_sweep", "t2_convergence",
         "strategy_comparison", "molecular_scan", "fidelity_curve",
         "chernoff_curve", "calibration_fit")

_KIND_TAG = {name: index for index, name in enumerate(KINDS)}
_ALGO_RFPE, _ALGO_IPEA, _ALGO_MISC = 0, 1, 2

# Acceptance criteria exercised by each kind's outputs (11 is the
# byte-reproducibility contract every run participates in).
_CRITERIA = {
    "convergence": [1, 2, 11],
    "phase_noise_sweep": [4, 11],
    "t2_sweep": [6, 11],
    "t2_convergence": [6, 11],
    "strategy_comparison": [7, 11],
    "molecular_scan": [10, 11],
    "fidelity_curve": [5, 11],
    "chernoff_curve": [8, 11],
    "calibration_fit": [9, 11],
}


class ConfigError(ValueError):
    """Scenario configuration rejected; message carries source:line."""


# --------------------------------------------------------------------------
# Configuration validation


def _key_line(text: Optional[str], path: str) -> int:
    """Best-effort line anchor: first occurrence of the leaf key."""
    if not text:
        return 1
    leaf = path.split(".")[-1].split("[")[0]
    if leaf:
        token = f'"{leaf}"'
        for lineno, line in enumerate(text.splitlines(), 1):
            if token in line:
                return lineno
    return 1


class _Checker:
    def __init__(self, source: str, text: Optional[str]):
        self.source = source
        self.text = text

    def fail(self, path: str, msg: str):
        raise ConfigError(f"{self.source}:{_key_line(self.text, path)}: "
                          f"{path}: {msg}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _as_bool(chk, path, v):
    if not isinstance(v, bool):
        chk.fail(path, f"expected true or false, got {v!r}")
    return v


def _as_int(chk, path, v, lo=None, hi=None):
    if isinstance(v, bool) or not isinstance(v, int):
        chk.fail(path, f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        chk.fail(path, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        chk.fail(path, f"must be <= {hi}, got {v}")
    return v


def _as_num(chk, path, v, lo=None, hi=None, lo_open=False, hi_open=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        chk.fail(path, f"expected a number, got {v!r}")
    out = float(v)
    if not math.isfinite(out):
        chk.fail(path, f"must be finite, got {out!r}")
    if lo is not None and (out <= lo if lo_open else out < lo):
        chk.fail(path, f"must be {'>' if lo_open else '>='} {lo}, got {out}")
    if hi is not None and (out >= hi if hi_open else out > hi):
        chk.fail(path, f"must be {'<' if hi_open else '<='} {hi}, got {out}")
    return out


def _as_str(chk, path, v, choices=None):
    if not isinstance(v, str):
        chk.fail(path, f"expected a string, got {v!r}")
    if choices is not None and v not in choices:
        chk.fail(path, f"expected one of {sorted(choices)}, got {v!r}")
    return v


def _as_grid(chk, path, v, lo=None, lo_open=False, hi=None, hi_open=False):
    if not isinstance(v, list) or not v:
        chk.fail(path, f"expected a non-empty list of numbers, got {v!r}")
    return [_as_num(chk, f"{path}[{i}]", x, lo=lo, hi=hi,
                    lo_open=lo_open, hi_open=hi_open)
            for i, x in enumerate(v)]


def _as_strategy(chk, path, v):
    name = _as_str(chk, path, v)
    try:
        strategy_from_name(name)
    except ValueError as exc:
        chk.fail(path, str(exc))
    return name


def _as_t2(chk, path, v):
    if v is None:
        return None
    return _as_num(chk, path, v, lo=0.0, lo_open=True)


def _as_label(chk, path, v):
    name = _as_str(chk, path, v)
    ok = name and all(c.isalnum() or c in "_.-" for c in name) \
        and not name.startswith((".", "-"))
    if not ok:
        chk.fail(path, f"label must be a simple file-name stem, got {name!r}")
    return name


def _as_opt_str(chk, path, v):
    if v is None:
        return None
    return _as_str(chk, path, v)


_REQUIRED = object()


def _check_mapping(chk, path, value, spec):
    if not isinstance(value, dict):
        chk.fail(path or "config", f"expected an object, got {value!r}")
    for key in value:
        if key not in spec:
            chk.fail(_join(path, str(key)), "unknown key")
    out = {}
    for key, (fn, default) in spec.items():
        if key in value:
            out[key] = fn(chk, _join(path, key), value[key])
        elif default is _REQUIRED:
            chk.fail(_join(path, key), "missing required key")
        else:
            out[key] = json.loads(json.dumps(default))  # defensive copy
    return out


def _noise_spec(strategy="majority_vote"):
    return {
        "sigma_phase": (lambda c, p, v: _as_num(c, p, v, lo=0.0), 0.0),
        "t2": (_as_t2, None),
        "shots": (lambda c, p, v: _as_int(c, p, v, lo=1), 2000),
        "strategy": (_as_strategy, strategy),
        "poissonian": (_as_bool, False),
    }


def _rfpe_spec(n_steps):
    return {
        "n_particles": (lambda c, p, v: _as_int(c, p, v, lo=2), 1000),
        "n_steps": (lambda c, p, v: _as_int(c, p, v, lo=1), n_steps),
        "kappa_e": (lambda c, p, v: _as_num(c, p, v, lo=0.0, hi=1.0,
                                            lo_open=True), 1.0),
        "t2_cap": (_as_t2, None),
    }


_IPEA_SPEC = {
    "n_bits": (lambda c, p, v: _as_int(c, p, v, lo=1), 16),
    "shots_per_bit": (lambda c, p, v: _as_int(c, p, v, lo=1), 1),
    "repetitions": (lambda c, p, v: _as_int(c, p, v, lo=1), 10),
}

_PRIOR_SPEC = {
    "mu": (_as_num, math.pi),
    "sigma": (lambda c, p, v: _as_num(c, p, v, lo=0.0, lo_open=True), math.pi),
}

_FRINGE_SPEC = {
    "b": (_as_num, 0.55),
    "a": (lambda c, p, v: _as_num(c, p, v, lo=0.0, lo_open=True), 0.45),
    "t": (lambda c, p, v: _as_num(c, p, v, lo=0.0, lo_open=True), 75.0),
    "p_phi": (_as_num, 42.5),
    "sigma_op": (lambda c, p, v: _as_num(c, p, v, lo=0.0), 0.02),
    "n_points": (lambda c, p, v: _as_int(c, p, v, lo=8), 40),
    "p_min": (lambda c, p, v: _as_num(c, p, v, lo=0.0), 5.0),
    "p_max": (lambda c, p, v: _as_num(c, p, v, lo=0.0, lo_open=True), 80.0),
}

_DEFAULT_SIGMA_GRID = [round(0.05 * i, 2) for i in range(12)]
_DEFAULT_T2_GRID = [float(2 ** i) for i in range(9)]


def _as_strategies(chk, path, v):
    if not isinstance(v, list) or not v:
        chk.fail(path, f"expected a non-empty list of strategy names, got {v!r}")
    return [_as_strategy(chk, f"{path}[{i}]", name) for i, name in enumerate(v)]


def _common_spec(kind, **extra):
    spec = {
        "schema": (lambda c, p, v: _as_str(c, p, v, {SCHEMA_VERSION}),
                   SCHEMA_VERSION),
        "kind": (lambda c, p, v: _as_str(c, p, v, set(KINDS)), kind),
        "rng_seed": (lambda c, p, v: _as_int(c, p, v, lo=0), 0),
        "label": (_as_label, kind),
        "out_dir": (_as_opt_str, None),
    }
    spec.update(extra)
    return spec


def _algo_field(default="both"):
    return (lambda c, p, v: _as_str(c, p, v, {"rfpe", "ipea", "both"}), default)


_KIND_SPECS: dict[str, dict] = {}


def _register_kind(kind, **extra):
    _KIND_SPECS[kind] = _common_spec(kind, **extra)


def _sub(spec_dict):
    """Field pair for a nested object: validator plus defaulted default."""
    default = _check_mapping(_Checker("<defaults>", None), "", {}, spec_dict)
    return (lambda c, p, v: _check_mapping(c, p, v, spec_dict), default)


_register_kind(
    "convergence",
    truth=(_as_num, 4.8741),
    algorithm=_algo_field(),
    ensemble=(lambda c, p, v: _as_int(c, p, v, lo=1), 100),
    noise=_sub(_noise_spec()),
    rfpe=_sub(_rfpe_spec(50)),
    ipea=_sub(_IPEA_SPEC),
    prior=_sub(_PRIOR_SPEC),
)

_register_kind(
    "phase_noise_sweep",
    truth=(_as_num, 4.8741),
    algorithm=_algo_field(),
    ensemble=(lambda c, p, v: _as_int(c, p, v, lo=1), 50),
    sigma_grid=(lambda c, p, v: _as_grid(c, p, v, lo=0.0),
                list(_DEFAULT_SIGMA_GRID)),
    rfpe_strategy=(_as_strategy, "single_shot"),
    ipea_strategy=(_as_strategy, "majority_vote"),
    noise=_sub(_noise_spec()),
    rfpe=_sub(_rfpe_spec(100)),
    ipea=_sub(_IPEA_SPEC),
    prior=_sub(_PRIOR_SPEC),
)

_register_kind(
    "t2_sweep",
    truth=(_as_num, 4.8741),
    algorithm=_algo_field(),
    ensemble=(lambda c, p, v: _as_int(c, p, v, lo=1), 50),
    t2_grid=(lambda c, p, v: _as_grid(c, p, v, lo=0.0, lo_open=True),
             list(_DEFAULT_T2_GRID)),
    cap_pgh=(_as_bool, True),
    noise=_sub(_noise_spec()),
    rfpe=_sub(_rfpe_spec(100)),
    ipea=_sub(_IPEA_SPEC),
    prior=_sub(_PRIOR_SPEC),
)

_register_kind(
    "t2_convergence",
    truth=(_as_num, 4.8741),
    ensemble=(lambda c, p, v: _as_int(c, p, v, lo=1), 50),
    t2_grid=(lambda c, p, v: _as_grid(c, p, v, lo=0.0, lo_open=True),
             [2.0, 8.0, 32.0, 128.0]),
    cap_pgh=(_as_bool, True),
    noise=_sub(_noise_spec()),
    rfpe=_sub(_rfpe_spec(100)),
    prior=_sub(_PRIOR_SPEC),
)

_register_kind(
    "strategy_comparison",
    truth=(_as_num, 4.8741),
    ensemble=(lambda c, p, v: _as_int(c, p, v, lo=1), 200),
    strategies=(_as_strategies, ["sampled:3", "majority_vote", "single_shot"]),
    noise=_sub(_noise_spec()),
    rfpe=_sub(_rfpe_spec(10)),
    prior=_sub(_PRIOR_SPEC),
)

_register_kind(
    "molecular_scan",
    table=(_as_str, _REQUIRED),
    scale=(lambda c, p, v: None if v is None else _as_num(c, p, v), None),
    offset=(lambda c, p, v: None if v is None else _as_num(c, p, v), None),
    # median-of-5 estimate per point; a lone multimodal run would
    # otherwise sink the whole scan
    ensemble=(lambda c, p, v: _as_int(c, p, v, lo=1), 5),
    noise=_sub(_noise_spec()),
    rfpe=_sub(_rfpe_spec(50)),
    prior=_sub(_PRIOR_SPEC),
)

_register_kind(
    "fidelity_curve",
    truth=(_as_num, 4.8741),
    sigma_grid=(lambda c, p, v: _as_grid(c, p, v, lo=0.0),
                list(_DEFAULT_SIGMA_GRID)),
    samples=(lambda c, p, v: _as_int(c, p, v, lo=1000), 20000),
)

_register_kind(
    "chernoff_curve",
    p0=(lambda c, p, v: _as_num(c, p, v, lo=0.5, hi=1.0, lo_open=True),
        2.0 / 3.0),
    n=(lambda c, p, v: _as_int(c, p, v, lo=1), 500),
    n_bits=(lambda c, p, v: _as_int(c, p, v, lo=2), 16),
    pe_grid=(lambda c, p, v: _as_grid(c, p, v, lo=0.0, hi=1.0, hi_open=True),
             [round(0.02 * i, 2) for i in range(21)]),
)

_register_kind(
    "calibration_fit",
    data=(_as_opt_str, None),
    fringe=_sub(_FRINGE_SPEC),
    restarts=(lambda c, p, v: _as_int(c, p, v, lo=1), 16),
)


def _cross_checks(chk, cfg, raw):
    kind = cfg["kind"]
    if kind == "phase_noise_sweep" and cfg["noise"]["sigma_phase"] != 0.0:
        chk.fail("noise.sigma_phase",
                 "this scenario sweeps sigma_phase; leave it at 0")
    if kind in ("t2_sweep", "t2_convergence"):
        if cfg["noise"]["t2"] is not None:
            chk.fail("noise.t2", "this scenario sweeps t2; leave it null")
        if cfg["rfpe"]["t2_cap"] is not None:
            chk.fail("rfpe.t2_cap",
                     "set by the sweep when cap_pgh is true; leave it null")
    if kind == "calibration_fit":
        if isinstance(raw, dict) and "data" in raw and "fringe" in raw:
            chk.fail("fringe", "give either data or fringe, not both")
        fr = cfg["fringe"]
        if fr["p_max"] <= fr["p_min"]:
            chk.fail("fringe.p_max", "must exceed fringe.p_min")


def validate_config(obj: Any, source: str = "<config>",
                    text: Optional[str] = None) -> dict:
    """Validate and default-fill a scenario; raises ConfigError."""
    chk = _Checker(source, text)
    if not isinstance(obj, dict):
        chk.fail("config", f"expected a JSON object, got {type(obj).__name__}")
    schema = obj.get("schema")
    if schema != SCHEMA_VERSION:
        chk.fail("schema", f"expected {SCHEMA_VERSION!r}, got {schema!r}")
    kind = obj.get("kind")
    if kind not in _KIND_SPECS:
        chk.fail("kind", f"expected one of {sorted(_KIND_SPECS)}, got {kind!r}")
    cfg = _check_mapping(chk, "", obj, _KIND_SPECS[kind])
    _cross_checks(chk, cfg, obj)
    return cfg


def read_config_file(path) -> tuple[str, object]:
    """Text and parsed JSON of a configuration file.

    Unreadable files and invalid JSON raise ConfigError anchored at the
    path (and, for JSON, the offending line).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read configuration: {exc}")
    try:
        return text, json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")


def load_config(path) -> dict:
    path = Path(path)
    text, obj = read_config_file(path)
    return validate_config(obj, source=str(path), text=text)


# --------------------------------------------------------------------------
# Molecular table


@dataclass(frozen=True)
class MolecularRecord:
    distance: float
    eigenphase: float
    reference_energy: float
    scale: float
    offset: float

    def energy(self, phase: float) -> float:
        return self.scale * phase + self.offset


def load_molecular_table(path, scale: Optional[float] = None,
                         offset: Optional[float] = None) -> list[MolecularRecord]:
    """Read (distance, eigenphase, reference_energy, scale, offset) rows.

    The affine phase-to-energy coefficients may instead be supplied
    globally, in which case the columns are optional. Errors name the
    offending row; an empty file yields an empty list.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        names = reader.fieldnames
        if names is None:
            return []
        missing = [c for c in ("distance", "eigenphase", "reference_energy")
                   if c not in names]
        if scale is None and "scale" not in names:
            missing.append("scale")
        if offset is None and "offset" not in names:
            missing.append("offset")
        if missing:
            raise ValueError(f"{path}: missing column(s): {', '.join(missing)}")

        records = []
        for lineno, row in enumerate(reader, start=2):
            def cell(column, fallback=None, lineno=lineno, row=row):
                raw = row.get(column)
                if raw is None or not raw.strip():
                    if fallback is not None:
                        return fallback
                    raise ValueError(f"{path}: row {lineno}: missing {column}")
                try:
                    return float(raw)
                except ValueError:
                    raise ValueError(f"{path}: row {lineno}: {column} is not "
                                     f"a number: {raw!r}")

            phase = cell("eigenphase")
            if not 0.0 <= phase < TWO_PI:
                raise ValueError(f"{path}: row {lineno}: eigenphase {phase!r} "
                                 f"outside [0, 2*pi)")
            records.append(MolecularRecord(
                distance=cell("distance"),
                eigenphase=phase,
                reference_energy=cell("reference_energy"),
                scale=cell("scale", scale),
                offset=cell("offset", offset)))
    return records


# --------------------------------------------------------------------------
# Trial execution


def _streams(payload: dict) -> tuple[np.random.Generator, int]:
    """Derive (oracle rng, algorithm seed) for one trial."""
    root = np.random.SeedSequence([
        int(payload["rng_seed"]), int(payload["kind_tag"]),
        int(payload["algo_tag"]), int(payload["grid"]), int(payload["trial"])])
    oracle_ss, algo_ss = root.spawn(2)
    algo_seed = int(algo_ss.generate_state(1, dtype=np.uint64)[0] >> 1)
    return np.random.default_rng(oracle_ss), algo_seed


def _noise_config(d: dict) -> NoiseConfig:
    return NoiseConfig(sigma_phase=float(d["sigma_phase"]),
                       t2=None if d["t2"] is None else float(d["t2"]),
                       shots=int(d["shots"]),
                       strategy=strategy_from_name(d["strategy"]),
                       poissonian=bool(d["poissonian"]))


def _rfpe_trial(payload: dict) -> dict:
    oracle_rng, algo_seed = _streams(payload)
    oracle = device_oracle_for_phase(payload["truth"],
                                     _noise_config(payload["noise"]),
                                     oracle_rng)
    r = payload["rfpe"]
    config = RfpeConfig(n_particles=r["n_particles"], n_steps=r["n_steps"],
                        kappa_e=r["kappa_e"], t2_cap=r["t2_cap"],
                        rng_seed=algo_seed)
    prior = GaussianBelief(mu=payload["prior"]["mu"],
                           sigma=payload["prior"]["sigma"])
    trace = rfpe_run(oracle, prior, config, truth=payload["truth"])
    return {"errors": [row.error for row in trace],
            "sigmas": [row.posterior.sigma for row in trace],
            "final_mu": trace[-1].posterior.mu}


def _ipea_trial(payload: dict) -> dict:
    oracle_rng, algo_seed = _streams(payload)
    oracle = device_oracle_for_phase(payload["truth"],
                                     _noise_config(payload["noise"]),
                                     oracle_rng)
    i = payload["ipea"]
    config = IpeaConfig(n_bits=i["n_bits"], shots_per_bit=i["shots_per_bit"],
                        rng_seed=algo_seed)
    estimate, records = ipea_run(oracle, config)
    truth = wrap_phase(payload["truth"])
    partial = 0.0
    errors = []
    for rec in records:
        partial += rec.bit * 2.0 ** -rec.k
        errors.append(circular_distance(TWO_PI * partial, truth))
    return {"errors": errors,
            "final": circular_distance(estimate, truth)}


def _run_trials(fn: Callable[[dict], dict], payloads: Sequence[dict],
                workers: int) -> list[dict]:
    if workers <= 1 or len(payloads) < 2:
        return [fn(p) for p in payloads]
    chunk = max(1, len(payloads) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


# --------------------------------------------------------------------------
# Aggregation and file output


def _pct3(values) -> tuple[float, float, float]:
    lo, med, hi = np.percentile(np.asarray(values, dtype=float), [16, 50, 84])
    return float(lo), float(med), float(hi)


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _log_slope(steps, values, start_step=1) -> float:
    xs = [s for s, v in zip(steps, values) if s >= start_step]
    ys = [math.log(max(v, 1e-300))
          for s, v in zip(steps, values) if s >= start_step]
    if len(xs) < 2:
        return 0.0
    return float(np.polyfit(xs, ys, 1)[0])


def _knee_index(values) -> int:
    """Last index reached while contracting at half the peak rate or more.

    An uncertainty trace has up to three regimes: a prior-dominated
    warmup, exponential contraction, and a stall once the measurements
    stop resolving the belief.  The last step whose decrement is still
    at least half the peak decrement marks the end of the exponential
    regime; first-crossing rules fire early on a temporary slowdown,
    and elbow fits land mid-transition, well after learning has slowed.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    if n < 5:
        return n // 2
    dec = -np.diff(y)
    if dec.max() <= 0:
        return n // 2
    idx = np.nonzero(dec >= 0.5 * dec.max())[0]
    return int(idx[-1]) + 1


def _max_adjacent_ratio(medians) -> float:
    """Largest degradation factor between consecutive grid points,
    reading the grid in ascending-quality order (error falls along it)."""
    best = 1.0
    for left, right in zip(medians, medians[1:]):
        best = max(best, max(left, 1e-300) / max(right, 1e-300))
    return float(best)


def _num_slug(v: float) -> str:
    if float(v) == int(v):
        return str(int(v))
    return repr(float(v)).replace(".", "p").replace("-", "m")


def _strategy_slug(name: str) -> str:
    return name.replace(":", "_")


def _median_stderr(values, rng: np.random.Generator, n_boot: int = 200) -> float:
    """Bootstrap standard error of the sample median."""
    vals = np.asarray(values, dtype=float)
    idx = rng.integers(0, vals.size, size=(n_boot, vals.size))
    return float(np.median(vals[idx], axis=1).std(ddof=1))


# --------------------------------------------------------------------------
# Scenario runners


@dataclass
class _RunContext:
    out_dir: Path
    workers: int
    base_dir: Path
    outputs: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def write_csv(self, name, header, rows):
        _write_csv(self.out_dir / name, header, rows)
        if name not in self.outputs:
            self.outputs.append(name)

    def resolve(self, path) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.base_dir / p


def _base_payload(cfg, algo_tag, grid, trial, noise_d, truth=None) -> dict:
    return {"rng_seed": cfg["rng_seed"], "kind_tag": _KIND_TAG[cfg["kind"]],
            "algo_tag": algo_tag, "grid": grid, "trial": trial,
            "noise": noise_d,
            "truth": wrap_phase(cfg["truth"] if truth is None else truth)}


def _rfpe_results(cfg, ctx, noise_d, grid, truth=None, rfpe_over=None) -> list[dict]:
    rfpe_d = dict(cfg["rfpe"], **(rfpe_over or {}))
    payloads = []
    for trial in range(cfg["ensemble"]):
        p = _base_payload(cfg, _ALGO_RFPE, grid, trial, noise_d, truth)
        p["rfpe"] = rfpe_d
        p["prior"] = cfg["prior"]
        payloads.append(p)
    return _run_trials(_rfpe_trial, payloads, ctx.workers)


def _ipea_results(cfg, ctx, noise_d, grid, truth=None) -> list[dict]:
    payloads = []
    for trial in range(cfg["ipea"]["repetitions"]):
        p = _base_payload(cfg, _ALGO_IPEA, grid, trial, noise_d, truth)
        p["ipea"] = cfg["ipea"]
        payloads.append(p)
    return _run_trials(_ipea_trial, payloads, ctx.workers)


_STEP_HEADER = ["step", "median_error", "p16_error", "p84_error",
                "median_sigma"]


def _step_rows(results) -> list[tuple]:
    errors = np.array([r["errors"] for r in results])
    sigmas = np.array([r["sigmas"] for r in results])
    rows = []
    for s in range(errors.shape[1]):
        lo, med, hi = _pct3(errors[:, s])
        rows.append((s + 1, med, lo, hi, float(np.median(sigmas[:, s]))))
    return rows


def _run_convergence(cfg, ctx):
    label = cfg["label"]
    do_rfpe = cfg["algorithm"] in ("rfpe", "both")
    do_ipea = cfg["algorithm"] in ("ipea", "both")
    if do_rfpe:
        results = _rfpe_results(cfg, ctx, cfg["noise"], grid=0)
        rows = _step_rows(results)
        ctx.write_csv(f"{label}_rfpe.csv", _STEP_HEADER, rows)
        finals = np.array([r["errors"][-1] for r in results])
        final_sigmas = np.array([r["sigmas"][-1] for r in results])
        ctx.summary.update({
            "rfpe_final_median_error": float(np.median(finals)),
            "rfpe_log_slope": _log_slope([r[0] for r in rows],
                                         [r[1] for r in rows], start_step=5),
            "rfpe_coverage_2sigma": float(np.mean(finals <= 2.0 * final_sigmas)),
        })
    if do_ipea:
        results = _ipea_results(cfg, ctx, cfg["noise"], grid=0)
        errors = np.array([r["errors"] for r in results])
        rows = []
        for s in range(errors.shape[1]):
            lo, med, hi = _pct3(errors[:, s])
            rows.append((s + 1, med, lo, hi))
        ctx.write_csv(f"{label}_ipea.csv",
                      ["step", "median_error", "p16_error", "p84_error"], rows)
        ctx.summary["ipea_final_median_error"] = float(
            np.median([r["final"] for r in results]))


_SWEEP_HEADER = ["median_error", "p16_error", "p84_error"]


def _run_phase_noise_sweep(cfg, ctx):
    label = cfg["label"]
    do_rfpe = cfg["algorithm"] in ("rfpe", "both")
    do_ipea = cfg["algorithm"] in ("ipea", "both")
    grid = cfg["sigma_grid"]
    rfpe_rows: list[tuple] = []
    ipea_rows: list[tuple] = []

    def flush():
        if rfpe_rows:
            ctx.write_csv(f"{label}_rfpe.csv",
                          ["sigma_phase"] + _SWEEP_HEADER, rfpe_rows)
        if ipea_rows:
            ctx.write_csv(f"{label}_ipea.csv",
                          ["sigma_phase"] + _SWEEP_HEADER, ipea_rows)

    try:
        for gi, sigma in enumerate(grid):
            if do_rfpe:
                noise_d = dict(cfg["noise"], sigma_phase=sigma,
                               strategy=cfg["rfpe_strategy"])
                finals = [r["errors"][-1]
                          for r in _rfpe_results(cfg, ctx, noise_d, gi)]
                lo, med, hi = _pct3(finals)
                rfpe_rows.append((sigma, med, lo, hi))
            if do_ipea:
                noise_d = dict(cfg["noise"], sigma_phase=sigma,
                               strategy=cfg["ipea_strategy"])
                finals = [r["final"]
                          for r in _ipea_results(cfg, ctx, noise_d, gi)]
                lo, med, hi = _pct3(finals)
                ipea_rows.append((sigma, med, lo, hi))
    finally:
        flush()

    summary: dict[str, Any] = {"sigma_grid": [float(s) for s in grid]}
    if rfpe_rows:
        summary["rfpe_median_error"] = [row[1] for row in rfpe_rows]
    if ipea_rows:
        summary["ipea_median_error"] = [row[1] for row in ipea_rows]
    ctx.summary.update(summary)


def _run_t2_sweep(cfg, ctx):
    label = cfg["label"]
    do_rfpe = cfg["algorithm"] in ("rfpe", "both")
    do_ipea = cfg["algorithm"] in ("ipea", "both")
    grid = cfg["t2_grid"]
    rfpe_rows: list[tuple] = []
    ipea_rows: list[tuple] = []

    def flush():
        if rfpe_rows:
            ctx.write_csv(f"{label}_rfpe.csv", ["t2"] + _SWEEP_HEADER,
                          rfpe_rows)
        if ipea_rows:
            ctx.write_csv(f"{label}_ipea.csv", ["t2"] + _SWEEP_HEADER,
                          ipea_rows)

    try:
        for gi, t2 in enumerate(grid):
            noise_d = dict(cfg["noise"], t2=t2)
            if do_rfpe:
                over = {"t2_cap": t2} if cfg["cap_pgh"] else None
                finals = [r["errors"][-1]
                          for r in _rfpe_results(cfg, ctx, noise_d, gi,
                                                 rfpe_over=over)]
                lo, med, hi = _pct3(finals)
                rfpe_rows.append((t2, med, lo, hi))
            if do_ipea:
                finals = [r["final"]
                          for r in _ipea_results(cfg, ctx, noise_d, gi)]
                lo, med, hi = _pct3(finals)
                ipea_rows.append((t2, med, lo, hi))
    finally:
        flush()

    summary: dict[str, Any] = {"t2_grid": [float(t) for t in grid]}
    if rfpe_rows:
        meds = [row[1] for row in rfpe_rows]
        summary["rfpe_median_error"] = meds
        summary["rfpe_max_adjacent_ratio"] = _max_adjacent_ratio(meds)
    if ipea_rows:
        meds = [row[1] for row in ipea_rows]
        summary["ipea_median_error"] = meds
        summary["ipea_max_adjacent_ratio"] = _max_adjacent_ratio(meds)
    ctx.summary.update(summary)


def _run_t2_convergence(cfg, ctx):
    label = cfg["label"]
    knees = []
    for gi, t2 in enumerate(cfg["t2_grid"]):
        noise_d = dict(cfg["noise"], t2=t2)
        over = {"t2_cap": t2} if cfg["cap_pgh"] else None
        results = _rfpe_results(cfg, ctx, noise_d, gi, rfpe_over=over)
        rows = _step_rows(results)
        ctx.write_csv(f"{label}_t2_{_num_slug(t2)}.csv", _STEP_HEADER, rows)
        median_sigma = [row[4] for row in rows]
        k = _knee_index(np.log(median_sigma))
        inv_sigma = 1.0 / median_sigma[k]
        knees.append({"t2": float(t2), "knee_step": int(k + 1),
                      "inv_sigma_at_knee": float(inv_sigma),
                      "inv_sigma_over_t2": float(inv_sigma / t2)})
    ctx.summary["knees"] = knees


def _run_strategy_comparison(cfg, ctx):
    label = cfg["label"]
    per_step: dict[str, dict] = {}
    for gi, name in enumerate(cfg["strategies"]):
        noise_d = dict(cfg["noise"], strategy=name)
        results = _rfpe_results(cfg, ctx, noise_d, gi)
        errors = np.array([r["errors"] for r in results])
        boot_rng = np.random.default_rng(np.random.SeedSequence(
            [cfg["rng_seed"], _KIND_TAG[cfg["kind"]], _ALGO_MISC, gi]))
        rows = []
        medians, stderrs = [], []
        for s in range(errors.shape[1]):
            lo, med, hi = _pct3(errors[:, s])
            se = _median_stderr(errors[:, s], boot_rng)
            rows.append((s + 1, med, lo, hi, se))
            medians.append(med)
            stderrs.append(se)
        ctx.write_csv(f"{label}_{_strategy_slug(name)}.csv",
                      ["step", "median_error", "p16_error", "p84_error",
                       "stderr_median"], rows)
        per_step[name] = {"median": medians, "stderr": stderrs}
    ctx.summary.update({"strategies": list(cfg["strategies"]),
                        "per_step": per_step})


def _run_molecular_scan(cfg, ctx):
    label = cfg["label"]
    try:
        records = load_molecular_table(ctx.resolve(cfg["table"]),
                                       scale=cfg["scale"],
                                       offset=cfg["offset"])
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc))
    if not records:
        raise ConfigError(f"{cfg['table']}: table has no rows; nothing to scan")

    header = ["distance", "eigenphase", "estimated_phase", "phase_error",
              "reference_energy", "estimated_energy", "energy_error_kcal"]
    rows: list[tuple] = []
    try:
        for gi, rec in enumerate(records):
            results = _rfpe_results(cfg, ctx, cfg["noise"], gi,
                                    truth=rec.eigenphase)
            errors = [circular_distance(r["final_mu"], rec.eigenphase)
                      for r in results]
            mid = int(np.argsort(errors)[len(errors) // 2])
            est_phase = float(results[mid]["final_mu"])
            est_energy = rec.energy(est_phase)
            err_kcal = abs(est_energy - rec.reference_energy) * KCAL_PER_HARTREE
            rows.append((rec.distance, rec.eigenphase, est_phase,
                         float(errors[mid]), rec.reference_energy, est_energy,
                         err_kcal))
    finally:
        if rows:
            ctx.write_csv(f"{label}_scan.csv", header, rows)

    errs_kcal = [row[6] for row in rows]
    ctx.summary.update({
        "n_points": len(rows),
        "fraction_within_1kcal": float(np.mean([e < 1.0 for e in errs_kcal])),
        "mean_abs_error_kcal": float(np.mean(errs_kcal)),
        "max_abs_error_kcal": float(np.max(errs_kcal)),
    })


def _run_fidelity_curve(cfg, ctx):
    label = cfg["label"]
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg["rng_seed"], _KIND_TAG[cfg["kind"]], _ALGO_MISC]))
    unitary, prep = phase_gate_instance(wrap_phase(cfg["truth"]))
    points = fidelity_vs_noise(unitary, prep, cfg["sigma_grid"],
                               cfg["samples"], rng)
    rows = [(p.sigma, p.state_fidelity, p.state_stderr, p.gate_fidelity,
             p.gate_stderr) for p in points]
    ctx.write_csv(f"{label}_fidelity.csv",
                  ["sigma", "state_fidelity", "state_stderr", "gate_fidelity",
                   "gate_stderr"], rows)
    ctx.summary.update({
        "sigma_grid": [p.sigma for p in points],
        "state_fidelity": [p.state_fidelity for p in points],
        "gate_fidelity": [p.gate_fidelity for p in points],
    })


def _run_chernoff_curve(cfg, ctx):
    label = cfg["label"]
    p0, n, n_bits = cfg["p0"], cfg["n"], cfg["n_bits"]
    rows = []
    worst_gap = math.inf
    for pe in cfg["pe_grid"]:
        scenario = voting.VotingScenario(p0=p0, pe=pe, n=n, n_bits=n_bits)
        eff = voting.effective_probability(scenario)
        bound = voting.chernoff_bound(eff, n)
        tail = voting.exact_minority_tail(eff, n)
        rows.append((pe, eff, bound, tail,
                     voting.expected_bad_bits(scenario)))
        worst_gap = min(worst_gap, bound - tail)
    ctx.write_csv(f"{label}_chernoff.csv",
                  ["pe", "effective_p", "chernoff_bound", "exact_tail",
                   "expected_bad_bits"], rows)
    ctx.summary.update({
        "p0": float(p0), "n": int(n), "n_bits": int(n_bits),
        "min_bound_minus_tail": float(worst_gap),
        "critical_signal_default": voting.critical_signal(n_bits, n, 0.0),
        "critical_signal_exact": voting.critical_signal(n_bits, n, 0.0,
                                                        mode="exact"),
    })


def _run_calibration_fit(cfg, ctx):
    label = cfg["label"]
    truth = None
    if cfg["data"] is not None:
        samples = load_fringe_csv(ctx.resolve(cfg["data"]))
    else:
        fr = cfg["fringe"]
        truth = {k: fr[k] for k in ("b", "a", "t", "p_phi")}
        rng = np.random.default_rng(np.random.SeedSequence(
            [cfg["rng_seed"], _KIND_TAG[cfg["kind"]], _ALGO_MISC, 0]))
        p_el = np.linspace(fr["p_min"], fr["p_max"], fr["n_points"])
        p_op = fringe_model(fr["b"], fr["a"], fr["t"], fr["p_phi"], p_el) \
            + rng.normal(0.0, fr["sigma_op"], size=p_el.size)
        samples = [FringeSample(float(x), float(y))
                   for x, y in zip(p_el, p_op)]

    fit_rng = np.random.default_rng(np.random.SeedSequence(
        [cfg["rng_seed"], _KIND_TAG[cfg["kind"]], _ALGO_MISC, 1]))
    fit = fit_fringe(samples, restarts=cfg["restarts"], rng=fit_rng)

    rows = []
    for s in samples:
        model = fringe_model(fit.b, fit.a, fit.t, fit.p_phi, s.p_el)
        rows.append((s.p_el, s.p_op, model, s.p_op - model))
    ctx.write_csv(f"{label}_fringe.csv",
                  ["p_el", "p_op", "p_op_fit", "residual"], rows)

    report_name = f"{label}_report.json"
    fit_report_json(fit, ctx.out_dir / report_name)
    ctx.outputs.append(report_name)

    span = (min(s.p_el for s in samples), max(s.p_el for s in samples))
    summary = {
        "params": {"b": fit.b, "a": fit.a, "t": fit.t, "p_phi": fit.p_phi},
        "std_errors": dict(zip(("b", "a", "t", "p_phi"), fit.std_errors)),
        "r_squared": fit.r_squared,
        "propagated_sigma_phase": propagate_phase_uncertainty(fit, span),
        "n_samples": fit.n_samples,
    }
    if truth is not None:
        summary["truth"] = truth
    ctx.summary.update(summary)


_RUNNERS = {
    "convergence": _run_convergence,
    "phase_noise_sweep": _run_phase_noise_sweep,
    "t2_sweep": _run_t2_sweep,
    "t2_convergence": _run_t2_convergence,
    "strategy_comparison": _run_strategy_comparison,
    "molecular_scan": _run_molecular_scan,
    "fidelity_curve": _run_fidelity_curve,
    "chernoff_curve": _run_chernoff_curve,
    "calibration_fit": _run_calibration_fit,
}


# --------------------------------------------------------------------------
# Plot wiring


def _band():
    return ("p16_error", "p84_error")


def _plot_scenario(cfg, ctx) -> Optional[str]:
    kind, label = cfg["kind"], cfg["label"]
    out = ctx.out_dir
    paths: list[Path] = []
    layers: list[Layer] = []

    def add(name, y, layer_label, band=None):
        path = out / name
        if not path.exists():
            return
        paths.append(path)
        layers.append(Layer(source=len(paths) - 1, y=y, label=layer_label,
                            band=band))

    if kind == "convergence":
        add(f"{label}_rfpe.csv", "median_error", "RFPE", _band())
        add(f"{label}_ipea.csv", "median_error", "IPEA", _band())
        spec = PlotSpec(x="step", layers=tuple(layers),
                        title="Phase estimation convergence",
                        x_label="step", y_label="median error (rad)",
                        log_y=True)
    elif kind == "phase_noise_sweep":
        add(f"{label}_rfpe.csv", "median_error", "RFPE", _band())
        add(f"{label}_ipea.csv", "median_error", "IPEA", _band())
        spec = PlotSpec(x="sigma_phase", layers=tuple(layers),
                        title="Robustness to phase noise",
                        x_label="sigma_phase (rad)",
                        y_label="median final error (rad)", log_y=True)
    elif kind == "t2_sweep":
        add(f"{label}_rfpe.csv", "median_error", "RFPE", _band())
        add(f"{label}_ipea.csv", "median_error", "IPEA", _band())
        spec = PlotSpec(x="t2", layers=tuple(layers),
                        title="Robustness to decoherence",
                        x_label="T2 (gate applications)",
                        y_label="median final error (rad)",
                        log_x=True, log_y=True)
    elif kind == "t2_convergence":
        for t2 in cfg["t2_grid"]:
            add(f"{label}_t2_{_num_slug(t2)}.csv", "median_error",
                f"T2={_num_slug(t2)}")
        spec = PlotSpec(x="step", layers=tuple(layers),
                        title="Convergence under decoherence",
                        x_label="step", y_label="median error (rad)",
                        log_y=True)
    elif kind == "strategy_comparison":
        for name in cfg["strategies"]:
            add(f"{label}_{_strategy_slug(name)}.csv", "median_error", name)
        spec = PlotSpec(x="step", layers=tuple(layers),
                        title="Readout strategies",
                        x_label="step", y_label="median error (rad)",
                        log_y=True)
    elif kind == "molecular_scan":
        add(f"{label}_scan.csv", "estimated_energy", "estimated")
        if paths:
            layers.append(Layer(source=0, y="reference_energy",
                                label="reference"))
        spec = PlotSpec(x="distance", layers=tuple(layers),
                        title="Dissociation curve",
                        x_label="distance (Angstrom)",
                        y_label="energy (Hartree)")
    elif kind == "fidelity_curve":
        add(f"{label}_fidelity.csv", "state_fidelity", "state")
        if paths:
            layers.append(Layer(source=0, y="gate_fidelity", label="gate"))
        spec = PlotSpec(x="sigma", layers=tuple(layers),
                        title="Fidelity under phase noise",
                        x_label="sigma_phase (rad)", y_label="fidelity")
    elif kind == "chernoff_curve":
        add(f"{label}_chernoff.csv", "chernoff_bound", "Chernoff bound")
        if paths:
            layers.append(Layer(source=0, y="exact_tail", label="exact tail"))
        spec = PlotSpec(x="pe", layers=tuple(layers),
                        title="Majority-vote failure probability",
                        x_label="per-shot error probability",
                        y_label="minority-outcome probability", log_y=True)
    elif kind == "calibration_fit":
        add(f"{label}_fringe.csv", "p_op", "data")
        if paths:
            layers.append(Layer(source=0, y="p_op_fit", label="fit"))
        spec = PlotSpec(x="p_el", layers=tuple(layers),
                        title="Thermo-optic fringe calibration",
                        x_label="electrical power (mW)",
                        y_label="optical power (arb.)")
    else:  # pragma: no cover - kinds table is closed
        return None

    if not layers:
        return None
    name = f"{label}.svg"
    emit_plot(paths, spec, out / name)
    return name


# --------------------------------------------------------------------------
# Entry points


def run_scenario_config(config: dict, out_dir=None, workers: int = 1,
                        plot: bool = False, source: str = "<config>",
                        text: Optional[str] = None, base_dir=None) -> dict:
    """Validate, execute, and persist one scenario; returns the manifest.

    The output directory resolves as: explicit argument, then the
    configuration's out_dir, then the RFPE_LAB_OUT_DIR environment
    variable, then ./results. On mid-run failure the completed series
    are flushed and the manifest is written with complete = false
    before the exception propagates.
    """
    cfg = validate_config(config, source=source, text=text)
    chosen = out_dir if out_dir is not None else cfg["out_dir"]
    if chosen is None:
        chosen = os.environ.get(OUT_DIR_ENV) or "results"
    resolved = Path(chosen)
    resolved.mkdir(parents=True, exist_ok=True)
    ctx = _RunContext(out_dir=resolved, workers=max(1, int(workers)),
                      base_dir=Path(base_dir) if base_dir is not None
                      else Path.cwd())

    caught: Optional[BaseException] = None
    try:
        _RUNNERS[cfg["kind"]](cfg, ctx)
        if plot:
            svg = _plot_scenario(cfg, ctx)
            if svg is not None:
                ctx.outputs.append(svg)
    except BaseException as exc:
        caught = exc
        raise
    finally:
        # A configuration-level refusal that produced nothing leaves no
        # files behind; anything else gets a manifest, marked incomplete
        # on failure.
        if not (isinstance(caught, ConfigError) and not ctx.outputs):
            manifest = {
                "schema": SCHEMA_VERSION,
                "kind": cfg["kind"],
                "label": cfg["label"],
                "seed": cfg["rng_seed"],
                "config": cfg,
                "criteria": _CRITERIA[cfg["kind"]],
                "outputs": list(ctx.outputs),
                "summary": ctx.summary,
                "complete": caught is None,
                "error": None if caught is None
                         else f"{type(caught).__name__}: {caught}",
            }
            with open(resolved / f"{cfg['label']}_manifest.json", "w",
                      encoding="utf-8", newline="\n") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
    return manifest


def run_scenario(path, out_dir=None, workers: int = 1,
                 plot: bool = False) -> dict:
    """Execute the scenario configuration file at `path`."""
    cfg_path = Path(path)
    text, obj = read_config_file(cfg_path)
    return run_scenario_config(obj, out_dir=out_dir, workers=workers,
                               plot=plot, source=str(cfg_path), text=text,
                               base_dir=cfg_path.parent)
