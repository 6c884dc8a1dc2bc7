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
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
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
from .noise import NoiseConfig, readouts
from .phases import TWO_PI, FieldError, circular_distance, wrap_phase
from .rfpe import GaussianBelief, RfpeConfig, rfpe_run
from .svgplot import Layer, PlotSpec, emit_plot

SCHEMA_VERSION = "rfpe-lab/1"
KCAL_PER_HARTREE = 627.509
OUT_DIR_ENV = "RFPE_LAB_OUT_DIR"

_ALGO_RFPE, _ALGO_IPEA, _ALGO_MISC = 0, 1, 2


class ConfigError(ValueError):
    """Scenario configuration rejected; message carries source:line."""


# --------------------------------------------------------------------------
# Configuration validation


def _key_line(text: Optional[str], path: str) -> int:
    """Best-effort line anchor: first line where the leaf is a key."""
    if not text:
        return 1
    leaf = path.split(".")[-1].split("[")[0]
    if leaf:
        token = re.compile(rf'"{re.escape(leaf)}"\s*:')
        for lineno, line in enumerate(text.splitlines(), 1):
            if token.search(line):
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


def _as_int(chk, path, v, lo=None):
    if isinstance(v, bool) or not isinstance(v, int):
        chk.fail(path, f"expected an integer, got {v!r}")
    if lo is not None and v < lo:
        chk.fail(path, f"must be >= {lo}, got {v}")
    return v


def _as_num(chk, path, v, lo=None, hi=None, lo_open=False, hi_open=False):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        chk.fail(path, f"expected a number, got {v!r}")
    try:
        out = float(v)
    except OverflowError:  # an integer past the float range
        out = math.inf if v > 0 else -math.inf
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


def _as_list(chk, path, v, item=_as_num, what="numbers", **bounds):
    if not isinstance(v, list) or not v:
        chk.fail(path, f"expected a non-empty list of {what}, got {v!r}")
    return [item(chk, f"{path}[{i}]", x, **bounds) for i, x in enumerate(v)]


def _as_strategy(chk, path, v):
    name = _as_str(chk, path, v)
    try:
        readouts(name)
    except ValueError as exc:
        chk.fail(path, str(exc))
    return name


def _optional(fn):
    """The validator `fn`, also accepting null."""
    return lambda c, p, v: None if v is None else fn(c, p, v)


def _key(fn, default, **options):
    """Field pair: the validator `fn` with `options`, and the default."""
    return (lambda c, p, v: fn(c, p, v, **options), default)


def _as_label(chk, path, v):
    name = _as_str(chk, path, v)
    ok = name and all(c.isalnum() or c in "_.-" for c in name) \
        and not name.startswith((".", "-"))
    if not ok:
        chk.fail(path, f"label must be a simple file-name stem, got {name!r}")
    return name


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


def _sub(spec_dict, build=lambda values: None):
    """Field pair for a nested object; `build(values)` may raise FieldError."""
    def check(chk, path, value):
        out = _check_mapping(chk, path, value, spec_dict)
        try:
            build(out)
        except FieldError as exc:
            chk.fail(_join(path, exc.args[0]), exc.args[1])
        return out
    return check, check(_Checker("<defaults>", None), "", {})


# the JSON type check of each config-field annotation
_BY_ANNOTATION = {"int": _as_int, "float": _as_num, "bool": _as_bool,
                  "str": _as_str, "Optional[float]": _optional(_as_num)}


def _config(cls, *swept, **study):
    """Field pair for an object keyed by the fields of `cls` but rng_seed
    and the `swept` ones, which the study sets itself at each grid point.

    Keys take the field defaults, the JSON types of the annotations and,
    as the values build one `cls`, its bounds; `study` adds or replaces
    keys. The config keeps the user's values, not the built instance's.
    """
    own = [f for f in fields(cls) if f.name not in ("rng_seed", *swept)]
    spec = {f.name: (_BY_ANNOTATION[f.type], f.default) for f in own} | study
    return _sub(spec, lambda out: cls(**{f.name: out[f.name] for f in own}))


_FRINGE_SPEC = {
    "b": (_as_num, 0.55),
    "a": _key(_as_num, 0.45, lo=0.0, lo_open=True),
    "t": _key(_as_num, 75.0, lo=0.0, lo_open=True),
    "p_phi": (_as_num, 42.5),
    "sigma_op": _key(_as_num, 0.02, lo=0.0),
    "n_points": _key(_as_int, 40, lo=8),
    "p_min": _key(_as_num, 5.0, lo=0.0),
    "p_max": _key(_as_num, 80.0, lo=0.0, lo_open=True),
}

_DEFAULT_SIGMA_GRID = [round(0.05 * i, 2) for i in range(12)]


def _common_spec(kind):
    return {
        "schema": _key(_as_str, SCHEMA_VERSION, choices={SCHEMA_VERSION}),
        "kind": _key(_as_str, kind, choices=set(KINDS)),
        "rng_seed": _key(_as_int, 0, lo=0),
        "label": (_as_label, kind),
        "out_dir": (_optional(_as_str), None),
    }


_ALGORITHM = _key(_as_str, "both", choices={"rfpe", "ipea", "both"})
_TRUTH = (_as_num, 4.8741)
_count = partial(_key, _as_int, lo=1)  # field pair for a positive integer

_NOISE = _config(NoiseConfig)
_IPEA = _config(IpeaConfig, repetitions=_count(10))
_PRIOR = _config(GaussianBelief, mu=(_as_num, math.pi),
                 sigma=(_as_num, math.pi))


def _rfpe(n_steps, *swept):
    # each runner reads the last step, so a study needs one
    return _config(RfpeConfig, *swept, n_steps=_count(n_steps))


def _cross_checks(chk, cfg, raw):
    kind = cfg["kind"]
    if kind in ("t2_sweep", "t2_convergence") and cfg["cap_pgh"]:
        for i, t2 in enumerate(cfg["t2_grid"]):
            if t2 < 1.0:
                chk.fail(f"t2_grid[{i}]", "cap_pgh caps m at this T2, and a "
                         f"cap below one gate time is unusable, got {t2}")
    # each value names one output file, so a repeat would overwrite one
    listed = {"t2_convergence": "t2_grid",
              "strategy_comparison": "strategies"}.get(kind)
    for i, value in enumerate(cfg[listed] if listed else ()):
        if value in cfg[listed][:i]:
            chk.fail(f"{listed}[{i}]", f"repeats {value!r}; each value "
                                       "names one output file")
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
    if not isinstance(kind, str) or kind not in _KINDS:
        chk.fail("kind", f"expected one of {sorted(_KINDS)}, got {kind!r}")
    cfg = _check_mapping(chk, "", obj, _common_spec(kind) | _KINDS[kind].spec)
    _cross_checks(chk, cfg, obj)
    return cfg


def _unique_keys(pairs) -> dict:
    """`object_pairs_hook` raising KeyError(key) for a key named twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise KeyError(key)
        out[key] = value
    return out


def read_config_file(path) -> tuple[str, object]:
    """Text and parsed JSON of a configuration file.

    Unreadable files, invalid JSON and an object that repeats a key
    raise ConfigError anchored at the path (and, for JSON, a line).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read configuration: {exc}")
    try:
        return text, json.loads(text, object_pairs_hook=_unique_keys)
    except KeyError as exc:  # from _unique_keys
        _Checker(str(path), text).fail(exc.args[0], "repeated key")
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ConfigError(f"{path}:{getattr(exc, 'lineno', 1)}: invalid JSON: "
                          f"{getattr(exc, 'msg', exc)}")


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


def _seed(cfg, algo_tag, *key) -> np.random.SeedSequence:
    """Root of one random stream of a study: (seed, kind, algorithm, *key)."""
    return np.random.SeedSequence(
        [cfg["rng_seed"], _KIND_TAG[cfg["kind"]], algo_tag, *key])


@dataclass(frozen=True)
class _Trial:
    """One estimator run: its stream root, target, noise, config and prior."""

    seed: np.random.SeedSequence
    truth: float
    noise: NoiseConfig
    config: RfpeConfig | IpeaConfig
    prior: Optional[GaussianBelief] = None


def _start(trial: _Trial):
    """The trial's oracle, and its config seeded from the algorithm stream.

    Spawning counts children on the seed itself, so a trial runs once.
    """
    oracle_ss, algo_ss = trial.seed.spawn(2)
    algo_seed = int(algo_ss.generate_state(1, dtype=np.uint64)[0] >> 1)
    oracle = device_oracle_for_phase(trial.truth, trial.noise,
                                     np.random.default_rng(oracle_ss))
    return oracle, replace(trial.config, rng_seed=algo_seed)


def _rfpe_trial(trial: _Trial) -> dict:
    oracle, config = _start(trial)
    trace = rfpe_run(oracle, trial.prior, config, truth=trial.truth)
    return {"errors": [row.error for row in trace],
            "sigmas": [row.posterior.sigma for row in trace],
            "final_mu": trace[-1].posterior.mu}


def _ipea_trial(trial: _Trial) -> dict:
    oracle, config = _start(trial)
    estimate, records = ipea_run(oracle, config)
    partial = 0.0
    errors = []
    for rec in records:
        partial += rec.bit * 2.0 ** -rec.k
        errors.append(circular_distance(TWO_PI * partial, trial.truth))
    return {"errors": errors,
            "final": circular_distance(estimate, trial.truth)}


def _run_trials(fn: Callable[[_Trial], dict], trials: Sequence[_Trial],
                workers: int) -> list[dict]:
    if workers <= 1 or len(trials) < 2:
        return [fn(t) for t in trials]
    chunk = max(1, len(trials) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, trials, chunksize=chunk))


def _results(cfg, ctx, algo, noise_d, grid, truth=None,
             rfpe_over=None) -> list[dict]:
    """One ensemble of `algo` ("rfpe" or "ipea") at grid point `grid`."""
    noise = NoiseConfig(**noise_d)
    truth = wrap_phase(cfg["truth"] if truth is None else truth)
    if algo == "rfpe":
        tag, fn, n_trials = _ALGO_RFPE, _rfpe_trial, cfg["ensemble"]
        config = RfpeConfig(**{**cfg["rfpe"], **(rfpe_over or {})})
        prior = GaussianBelief(**cfg["prior"])
    else:
        ipea = cfg["ipea"]
        tag, fn, n_trials = _ALGO_IPEA, _ipea_trial, ipea["repetitions"]
        config = IpeaConfig(n_bits=ipea["n_bits"],
                            shots_per_bit=ipea["shots_per_bit"])
        prior = None
    trials = [_Trial(_seed(cfg, tag, grid, trial), truth, noise, config, prior)
              for trial in range(n_trials)]
    return _run_trials(fn, trials, ctx.workers)


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
    series: list = field(default_factory=list)  # (CSV name, plot legend)

    def write_csv(self, name, header, rows, legend=None):
        _write_csv(self.out_dir / name, header, rows)
        if name not in self.outputs:
            self.outputs.append(name)
            self.series.append((name, legend))

    def read(self, load, path, **options):
        """`load` the input file at `path` from base_dir, or a ConfigError."""
        try:
            return load(self.base_dir / path, **options)
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc))


_STEP_HEADER = ["step", "median_error", "p16_error", "p84_error"]


def _step_rows(errors, *extra_columns) -> list[tuple]:
    """Per-step rows of a trials x steps error table: step, median, p16,
    p84, then the step's entry of each extra per-step column."""
    errors = np.asarray(errors, dtype=float)
    rows = []
    for s in range(errors.shape[1]):
        lo, med, hi = _pct3(errors[:, s])
        rows.append((s + 1, med, lo, hi, *(col[s] for col in extra_columns)))
    return rows


def _rfpe_step_rows(results) -> list[tuple]:
    return _step_rows([r["errors"] for r in results],
                      np.median([r["sigmas"] for r in results], axis=0))


def _run_convergence(cfg, ctx):
    label = cfg["label"]
    if cfg["algorithm"] in ("rfpe", "both"):
        results = _results(cfg, ctx, "rfpe", cfg["noise"], grid=0)
        rows = _rfpe_step_rows(results)
        ctx.write_csv(f"{label}_rfpe.csv", _STEP_HEADER + ["median_sigma"],
                      rows, "RFPE")
        finals = np.array([r["errors"][-1] for r in results])
        final_sigmas = np.array([r["sigmas"][-1] for r in results])
        ctx.summary.update({
            "rfpe_final_median_error": float(np.median(finals)),
            "rfpe_log_slope": _log_slope([r[0] for r in rows],
                                         [r[1] for r in rows], start_step=5),
            "rfpe_coverage_2sigma": float(np.mean(finals <= 2.0 * final_sigmas)),
        })
    if cfg["algorithm"] in ("ipea", "both"):
        results = _results(cfg, ctx, "ipea", cfg["noise"], grid=0)
        ctx.write_csv(f"{label}_ipea.csv", _STEP_HEADER,
                      _step_rows([r["errors"] for r in results]), "IPEA")
        ctx.summary["ipea_final_median_error"] = float(
            np.median([r["final"] for r in results]))


def _sweep(cfg, ctx, axis, grid_key, point) -> dict[str, list[float]]:
    """Final-error percentiles of each enabled algorithm along a grid.

    `point(value)` gives the RFPE noise, the RFPE overrides and the IPEA
    noise at one grid value. Returns the median errors per algorithm;
    on failure the rows finished so far are written before it raises.
    """
    grid = cfg[grid_key]
    rows: dict[str, list[tuple]] = {
        algo: [] for algo in ("rfpe", "ipea")
        if cfg["algorithm"] in (algo, "both")}
    try:
        for gi, value in enumerate(grid):
            rfpe_noise, rfpe_over, ipea_noise = point(value)
            if "rfpe" in rows:
                finals = [r["errors"][-1] for r in _results(
                    cfg, ctx, "rfpe", rfpe_noise, gi, rfpe_over=rfpe_over)]
                lo, med, hi = _pct3(finals)
                rows["rfpe"].append((value, med, lo, hi))
            if "ipea" in rows:
                finals = [r["final"] for r in _results(
                    cfg, ctx, "ipea", ipea_noise, gi)]
                lo, med, hi = _pct3(finals)
                rows["ipea"].append((value, med, lo, hi))
    finally:
        for algo, done in rows.items():
            if done:
                ctx.write_csv(f"{cfg['label']}_{algo}.csv",
                              [axis, "median_error", "p16_error", "p84_error"],
                              done, algo.upper())

    medians = {algo: [row[1] for row in done] for algo, done in rows.items()}
    ctx.summary[grid_key] = [float(v) for v in grid]
    for algo, meds in medians.items():
        ctx.summary[f"{algo}_median_error"] = meds
    return medians


def _run_phase_noise_sweep(cfg, ctx):
    def point(sigma):
        return (dict(cfg["noise"], sigma_phase=sigma,
                     strategy=cfg["rfpe_strategy"]), None,
                dict(cfg["noise"], sigma_phase=sigma,
                     strategy=cfg["ipea_strategy"]))

    _sweep(cfg, ctx, "sigma_phase", "sigma_grid", point)


def _t2_point(cfg, t2):
    """RFPE noise, RFPE overrides and IPEA noise at one T2 grid value."""
    noise_d = dict(cfg["noise"], t2=t2)
    return noise_d, {"t2_cap": t2} if cfg["cap_pgh"] else None, noise_d


def _run_t2_sweep(cfg, ctx):
    medians = _sweep(cfg, ctx, "t2", "t2_grid", lambda t2: _t2_point(cfg, t2))
    for algo, meds in medians.items():
        ctx.summary[f"{algo}_max_adjacent_ratio"] = _max_adjacent_ratio(meds)


def _run_t2_convergence(cfg, ctx):
    label = cfg["label"]
    knees = []
    for gi, t2 in enumerate(cfg["t2_grid"]):
        noise_d, over, _ = _t2_point(cfg, t2)
        rows = _rfpe_step_rows(_results(cfg, ctx, "rfpe", noise_d, gi,
                                        rfpe_over=over))
        ctx.write_csv(f"{label}_t2_{_num_slug(t2)}.csv",
                      _STEP_HEADER + ["median_sigma"], rows,
                      f"T2={_num_slug(t2)}")
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
        errors = np.array([r["errors"] for r in _results(
            cfg, ctx, "rfpe", noise_d, gi)])
        boot_rng = np.random.default_rng(_seed(cfg, _ALGO_MISC, gi))
        stderrs = [_median_stderr(col, boot_rng) for col in errors.T]
        rows = _step_rows(errors, stderrs)
        ctx.write_csv(f"{label}_{name.replace(':', '_')}.csv",
                      _STEP_HEADER + ["stderr_median"], rows, name)
        per_step[name] = {"median": [row[1] for row in rows],
                          "stderr": stderrs}
    ctx.summary.update({"strategies": list(cfg["strategies"]),
                        "per_step": per_step})


def _run_molecular_scan(cfg, ctx):
    label = cfg["label"]
    records = ctx.read(load_molecular_table, cfg["table"],
                       scale=cfg["scale"], offset=cfg["offset"])
    if not records:
        raise ConfigError(f"{cfg['table']}: table has no rows; nothing to scan")

    header = ["distance", "eigenphase", "estimated_phase", "phase_error",
              "reference_energy", "estimated_energy", "energy_error_kcal"]
    rows: list[tuple] = []
    try:
        for gi, rec in enumerate(records):
            results = _results(cfg, ctx, "rfpe", cfg["noise"], gi,
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
    rng = np.random.default_rng(_seed(cfg, _ALGO_MISC))
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
        samples = ctx.read(load_fringe_csv, cfg["data"])
    else:
        fr = cfg["fringe"]
        truth = {k: fr[k] for k in ("b", "a", "t", "p_phi")}
        rng = np.random.default_rng(_seed(cfg, _ALGO_MISC, 0))
        p_el = np.linspace(fr["p_min"], fr["p_max"], fr["n_points"])
        p_op = fringe_model(fr["b"], fr["a"], fr["t"], fr["p_phi"], p_el) \
            + rng.normal(0.0, fr["sigma_op"], size=p_el.size)
        samples = [FringeSample(float(x), float(y))
                   for x, y in zip(p_el, p_op)]

    fit_rng = np.random.default_rng(_seed(cfg, _ALGO_MISC, 1))
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


# --------------------------------------------------------------------------
# The study kinds


@dataclass(frozen=True)
class _Kind:
    """Everything the harness knows about one study kind.

    Each CSV the runner writes becomes one plot source; every (y column,
    legend) pair of `ys` draws one layer from it, and a legend of None
    takes the legend the runner gave the CSV.
    """

    spec: dict  # configuration keys beyond the common ones
    # acceptance criteria its outputs exercise; every kind lists 11,
    # the byte-identical re-run contract
    criteria: list
    run: Callable[[dict, _RunContext], None]
    plot: dict  # PlotSpec fields other than the layers
    ys: tuple[tuple[str, Optional[str]], ...]
    band: Optional[tuple[str, str]] = None


_MEDIAN = (("median_error", None),)
_BAND = ("p16_error", "p84_error")
_ERROR_AXIS = dict(log_y=True, y_label="median error (rad)")
_FINAL_ERROR_AXIS = dict(log_y=True, y_label="median final error (rad)")

# Insertion order is KINDS, and a kind's index in it seeds its trial
# streams: append new kinds, never reorder.
_KINDS = {
    "convergence": _Kind(
        spec=dict(truth=_TRUTH, algorithm=_ALGORITHM, ensemble=_count(100),
                  noise=_NOISE, rfpe=_rfpe(50), ipea=_IPEA, prior=_PRIOR),
        criteria=[1, 2, 11], run=_run_convergence,
        plot=dict(x="step", title="Phase estimation convergence",
                  x_label="step", **_ERROR_AXIS),
        ys=_MEDIAN, band=_BAND),
    "phase_noise_sweep": _Kind(
        spec=dict(truth=_TRUTH, algorithm=_ALGORITHM, ensemble=_count(50),
                  sigma_grid=_key(_as_list, _DEFAULT_SIGMA_GRID, lo=0.0),
                  rfpe_strategy=(_as_strategy, "single_shot"),
                  ipea_strategy=(_as_strategy, "majority_vote"),
                  noise=_config(NoiseConfig, "sigma_phase", "strategy"),
                  rfpe=_rfpe(100), ipea=_IPEA, prior=_PRIOR),
        criteria=[4, 11], run=_run_phase_noise_sweep,
        plot=dict(x="sigma_phase", title="Robustness to phase noise",
                  x_label="sigma_phase (rad)", **_FINAL_ERROR_AXIS),
        ys=_MEDIAN, band=_BAND),
    "t2_sweep": _Kind(
        spec=dict(truth=_TRUTH, algorithm=_ALGORITHM, ensemble=_count(50),
                  t2_grid=_key(_as_list, [float(2 ** i) for i in range(9)],
                               lo=0.0, lo_open=True),
                  cap_pgh=(_as_bool, True), noise=_config(NoiseConfig, "t2"),
                  rfpe=_rfpe(100, "t2_cap"), ipea=_IPEA, prior=_PRIOR),
        criteria=[6, 11], run=_run_t2_sweep,
        plot=dict(x="t2", title="Robustness to decoherence",
                  x_label="T2 (gate applications)", log_x=True,
                  **_FINAL_ERROR_AXIS),
        ys=_MEDIAN, band=_BAND),
    "t2_convergence": _Kind(
        spec=dict(truth=_TRUTH, ensemble=_count(50),
                  t2_grid=_key(_as_list, [2.0, 8.0, 32.0, 128.0], lo=0.0,
                               lo_open=True),
                  cap_pgh=(_as_bool, True), noise=_config(NoiseConfig, "t2"),
                  rfpe=_rfpe(100, "t2_cap"), prior=_PRIOR),
        criteria=[6, 11], run=_run_t2_convergence,
        plot=dict(x="step", title="Convergence under decoherence",
                  x_label="step", **_ERROR_AXIS),
        ys=_MEDIAN),
    "strategy_comparison": _Kind(
        spec=dict(truth=_TRUTH, ensemble=_count(200),
                  strategies=_key(_as_list, ["sampled:3", "majority_vote",
                                             "single_shot"],
                                  item=_as_strategy, what="strategy names"),
                  noise=_config(NoiseConfig, "strategy"), rfpe=_rfpe(10),
                  prior=_PRIOR),
        criteria=[7, 11], run=_run_strategy_comparison,
        plot=dict(x="step", title="Readout strategies", x_label="step",
                  **_ERROR_AXIS),
        ys=_MEDIAN),
    "molecular_scan": _Kind(
        spec=dict(table=(_as_str, _REQUIRED),
                  scale=(_optional(_as_num), None),
                  offset=(_optional(_as_num), None),
                  # median-of-5 estimate per point; a lone multimodal run
                  # would otherwise sink the whole scan
                  ensemble=_count(5),
                  noise=_NOISE, rfpe=_rfpe(50), prior=_PRIOR),
        criteria=[10, 11], run=_run_molecular_scan,
        plot=dict(x="distance", title="Dissociation curve",
                  x_label="distance (Angstrom)", y_label="energy (Hartree)"),
        ys=(("estimated_energy", "estimated"),
            ("reference_energy", "reference"))),
    "fidelity_curve": _Kind(
        spec=dict(truth=_TRUTH,
                  sigma_grid=_key(_as_list, _DEFAULT_SIGMA_GRID, lo=0.0),
                  samples=_key(_as_int, 20000, lo=1000)),
        criteria=[5, 11], run=_run_fidelity_curve,
        plot=dict(x="sigma", title="Fidelity under phase noise",
                  x_label="sigma_phase (rad)", y_label="fidelity"),
        ys=(("state_fidelity", "state"), ("gate_fidelity", "gate"))),
    "chernoff_curve": _Kind(
        spec=dict(p0=_key(_as_num, 2.0 / 3.0, lo=0.5, hi=1.0, lo_open=True),
                  n=_count(500), n_bits=_key(_as_int, 16, lo=2),
                  pe_grid=_key(_as_list, [round(0.02 * i, 2)
                                          for i in range(21)],
                               lo=0.0, hi=1.0, hi_open=True)),
        criteria=[8, 11], run=_run_chernoff_curve,
        plot=dict(x="pe", title="Majority-vote failure probability",
                  x_label="per-shot error probability",
                  y_label="minority-outcome probability", log_y=True),
        ys=(("chernoff_bound", "Chernoff bound"),
            ("exact_tail", "exact tail"))),
    "calibration_fit": _Kind(
        spec=dict(data=(_optional(_as_str), None), fringe=_sub(_FRINGE_SPEC),
                  restarts=_count(16)),
        criteria=[9, 11], run=_run_calibration_fit,
        plot=dict(x="p_el", title="Thermo-optic fringe calibration",
                  x_label="electrical power (mW)",
                  y_label="optical power (arb.)"),
        ys=(("p_op", "data"), ("p_op_fit", "fit"))),
}

KINDS = tuple(_KINDS)
_KIND_TAG = {name: index for index, name in enumerate(KINDS)}


def _plot(cfg, ctx) -> str:
    """Draw the CSVs the runner wrote, in the order it wrote them."""
    kind = _KINDS[cfg["kind"]]
    layers = tuple(Layer(source=i, y=y, label=legend or series_legend,
                         band=kind.band)
                   for i, (_, series_legend) in enumerate(ctx.series)
                   for y, legend in kind.ys)
    name = f"{cfg['label']}.svg"
    emit_plot([ctx.out_dir / csv_name for csv_name, _ in ctx.series],
              PlotSpec(layers=layers, **kind.plot), ctx.out_dir / name)
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
        _KINDS[cfg["kind"]].run(cfg, ctx)
        if plot:
            ctx.outputs.append(_plot(cfg, ctx))
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
                "criteria": _KINDS[cfg["kind"]].criteria,
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
