"""Scenario harness: validation, execution, outputs, reproducibility."""

import json
import math
import re
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfpe_lab import rfpe as rfpe_mod
from rfpe_lab import scenarios
from rfpe_lab.ipea import IpeaConfig
from rfpe_lab.noise import NoiseConfig
from rfpe_lab.rfpe import GaussianBelief, RfpeConfig, analytic_posterior
from rfpe_lab.scenarios import (KCAL_PER_HARTREE, KINDS, OUT_DIR_ENV,
                                ConfigError, load_config,
                                load_molecular_table, run_scenario,
                                run_scenario_config, validate_config)

# --------------------------------------------------------------- validation


def _minimal(kind):
    obj = {"schema": "rfpe-lab/1", "kind": kind}
    if kind == "molecular_scan":
        obj["table"] = "table.csv"
    return obj


def test_defaults_are_filled_in():
    cfg = validate_config({"schema": "rfpe-lab/1", "kind": "convergence"})
    assert cfg["label"] == "convergence"
    assert cfg["truth"] == 4.8741
    assert cfg["ensemble"] == 100
    assert cfg["noise"]["shots"] == 2000
    assert cfg["noise"]["strategy"] == "majority_vote"
    assert cfg["rfpe"]["n_particles"] == 1000
    assert cfg["rfpe"]["n_steps"] == 50
    assert cfg["ipea"]["n_bits"] == 16
    assert cfg["prior"]["mu"] == pytest.approx(math.pi)
    assert cfg["prior"]["sigma"] == pytest.approx(math.pi)


def test_every_kind_validates_with_minimal_config():
    for kind in KINDS:
        assert validate_config(_minimal(kind))["kind"] == kind


def test_schema_and_kind_are_enforced():
    with pytest.raises(ConfigError, match="schema"):
        validate_config({"kind": "convergence"})
    with pytest.raises(ConfigError, match="expected 'rfpe-lab/1'"):
        validate_config({"schema": "rfpe-lab/2", "kind": "convergence"})
    with pytest.raises(ConfigError, match="kind"):
        validate_config({"schema": "rfpe-lab/1", "kind": "mystery"})
    with pytest.raises(ConfigError, match="expected a JSON object"):
        validate_config([1, 2])
    for kind in ([], {}, 3):  # a list or an object cannot name a kind
        with pytest.raises(ConfigError, match=r"^<config>:1: kind: expected"):
            validate_config({"schema": "rfpe-lab/1", "kind": kind})


def test_unknown_and_invalid_keys():
    base = {"schema": "rfpe-lab/1", "kind": "convergence"}
    with pytest.raises(ConfigError, match="frobnicate: unknown key"):
        validate_config(dict(base, frobnicate=1))
    with pytest.raises(ConfigError, match="noise.shots: must be >= 1"):
        validate_config(dict(base, noise={"shots": 0}))
    with pytest.raises(ConfigError, match="rfpe.n_particles"):
        validate_config(dict(base, rfpe={"n_particles": 1}))
    with pytest.raises(ConfigError, match="expected an integer"):
        validate_config(dict(base, ensemble=2.5))
    with pytest.raises(ConfigError, match="label"):
        validate_config(dict(base, label="../escape"))
    with pytest.raises(ConfigError, match="strategy"):
        validate_config(dict(base, noise={"strategy": "plurality"}))
    # the rejection test has no scale: the fringe peaks at 1
    with pytest.raises(ConfigError,
                       match=r"^<config>:1: rfpe\.kappa_e: unknown key$"):
        validate_config(dict(base, rfpe={"kappa_e": 1.0}))


# the fields each kind sets itself at every grid point: no keys of its config
_SWEPT = {("phase_noise_sweep", "noise"): ("sigma_phase", "strategy"),
          ("strategy_comparison", "noise"): ("strategy",),
          ("t2_sweep", "noise"): ("t2",), ("t2_sweep", "rfpe"): ("t2_cap",),
          ("t2_convergence", "noise"): ("t2",),
          ("t2_convergence", "rfpe"): ("t2_cap",)}


@pytest.mark.parametrize("kind,key,field", [
    (kind, key, name) for (kind, key), names in _SWEPT.items()
    for name in names])
def test_swept_fields_are_unknown_keys(kind, key, field):
    value = {"strategy": "single_shot", "sigma_phase": 0.1}.get(field, 8.0)
    obj = {"schema": "rfpe-lab/1", "kind": kind, key: {field: value}}
    text = json.dumps(obj, indent=2)  # the field's own line is line 5
    with pytest.raises(ConfigError,
                       match=rf"^cfg\.json:5: {key}\.{field}: unknown key$"):
        validate_config(obj, source="cfg.json", text=text)


def test_cross_checks():
    # a swept field is no key, so no check has to hold it at its default
    with pytest.raises(ConfigError, match="noise.sigma_phase: unknown key"):
        validate_config({"schema": "rfpe-lab/1", "kind": "phase_noise_sweep",
                         "noise": {"sigma_phase": 0.1}})
    with pytest.raises(ConfigError, match="noise.t2: unknown key"):
        validate_config({"schema": "rfpe-lab/1", "kind": "t2_sweep",
                         "noise": {"t2": 8.0}})
    with pytest.raises(ConfigError, match="rfpe.t2_cap: unknown key"):
        validate_config({"schema": "rfpe-lab/1", "kind": "t2_convergence",
                         "rfpe": {"t2_cap": 8.0}})
    with pytest.raises(ConfigError, match="not both"):
        validate_config({"schema": "rfpe-lab/1", "kind": "calibration_fit",
                         "data": "x.csv", "fringe": {}})
    with pytest.raises(ConfigError, match="must exceed"):
        validate_config({"schema": "rfpe-lab/1", "kind": "calibration_fit",
                         "fringe": {"p_min": 50.0, "p_max": 10.0}})
    # one output file per listed value: a repeat would overwrite a series
    text = '{\n  "kind": "t2_convergence",\n  "t2_grid": [8.0, 8.0]\n}\n'
    with pytest.raises(ConfigError,
                       match=r"^cfg\.json:3: t2_grid\[1\]: repeats 8\.0"):
        validate_config({"schema": "rfpe-lab/1", "kind": "t2_convergence",
                         "t2_grid": [8.0, 8.0]}, source="cfg.json", text=text)
    with pytest.raises(ConfigError, match=r"strategies\[2\]: repeats"):
        validate_config({"schema": "rfpe-lab/1",
                         "kind": "strategy_comparison",
                         "strategies": ["single_shot", "sampled:3",
                                        "single_shot"]})
    # m is capped at T2 gate applications, so a cap below 1 leaves no m
    text = '{\n  "kind": "convergence",\n  "rfpe": {\n    "t2_cap": 0.5\n  }\n}\n'
    with pytest.raises(ConfigError, match=r"^cfg\.json:4: rfpe\.t2_cap: a T2 "
                                          r"cap below one gate time"):
        validate_config({"schema": "rfpe-lab/1", "kind": "convergence",
                         "rfpe": {"t2_cap": 0.5}}, source="cfg.json", text=text)
    for kind in ("t2_sweep", "t2_convergence"):
        with pytest.raises(ConfigError, match=r"^<config>:1: t2_grid\[2\]: "
                                              r"cap_pgh caps m"):
            validate_config({"schema": "rfpe-lab/1", "kind": kind,
                             "t2_grid": [4.0, 2.0, 0.5]})
        # without the cap a short T2 only damps the fringe
        validate_config({"schema": "rfpe-lab/1", "kind": kind,
                         "t2_grid": [4.0, 2.0, 0.5], "cap_pgh": False})


def test_load_config_anchors_lines(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n'
                    '  "schema": "rfpe-lab/1",\n'
                    '  "kind": "convergence",\n'
                    '  "noise": {\n'
                    '    "shots": 0\n'
                    '  }\n'
                    '}\n')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert f"{path}:5: noise.shots:" in str(err.value)

    broken = tmp_path / "broken.json"
    broken.write_text('{ "schema": ')
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(broken)
    broken.write_text('{"rng_seed": ' + "1" * 5000 + "}")
    with pytest.raises(ConfigError, match=r"broken\.json:1: invalid JSON"):
        load_config(broken)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.json")


def test_rejected_config_writes_nothing(tmp_path):
    out = tmp_path / "results"
    with pytest.raises(ConfigError):
        run_scenario_config({"schema": "rfpe-lab/1", "kind": "convergence",
                             "ensemble": 0}, out_dir=out)
    assert not out.exists()


# every key a kind knows: the top-level keys and those of its sub-objects
_KEY_PATHS = {
    kind: [(key,) for key in cfg] + [(key, sub) for key, value in cfg.items()
                                     if isinstance(value, dict)
                                     for sub in value]
    for kind, cfg in ((kind, validate_config(_minimal(kind))) for kind in KINDS)}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024)
    | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=6)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_any_json_value_validates_or_is_rejected_with_an_anchor(data):
    kind = data.draw(st.sampled_from(KINDS))
    obj = _minimal(kind)
    paths = data.draw(st.lists(st.sampled_from(_KEY_PATHS[kind]),
                               min_size=1, max_size=3))
    for path in paths:
        value = data.draw(_JSON)
        if len(path) == 1:
            obj[path[0]] = value
        else:
            outer = obj.get(path[0])
            obj[path[0]] = {**(outer if isinstance(outer, dict) else {}),
                            path[1]: value}
    try:
        validate_config(obj, source="fuzz.json", text=json.dumps(obj, indent=2))
    except ConfigError as exc:
        assert re.match(r"^fuzz\.json:\d+: ", str(exc)), str(exc)


# the sub-objects whose keys are the fields of a class, less rng_seed
_CONFIGURED = {"noise": NoiseConfig, "rfpe": RfpeConfig, "ipea": IpeaConfig,
               "prior": GaussianBelief}
_STUDY_KEYS = {"ipea": {"repetitions"}}
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-9, 9)
_OF_ANNOTATION = {
    "int": st.integers(-3, 3000), "float": _FINITE, "bool": st.booleans(),
    "str": st.sampled_from(["single_shot", "majority_vote", "sampled",
                            "sampled:2", "sampled:0", "sampled:x", "vote"]),
    "Optional[float]": st.none() | _FINITE}


def _constructs(cls, values) -> bool:
    try:
        cls(**values)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sub_objects_take_the_bounds_of_their_classes(data):
    key = data.draw(st.sampled_from(sorted(_CONFIGURED)))
    cls = _CONFIGURED[key]
    values = {f.name: data.draw(_OF_ANNOTATION[f.type], label=f.name)
              for f in fields(cls) if f.name != "rng_seed"}
    expected = _constructs(cls, values)
    if key == "rfpe":  # a study reads the last step, so it needs one
        expected = expected and values["n_steps"] >= 1
    try:
        validate_config(dict(_minimal("convergence"), **{key: values}),
                        source="cfg.json")
    except ConfigError as exc:
        assert re.match(rf"^cfg\.json:\d+: {key}\.\w+: ", str(exc))
        assert not expected, str(exc)
    else:
        assert expected


def test_sub_object_defaults_are_the_class_defaults():
    for kind in KINDS:
        cfg = validate_config(_minimal(kind))
        for key in _CONFIGURED.keys() & cfg.keys():
            # the kind sets n_steps, and the prior has no class default
            given = {"rfpe": {"n_steps": cfg[key].get("n_steps")},
                     "prior": {"mu": math.pi, "sigma": math.pi}}.get(key, {})
            expected = asdict(_CONFIGURED[key](**given))
            expected.pop("rng_seed", None)
            for name in _SWEPT.get((kind, key), ()):
                expected.pop(name)
            got = {k: v for k, v in cfg[key].items()
                   if k not in _STUDY_KEYS.get(key, ())}
            assert got == expected, (kind, key)


# ----------------------------------------------------------- molecular table


def _write_table(path, rows, header="distance,eigenphase,reference_energy,scale,offset"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


def test_molecular_table_round_trip(tmp_path):
    path = tmp_path / "mol.csv"
    _write_table(path, ["0.5,0.7,-1.1,-0.2,0.05", "0.6,0.9,-1.2,-0.2,0.05"])
    records = load_molecular_table(path)
    assert len(records) == 2
    assert records[0].eigenphase == 0.7
    assert records[0].energy(0.7) == pytest.approx(-0.2 * 0.7 + 0.05)


def test_molecular_table_global_coefficients(tmp_path):
    path = tmp_path / "mol.csv"
    _write_table(path, ["0.5,0.7,-1.1"],
                 header="distance,eigenphase,reference_energy")
    records = load_molecular_table(path, scale=-0.3, offset=0.1)
    assert records[0].scale == -0.3
    with pytest.raises(ValueError, match="missing column"):
        load_molecular_table(path)


def test_molecular_table_row_errors(tmp_path):
    path = tmp_path / "mol.csv"
    _write_table(path, ["0.5,0.7,-1.1,-0.2,0.05", "0.6,nope,-1.2,-0.2,0.05"])
    with pytest.raises(ValueError, match="row 3: eigenphase is not a number"):
        load_molecular_table(path)
    _write_table(path, ["0.5,7.0,-1.1,-0.2,0.05"])
    with pytest.raises(ValueError, match=r"outside \[0, 2\*pi\)"):
        load_molecular_table(path)
    _write_table(path, ["0.5,0.7,,-0.2,0.05"])
    with pytest.raises(ValueError, match="row 2: missing reference_energy"):
        load_molecular_table(path)


def test_molecular_table_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_molecular_table(path) == []
    _write_table(path, [])
    assert load_molecular_table(path, scale=1.0, offset=0.0) == []


# ------------------------------------------------------------------ execution


def _tiny_convergence(**over):
    cfg = {"schema": "rfpe-lab/1", "kind": "convergence", "label": "tiny",
           "ensemble": 4, "rng_seed": 7,
           "noise": {"shots": 40},
           "rfpe": {"n_steps": 6, "n_particles": 200},
           "ipea": {"n_bits": 4, "repetitions": 2}}
    cfg.update(over)
    return cfg


def test_convergence_run_outputs_and_manifest(tmp_path):
    manifest = run_scenario_config(_tiny_convergence(), out_dir=tmp_path,
                                   plot=True)
    assert manifest["complete"] is True
    assert manifest["error"] is None
    assert manifest["kind"] == "convergence"
    assert manifest["label"] == "tiny"
    assert manifest["seed"] == 7
    assert manifest["criteria"] == [1, 2, 11]
    assert set(manifest["outputs"]) == {"tiny_rfpe.csv", "tiny_ipea.csv",
                                        "tiny.svg"}
    for name in manifest["outputs"] + ["tiny_manifest.json"]:
        assert (tmp_path / name).exists()
    summary = manifest["summary"]
    for key in ("rfpe_final_median_error", "rfpe_log_slope",
                "rfpe_coverage_2sigma", "ipea_final_median_error"):
        assert key in summary
    on_disk = json.loads((tmp_path / "tiny_manifest.json").read_text())
    assert on_disk == manifest


def test_reruns_and_worker_counts_are_byte_identical(tmp_path):
    outs = []
    for name, workers in [("a", 1), ("b", 1), ("c", 2)]:
        out = tmp_path / name
        run_scenario_config(_tiny_convergence(), out_dir=out,
                            workers=workers, plot=True)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref
        assert (outs[2] / name).read_bytes() == ref


_SMALL = {"ensemble": 3, "noise": {"shots": 30},
          "rfpe": {"n_steps": 5, "n_particles": 100}}
_SMALL_IPEA = {"n_bits": 4, "repetitions": 2}

# kind: (small overrides, plot title, legend labels)
_PLOTTED = {
    "convergence": ({**_SMALL, "ipea": _SMALL_IPEA},
                    "Phase estimation convergence", ["RFPE", "IPEA"]),
    "phase_noise_sweep": ({**_SMALL, "ipea": _SMALL_IPEA,
                           "sigma_grid": [0.0, 0.2]},
                          "Robustness to phase noise", ["RFPE", "IPEA"]),
    "t2_sweep": ({**_SMALL, "ipea": _SMALL_IPEA, "t2_grid": [2.0, 8.0]},
                 "Robustness to decoherence", ["RFPE", "IPEA"]),
    "t2_convergence": ({**_SMALL, "t2_grid": [2.0, 8.0],
                        "rfpe": {"n_steps": 6, "n_particles": 100}},
                       "Convergence under decoherence", ["T2=2", "T2=8"]),
    "strategy_comparison": ({**_SMALL,
                             "strategies": ["sampled:3", "single_shot"]},
                            "Readout strategies",
                            ["sampled:3", "single_shot"]),
    "molecular_scan": ({**_SMALL, "ensemble": 1, "rfpe": {"n_steps": 10}},
                       "Dissociation curve", ["estimated", "reference"]),
    "fidelity_curve": ({"sigma_grid": [0.0, 0.3], "samples": 1000},
                       "Fidelity under phase noise", ["state", "gate"]),
    "chernoff_curve": ({"pe_grid": [0.0, 0.2, 0.4]},
                       "Majority-vote failure probability",
                       ["Chernoff bound", "exact tail"]),
    "calibration_fit": ({"restarts": 2}, "Thermo-optic fringe calibration",
                        ["data", "fit"]),
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_plots_and_reruns_byte_identical(tmp_path, kind):
    over, title, legends = _PLOTTED[kind]
    cfg = {"schema": "rfpe-lab/1", "kind": kind, "label": "k", "rng_seed": 3,
           **over}
    if kind == "molecular_scan":
        table = tmp_path / "mol.csv"
        _write_table(table, ["0.5,0.7,-0.1,-0.2,0.05",
                             "0.6,0.9,-0.15,-0.2,0.05"])
        cfg["table"] = str(table)
    dirs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        manifest = run_scenario_config(dict(cfg), out_dir=out,
                                       workers=workers, plot=True)
        assert manifest["complete"] is True
        assert manifest["outputs"][-1] == "k.svg"
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    svg = (dirs[0] / "k.svg").read_text()
    for text in [title] + legends:
        assert f">{text}</text>" in svg


def test_seed_changes_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario_config(_tiny_convergence(), out_dir=a)
    run_scenario_config(_tiny_convergence(rng_seed=8), out_dir=b)
    assert (a / "tiny_rfpe.csv").read_bytes() != (b / "tiny_rfpe.csv").read_bytes()


def test_out_dir_resolution(tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    monkeypatch.setenv(OUT_DIR_ENV, str(env_dir))
    run_scenario_config(_tiny_convergence(algorithm="ipea"))
    assert (env_dir / "tiny_ipea.csv").exists()

    # an explicit argument wins over both the env and the config field
    cfg_dir, arg_dir = tmp_path / "cfg", tmp_path / "arg"
    run_scenario_config(_tiny_convergence(algorithm="ipea",
                                          out_dir=str(cfg_dir)),
                        out_dir=arg_dir)
    assert (arg_dir / "tiny_ipea.csv").exists()
    assert not cfg_dir.exists()

    # without the argument the config field is used
    run_scenario_config(_tiny_convergence(algorithm="ipea",
                                          out_dir=str(cfg_dir)))
    assert (cfg_dir / "tiny_ipea.csv").exists()


def test_run_scenario_reads_file_and_resolves_table(tmp_path):
    table = tmp_path / "mol.csv"
    _write_table(table, ["0.5,0.7,-0.09,-0.2,0.05"])
    cfg_path = tmp_path / "scan.json"
    cfg_path.write_text(json.dumps({
        "schema": "rfpe-lab/1", "kind": "molecular_scan", "label": "scan",
        "table": "mol.csv",  # relative to the config file
        "ensemble": 1, "noise": {"shots": 40}, "rfpe": {"n_steps": 10}}))
    manifest = run_scenario(cfg_path, out_dir=tmp_path / "out")
    assert manifest["complete"] is True
    assert manifest["summary"]["n_points"] == 1
    scan = (tmp_path / "out" / "scan_scan.csv").read_text().splitlines()
    assert scan[0] == ("distance,eigenphase,estimated_phase,phase_error,"
                      "reference_energy,estimated_energy,energy_error_kcal")
    fields = scan[1].split(",")
    # energy error is |scale*(est-true)| converted to kcal/mol
    assert float(fields[6]) == pytest.approx(
        abs(float(fields[5]) - float(fields[4])) * KCAL_PER_HARTREE, rel=1e-9)


def test_molecular_scan_missing_table_is_config_error(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="missing.csv"):
        run_scenario_config({"schema": "rfpe-lab/1", "kind": "molecular_scan",
                             "table": str(tmp_path / "missing.csv")},
                            out_dir=out)
    # refusal happened before any series was produced: no manifest either
    assert list(out.iterdir()) == []


def test_mid_run_failure_flushes_and_marks_incomplete(tmp_path, monkeypatch):
    run = scenarios.rfpe_run

    def fail_at_third_point(oracle, initial, config, truth=None):
        if oracle.noise.t2 == 1.0:
            raise ValueError("injected failure at t2 = 1")
        return run(oracle, initial, config, truth=truth)

    monkeypatch.setattr(scenarios, "rfpe_run", fail_at_third_point)
    for algorithm, outputs in [("rfpe", ["part_rfpe.csv"]),
                               ("both", ["part_rfpe.csv", "part_ipea.csv"])]:
        out = tmp_path / algorithm
        cfg = {"schema": "rfpe-lab/1", "kind": "t2_sweep", "label": "part",
               "algorithm": algorithm, "ensemble": 2,
               "t2_grid": [4.0, 2.0, 1.0], "noise": {"shots": 30},
               "rfpe": {"n_steps": 4, "n_particles": 100},
               "ipea": {"n_bits": 4, "repetitions": 2}}
        with pytest.raises(ValueError, match="injected failure"):
            run_scenario_config(cfg, out_dir=out)
        manifest = json.loads((out / "part_manifest.json").read_text())
        assert manifest["complete"] is False
        assert "ValueError" in manifest["error"]
        assert manifest["outputs"] == outputs
        for name in outputs:
            rows = (out / name).read_text().splitlines()
            assert rows[0] == "t2,median_error,p16_error,p84_error"
            assert len(rows) == 3  # the two completed grid points survived
            assert [r.split(",")[0] for r in rows[1:]] == ["4.0", "2.0"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_shot_t2_sweep_completes(tmp_path, monkeypatch, seed):
    # under the cap m stops growing while sigma shrinks, so single shots
    # starve some updates, which then take the closed-form posterior
    run, closed_forms, fallbacks = scenarios.rfpe_run, [], []

    def counted(*args, **kwargs):
        trace = run(*args, **kwargs)
        fallbacks.extend(row.fallbacks for row in trace)
        return trace

    def closed_form(*args):
        closed_forms.append(args)
        return analytic_posterior(*args)

    monkeypatch.setattr(scenarios, "rfpe_run", counted)
    monkeypatch.setattr(rfpe_mod, "analytic_posterior", closed_form)
    cfg = {"schema": "rfpe-lab/1", "kind": "t2_sweep", "algorithm": "rfpe",
           "t2_grid": [1.0, 2.0], "noise": {"strategy": "single_shot"},
           "rng_seed": seed}
    manifest = run_scenario_config(cfg, out_dir=tmp_path, workers=1)
    assert manifest["complete"] is True
    assert manifest["error"] is None
    # each trace row counts the closed-form updates of its step
    assert sum(fallbacks) == len(closed_forms) == {0: 12, 1: 12, 2: 28}[seed]


def test_strategy_comparison_outputs(tmp_path):
    cfg = {"schema": "rfpe-lab/1", "kind": "strategy_comparison",
           "label": "strat", "ensemble": 4,
           "strategies": ["sampled:2", "single_shot"],
           "noise": {"shots": 30}, "rfpe": {"n_steps": 5, "n_particles": 100}}
    manifest = run_scenario_config(cfg, out_dir=tmp_path)
    assert set(manifest["outputs"]) == {"strat_sampled_2.csv",
                                        "strat_single_shot.csv"}
    per_step = manifest["summary"]["per_step"]
    assert set(per_step) == {"sampled:2", "single_shot"}
    for series in per_step.values():
        assert len(series["median"]) == 5
        assert len(series["stderr"]) == 5
        assert all(se >= 0.0 for se in series["stderr"])


def test_chernoff_curve_summary(tmp_path):
    cfg = {"schema": "rfpe-lab/1", "kind": "chernoff_curve", "label": "ch"}
    manifest = run_scenario_config(cfg, out_dir=tmp_path)
    summary = manifest["summary"]
    assert summary["min_bound_minus_tail"] >= 0.0
    assert 0.5 < summary["critical_signal_default"] < 0.52
    assert 0.55 < summary["critical_signal_exact"] < 0.61
    rows = (tmp_path / "ch_chernoff.csv").read_text().splitlines()
    assert rows[0] == "pe,effective_p,chernoff_bound,exact_tail,expected_bad_bits"
    assert len(rows) == 22
    # a perfect signal never loses a vote: the tail at pe = 0 is exactly 0
    manifest = run_scenario_config(dict(cfg, p0=1.0), out_dir=tmp_path,
                                   plot=True)
    assert manifest["complete"] is True
    pe, effective_p, _, tail, _ = (
        (tmp_path / "ch_chernoff.csv").read_text().splitlines()[1].split(","))
    assert (pe, effective_p, tail) == ("0.0", "1.0", "0.0")


def test_fidelity_curve_summary(tmp_path):
    cfg = {"schema": "rfpe-lab/1", "kind": "fidelity_curve", "label": "fid",
           "sigma_grid": [0.0, 0.3], "samples": 1000}
    manifest = run_scenario_config(cfg, out_dir=tmp_path)
    summary = manifest["summary"]
    assert summary["sigma_grid"] == [0.0, 0.3]
    assert summary["state_fidelity"][0] == 1.0
    assert summary["state_fidelity"][1] < 1.0
    assert summary["gate_fidelity"][1] < 1.0


def test_calibration_fit_scenario(tmp_path):
    cfg = {"schema": "rfpe-lab/1", "kind": "calibration_fit", "label": "cal",
           "restarts": 6}
    manifest = run_scenario_config(cfg, out_dir=tmp_path)
    summary = manifest["summary"]
    # the synthetic truth is echoed so the fit can be judged against it
    assert summary["truth"] == {"b": 0.55, "a": 0.45, "t": 75.0,
                                "p_phi": 42.5}
    assert summary["params"]["t"] == pytest.approx(75.0, rel=0.05)
    assert summary["r_squared"] > 0.95
    assert summary["propagated_sigma_phase"] > 0.0
    report = json.loads((tmp_path / "cal_report.json").read_text())
    assert set(report["parameters"]) == {"b", "a", "t", "p_phi"}
    fringe = (tmp_path / "cal_fringe.csv").read_text().splitlines()
    assert fringe[0] == "p_el,p_op,p_op_fit,residual"
    assert len(fringe) == 41
