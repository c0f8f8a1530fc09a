"""Pipeline report assembly, grid export, and the command-line interface."""

import json
import math
import os
from array import array

import numpy as np
import pytest

import jjwafer
from jjwafer import cli as cli_module, dataset as dataset_module, report as report_module
from jjwafer.breakdown import detect_breakdown
from jjwafer.capacitance import WaferMap
from jjwafer.cli import EXIT_ANALYSIS, EXIT_INVALID, EXIT_IO, EXIT_OK, main
from jjwafer.dataset import dumps_text, load_dataset, loads_text, ramp_traces, save_dataset
from jjwafer.errors import DatasetSchemaError, NoBreakdownError
from jjwafer.report import (
    STAGES,
    AnalysisConfig,
    analyze,
    export_wafer_grid,
    format_grid_cell,
    load_wafer_grid,
    render_json,
    render_text,
)
from jjwafer.synthetic import WaferSpec, generate_wafer


@pytest.fixture(scope="module")
def clean_ds():
    return generate_wafer(WaferSpec()).dataset


# --- config ---


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(eps_r=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(slope_tol=1.5)
    with pytest.raises(ValueError):
        AnalysisConfig(fn_r2_min=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(jump_factor=1.0)
    with pytest.raises(ValueError):
        AnalysisConfig(jump_floor_a=0.0)
    with pytest.raises(ValueError):
        AnalysisConfig(t_ox_nm=-4.4)


def test_config_takes_finite_real_numbers_only():
    assert AnalysisConfig(eps_r=9, beta=np.float64(1.0), t_ox_nm=None).eps_r == 9
    for bad in ("x", None, True, math.inf, math.nan, 1j):
        with pytest.raises(ValueError, match="eps_r must be a finite number"):
            AnalysisConfig(eps_r=bad)
    with pytest.raises(ValueError, match="t_ox_nm must be a finite number"):
        AnalysisConfig(t_ox_nm=-math.inf)


def test_config_from_mapping_rejects_unknown_keys():
    cfg = AnalysisConfig.from_mapping({"slope_tol": 0.2})
    assert cfg.slope_tol == 0.2
    with pytest.raises(ValueError, match="unknown config keys: slope_tpo"):
        AnalysisConfig.from_mapping({"slope_tpo": 0.2})


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"t_ox_nm": 3.5, "jump_factor": 20.0}')
    cfg = AnalysisConfig.from_json_file(str(path))
    assert cfg.t_ox_nm == 3.5 and cfg.jump_factor == 20.0
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        AnalysisConfig.from_json_file(str(path))


# --- pipeline ---


def test_full_pipeline_on_clean_wafer(clean_ds):
    rep = analyze(clean_ds)
    assert rep.stages_run == STAGES
    assert rep.stage_errors == ()
    assert rep.label == "ref"
    assert rep.etch_s == 0.0
    # noiseless reference wafer: every extraction lands on the inputs
    assert rep.t_ox_nm == pytest.approx(4.4, rel=1e-12)
    assert rep.t_ox_source == "capacitance"
    assert rep.k_per_nm == pytest.approx(15.7, rel=1e-6)
    assert rep.barrier_ev == pytest.approx(3.1304083017754873, rel=1e-6)
    assert rep.implied_ra_mohm_um2 == pytest.approx(14600.621198120174, rel=1e-6)
    assert rep.ra_mohm_um2 == pytest.approx(14600.621198120174, rel=1e-6)
    assert rep.n_iv_fit == rep.n_iv_curves == 5
    assert rep.n_ramps == rep.n_breakdowns == 140
    assert rep.n_censored == 0
    assert rep.v_bt_v == pytest.approx(2.1915714285714287, rel=1e-12)
    # headline statistics come from the area with the most valid cells,
    # largest pad on ties
    assert rep.headline_area_um2 == 1600.0
    assert rep.c_mean_ff == pytest.approx(32000.0, rel=1e-12)
    # defect density 70/cm2 on 25 um2 pads means no defective dies at all
    assert rep.p_knee is None
    assert any("single-population" in n for n in rep.notes)


def test_pipeline_on_defective_wafer():
    ds = generate_wafer(
        WaferSpec(label="defective", seed=3, defect_density_cm2=5.5e5)
    ).dataset
    rep = analyze(ds)
    assert rep.stage_errors == ()
    assert rep.notes == ()
    assert rep.p_knee == pytest.approx(17.0 / 141.0, abs=1e-12)
    assert rep.e_crit_mv_cm == pytest.approx(4.613636363636366, rel=1e-9)
    assert rep.defect_density_cm2 == pytest.approx(513913.2990925256, rel=1e-9)
    assert -math.log1p(-rep.p_knee) / 25e-8 == pytest.approx(
        rep.defect_density_cm2, rel=1e-12
    )
    # a minority of ramps at another area: noted, density from the common one
    for rec in ds.ramp[:3]:
        rec.area_um2 = 50.0
    mixed = analyze(ds)
    assert mixed.notes == ("bkd: mixed ramp areas [25.0, 50.0], defect density "
                           "uses the most common one",)
    assert mixed.defect_density_cm2 == rep.defect_density_cm2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bkd_stage_matches_detect_breakdown_on_each_trace(seed):
    # ramps of three lengths, some cut before their jump, some flickering
    # below the noise floor, some with thresholds that overflow to inf
    ds = generate_wafer(WaferSpec(seed=seed, defect_density_cm2=5.5e5)).dataset
    rng = np.random.default_rng(seed)
    for k, rec in enumerate(ds.ramp):
        n_steps = (300, 240, 170)[k % 3]
        rec.v, rec.i = rec.v[:n_steps], rec.i[:n_steps]
        if k % 7 == 0:
            rec.i = (10.0 ** rng.uniform(-13, -10, n_steps)).tolist()
        elif k % 11 == 0:
            rec.i[n_steps // 2:] = array("d", [1.7e308]) * (n_steps - n_steps // 2)
    v_bts = []
    for trace in ramp_traces(ds):
        try:
            v_bts.append(detect_breakdown(trace).v_bt)
        except NoBreakdownError:
            pass
    rep = analyze(ds, stages=("bkd",))
    assert rep.n_ramps == len(ds.ramp)
    assert rep.n_breakdowns == len(v_bts) < rep.n_ramps
    assert rep.n_censored == rep.n_ramps - len(v_bts)
    assert rep.v_bt_v == float(np.mean(v_bts))
    assert rep.v_bt_sd_v == float(np.std(v_bts, ddof=1))


@pytest.mark.parametrize("faults, message", [
    ({2: "uneven", 4: "nan"}, "ramp voltages must advance in constant steps of "
                              "step_v (within 1%)"),
    ({4: "uneven", 2: "nan"}, "v and i must be finite"),
])
def test_analyze_refuses_the_first_faulty_ramp_in_memory(faults, message):
    # the readers refuse these ramps; an in-memory dataset reaches analyze
    ds = generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset
    for k, fault in faults.items():
        if fault == "uneven":
            ds.ramp[k].v = array("d", ds.ramp[k].v)  # a copy: the staircase is shared
            ds.ramp[k].v[7] += 0.003
        else:
            ds.ramp[k].i[3] = math.nan
    with pytest.raises(ValueError) as refused:
        analyze(ds)
    assert str(refused.value) == message


def test_overflowing_v_bt_spread_is_a_stage_error():
    # the readers accept ramps near 1e160 V; the sample sd of their breakdown
    # voltages overflows
    ds = generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset
    for rec in ds.ramp:
        rec.v = [x * 1e160 for x in rec.v]
        rec.step_v *= 1e160
    rep = analyze(loads_text(dumps_text(ds)))
    assert rep.n_breakdowns == rep.n_ramps > 2
    assert rep.v_bt_v is None and rep.v_bt_sd_v is None
    assert [(stage, msg.split(" (")[0]) for stage, msg in rep.stage_errors] == \
        [("bkd", "V_BT statistics overflow")]
    render_text(rep)
    render_json(rep)


def test_stage_subsets(clean_ds):
    rep = analyze(clean_ds, stages=("cap",))
    assert rep.stages_run == ("cap",)
    assert rep.t_ox_nm is not None
    assert rep.k_per_nm is None and rep.n_ramps == 0
    with pytest.raises(ValueError, match="unknown stage"):
        analyze(clean_ds, stages=("cap", "nope"))


def test_iv_stage_needs_a_thickness(clean_ds):
    rep = analyze(clean_ds, stages=("iv",))
    assert rep.k_per_nm is None
    assert rep.stage_error_map()["iv"].startswith("no oxide thickness")
    rep2 = analyze(clean_ds, stages=("iv",), config=AnalysisConfig(t_ox_nm=4.4))
    assert rep2.stage_errors == ()
    assert rep2.t_ox_nm == 4.4
    assert rep2.t_ox_source == "config"
    assert rep2.k_per_nm == pytest.approx(15.7, rel=1e-6)


def test_render_text_is_deterministic(clean_ds):
    rep = analyze(clean_ds)
    text = render_text(rep)
    assert text == render_text(analyze(clean_ds))
    assert text.startswith("wafer report: ref\n")
    for header in ("[cap]", "[iv]", "[res]", "[bkd]"):
        assert header in text


def test_render_json_round_trips_fields(clean_ds):
    rep = analyze(clean_ds)
    payload = json.loads(render_json(rep))
    assert payload["label"] == "ref"
    assert payload["k_per_nm"] == rep.k_per_nm
    assert payload["stages_run"] == list(STAGES)
    assert payload["stage_errors"] == []
    assert payload["p_knee"] is None


# --- grid files ---


def test_format_grid_cell_round_trips_exactly():
    for x in (1.0 / 3.0, 0.1, 12345.678901234567, 1.23e-300, -4.4, 0.0):
        assert float(format_grid_cell(x)) == x
    with pytest.raises(ValueError):
        format_grid_cell(float("nan"))
    with pytest.raises(ValueError):
        format_grid_cell(float("inf"))


def test_wafer_grid_round_trip(tmp_path):
    values = np.array([[1.0 / 3.0, np.nan, 2.5], [np.nan, 1e-20, 4.0]])
    probed = np.array([[True, True, True], [False, True, True]])
    wmap = WaferMap(values=values, probed=probed, area_um2=25.0,
                    label="ref", units="fF")
    path = str(tmp_path / "grid.csv")
    export_wafer_grid(wmap, path)
    with open(path) as fh:
        body = fh.read()
    # unprobed and dead cells are both empty fields
    assert body.count(",") == 4
    assert [len(line.split(",")) for line in body.splitlines()] == [3, 3]
    with open(path + ".meta") as fh:
        sidecar = dict(line.split("=", 1) for line in fh.read().splitlines())
    assert sidecar["label"] == "ref"
    assert (int(sidecar["rows"]), int(sidecar["cols"])) == (2, 3)
    assert int(sidecar["n_valid"]) == 4 and int(sidecar["n_probed"]) == 5

    back = load_wafer_grid(path)
    assert back.label == "ref" and back.area_um2 == 25.0
    valid = np.isfinite(values)
    assert np.array_equal(np.isfinite(back.values), valid)
    assert np.all(back.values[valid] == values[valid])
    # the grid alone cannot distinguish a dead probed cell from an unprobed
    # one, so only valid cells come back probed
    assert back.n_probed == wmap.n_valid


@pytest.mark.parametrize("area, written", [(np.float64(25.0), "25.0"), (25, "25.0"),
                                           (0.1 + 0.2, "0.30000000000000004")])
def test_wafer_grid_sidecar_writes_the_area_as_a_float(tmp_path, area, written):
    path = str(tmp_path / "grid.csv")
    export_wafer_grid(WaferMap(values=np.ones((2, 3)), probed=np.ones((2, 3), bool),
                               area_um2=area), path)
    with open(path + ".meta") as fh:
        assert f"area_um2={written}\n" in fh.read()
    back = load_wafer_grid(path)
    assert type(back.area_um2) is float and back.area_um2 == area


def test_load_wafer_grid_requires_sidecar(tmp_path):
    path = str(tmp_path / "orphan.csv")
    with open(path, "w") as fh:
        fh.write("1.0,2.0\n")
    with pytest.raises(DatasetSchemaError, match="sidecar"):
        load_wafer_grid(path)


@pytest.mark.parametrize("line", ["area_um2=-1.0", "area_um2=nan", "cols=-1"])
def test_load_wafer_grid_refuses_a_bad_sidecar_value(tmp_path, line):
    path = str(tmp_path / "grid.csv")
    export_wafer_grid(WaferMap(values=np.ones((2, 3)), probed=np.ones((2, 3), bool),
                               area_um2=25.0), path)
    with open(path + ".meta", "a") as fh:
        fh.write(line + "\n")  # a later line wins
    with pytest.raises(DatasetSchemaError, match="grid sidecar needs a positive area"):
        load_wafer_grid(path)


# --- CLI ---


def run_cli(*argv):
    return main(list(argv))


def test_cli_simulate_and_analyze(tmp_path, capsys):
    out = str(tmp_path / "w.jjw")
    assert run_cli("simulate", "--out", out) == EXIT_OK
    assert "140 probed dies" in capsys.readouterr().out
    assert run_cli("analyze", "all", out) == EXIT_OK
    text = capsys.readouterr().out
    assert text.startswith("wafer report: ref")
    assert "[bkd]" in text


def test_cli_analyze_json_format(tmp_path, capsys):
    out = str(tmp_path / "w.jjw")
    run_cli("simulate", "--out", out)
    capsys.readouterr()
    assert run_cli("analyze", "cap", out, "--format", "json") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["stages_run"] == ["cap"]
    assert payload["t_ox_nm"] == pytest.approx(4.4, rel=1e-12)


def test_cli_stage_error_exit_code(tmp_path, capsys):
    out = str(tmp_path / "w.jjw")
    run_cli("simulate", "--out", out)
    capsys.readouterr()
    # iv alone has no thickness: analysis error, report still printed
    assert run_cli("analyze", "iv", out) == EXIT_ANALYSIS
    assert "stage errors:" in capsys.readouterr().out
    assert run_cli("analyze", "iv", out, "--t-ox", "4.4") == EXIT_OK


@pytest.mark.parametrize("name", ["h_um", "w_bot_um"])
def test_overflowing_junction_area_is_a_res_stage_error(tmp_path, capfd, name):
    # an inf design matrix used to reach LAPACK, which writes its complaint
    # to fd 1 before numpy raises; capfd sees what a shell pipe would
    ds = generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset
    setattr(ds.res[0], name, 1.7976931348623157e308)
    out = str(tmp_path / "w.jjw")
    save_dataset(ds, out)
    assert run_cli("analyze", "res", "--format", "json", out) == EXIT_ANALYSIS
    payload = json.loads(capfd.readouterr().out)
    assert payload["stage_errors"] == [
        ["res", "DegenerateDataError: resistance records hold a non-finite "
                "junction area or resistance"]]


def test_cli_invalid_inputs(tmp_path, capsys):
    garbage = tmp_path / "garbage.jjw"
    garbage.write_text("not a dataset\n")
    assert run_cli("analyze", "all", str(garbage)) == EXIT_INVALID
    assert "error" in capsys.readouterr().err
    assert run_cli("analyze", "all", str(tmp_path / "missing.jjw")) == EXIT_IO
    assert run_cli("simulate", "--preset", "etch40",
                   "--out", str(tmp_path / "x.jjw")) == EXIT_INVALID
    assert run_cli("nonsense") == EXIT_INVALID
    assert run_cli() == EXIT_INVALID
    capsys.readouterr()


@pytest.mark.parametrize("config, flags, message", [
    ('{"eps_r": "x"}', [], "eps_r must be a finite number, got 'x'"),
    ('{"eps_r": null}', [], "eps_r must be a finite number, got None"),
    ('{"eps_r": true}', [], "eps_r must be a finite number, got True"),
    ('{"eps_r": 1e400}', [], "eps_r must be a finite number, got inf"),
    (None, ["--t-ox", "inf"], "t_ox_nm must be a finite number, got inf"),
    (None, ["--eps-r", "inf"], "eps_r must be a finite number, got inf"),
    (None, ["--jump-floor", "nan"], "jump_floor_a must be a finite number, got nan"),
])
def test_cli_refuses_a_config_value_that_is_not_a_finite_number(tmp_path, capsys, config,
                                                                 flags, message):
    out = str(tmp_path / "w.jjw")
    save_dataset(generate_wafer(WaferSpec(rows=5, cols=5, seed=1)).dataset, out)
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        flags = ["--config", str(tmp_path / "cfg.json"), *flags]
    assert run_cli("analyze", "all", out, *flags) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"jjwafer: error: {message}\n")


def test_cli_simulate_refuses_out_of_range_seeds(tmp_path, capsys):
    out = tmp_path / "w.jjw"
    for argv in (("--seed", "-1"), ("--seed", str(2**64)),
                 ("--preset", "etch20", "--seed", "-1"), ("--set", "seed=-5")):
        assert run_cli("simulate", "--out", str(out), *argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("jjwafer: error: seed must be an integer in 0..2**64-1")
        assert "Traceback" not in err
    assert not out.exists()
    assert run_cli("simulate", "--out", str(out), "--seed", str(2**64 - 1),
                   "--set", "rows=4", "--set", "cols=4") == EXIT_OK
    assert load_dataset(str(out)).meta["seed"] == str(2**64 - 1)
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("override, message", [
    ("cap_areas_um2=0,25,50", "cap record 0: area_um2 must be positive, got 0.0"),
    ("ramp_rate_v_per_s=0", "ramp record 0: rate_v_per_s must be positive, got 0.0"),
])
def test_cli_simulate_refuses_a_dataset_the_readers_refuse(tmp_path, capsys, fmt,
                                                            override, message):
    out = tmp_path / "w.dat"
    argv = ("simulate", "--out", str(out), "--format", fmt, "--set", override)
    assert run_cli(*argv) == EXIT_INVALID
    assert capsys.readouterr().err == f"jjwafer: error: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("override, message", [
    ("cap_noise_pct=nan", "cap_noise_pct must be a finite number, got nan"),
    ("ramp_v_max=inf", "ramp_v_max must be a finite number, got inf"),
])
def test_cli_simulate_refuses_a_number_that_is_not_finite(tmp_path, capsys, override,
                                                          message):
    out = tmp_path / "y.jjw"
    assert run_cli("simulate", "--out", str(out), "--set", override) == EXIT_INVALID
    assert capsys.readouterr() == ("", f"jjwafer: error: {message}\n")
    assert os.listdir(tmp_path) == []


def test_cli_simulate_overrides(tmp_path, capsys):
    out = str(tmp_path / "thin.json")
    code = run_cli("simulate", "--out", out, "--set", "t_ox_nm=3.5",
                   "--set", "n_iv_dies=3")
    assert code == EXIT_OK
    ds = load_dataset(out)
    truth = json.loads(ds.meta["ground_truth"])
    assert truth["spec"]["t_ox_nm"] == 3.5
    assert len(ds.iv) == 3
    assert run_cli("simulate", "--out", out, "--set", "bogus=1") == EXIT_INVALID
    assert run_cli("simulate", "--out", out, "--set", "t_ox_nm=abc") == EXIT_INVALID
    capsys.readouterr()


def test_cli_multi_file_worst_code_wins(tmp_path, capsys):
    good = str(tmp_path / "good.jjw")
    run_cli("simulate", "--out", good)
    bad = tmp_path / "bad.jjw"
    bad.write_text("format nothing 1\n")
    outside = tmp_path / "outside.jjw"
    outside.write_text("format jjwafer-dataset 1\n"
                       "units area=um2 c=fF r=MOhm len=um v=V i=A step=V rate=V/s\n"
                       "wafer rows=2 cols=2\n"
                       "cap 5 0 25.0 1.0\n")
    capsys.readouterr()
    assert run_cli("analyze", "cap", good, str(bad), str(outside)) == EXIT_INVALID
    captured = capsys.readouterr()
    assert f"== {good} ==" in captured.out
    assert "error" in captured.err
    assert "outside the declared" in captured.err
    assert "Traceback" not in captured.err


def test_cli_report_writes_reports_and_grids(tmp_path, capsys):
    data = str(tmp_path / "w.jjw")
    run_cli("simulate", "--out", data)
    out_dir = str(tmp_path / "out")
    assert run_cli("report", data, "--out", out_dir) == EXIT_OK
    capsys.readouterr()
    names = sorted(os.listdir(out_dir))
    assert "w.report.txt" in names
    for area in ("1", "25", "50", "100", "400", "1600"):
        assert f"w.cap{area}.csv" in names
        assert f"w.cap{area}.csv.meta" in names
    grid = load_wafer_grid(os.path.join(out_dir, "w.cap25.csv"))
    assert grid.n_valid == 140
    assert grid.values[7, 7] == pytest.approx(500.0, rel=1e-12)


def test_cli_report_builds_the_cap_maps_once_to_analyze_and_once_to_export(
        tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "w.jjw")
    run_cli("simulate", "--out", data)
    calls = dict.fromkeys(("cap_maps", "cap_wafer_map"), 0)
    originals = {name: getattr(dataset_module, name) for name in calls}
    for module in (jjwafer, cli_module, dataset_module, report_module):
        for name, fn in originals.items():
            if hasattr(module, name):
                def counted(*args, _name=name, _fn=fn):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
    assert run_cli("report", data, "--out", str(tmp_path / "out")) == EXIT_OK
    capsys.readouterr()
    assert calls == {"cap_maps": 2, "cap_wafer_map": 0}


@pytest.mark.parametrize("command", [("report",), ("analyze", "all")])
def test_cli_refuses_inputs_whose_outputs_share_a_name(tmp_path, capsys, command):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first, second = str(a / "w.jjw"), str(b / "w.json")
    run_cli("simulate", "--out", first)
    run_cli("simulate", "--out", second, "--seed", "1")
    capsys.readouterr()
    out_dir = tmp_path / "out"
    for paths in ((first, second), (first, first)):
        assert run_cli(*command, "--out", str(out_dir), *paths) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"jjwafer: error: {paths[0]} and {paths[1]} would "
                                f"both write w.report.txt under {out_dir}\n")
        assert not out_dir.exists()
    # without --out nothing is written, so the same inputs are fine
    assert run_cli("analyze", "all", first, second) == EXIT_OK
    assert capsys.readouterr().out.count("== ") == 2


def test_cli_version_and_help(capsys):
    assert run_cli("--version") == EXIT_OK
    assert "jjwafer" in capsys.readouterr().out
    assert run_cli("--help") == EXIT_OK
    capsys.readouterr()
