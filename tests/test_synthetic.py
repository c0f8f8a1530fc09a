"""Determinism and internal consistency of the synthetic wafer generator."""

import json

import numpy as np
import pytest

from jjwafer.breakdown import detect_breakdown
from jjwafer.dataset import (
    cap_wafer_map,
    dumps_text,
    iv_curves,
    load_dataset,
    ramp_traces,
    resistance_records,
    save_dataset,
)
from jjwafer.errors import NoBreakdownError
from jjwafer.resistance import junction_resistance
from jjwafer.synthetic import (
    PRESET_NAMES,
    WaferSpec,
    bimodal_field_sample,
    generate_wafer,
    intrinsic_breakdown_field_sample,
    preset_spec,
)
from jjwafer.transport import OxideModel, composite_current, implied_area_resistance


def test_reference_mask_probes_140_dies():
    ds = generate_wafer(WaferSpec())
    probed = np.array(ds.ground_truth["probed_map"])
    assert probed.sum() == 140
    assert sorted(ds.maps) == [1.0, 25.0, 50.0, 100.0, 400.0, 1600.0]
    assert len(ds.ramps) == 140
    assert len(ds.iv_curves) == 5
    assert len(ds.resistance_records) == 12
    for m in ds.maps.values():
        assert np.array_equal(m.probed, probed)


def test_in_memory_views_equal_the_materialized_file(tmp_path):
    # a repeated pad area still gives one cap record per die and area
    spec = preset_spec("etch20", seed=2, cap_areas_um2=(25.0, 1.0, 25.0, 400.0))
    gen = generate_wafer(spec)
    path = str(tmp_path / "w.jjw")
    save_dataset(gen.dataset, path, fmt="text")
    ds = load_dataset(path)
    n_probed = int(np.sum(gen.ground_truth["probed_map"]))
    assert [rec.area_um2 for rec in ds.cap] == sorted([1.0, 25.0, 400.0] * n_probed)

    assert list(gen.maps) == [25.0, 1.0, 400.0]
    for area, m in gen.maps.items():
        back = cap_wafer_map(ds, area)
        assert np.array_equal(m.values, back.values, equal_nan=True)
        assert np.array_equal(m.probed, back.probed)
        assert (m.area_um2, m.label, m.units) == (back.area_um2, back.label, back.units)
    for mine, back in zip(gen.iv_curves, iv_curves(ds), strict=True):
        assert np.array_equal(mine.v, back.v) and np.array_equal(mine.i, back.i)
        assert (mine.die, mine.area_um2, mine.label) == (back.die, back.area_um2, back.label)
    for mine, back in zip(gen.ramps, ramp_traces(ds), strict=True):
        assert np.array_equal(mine.v, back.v) and np.array_equal(mine.i, back.i)
        assert ((mine.die, mine.area_um2, mine.step_v, mine.rate_v_per_s)
                == (back.die, back.area_um2, back.step_v, back.rate_v_per_s))
    assert gen.resistance_records == resistance_records(ds)


def test_generation_is_byte_deterministic():
    a = dumps_text(generate_wafer(preset_spec("ref", 7)).dataset)
    b = dumps_text(generate_wafer(preset_spec("ref", 7)).dataset)
    assert a == b


def test_die_draws_do_not_depend_on_grid_size():
    # stream keys encode absolute die position, so enlarging the grid must
    # not change what an existing die measures
    small = generate_wafer(WaferSpec(thickness_jitter_pct=1.0, cap_noise_pct=2.0, seed=4))
    large = generate_wafer(
        WaferSpec(rows=20, cols=20, thickness_jitter_pct=1.0, cap_noise_pct=2.0, seed=4)
    )
    assert (small.ground_truth["t_ox_map_nm"][7][7]
            == large.ground_truth["t_ox_map_nm"][7][7])
    assert small.maps[25.0].values[7, 7] == large.maps[25.0].values[7, 7]
    assert (small.ground_truth["v_bt_map_v"][7][7]
            == large.ground_truth["v_bt_map_v"][7][7])


def test_bimodal_defect_count_is_deterministic():
    # zero-width defect population makes its draws identifiable
    fields = bimodal_field_sample(140, 18 / 140, 3.2, 0.0, 4.95, 3.0, seed=123)
    assert int(np.sum(fields == 3.2)) == 18
    with pytest.raises(ValueError):
        bimodal_field_sample(140, 1.5, 3.2, 15.0, 4.95, 3.0)
    with pytest.raises(ValueError):
        bimodal_field_sample(0, 0.1, 3.2, 15.0, 4.95, 3.0)


def test_field_sample_truncation_and_validation():
    rng = np.random.default_rng(0)
    s = intrinsic_breakdown_field_sample(rng, 0.5, 300.0, size=2000)
    assert np.all(s > 0.0)
    scalar = intrinsic_breakdown_field_sample(rng, 4.95, 3.0)
    assert isinstance(scalar, float)
    with pytest.raises(ValueError):
        intrinsic_breakdown_field_sample(rng, 0.0, 3.0)
    with pytest.raises(ValueError):
        intrinsic_breakdown_field_sample(rng, 4.95, -1.0)


def test_ramp_failures_land_on_grid_and_are_detectable():
    ds = generate_wafer(WaferSpec(defect_density_cm2=70.0))
    v_bt = {(r, c): x
            for r, row in enumerate(ds.ground_truth["v_bt_map_v"])
            for c, x in enumerate(row) if x is not None}
    assert len(v_bt) == len(ds.ramps) == 140
    for trace in ds.ramps:
        truth = v_bt[trace.die]
        # failure voltages sit on the 10 mV staircase
        assert abs(truth / 0.01 - round(truth / 0.01)) < 1e-9
        assert detect_breakdown(trace).v_bt == pytest.approx(truth, abs=1e-12)


def test_ramp_without_failure_in_range_has_no_jump():
    # an intrinsic field beyond the ramp ceiling leaves a smooth trace
    ds = generate_wafer(
        WaferSpec(intrinsic_field_mv_cm=12.0, intrinsic_field_rsd_pct=0.0,
                  defect_density_cm2=0.0)
    )
    assert all(x is None for row in ds.ground_truth["v_bt_map_v"] for x in row)
    with pytest.raises(NoBreakdownError):
        detect_breakdown(ds.ramps[0])


def test_dead_dies_are_skipped_everywhere():
    ds = generate_wafer(WaferSpec(dead_die_rate=2 / 140, seed=0))
    n_dead = int(np.array(ds.ground_truth["dead_map"]).sum())
    assert n_dead == 3
    m = ds.maps[25.0]
    assert m.n_probed == 140
    assert m.n_valid == 140 - n_dead
    assert len(ds.ramps) == 140 - n_dead
    dead = {(r, c) for r, row in enumerate(ds.ground_truth["dead_map"])
            for c, x in enumerate(row) if x}
    assert not dead & {t.die for t in ds.ramps}
    assert not dead & {cur.die for cur in ds.iv_curves}


def test_noiseless_channels_equal_the_models_exactly():
    ds = generate_wafer(WaferSpec())
    gt = ds.ground_truth
    model = OxideModel(t_ox=4.4, k=15.7, eps_r=ds.spec.eps_r, beta=1.0,
                       m_rel=0.75, fn_scale=gt["fn_scale"])
    for cur in ds.iv_curves:
        assert np.array_equal(cur.i, composite_current(cur.v, 25.0, model))
    assert gt["ra_mohm_um2"] == implied_area_resistance(15.7, 4.4)
    assert gt["ra_s_mohm_um2"] == gt["ra_mohm_um2"]
    for rec in ds.resistance_records:
        assert rec.r_mohm == junction_resistance(
            rec.geometry, gt["ra_mohm_um2"], gt["ra_s_mohm_um2"]
        )


def test_ground_truth_rides_in_dataset_meta():
    ds = generate_wafer(WaferSpec(seed=2))
    assert json.loads(ds.dataset.meta["ground_truth"]) == ds.ground_truth
    assert ds.dataset.meta["seed"] == "2"
    assert ds.dataset.wafer["label"] == "ref"


def test_presets():
    assert PRESET_NAMES == ("ref", "etch10", "etch20", "etch30")
    with pytest.raises(KeyError):
        preset_spec("etch40")
    specs = [preset_spec(n, seed=5) for n in PRESET_NAMES]
    assert all(s.seed == 5 for s in specs)
    t = [s.t_ox_nm for s in specs]
    k = [s.k_per_nm for s in specs]
    assert t == sorted(t, reverse=True)
    assert k == sorted(k)
    # breakdown targets follow thickness: mean failure voltage decreases
    v_bt = [s.intrinsic_field_mv_cm * s.t_ox_nm / 10.0 for s in specs]
    assert v_bt == sorted(v_bt, reverse=True)
    quiet = preset_spec("ref", seed=1, cap_noise_pct=0.0)
    assert quiet.cap_noise_pct == 0.0
    assert quiet.iv_noise_pct > 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        WaferSpec(rows=0)
    with pytest.raises(ValueError):
        WaferSpec(t_ox_nm=0.0)
    with pytest.raises(ValueError):
        WaferSpec(dead_die_rate=1.0)
    with pytest.raises(ValueError):
        WaferSpec(cap_noise_pct=-1.0)
    with pytest.raises(ValueError):
        WaferSpec(ramp_v_max=0.005)
    with pytest.raises(ValueError):
        WaferSpec(defect_density_cm2=-1.0)
    with pytest.raises(ValueError):
        generate_wafer(WaferSpec(mask_radius=0.1))
