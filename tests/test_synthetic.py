"""Determinism and internal consistency of the synthetic wafer generator."""

import hashlib
import json
from array import array

import numpy as np
import pytest

from jjwafer import dataset as dataset_module, synthetic
from jjwafer.breakdown import detect_breakdown
from jjwafer.dataset import (
    cap_wafer_map,
    dumps_json,
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
    # unsorted pad areas: the records come out in ascending area order
    spec = preset_spec("etch20", seed=2, cap_areas_um2=(25.0, 1.0, 400.0))
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


def test_records_own_their_staircase_arrays():
    ds = generate_wafer(preset_spec("etch20", seed=1)).dataset
    for kind in ("ramp", "iv"):
        first, second = getattr(ds, kind)[:2]
        assert first.v == second.v
        assert {type(x) for x in (first.v, first.i)} == {array}
        assert first.v.typecode == first.i.typecode == "d"
        first.v[5] = -1.0
        assert second.v[5] != -1.0, kind


def test_generation_is_byte_deterministic():
    a = dumps_text(generate_wafer(preset_spec("ref", 7)).dataset)
    b = dumps_text(generate_wafer(preset_spec("ref", 7)).dataset)
    assert a == b


# SHA-256 of dumps_text and dumps_json per (preset, seed): generated
# datasets are byte-identical per seed, whatever the generator's internals
GOLDEN_TEXT_SHA256 = {
    ("ref", 0): "3f8a11e1376c943453fb0711eb6bed783579195caa817079bf1f5ff655df657f",
    ("etch30", 3): "b14c032e5d6e1d437dbbc4e8fa2b5f963288766f4707b13e72972d04ed702aa5",
}
GOLDEN_JSON_SHA256 = {
    ("ref", 0): "d82de2da693936ea8fd1fe132346cd8fce67b1c2eece1ce57fcb3879c6f120e8",
    ("etch30", 3): "156b87cd7b4c65efdfd8d20b76c0e660993dd9561a537469f900326afef05e94",
}


@pytest.mark.parametrize("preset, seed", sorted(GOLDEN_TEXT_SHA256))
def test_generated_text_matches_its_golden_digest(preset, seed):
    text = dumps_text(generate_wafer(preset_spec(preset, seed)).dataset)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_TEXT_SHA256[preset, seed]


@pytest.mark.parametrize("preset, seed", sorted(GOLDEN_JSON_SHA256))
def test_generated_json_matches_its_golden_digest(preset, seed):
    text = dumps_json(generate_wafer(preset_spec(preset, seed)).dataset)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_JSON_SHA256[preset, seed]


def _fresh(seed, stream_id):
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(rng):
    # a 32-bit draw first: it would read a stale has_uint32 half
    return [*rng.random(3, dtype=np.float32), rng.normal(), rng.uniform(),
            rng.poisson(0.3), rng.poisson(40.0), *rng.normal(2.0, 0.5, size=7),
            *rng.integers(0, 1 << 40, size=5), rng.integers(0, 7, dtype=np.int32),
            rng.normal()]


def test_reset_stream_draws_what_a_fresh_generator_draws():
    rng = synthetic._new_rng()
    keys = [(0, 0), (0, 1), (7, (3 * 4096 + 5) * 8 + 6),
            (2**64 - 1, synthetic._WAFER_STREAM_BASE), (2**64 - 1, 2**64 - 1)]
    for seed, stream_id in keys:
        # leave the shared generator mid-buffer with a stale 32-bit half
        rng.integers(0, 1 << 40, size=2)
        if not rng.bit_generator.state["has_uint32"]:
            rng.random(dtype=np.float32)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        assert _draws(synthetic._reset(rng, seed, stream_id)) == _draws(_fresh(seed, stream_id))
    assert (synthetic._stream(rng, 5, 3, 9, 2).normal()
            == _fresh(5, (3 * 4096 + 9) * 8 + 2).normal())
    assert (synthetic._wafer_stream(rng, 5, 0).uniform()
            == _fresh(5, synthetic._WAFER_STREAM_BASE).uniform())


_VIEWS = {"cap_wafer_map": "maps", "iv_curves": "iv_curves",
          "ramp_traces": "ramps", "resistance_records": "resistance_records"}


def test_views_are_built_on_first_use_and_once(tmp_path, monkeypatch):
    spec = WaferSpec(rows=6, cols=6, seed=3)
    for name in _VIEWS:
        def refuse(*args, _name=name):
            raise AssertionError(f"{_name} called")
        monkeypatch.setattr(synthetic, name, refuse)
    gen = generate_wafer(spec)
    save_dataset(gen.dataset, str(tmp_path / "w.jjw"))
    save_dataset(gen.dataset, str(tmp_path / "w.json"))

    calls = dict.fromkeys(_VIEWS, 0)
    for name in _VIEWS:
        def counted(*args, _name=name, _fn=getattr(dataset_module, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(synthetic, name, counted)
    for name, view in _VIEWS.items():
        assert getattr(gen, view) is getattr(gen, view)
    assert calls == {"cap_wafer_map": len(spec.cap_areas_um2), "iv_curves": 1,
                     "ramp_traces": 1, "resistance_records": 1}


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


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True, np.int64(3), "3"])
def test_bimodal_sample_refuses_the_seeds_wafer_spec_refuses(seed):
    with pytest.raises(ValueError) as spec_error:
        WaferSpec(seed=seed)
    with pytest.raises(ValueError) as sample_error:
        bimodal_field_sample(140, 0.1, 3.2, 15.0, 4.95, 3.0, seed=seed)
    assert str(sample_error.value) == str(spec_error.value)


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
    with pytest.raises(ValueError, match="1..4096"):
        WaferSpec(rows=4097)
    with pytest.raises(ValueError, match="repeats an area"):
        WaferSpec(cap_areas_um2=(25.0, 1.0, 25.0, 400.0))
    with pytest.raises(ValueError):
        WaferSpec(t_ox_nm=0.0)
    with pytest.raises(ValueError, match="n_iv_dies"):
        WaferSpec(n_iv_dies=-1)
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
    for seed in (-1, 2**64, 1.0, True, np.int64(3), "3"):
        with pytest.raises(ValueError, match=r"seed must be an integer in 0\.\.2\*\*64-1"):
            WaferSpec(seed=seed)
    assert generate_wafer(WaferSpec(rows=2, cols=2, seed=2**64 - 1)).dataset.meta["seed"] \
        == str(2**64 - 1)
