"""Determinism and internal consistency of the synthetic wafer generator."""

import dataclasses
import hashlib
import json
import math
from array import array

import numpy as np
import pytest

from jjwafer import dataset as dataset_module, synthetic
from jjwafer.breakdown import detect_breakdown
from jjwafer.dataset import (
    cap_maps,
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
    assert len(ramp_traces(ds.dataset)) == 140
    assert len(iv_curves(ds.dataset)) == 5
    assert len(resistance_records(ds.dataset)) == 12
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
    for mine, back in zip(iv_curves(gen.dataset), iv_curves(ds), strict=True):
        assert np.array_equal(mine.v, back.v) and np.array_equal(mine.i, back.i)
        assert (mine.die, mine.area_um2, mine.label) == (back.die, back.area_um2, back.label)
    for mine, back in zip(ramp_traces(gen.dataset), ramp_traces(ds), strict=True):
        assert np.array_equal(mine.v, back.v) and np.array_equal(mine.i, back.i)
        assert ((mine.die, mine.area_um2, mine.step_v, mine.rate_v_per_s)
                == (back.die, back.area_um2, back.step_v, back.rate_v_per_s))
    assert resistance_records(gen.dataset) == resistance_records(ds)


def test_records_share_one_staircase_and_own_their_currents():
    ds = generate_wafer(preset_spec("etch20", seed=1)).dataset
    for kind in ("ramp", "iv"):
        records = getattr(ds, kind)
        first, second = records[:2]
        assert {type(x) for x in (first.v, first.i)} == {array}
        assert first.v.typecode == first.i.typecode == "d"
        # one v object per staircase per wafer
        assert len({id(rec.v) for rec in records}) == 1, kind
        # the currents are each record's own
        first.i[5] = -1.0
        assert second.i[5] != -1.0, kind
        # rebinding one record's v changes that record only
        first.v = array("d", first.v)
        first.v[5] = -1.0
        assert second.v[5] != -1.0 and second.v is records[-1].v, kind


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
            (2**64 - 1, synthetic._STREAMS["res"][0]), (2**64 - 1, 2**64 - 1)]
    for seed, stream_id in keys:
        # leave the shared generator mid-buffer with a stale 32-bit half
        rng.integers(0, 1 << 40, size=2)
        if not rng.bit_generator.state["has_uint32"]:
            rng.random(dtype=np.float32)
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        assert _draws(synthetic._reset(rng, seed, stream_id)) == _draws(_fresh(seed, stream_id))
    assert (synthetic._stream(rng, 5, "cap", 3, 9).normal()
            == _fresh(5, (3 * 4096 + 9) * 8 + 2).normal())
    assert (synthetic._stream(rng, 5, "res").uniform()
            == _fresh(5, synthetic._STREAMS["res"][0]).uniform())


def test_no_two_streams_can_share_a_philox_key():
    # by arithmetic over the bounds, not by listing dies.  In a space
    # (base, stride) die d = row * MAX_GRID + col < MAX_GRID**2 and tag t give
    # the id base + d * stride + t, one-to-one in (d, t) while 0 <= t < stride;
    # a wafer stream (stride 0) has the id base + t.  The spaces' id ranges,
    # each up to the last id it has room for, must not overlap, and every id
    # must fit the 64-bit key word.
    assert synthetic.MAX_GRID == 4096
    tags = {space: [] for space in synthetic._SPACES}
    for name, (base, stride, tag) in synthetic._STREAMS.items():
        assert (base, stride) in tags, name
        assert type(tag) is int and tag >= 0, name
        tags[base, stride].append(tag)
    spans = []
    for (base, stride), used in tags.items():
        assert len(set(used)) == len(used), (base, stride)
        if stride:
            assert max(used, default=0) < stride, (base, stride)
            spans.append((base, base + synthetic.MAX_GRID**2 * stride - 1))
        else:
            spans.append((base, base + max(used)))
    spans.sort()
    assert spans[0][0] >= 0 and spans[-1][1] < 2**64
    for (_, last), (first, _) in zip(spans, spans[1:]):
        assert last < first


@pytest.mark.parametrize("name, row, col, stream_id", [
    ("thickness", 0, 0, 0),
    ("dead", 0, 1, 8 + 1),
    ("cap", 3, 9, (3 * 4096 + 9) * 8 + 2),
    ("iv", 6, 7, (6 * 4096 + 7) * 8 + 3),
    ("intrinsic", 13, 0, (13 * 4096) * 8 + 4),
    ("defect", 55, 54, (55 * 4096 + 54) * 8 + 5),
    ("ramp_noise", 4095, 4095, (4095 * 4096 + 4095) * 8 + 6),
    ("res", 0, 0, 2**40),
    ("bimodal", 0, 0, 2**40 + 7),
])
def test_streams_keep_their_keys(name, row, col, stream_id):
    # (row * 4096 + col) * 8 + tag per die and 2**40 + tag per wafer: the keys
    # every generated dataset was drawn with
    rng = synthetic._stream(synthetic._new_rng(), 2**64 - 1, name, row, col)
    assert rng.bit_generator.state["state"]["key"].tolist() == [2**64 - 1, stream_id]


def test_views_are_built_on_first_use_and_once(tmp_path, monkeypatch):
    # generating and saving build no map; each read of maps is one cap_maps
    # call over the records as they are then, so an edit shows at once
    spec = WaferSpec(rows=6, cols=6, seed=3)

    def refuse(ds):
        raise AssertionError("cap_maps called")
    monkeypatch.setattr(synthetic, "cap_maps", refuse)
    monkeypatch.setattr(dataset_module, "cap_maps", refuse)
    gen = generate_wafer(spec)
    save_dataset(gen.dataset, str(tmp_path / "w.jjw"))
    save_dataset(gen.dataset, str(tmp_path / "w.json"))

    calls = []
    monkeypatch.setattr(synthetic, "cap_maps",
                        lambda ds: calls.append(ds) or cap_maps(ds))
    first = gen.maps
    assert calls == [gen.dataset]
    assert list(first) == list(spec.cap_areas_um2)
    rec = gen.dataset.cap[0]
    rec.c_ff = 123.0
    assert gen.maps[rec.area_um2].values[rec.row, rec.col] == 123.0
    assert len(calls) == 2


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


def test_bimodal_sample_draws_what_it_drew():
    # the sample draws from a wafer stream of its own, whose key is pinned
    fields = bimodal_field_sample(140, 18 / 140, 3.2, 15.0, 4.95, 3.0, seed=123)
    digest = hashlib.sha256(fields.astype("<f8").tobytes()).hexdigest()
    assert digest == "ca937253eea522fd83fbcb4f0b5f4a3b9292bb13c4dbe818611501225e208529"


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
    traces = ramp_traces(ds.dataset)
    assert len(v_bt) == len(traces) == 140
    for trace in traces:
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
        detect_breakdown(ramp_traces(ds.dataset)[0])


def test_dead_dies_are_skipped_everywhere():
    ds = generate_wafer(WaferSpec(dead_die_rate=2 / 140, seed=0))
    n_dead = int(np.array(ds.ground_truth["dead_map"]).sum())
    assert n_dead == 3
    m = ds.maps[25.0]
    assert m.n_probed == 140
    assert m.n_valid == 140 - n_dead
    traces = ramp_traces(ds.dataset)
    assert len(traces) == 140 - n_dead
    dead = {(r, c) for r, row in enumerate(ds.ground_truth["dead_map"])
            for c, x in enumerate(row) if x}
    assert not dead & {t.die for t in traces}
    assert not dead & {cur.die for cur in iv_curves(ds.dataset)}


def test_noiseless_channels_equal_the_models_exactly():
    ds = generate_wafer(WaferSpec())
    gt = ds.ground_truth
    model = OxideModel(t_ox=4.4, k=15.7, eps_r=ds.spec.eps_r, beta=1.0,
                       m_rel=0.75, fn_scale=gt["fn_scale"])
    for cur in iv_curves(ds.dataset):
        assert np.array_equal(cur.i, composite_current(cur.v, 25.0, model))
    assert gt["ra_mohm_um2"] == implied_area_resistance(15.7, 4.4)
    assert gt["ra_s_mohm_um2"] == gt["ra_mohm_um2"]
    for rec in resistance_records(ds.dataset):
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


_FLOAT_FIELDS = {f.name: f.type for f in dataclasses.fields(WaferSpec) if "float" in f.type}


@pytest.mark.parametrize("name", sorted(_FLOAT_FIELDS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, None])
def test_spec_refuses_a_float_that_is_not_finite(name, bad):
    # the rule AnalysisConfig follows too: a finite real number, not a bool, None only
    # where the type allows it, in a tuple field for every element
    ftype = _FLOAT_FIELDS[name]
    if bad is None and "None" in ftype:
        assert getattr(WaferSpec(**{name: None}), name) is None
        return
    many = ftype.startswith("tuple")
    value = (25.0, bad) if many else bad
    with pytest.raises(ValueError) as refused:
        WaferSpec(**{name: value})
    what = "hold finite numbers" if many else "be a finite number"
    assert str(refused.value) == f"{name} must {what}, got {value!r}"


# rows, cols, n_iv_dies and iv_points; the seed has a stricter rule of its own
_INT_FIELDS = [f.name for f in dataclasses.fields(WaferSpec) if f.type == "int"
               and f.name != "seed"]


@pytest.mark.parametrize("name", _INT_FIELDS)
@pytest.mark.parametrize("bad", [5.5, 14.0, True])
def test_spec_refuses_an_int_field_that_is_not_an_integer(name, bad):
    # else a float count reaches generate_wafer, and True counts as 1
    with pytest.raises(ValueError) as refused:
        WaferSpec(**{name: bad})
    assert str(refused.value) == f"{name} must be an integer, got {bad!r}"


def test_spec_takes_numpy_integers_and_generates_what_python_ints_generate():
    counts = dict(rows=5, cols=6, n_iv_dies=2, iv_points=30)
    spec = WaferSpec(**{name: np.int64(n) for name, n in counts.items()})
    assert spec == WaferSpec(**counts)
    assert dumps_text(generate_wafer(spec).dataset) \
        == dumps_text(generate_wafer(WaferSpec(**counts)).dataset)


def test_a_mask_radius_of_rows_plus_cols_probes_every_die():
    # what mask_radius=inf did before the spec refused it
    truth = generate_wafer(WaferSpec(rows=4, cols=3, mask_radius=7.0)).ground_truth
    assert np.all(truth["probed_map"])


@pytest.mark.parametrize("radius", [1e200, -1e200])
def test_a_mask_radius_whose_square_overflows_probes_every_die_with_no_bow(radius):
    # radius**2 raises OverflowError; the generator's square is inf instead,
    # the large-radius limit, where the normalised bow is zero everywhere
    spec = WaferSpec(rows=4, cols=3, mask_radius=radius, thickness_jitter_pct=0.0)
    truth = generate_wafer(spec).ground_truth
    assert np.all(truth["probed_map"])
    assert truth["t_ox_map_nm"] == [[spec.t_ox_nm] * 3] * 4


@pytest.mark.parametrize("rows, cols, nearest", [(3, 5, 0.0), (4, 5, 0.5), (5, 4, 0.5),
                                                 (4, 6, math.sqrt(0.5))])
def test_spec_refuses_a_mask_exactly_when_it_probes_no_die(rows, cols, nearest):
    # the die nearest the centre lies 0, 0.5 or sqrt(0.5) from it by the
    # parity of rows and cols; the oracle is generate_wafer's own mask rule
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    dist2 = (rr - (rows - 1) / 2.0) ** 2 + (cc - (cols - 1) / 2.0) ** 2
    refused = []
    for radius in (nearest - 1e-6, nearest - 1e-10, nearest, nearest + 1e-6, -nearest, 0.0):
        if (dist2 <= radius**2 + 1e-9).any():
            truth = generate_wafer(WaferSpec(rows=rows, cols=cols, mask_radius=radius)).ground_truth
            assert np.any(truth["probed_map"])
        else:
            with pytest.raises(ValueError, match="^mask radius leaves no probed dies$"):
                WaferSpec(rows=rows, cols=cols, mask_radius=radius)
            refused.append(radius)
    # inside the rule's 1e-9 tolerance a radius still probes
    assert refused == ([nearest - 1e-6, 0.0] if nearest else [])


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
    with pytest.raises(ValueError, match="^mask radius leaves no probed dies$"):
        WaferSpec(mask_radius=0.1)
    for seed in (-1, 2**64, 1.0, True, np.int64(3), "3"):
        with pytest.raises(ValueError, match=r"seed must be an integer in 0\.\.2\*\*64-1"):
            WaferSpec(seed=seed)
    assert generate_wafer(WaferSpec(rows=2, cols=2, seed=2**64 - 1)).dataset.meta["seed"] \
        == str(2**64 - 1)


@pytest.mark.parametrize("low, high", [("ramp_step_v", "ramp_v_max"), ("iv_v_min", "iv_v_max")])
def test_spec_refuses_a_ramp_or_sweep_that_does_not_rise(low, high):
    # the two rules that read two fields; the range table bounds each alone
    spec = WaferSpec()
    x = getattr(spec, low)
    for y in (x, x / 2, -x):
        with pytest.raises(ValueError, match=rf"^{low} must be below {high}, "
                                             rf"got {x!r} and {y!r}$"):
            WaferSpec(**{high: y})
    assert getattr(WaferSpec(**{high: math.nextafter(x, math.inf)}), high) > x
