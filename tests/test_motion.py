import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionconv.ledger import FlopsLedger
from motionconv.motion import (
    MotionParams,
    _box,
    _candidate_offsets,
    _kept,
    _score,
    _tap_views,
)
from motionconv.synth import SceneSpec, generate
from motionconv.tensors import ConvSpec

from oracles import (
    expected_motion,
    full_grid,
    naive_sad,
    sad,
    search,
    sliding_tap_views,
    threshold_residual,
)


def make_spec(rng, c_in=3, c_out=4, k=3, stride=1, padding=1):
    weights = rng.uniform(-0.5, 0.5, size=(c_out, c_in, k, k)).astype(np.float32)
    return ConvSpec(weights=weights, stride=stride, padding=padding)


class TestSad:
    def test_identical_blocks(self):
        block = np.random.default_rng(0).random((2, 3, 3), dtype=np.float32)
        assert sad(block, block, FlopsLedger()) == 0.0

    def test_single_element_difference(self):
        a = np.array([[[1, 2], [3, 4]]], dtype=np.float32)
        b = np.array([[[1, 2], [3, 5]]], dtype=np.float32)
        assert sad(a, b, FlopsLedger()) == 1.0

    def test_flops_charge(self):
        led = FlopsLedger()
        block = np.zeros((3, 5, 5), dtype=np.float32)
        sad(block, block, led)
        assert led.me_flops == 2 * 3 * 25

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_summation_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((2, 3, 3), dtype=np.float32)
        b = rng.random((2, 3, 3), dtype=np.float32)
        # float64 accumulation of float32 terms is exact at this size, so the
        # vectorized sum and the sequential oracle agree to the last bit
        assert sad(a, b, None) == naive_sad(a, b)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            sad(np.zeros((1, 3, 3)), np.zeros((1, 3, 4)), None)


class TestThresholdResidual:
    def test_magnitude_boundary(self):
        ref = np.full((1, 1, 3), 0.5, dtype=np.float32)
        cur = ref + np.array([[[0.005, -0.02, 0.0099]]], dtype=np.float32)
        block = threshold_residual(cur, ref, 0.01)
        assert block.nnz == 1
        (c, dy, dx, v) = next(block.entries())
        assert (c, dy, dx) == (0, 0, 1)
        assert v == pytest.approx(-0.02, abs=1e-6)

    def test_identical_blocks_empty(self):
        block = np.random.default_rng(1).random((2, 3, 3), dtype=np.float32)
        for tau in (0.0, 0.01, 1.0):
            assert threshold_residual(block, block, tau).nnz == 0

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_tau_zero_reproduces_difference(self, seed):
        rng = np.random.default_rng(seed)
        cur = rng.random((2, 3, 3), dtype=np.float32)
        ref = rng.random((2, 3, 3), dtype=np.float32)
        block = threshold_residual(cur, ref, 0.0)
        np.testing.assert_array_equal(block.densify(2, 3), cur - ref)

    def test_rejects_negative_tau(self):
        block = np.zeros((1, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match=">= 0"):
            threshold_residual(block, block, -0.1)


class TestKept:
    @pytest.mark.parametrize("tau", [0.0, 2.0**-149, 0.01])
    def test_one_comparison_equals_threshold_and_nonzero(self, tau):
        # magnitudes at 0, around the float32 tau boundary, subnormal and inf,
        # then a plane of small random magnitudes
        t = np.float32(tau)
        edges = np.array([0.0, 2.0**-149, 2.0**-148, 2.0**-127, np.nextafter(t, np.float32(0)), t,
                          np.nextafter(t, np.float32(np.inf)), 0.01, 1.0, np.inf], dtype=np.float32)
        plane = np.abs(np.random.default_rng(3).normal(0, 0.01, (2, 9, 9))).astype(np.float32)
        plane.ravel()[: edges.size] = edges
        for mag in (edges, plane):
            np.testing.assert_array_equal(_kept(mag, tau), (mag >= tau) & (mag != 0))


def score_out_of_place(cur_pad, ref_pad, k, s, tau, corner, out_h, out_w, shifts):
    """``_score`` one candidate at a time on fresh arrays: a new ``cur -
    shifted`` per candidate, then ``np.sum`` over channels and ``_kept``."""
    hh, ww = (out_h - 1) * s + k, (out_w - 1) * s + k
    y, x = corner
    cur = cur_pad[:, y : y + hh, x : x + ww]
    sads, kepts = [], []
    with np.errstate(over="ignore"):
        for dy, dx in shifts:
            mag = np.abs(cur - ref_pad[:, y + dy : y + dy + hh, x + dx : x + dx + ww])
            sads.append(_box(np.sum(mag, axis=0), k, s, out_h, out_w, np.float32))
            kepts.append(_box(np.sum(_kept(mag, tau), axis=0), k, s, out_h, out_w, np.int32))
    return np.stack(sads), np.stack(kepts)


class TestScore:
    @pytest.mark.parametrize("overflow", [False, True])
    @pytest.mark.parametrize("tau", [0.0, 0.01])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("first", [(0, 0), (2, 1)])
    def test_matches_out_of_place_reference(self, first, stride, tau, overflow):
        # a box of 5 x 6 windows at grid position `first`, search range 1;
        # the planes reach past the box on every side, so each channel's
        # run of rows passes through columns beside the box and its rows lie
        # a plane apart
        k, s, c, out_h, out_w = 3, stride, 3, 5, 6
        m = s
        corner = (first[0] * s + m, first[1] * s + m)
        hh, ww = (out_h - 1) * s + k, (out_w - 1) * s + k
        shape = (c, corner[0] + hh + m + 2, corner[1] + ww + m + 3)
        rng = np.random.default_rng(31 + s)
        ref_pad = rng.uniform(-1, 1, shape).astype(np.float32)
        # small differences, some of them below tau
        cur_pad = (ref_pad + rng.normal(0, 0.02, shape)).astype(np.float32)
        if overflow:
            # one difference overflows float32, and one channel sum of
            # finite differences does
            y, x = corner[0] + 1, corner[1] + 2
            cur_pad[0, y, x], ref_pad[0, y, x] = 3e38, -3e38
            cur_pad[:, y + 2, x + 1], ref_pad[:, y + 2, x + 1] = 2e38, 0.0
        shifts = _candidate_offsets(1) * s
        sad, kept = _score(cur_pad, ref_pad, k, s, tau, corner, out_h, out_w, shifts)
        want_sad, want_kept = score_out_of_place(
            cur_pad, ref_pad, k, s, tau, corner, out_h, out_w, shifts)
        assert sad.shape == kept.shape == (len(shifts), out_h, out_w)
        assert (sad.dtype, kept.dtype) == (np.float32, np.int32)
        np.testing.assert_array_equal(sad.view(np.uint32), want_sad.view(np.uint32))
        np.testing.assert_array_equal(kept.view(np.uint32), want_kept.view(np.uint32))
        assert np.isinf(sad).any() == overflow


    @pytest.mark.parametrize("k, c", [(5, 99), (3, 257)])
    def test_kept_counts_exact_when_every_entry_is_kept(self, k, c):
        # every difference is at least tau, so each window keeps all its
        # k^2 C entries: an odd count above 2048, which float16 cannot hold,
        # summed per pixel in uint8 (C = 99) or uint16 (C = 257)
        assert (k * k * c) % 2 and k * k * c > 2048
        out_h, out_w = 3, 4
        shape = (c, (out_h - 1) + k + 2, (out_w - 1) + k + 2)
        rng = np.random.default_rng(k)
        ref_pad = rng.uniform(-1, 1, shape).astype(np.float32)
        cur_pad = ref_pad + np.where(rng.random(shape) < 0.5, 0.5, -0.5).astype(np.float32)
        shifts = _candidate_offsets(1)
        _, kept = _score(cur_pad, ref_pad, k, 1, 0.01, (1, 1), out_h, out_w, shifts[:1])
        assert kept.dtype == np.int32
        np.testing.assert_array_equal(kept, np.full((1, out_h, out_w), k * k * c))

    def test_rejects_blocks_whose_kept_counts_float32_cannot_hold(self):
        # the check comes before any array work, so a broadcast plane of
        # 5 x 5 x 671089 > 2^24 entries per block costs no memory
        plane = np.broadcast_to(np.zeros(1, np.float32), (671089, 5, 5))
        with pytest.raises(ValueError, match="float32 cannot hold"):
            _score(plane, plane, 5, 1, 0.01, (0, 0), 1, 1, _candidate_offsets(0))


class TestTapViews:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("corner", [(0, 0), (2, 1)])
    @pytest.mark.parametrize("cropped", [False, True])
    def test_equals_sliding_window_construction(self, k, s, corner, cropped):
        rng = np.random.default_rng(10 * k + s)
        plane = rng.standard_normal((3, 19, 23)).astype(np.float32)
        if cropped:
            # a contiguous crop, as search_planes makes, and one channel
            # slice of it, which starts inside a larger buffer
            plane = np.ascontiguousarray(plane[:, 2:17, 1:20])[1:]
        h, w = 2, 3
        got = _tap_views(plane, k, s, *corner, h, w)
        want = sliding_tap_views(plane, k, s, *corner, h, w)
        assert got.shape == want.shape == (plane.shape[0], k, k, h, w)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        assert np.shares_memory(got, plane)

    def test_reaches_the_plane_end(self):
        # the last window of a box that ends at the grid's end reads the
        # plane's last row and column
        plane = np.arange(2 * 7 * 9, dtype=np.float32).reshape(2, 7, 9)
        got = _tap_views(plane, 3, 2, 1, 1, 2, 3)
        np.testing.assert_array_equal(got, sliding_tap_views(plane, 3, 2, 1, 1, 2, 3))
        assert got[:, -1, -1, -1, -1].tolist() == plane[:, -1, -1].tolist()


class TestMotionParams:
    def test_negative_early_stop_disables(self):
        assert not MotionParams(early_stop_density=-1.0).early_stop_enabled
        assert MotionParams(early_stop_density=0.0).early_stop_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            MotionParams(search_range=-1)
        with pytest.raises(ValueError):
            MotionParams(threshold=-0.1)
        with pytest.raises(ValueError):
            MotionParams(match_max_density=1.5)

    def test_rejects_nan_threshold(self):
        # NaN compared false against every bound and acted as tau=0
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            MotionParams(threshold=float("nan"))

    def test_rejects_nan_early_stop_density(self):
        # NaN compared false against every bound and turned early stopping off
        with pytest.raises(ValueError, match="early_stop_density must be <= 1"):
            MotionParams(early_stop_density=float("nan"))

    @pytest.mark.parametrize("value", [True, "0.01", None])
    @pytest.mark.parametrize("name", ["threshold", "early_stop_density", "match_max_density"])
    def test_rejects_non_real_values(self, name, value):
        # a bool once passed as 0 or 1; a string failed a comparison naming no key
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            MotionParams(**{name: value})

    def test_accepts_numpy_reals(self):
        params = MotionParams(threshold=np.float32(0.25), match_max_density=np.int64(1))
        assert params.threshold == 0.25 and params.match_max_density == 1

    @pytest.mark.parametrize("value", [1.5, 1.0, True])
    def test_rejects_non_integer_search_range(self, value):
        with pytest.raises(ValueError, match="search_range must be an integer"):
            MotionParams(search_range=value)

    def test_accepts_numpy_integer_search_range(self):
        params = MotionParams(search_range=np.int64(2))
        assert params.search_range == 2 and type(params.search_range) is int


class TestSearch:
    def test_static_scene_all_zero_motion(self):
        rng = np.random.default_rng(2)
        spec = make_spec(rng)
        x = rng.random((3, 10, 10), dtype=np.float32)
        field = full_grid(search(x, x.copy(), spec, MotionParams(threshold=0.01), FlopsLedger()))
        assert field.alpha == 1.0
        assert field.matched.all()
        assert (field.mv_dy == 0).all() and (field.mv_dx == 0).all()
        assert not field.residual.any()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_translation_recovered_at_interior(self, stride):
        scene = SceneSpec(
            kind="global_translate",
            height=16,
            width=16,
            channels=2,
            frame_count=2,
            seed=3,
            motion=(stride, 0),
        )
        frames = generate(scene)
        rng = np.random.default_rng(4)
        spec = make_spec(rng, c_in=2, stride=stride, padding=1)
        params = MotionParams(search_range=1, threshold=0.0)
        field = full_grid(search(frames[1], frames[0], spec, params, FlopsLedger()))
        truth = expected_motion(scene, 1)
        mask = truth.interior_mask(spec)
        assert mask.any()
        assert field.matched[mask].all()
        assert (field.mv_dx[mask] == stride).all()
        assert (field.mv_dy[mask] == 0).all()
        for i, j in zip(*np.nonzero(mask)):
            assert field.nnz[i, j] == 0

    def test_range_zero_single_candidate(self):
        rng = np.random.default_rng(5)
        spec = make_spec(rng)
        x = rng.random((3, 8, 8), dtype=np.float32)
        y = rng.random((3, 8, 8), dtype=np.float32)
        led = FlopsLedger()
        search(x, y, spec, MotionParams(search_range=0, threshold=0.0), led)
        out_h, out_w = spec.out_shape(8, 8)
        assert led.me_flops == 2 * spec.block_size * out_h * out_w

    def test_me_flops_bound_and_equality_when_disabled(self):
        rng = np.random.default_rng(6)
        spec = make_spec(rng)
        x = rng.random((3, 12, 12), dtype=np.float32)
        y = rng.random((3, 12, 12), dtype=np.float32)
        out_h, out_w = spec.out_shape(12, 12)
        full = 2 * spec.block_size * out_h * out_w * 9

        led = FlopsLedger()
        search(x, y, spec, MotionParams(search_range=1, threshold=0.0, early_stop_density=-1.0), led)
        assert led.me_flops == full

        led2 = FlopsLedger()
        search(x, x.copy(), spec, MotionParams(search_range=1, threshold=0.0), led2)
        assert led2.me_flops <= full

    def test_early_stop_on_static_scene_evaluates_one_candidate(self):
        rng = np.random.default_rng(7)
        spec = make_spec(rng)
        x = rng.random((3, 10, 10), dtype=np.float32)
        led = FlopsLedger()
        search(x, x.copy(), spec, MotionParams(search_range=2, threshold=0.0), led)
        out_h, out_w = spec.out_shape(10, 10)
        assert led.me_flops == 2 * spec.block_size * out_h * out_w

    def test_tie_break_prefers_zero_motion(self):
        rng = np.random.default_rng(8)
        spec = make_spec(rng, c_in=1, padding=0)
        x = np.full((1, 12, 12), 0.25, dtype=np.float32)
        field = full_grid(search(x, x.copy(), spec, MotionParams(search_range=2, threshold=0.0, early_stop_density=-1.0), FlopsLedger()))
        assert (field.mv_dy == 0).all() and (field.mv_dx == 0).all()

    def test_stats_recompute_match_stored(self):
        rng = np.random.default_rng(9)
        spec = make_spec(rng)
        scene = generate(SceneSpec(kind="noise_mix", height=14, width=14, channels=3,
                                   frame_count=2, seed=10, noise_amplitude=0.05))
        field = full_grid(search(scene[1], scene[0], spec, MotionParams(threshold=0.02, match_max_density=0.8), FlopsLedger()))
        m = int(field.matched.sum())
        assert 0 < m < field.positions
        assert field.alpha == m / field.positions
        # alpha follows the match flags, also after a caller edits them
        field.matched[:] = False
        assert field.alpha == 0.0
        field.matched[2, 3] = True
        assert field.alpha == 1 / field.positions

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        spec = make_spec(rng)
        x = rng.random((3, 12, 12), dtype=np.float32)
        y = rng.random((3, 12, 12), dtype=np.float32)
        f1 = search(x, y, spec, MotionParams(), FlopsLedger())
        f2 = search(x, y, spec, MotionParams(), FlopsLedger())
        np.testing.assert_array_equal(f1.matched, f2.matched)
        np.testing.assert_array_equal(f1.mv_dy, f2.mv_dy)
        np.testing.assert_array_equal(f1.mv_dx, f2.mv_dx)
        np.testing.assert_array_equal(f1.nnz, f2.nnz)

    def test_emitted_vectors_are_stride_multiples(self):
        rng = np.random.default_rng(12)
        spec = make_spec(rng, stride=2, padding=1)
        x = rng.random((3, 13, 13), dtype=np.float32)
        y = rng.random((3, 13, 13), dtype=np.float32)
        field = search(x, y, spec, MotionParams(search_range=2, threshold=0.0), FlopsLedger())
        assert (field.mv_dy % 2 == 0).all()
        assert (field.mv_dx % 2 == 0).all()
        assert np.abs(field.mv_dy).max() <= 2 * 2
        assert np.abs(field.mv_dx).max() <= 2 * 2

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(15)
        spec = make_spec(rng)
        with pytest.raises(ValueError, match="differ"):
            search(
                np.zeros((3, 8, 8), dtype=np.float32),
                np.zeros((3, 8, 9), dtype=np.float32),
                spec,
                MotionParams(),
                FlopsLedger(),
            )

    def test_early_stop_keeps_zero_motion_match_decision(self):
        # positions whose (0,0) candidate is already sparse enough stop there;
        # with the stop disabled those positions stay matched on realistic
        # scenes (zero-motion content keeps the minimum SAD)
        rng = np.random.default_rng(16)
        spec = make_spec(rng)
        frames = generate(SceneSpec(kind="noise_mix", height=14, width=14, channels=3,
                                    frame_count=2, seed=17, noise_amplitude=0.005))
        params_on = MotionParams(search_range=1, threshold=0.02, early_stop_density=0.3)
        params_off = params_on.updated(early_stop_density=-1.0)
        f_on = full_grid(search(frames[1], frames[0], spec, params_on, FlopsLedger()))
        f_off = full_grid(search(frames[1], frames[0], spec, params_off, FlopsLedger()))
        stopped_at_origin = (f_on.nnz <= 0.3 * spec.block_size) & (f_on.mv_dy == 0) & (f_on.mv_dx == 0)
        assert stopped_at_origin.any()
        np.testing.assert_array_equal(
            f_on.matched[stopped_at_origin], f_off.matched[stopped_at_origin]
        )
