import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionconv.ledger import FlopsLedger
from motionconv.motion import MotionParams, field_from_vectors, search
from motionconv.synth import SceneSpec, expected_motion, generate
from motionconv.tensors import ConvSpec

from oracles import extract_block, naive_sad, read_block_at, sad, threshold_residual


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
        field = search(x, x.copy(), spec, MotionParams(threshold=0.01), FlopsLedger())
        assert field.alpha == 1.0
        assert field.beta == 0.0
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
        field = search(frames[1], frames[0], spec, params, FlopsLedger())
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
        field = search(x, x.copy(), spec, MotionParams(search_range=2, threshold=0.0, early_stop_density=-1.0), FlopsLedger())
        assert (field.mv_dy == 0).all() and (field.mv_dx == 0).all()

    def test_stats_recompute_match_stored(self):
        rng = np.random.default_rng(9)
        spec = make_spec(rng)
        scene = generate(SceneSpec(kind="noise_mix", height=14, width=14, channels=3,
                                   frame_count=2, seed=10, noise_amplitude=0.05))
        field = search(scene[1], scene[0], spec, MotionParams(threshold=0.02, match_max_density=0.8), FlopsLedger())
        m = int(field.matched.sum())
        assert 0 < m < field.positions
        assert field.alpha == m / field.positions
        assert field.beta == field.nnz[field.matched].sum() / (m * spec.block_size)
        # the stats follow the arrays, also after a caller edits them
        field.matched[:] = False
        assert field.alpha == 0.0 and field.beta == 0.0
        field.matched[2, 3] = True
        assert field.alpha == 1 / field.positions
        assert field.beta == field.nnz[2, 3] / spec.block_size

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
        np.testing.assert_array_equal(f1.sad, f2.sad)
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

    def test_winner_sad_matches_public_op(self):
        rng = np.random.default_rng(13)
        spec = make_spec(rng, stride=1, padding=1)
        scene = generate(SceneSpec(kind="global_translate", height=12, width=12,
                                   channels=3, frame_count=2, seed=14, motion=(1, 1)))
        cur, ref = scene[1], scene[0]
        field = search(cur, ref, spec, MotionParams(search_range=1, threshold=0.0, early_stop_density=-1.0), FlopsLedger())
        k, s, p = spec.kernel_size, spec.stride, spec.padding
        for i, j in [(0, 0), (3, 4), (7, 7)]:
            cur_blk = extract_block(cur, spec, i, j)
            ref_blk = read_block_at(
                ref, i * s - p + int(field.mv_dy[i, j]), j * s - p + int(field.mv_dx[i, j]), k
            )
            assert field.sad[i, j] == sad(cur_blk, ref_blk, None)

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
        f_on = search(frames[1], frames[0], spec, params_on, FlopsLedger())
        f_off = search(frames[1], frames[0], spec, params_off, FlopsLedger())
        stopped_at_origin = (f_on.nnz <= 0.3 * spec.block_size) & (f_on.mv_dy == 0) & (f_on.mv_dx == 0)
        assert stopped_at_origin.any()
        np.testing.assert_array_equal(
            f_on.matched[stopped_at_origin], f_off.matched[stopped_at_origin]
        )


class TestCsvDump:
    def test_schema_and_content(self):
        rng = np.random.default_rng(18)
        spec = make_spec(rng)
        x = rng.random((3, 6, 6), dtype=np.float32)
        field = search(x, x.copy(), spec, MotionParams(), FlopsLedger())
        buf = io.StringIO()
        field.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "i,j,matched,dx,dy,sad,nnz"
        assert len(lines) == 1 + field.positions
        first = lines[1].split(",")
        assert first[:5] == ["0", "0", "1", "0", "0"]
        assert float(first[5]) == 0.0
        assert first[6] == "0"


class TestFieldFromVectors:
    def test_rejects_non_stride_multiple(self):
        rng = np.random.default_rng(19)
        spec = make_spec(rng, stride=2, padding=1)
        x = rng.random((3, 12, 12), dtype=np.float32)
        out_h, out_w = spec.out_shape(12, 12)
        mv = np.ones((out_h, out_w), dtype=np.int32)  # 1 is not a multiple of 2
        with pytest.raises(ValueError, match="multiples"):
            field_from_vectors(x, x, spec, mv, mv, np.ones((out_h, out_w), bool))

    def test_consistent_with_search_on_static(self):
        rng = np.random.default_rng(20)
        spec = make_spec(rng)
        x = rng.random((3, 8, 8), dtype=np.float32)
        out_h, out_w = spec.out_shape(8, 8)
        zeros = np.zeros((out_h, out_w), dtype=np.int32)
        field = field_from_vectors(x, x.copy(), spec, zeros, zeros, np.ones((out_h, out_w), bool))
        assert field.alpha == 1.0 and field.beta == 0.0
        assert not field.residual.any()
