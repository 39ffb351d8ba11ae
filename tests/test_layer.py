import json

import numpy as np
import pytest

from motionconv.layer import LayerError, MotionCompLayer
from motionconv.ledger import FlopsLedger
from motionconv.motion import MotionParams, field_from_vectors
from motionconv.tensors import ConvSpec, conv2d, save_weights


def make_spec(rng, c_in=3, c_out=8, k=3, stride=1, padding=1, bias=True):
    weights = rng.uniform(-0.4, 0.4, size=(c_out, c_in, k, k)).astype(np.float32)
    b = rng.uniform(-0.2, 0.2, size=c_out).astype(np.float32) if bias else None
    return ConvSpec(weights=weights, bias=b, stride=stride, padding=padding)


def lossless_params(**kw):
    base = dict(search_range=1, threshold=0.0, early_stop_density=-1.0, match_max_density=1.0)
    base.update(kw)
    return MotionParams(**base)


class TestForwardKey:
    def test_equals_dense_conv_exactly(self):
        rng = np.random.default_rng(0)
        spec = make_spec(rng)
        layer = MotionCompLayer(spec)
        x = rng.random((3, 10, 10), dtype=np.float32)
        out = layer.forward_key(x, FlopsLedger())
        np.testing.assert_array_equal(out, conv2d(x, spec, None))

    def test_cache_holds_frame_pair(self):
        rng = np.random.default_rng(1)
        spec = make_spec(rng)
        layer = MotionCompLayer(spec)
        x = rng.random((3, 10, 10), dtype=np.float32)
        out = layer.forward_key(x, FlopsLedger())
        np.testing.assert_array_equal(layer.cache.prev_input, x)
        np.testing.assert_array_equal(layer.cache.prev_output, out)
        assert not layer.cache.prev_input.flags.writeable

    def test_flops_charge(self):
        rng = np.random.default_rng(2)
        spec = make_spec(rng, c_in=4, c_out=16, k=3, padding=1)
        layer = MotionCompLayer(spec)
        led = FlopsLedger()
        layer.forward_key(rng.random((4, 8, 8), dtype=np.float32), led)
        assert led.key_flops == 73_728
        assert led.total == 73_728


class TestResetAndCacheContract:
    def test_nonkey_without_cache_rejected(self):
        rng = np.random.default_rng(3)
        layer = MotionCompLayer(make_spec(rng))
        with pytest.raises(LayerError, match="key frame"):
            layer.forward_nonkey(rng.random((3, 8, 8), dtype=np.float32), FlopsLedger())

    def test_reset_then_nonkey_rejected(self):
        rng = np.random.default_rng(4)
        layer = MotionCompLayer(make_spec(rng))
        x = rng.random((3, 8, 8), dtype=np.float32)
        layer.forward_key(x, FlopsLedger())
        layer.reset()
        with pytest.raises(LayerError):
            layer.forward_nonkey(x, FlopsLedger())

    def test_double_reset_idempotent(self):
        rng = np.random.default_rng(5)
        layer = MotionCompLayer(make_spec(rng))
        layer.reset()
        layer.reset()
        assert layer.cache is None
        layer.forward_key(rng.random((3, 8, 8), dtype=np.float32), FlopsLedger())
        assert layer.cache is not None

    def test_shape_drift_rejected(self):
        rng = np.random.default_rng(6)
        layer = MotionCompLayer(make_spec(rng))
        layer.forward_key(rng.random((3, 8, 8), dtype=np.float32), FlopsLedger())
        with pytest.raises(LayerError, match="differs"):
            layer.forward_nonkey(rng.random((3, 8, 9), dtype=np.float32), FlopsLedger())

    def _layer_and_field(self, seed):
        rng = np.random.default_rng(seed)
        spec = make_spec(rng)
        x0 = rng.random((3, 8, 8), dtype=np.float32)
        x1 = rng.random((3, 8, 8), dtype=np.float32)
        layer = MotionCompLayer(spec, lossless_params())
        layer.forward_key(x0, FlopsLedger())
        out_h, out_w = spec.out_shape(8, 8)
        zeros = np.zeros((out_h, out_w), dtype=np.int32)
        field = field_from_vectors(x1, x0, spec, zeros, zeros, np.ones((out_h, out_w), bool))
        return layer, field, x1

    def test_external_field_without_residual_rejected(self):
        layer, field, x1 = self._layer_and_field(40)
        del field.residual
        with pytest.raises(LayerError, match="no residual"):
            layer.forward_nonkey(x1, FlopsLedger(), field=field)

    def test_external_field_residual_shape_rejected(self):
        layer, field, x1 = self._layer_and_field(41)
        field.residual = field.residual[:-1]
        with pytest.raises(LayerError, match="residual has shape"):
            layer.forward_nonkey(x1, FlopsLedger(), field=field)

    @pytest.mark.parametrize("edit, match", [
        (None, "1-D integer"),
        (lambda at: at.reshape(1, -1), "1-D integer"),
        (lambda at: at.astype(np.float64), "1-D integer"),
        (lambda at: np.concatenate([at[:1], at[:-1]]), "strictly increasing"),
        (lambda at: at - 1, "outside"),
        (lambda at: at + 1, "outside"),
    ], ids=["missing", "2-d", "float", "repeated", "negative", "past-the-grid"])
    def test_external_field_residual_at_rejected(self, edit, match):
        layer, field, x1 = self._layer_and_field(42)
        assert field.residual_at.tolist() == list(range(field.positions))
        if edit is None:
            del field.residual_at
        else:
            field.residual_at = edit(field.residual_at)
        with pytest.raises(LayerError, match=match):
            layer.forward_nonkey(x1, FlopsLedger(), field=field)


class TestForwardNonKey:
    def test_static_input_returns_cached_output_exactly(self):
        rng = np.random.default_rng(7)
        layer = MotionCompLayer(make_spec(rng), MotionParams(threshold=0.05))
        x = rng.random((3, 10, 10), dtype=np.float32)
        key_out = layer.forward_key(x, FlopsLedger())
        led = FlopsLedger()
        out = layer.forward_nonkey(x.copy(), led)
        np.testing.assert_array_equal(out, key_out)
        assert led.res_flops == 0
        assert led.unmatched_flops == 0

    def test_tau_zero_matches_dense_conv(self):
        rng = np.random.default_rng(8)
        spec = make_spec(rng)
        layer = MotionCompLayer(spec, lossless_params())
        layer.forward_key(rng.random((3, 12, 12), dtype=np.float32), FlopsLedger())
        x1 = rng.random((3, 12, 12), dtype=np.float32)
        out = layer.forward_nonkey(x1, FlopsLedger())
        np.testing.assert_allclose(out, conv2d(x1, spec, None), atol=1e-4, rtol=0)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("affine", ["none", "scale", "shift", "both"])
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("activation", ["none", "relu", "leaky_relu"])
    def test_all_unmatched_fallback_is_dense(self, activation, bias, affine, stride):
        # the fallback and the key path share one row routine and one affine,
        # so a field that matches nothing reproduces the dense path bit for bit
        rng = np.random.default_rng(9)
        spec = make_spec(rng, bias=bias, stride=stride)
        c_out = spec.out_channels
        scale = rng.uniform(0.5, 1.5, c_out) if affine in ("scale", "both") else None
        shift = rng.uniform(-0.3, 0.3, c_out) if affine in ("shift", "both") else None
        layer = MotionCompLayer(spec, lossless_params(), activation=activation,
                                post_scale=scale, post_shift=shift)
        x0 = rng.random((3, 12, 12), dtype=np.float32)
        x1 = rng.random((3, 12, 12), dtype=np.float32)
        layer.forward_key(x0, FlopsLedger())
        grid = spec.out_shape(12, 12)
        zeros = np.zeros(grid, dtype=np.int32)
        field = field_from_vectors(x1, x0, spec, zeros, zeros, np.zeros(grid, dtype=bool))
        led = FlopsLedger()
        out = layer.forward_nonkey(x1, led, field=field)
        np.testing.assert_array_equal(out, layer.dense_forward(x1))
        assert led.counts() == {"key": 0, "me": 0, "res": 0,
                                "unmatched": spec.conv_flops(12, 12),
                                "total": spec.conv_flops(12, 12)}

    def test_bias_present_exactly_once_on_matched_positions(self):
        rng = np.random.default_rng(10)
        spec = make_spec(rng, bias=True)
        layer = MotionCompLayer(spec, lossless_params())
        layer.forward_key(rng.random((3, 10, 10), dtype=np.float32), FlopsLedger())
        x1 = rng.random((3, 10, 10), dtype=np.float32)
        out = layer.forward_nonkey(x1, FlopsLedger())
        assert layer.last_stats.matched > 0
        np.testing.assert_allclose(out, conv2d(x1, spec, None), atol=1e-4, rtol=0)

    def test_exact_for_arbitrary_motion_fields(self):
        # correctness never depends on vector quality, only cost does
        rng = np.random.default_rng(11)
        spec = make_spec(rng)
        x0 = rng.random((3, 12, 12), dtype=np.float32)
        x1 = rng.random((3, 12, 12), dtype=np.float32)
        oracle = conv2d(x1, spec, None)
        out_h, out_w = spec.out_shape(12, 12)
        for trial in range(8):
            trial_rng = np.random.default_rng(100 + trial)
            layer = MotionCompLayer(spec, lossless_params())
            layer.forward_key(x0, FlopsLedger())
            mv_dy = trial_rng.integers(-2, 3, size=(out_h, out_w)).astype(np.int32)
            mv_dx = trial_rng.integers(-2, 3, size=(out_h, out_w)).astype(np.int32)
            matched = trial_rng.random((out_h, out_w)) < 0.7
            field = field_from_vectors(x1, x0, spec, mv_dy, mv_dx, matched, tau=0.0)
            out = layer.forward_nonkey(x1, FlopsLedger(), field=field)
            np.testing.assert_allclose(out, oracle, atol=1e-4, rtol=0)

    def test_out_of_grid_prediction_demoted_to_dense(self):
        rng = np.random.default_rng(12)
        spec = make_spec(rng)
        x0 = rng.random((3, 8, 8), dtype=np.float32)
        x1 = rng.random((3, 8, 8), dtype=np.float32)
        out_h, out_w = spec.out_shape(8, 8)
        layer = MotionCompLayer(spec, lossless_params())
        layer.forward_key(x0, FlopsLedger())
        # every position claims a vector pointing one full grid step up-left;
        # top row and left column predictions leave the grid
        mv = np.full((out_h, out_w), -1, dtype=np.int32)
        field = field_from_vectors(x1, x0, spec, mv, mv, np.ones((out_h, out_w), bool), tau=0.0)
        led = FlopsLedger()
        out = layer.forward_nonkey(x1, led, field=field)
        demoted = out_h + out_w - 1
        assert layer.last_stats.demoted == demoted
        assert led.unmatched_flops == 2 * spec.block_size * spec.out_channels * demoted
        np.testing.assert_allclose(out, conv2d(x1, spec, None), atol=1e-4, rtol=0)

    def test_threshold_error_bound(self):
        rng = np.random.default_rng(13)
        spec = make_spec(rng, bias=False)
        tau = 0.02
        layer = MotionCompLayer(spec, MotionParams(search_range=1, threshold=tau,
                                                   early_stop_density=-1.0, match_max_density=1.0))
        x0 = rng.random((3, 12, 12), dtype=np.float32)
        layer.forward_key(x0, FlopsLedger())
        x1 = np.clip(x0 + rng.uniform(-0.05, 0.05, x0.shape).astype(np.float32), 0, 1)
        out = layer.forward_nonkey(x1, FlopsLedger())
        bound = tau * spec.block_size * float(np.abs(spec.weights).max()) + 1e-5
        err = np.abs(out - conv2d(x1, spec, None)).max()
        assert err <= bound

    def test_flops_conservation(self):
        rng = np.random.default_rng(14)
        layer = MotionCompLayer(make_spec(rng), MotionParams(threshold=0.01, match_max_density=0.8))
        led = FlopsLedger()
        x = rng.random((3, 10, 10), dtype=np.float32)
        layer.forward_key(x, led)
        for _ in range(3):
            x = np.clip(x + rng.uniform(-0.03, 0.03, x.shape).astype(np.float32), 0, 1)
            layer.forward_nonkey(x, led)
        assert led.total == led.key_flops + led.me_flops + led.res_flops + led.unmatched_flops

    def test_cache_chains_reconstructed_output(self):
        rng = np.random.default_rng(15)
        spec = make_spec(rng)
        layer = MotionCompLayer(spec, lossless_params())
        layer.forward_key(rng.random((3, 10, 10), dtype=np.float32), FlopsLedger())
        x1 = rng.random((3, 10, 10), dtype=np.float32)
        out1 = layer.forward_nonkey(x1, FlopsLedger())
        np.testing.assert_array_equal(layer.cache.prev_output, out1)
        np.testing.assert_array_equal(layer.cache.prev_input, x1)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_search_range_change_between_frames(self, stride):
        # the key frame's cached plane is padded for r=1; a non-key frame at
        # r=2 pads it again and must equal a layer that ran at r=2 throughout
        rng = np.random.default_rng(18)
        spec = make_spec(rng, stride=stride)
        ref = rng.random((3, 12, 12), dtype=np.float32)
        frames = [np.roll(ref, 2 * t * stride, axis=2) for t in (1, 2)]
        changed = MotionCompLayer(spec, MotionParams(search_range=1, threshold=0.01))
        fresh = MotionCompLayer(spec, MotionParams(search_range=2, threshold=0.01))
        changed.forward_key(ref, FlopsLedger())
        fresh.forward_key(ref, FlopsLedger())
        changed.params = changed.params.updated(search_range=2)
        for x in frames:
            led, fresh_led = FlopsLedger(), FlopsLedger()
            np.testing.assert_array_equal(
                changed.forward_nonkey(x, led), fresh.forward_nonkey(x, fresh_led)
            )
            assert led.counts() == fresh_led.counts()
            assert led.pred_bytes_moved == fresh_led.pred_bytes_moved
            assert changed.last_stats == fresh.last_stats

    def test_prediction_copies_charge_zero_flops_but_move_bytes(self):
        rng = np.random.default_rng(16)
        spec = make_spec(rng)
        layer = MotionCompLayer(spec, MotionParams(threshold=0.01))
        x = rng.random((3, 10, 10), dtype=np.float32)
        layer.forward_key(x, FlopsLedger())
        led = FlopsLedger()
        layer.forward_nonkey(x.copy(), led)
        assert led.total == led.me_flops  # only search work
        out_h, out_w = spec.out_shape(10, 10)
        assert led.pred_bytes_moved == 4 * spec.out_channels * out_h * out_w


class TestAffineAndActivation:
    def test_affine_folding_lossless(self):
        rng = np.random.default_rng(17)
        spec = make_spec(rng)
        scale = rng.uniform(0.5, 1.5, size=spec.out_channels).astype(np.float32)
        shift = rng.uniform(-0.3, 0.3, size=spec.out_channels).astype(np.float32)
        layer = MotionCompLayer(spec, lossless_params(), post_scale=scale, post_shift=shift)
        x0 = rng.random((3, 10, 10), dtype=np.float32)
        key_out = layer.forward_key(x0, FlopsLedger())
        expected0 = conv2d(x0, spec, None) * scale[:, None, None] + shift[:, None, None]
        np.testing.assert_allclose(key_out, expected0, atol=1e-6, rtol=0)
        x1 = rng.random((3, 10, 10), dtype=np.float32)
        out = layer.forward_nonkey(x1, FlopsLedger())
        expected1 = conv2d(x1, spec, None) * scale[:, None, None] + shift[:, None, None]
        np.testing.assert_allclose(out, expected1, atol=1e-4, rtol=0)

    def test_activation_applied_after_reconstruction(self):
        rng = np.random.default_rng(18)
        spec = make_spec(rng)
        layer = MotionCompLayer(spec, lossless_params(), activation="relu")
        x0 = rng.random((3, 10, 10), dtype=np.float32)
        key_out = layer.forward_key(x0, FlopsLedger())
        np.testing.assert_array_equal(key_out, np.maximum(conv2d(x0, spec, None), 0.0))
        # cache keeps pre-activation values so the linear decomposition holds
        assert (layer.cache.prev_output < 0).any()
        x1 = rng.random((3, 10, 10), dtype=np.float32)
        out = layer.forward_nonkey(x1, FlopsLedger())
        np.testing.assert_allclose(out, np.maximum(conv2d(x1, spec, None), 0.0), atol=1e-4, rtol=0)

    def test_unknown_activation_rejected(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError, match="activation"):
            MotionCompLayer(make_spec(rng), activation="tanh")


class TestCompensationToggle:
    def test_disabled_compensation_skips_residual_work(self):
        rng = np.random.default_rng(20)
        spec = make_spec(rng)
        layer = MotionCompLayer(spec, MotionParams(threshold=0.0, match_max_density=1.0),
                                compensate=False)
        x0 = rng.random((3, 10, 10), dtype=np.float32)
        layer.forward_key(x0, FlopsLedger())
        x1 = np.clip(x0 + rng.uniform(-0.1, 0.1, x0.shape).astype(np.float32), 0, 1)
        led = FlopsLedger()
        out = layer.forward_nonkey(x1, led)
        assert led.res_flops == 0
        assert layer.last_stats.nnz_total == 0
        err = np.abs(out - conv2d(x1, spec, None)).max()
        assert err > 1e-3  # prediction alone visibly deviates


class TestFromFiles:
    def test_construction(self, tmp_path):
        rng = np.random.default_rng(21)
        spec = make_spec(rng)
        path = tmp_path / "w.bin"
        save_weights(spec, path)
        params = {
            "search_range": 2,
            "threshold": 0.05,
            "early_stop_density": -1.0,
            "match_max_density": 0.7,
            "activation": "relu",
        }
        layer = MotionCompLayer.from_files(path, params)
        assert layer.params.search_range == 2
        assert layer.params.threshold == 0.05
        assert not layer.params.early_stop_enabled
        assert layer.activation == "relu"
        np.testing.assert_array_equal(layer.spec.weights, spec.weights)

    @pytest.mark.parametrize("key", ["treshold", "stride", "weights"])
    def test_rejects_unknown_param_key(self, tmp_path, key):
        path = tmp_path / "w.bin"
        save_weights(make_spec(np.random.default_rng(22)), path)
        with pytest.raises(ValueError, match=f"{path}.*'{key}'"):
            MotionCompLayer.from_files(path, {"threshold": 0.0, key: 1})
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({key: 1}))
        with pytest.raises(ValueError, match=f"{params_path}.*'{key}'"):
            MotionCompLayer.from_files(path, params_path)
