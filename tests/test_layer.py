import json

import numpy as np
import pytest

from motionconv import layer as layer_mod
from motionconv import tensors
from motionconv.layer import LayerError, MotionCompLayer
from motionconv.ledger import FlopsLedger
from motionconv.motion import MotionParams
from motionconv.tensors import ConvSpec, conv2d, save_weights

from oracles import oracle_field


def make_spec(rng, c_in=3, c_out=8, k=3, stride=1, padding=1, bias=True):
    weights = rng.uniform(-0.4, 0.4, size=(c_out, c_in, k, k)).astype(np.float32)
    b = rng.uniform(-0.2, 0.2, size=c_out).astype(np.float32) if bias else None
    return ConvSpec(weights=weights, bias=b, stride=stride, padding=padding)


def search_returns(monkeypatch, field):
    """Make every layer's search return ``field``: a non-key frame then runs
    on chosen vectors and match flags, and charges no me FLOPs."""
    monkeypatch.setattr(layer_mod, "search", lambda *args: field)


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

    def test_input_validated_once(self, monkeypatch):
        # conv2d validates the frame, and the layer does not validate it again
        calls = []
        real = tensors.ensure_feature_map

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        for owner in (layer_mod, tensors):
            monkeypatch.setattr(owner, "ensure_feature_map", counting)
        rng = np.random.default_rng(15)
        layer = MotionCompLayer(make_spec(rng))
        layer.forward_key(rng.random((3, 8, 8)), FlopsLedger())
        assert len(calls) == 1
        assert layer.cache.prev_input.dtype == np.float32
        with pytest.raises(ValueError, match="input has 2 channels, expected 3"):
            layer.forward_key(rng.random((2, 8, 8), dtype=np.float32), FlopsLedger())

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
    def test_all_unmatched_fallback_is_dense(self, activation, bias, affine, stride, monkeypatch):
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
        search_returns(monkeypatch, oracle_field(x1, x0, spec, zeros, zeros,
                                                 np.zeros(grid, dtype=bool), 0.0))
        led = FlopsLedger()
        out = layer.forward_nonkey(x1, led)
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

    def test_exact_for_arbitrary_motion_fields(self, monkeypatch):
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
            search_returns(monkeypatch, oracle_field(x1, x0, spec, mv_dy, mv_dx, matched, 0.0))
            out = layer.forward_nonkey(x1, FlopsLedger())
            np.testing.assert_allclose(out, oracle, atol=1e-4, rtol=0)

    def test_out_of_grid_prediction_demoted_to_dense(self, monkeypatch):
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
        search_returns(monkeypatch, oracle_field(x1, x0, spec, mv, mv,
                                                 np.ones((out_h, out_w), bool), 0.0))
        led = FlopsLedger()
        out = layer.forward_nonkey(x1, led)
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


def patch_frames(rng, count, c=3, size=16):
    """A reference frame, then ``count`` frames that each redraw one 4x4
    patch, two rows lower each time: every non-key box covers only part of
    the grid."""
    ref = rng.random((c, size, size), dtype=np.float32)
    frames, x = [], ref
    for t in range(count):
        x = x.copy()
        x[:, 2 + 2 * t : 6 + 2 * t, 3:7] = rng.random((c, 4, 4), dtype=np.float32)
        frames.append(x)
    return ref, frames


class TestInPlaceCache:
    """A box of part of the grid is written into the cached output in place,
    so the cached output must never be handed out, and a call that fails
    must leave it as it was."""

    @pytest.mark.parametrize("activation", ["none", "relu", "leaky_relu"])
    def test_returned_outputs_never_alias_the_cache(self, activation):
        rng = np.random.default_rng(40)
        layer = MotionCompLayer(make_spec(rng), MotionParams(threshold=0.01),
                                activation=activation)
        ref, frames = patch_frames(rng, 4)
        outs = [layer.forward_key(ref, FlopsLedger())]
        for x in frames:
            prev = layer.cache.prev_output
            outs.append(layer.forward_nonkey(x, FlopsLedger()))
            assert layer.cache.prev_output is prev  # a partial box, updated in place
            assert not any(np.shares_memory(o, layer.cache.prev_output) for o in outs)
        kept = [o.copy() for o in outs]
        for x in frames[::-1]:
            layer.forward_nonkey(x, FlopsLedger())
        for out, want in zip(outs, kept):
            np.testing.assert_array_equal(out.view(np.uint32), want.view(np.uint32))
            assert not np.shares_memory(out, layer.cache.prev_output)

    @pytest.mark.parametrize("failure", ["non-finite", "shape-drift", "fallback"])
    def test_failed_call_leaves_the_cache_intact(self, failure, monkeypatch):
        # match_max_density 0 matches only empty residuals, so the redrawn
        # patch falls back to dense positions; the fallback's gather failing
        # is a failure after the box is built
        rng = np.random.default_rng(41)
        layer = MotionCompLayer(make_spec(rng), MotionParams(match_max_density=0.0))
        ref, (x1, x2) = patch_frames(rng, 2)
        layer.forward_key(ref, FlopsLedger())
        layer.forward_nonkey(x1, FlopsLedger())
        cache = layer.cache
        prev = cache.prev_output
        prev[:, ::2] = -0.0
        before = prev.copy()
        if failure == "non-finite":
            x2[0, 0, 0] = np.nan
            error = ValueError
        elif failure == "shape-drift":
            x2 = x2[:, :-1]
            error = LayerError
        else:
            def failing(*args, **kwargs):
                raise RuntimeError("gather failed")
            monkeypatch.setattr(layer_mod, "unfold_blocks", failing)
            error = RuntimeError
        with pytest.raises(error):
            layer.forward_nonkey(x2, FlopsLedger())
        assert layer.cache is cache and cache.prev_output is prev
        np.testing.assert_array_equal(prev.view(np.uint32), before.view(np.uint32))


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

    @pytest.mark.parametrize("activation", [["relu"], {"relu": 1}, None, 1])
    def test_activation_that_is_not_a_name_rejected(self, activation):
        # an unhashable value once raised a bare TypeError from the lookup
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError, match="unknown activation"):
            MotionCompLayer(make_spec(rng), activation=activation)


class TestLedgerOptional:
    def test_nonkey_without_ledger_skips_accounting(self):
        # forward_key and search take ledger=None; so does forward_nonkey,
        # with the same outputs and stats as a run that counts
        rng = np.random.default_rng(23)
        spec = make_spec(rng)
        x0 = rng.random((3, 10, 10), dtype=np.float32)
        x1 = np.clip(x0 + rng.uniform(-0.05, 0.05, x0.shape), 0, 1).astype(np.float32)
        runs = []
        for ledger in (None, FlopsLedger()):
            layer = MotionCompLayer(spec, MotionParams(threshold=0.01))
            layer.forward_key(x0, ledger)
            runs.append((layer.forward_nonkey(x1, ledger), layer.last_stats))
        (out, stats), (want, want_stats) = runs
        np.testing.assert_array_equal(out, want)
        assert stats == want_stats and stats.nnz_total > 0


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
