import numpy as np
import pytest

from motionconv.layer import MotionCompLayer
from motionconv.motion import MotionParams
from motionconv.scheduler import GopConfig, Network, run_sequence
from motionconv.synth import SceneSpec, generate, random_conv_spec
from motionconv.tensors import ConvSpec, save_weights


def make_net(seed=0, c_in=3, depth=2, c_mid=8, tau=0.01, **params):
    rng = np.random.default_rng(seed)
    mp = MotionParams(threshold=tau, **params)
    layers = []
    chans = [c_in] + [c_mid] * depth
    for a, b in zip(chans, chans[1:]):
        layers.append(MotionCompLayer(random_conv_spec(rng, a, b, 3, 1), mp, activation="relu"))
    return Network(layers)


class TestGopConfig:
    @pytest.mark.parametrize("value", [0, -3, True, 2.5, 12.0, "12"])
    def test_rejects_non_integer_or_small_length(self, value):
        # True would make every frame a key frame and 2.5 key frames 0, 5,
        # 10, ... without a word, so both are refused up front
        with pytest.raises(ValueError, match="gop_length must be an integer >= 1"):
            GopConfig(gop_length=value)

    def test_accepts_numpy_integer_length(self):
        config = GopConfig(gop_length=np.int64(4))
        assert config.gop_length == 4 and type(config.gop_length) is int


class TestNetwork:
    def test_rejects_incompatible_layers(self):
        rng = np.random.default_rng(1)
        a = MotionCompLayer(random_conv_spec(rng, 3, 8, 3, 1))
        b = MotionCompLayer(random_conv_spec(rng, 4, 8, 3, 1))
        with pytest.raises(ValueError, match="incompatible"):
            Network([a, b])

    def test_from_json(self, tmp_path):
        rng = np.random.default_rng(2)
        spec0 = random_conv_spec(rng, 3, 6, 3, 1)
        spec1 = random_conv_spec(rng, 6, 6, 3, 1)
        save_weights(spec0, tmp_path / "l0.bin")
        save_weights(spec1, tmp_path / "l1.bin")
        desc = {
            "layers": [
                {"weights": "l0.bin", "params": {"threshold": 0.02, "activation": "relu"}},
                {"weights": "l1.bin", "params": {"search_range": 2}},
            ]
        }
        import json

        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(desc))
        net = Network.from_json(net_path)
        assert len(net) == 2
        assert net.layers[0].params.threshold == 0.02
        assert net.layers[0].activation == "relu"
        assert net.layers[1].params.search_range == 2

    def test_from_json_without_layers_is_value_error(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text("{}")
        with pytest.raises(ValueError, match=f"{net_path}.*'layers'"):
            Network.from_json(net_path)

    @pytest.mark.parametrize("weights, kind", [(5, "int"), (None, "NoneType"), (["l0.bin"], "list")])
    def test_from_json_weights_that_are_not_a_path_name_the_layer(self, tmp_path, weights, kind):
        # a number once reached Path() and raised a bare TypeError naming no layer
        import json

        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps({"layers": [{"weights": weights}]}))
        with pytest.raises(ValueError, match=f"'weights' of layer 0 of .*{net_path}.*got {kind}"):
            Network.from_json(net_path)

    def test_from_json_layer_without_weights_is_value_error(self, tmp_path):
        net_path = tmp_path / "net.json"
        net_path.write_text('{"layers": [{}]}')
        with pytest.raises(ValueError, match=f"layer 0 of .*{net_path}.*'weights'"):
            Network.from_json(net_path)

    @pytest.mark.parametrize("entry, key", [
        ({"weights": "l0.bin", "param": {}}, "param"),
        ({"weights": "l0.bin", "activation": "relu"}, "activation"),
        ({"weights": "l0.bin", "params": {"treshold": 0.0}}, "treshold"),
        ({"weights": "l0.bin", "params": {"weights": "l1.bin"}}, "weights"),
    ])
    def test_from_json_rejects_unknown_keys(self, tmp_path, entry, key):
        import json

        save_weights(random_conv_spec(np.random.default_rng(3), 3, 6, 3, 1), tmp_path / "l0.bin")
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps({"layers": [entry]}))
        with pytest.raises(ValueError, match=f"layer 0 of .*{net_path}.*'{key}'"):
            Network.from_json(net_path)

    @pytest.mark.parametrize("desc, where, kind", [
        ({"layers": {"a": 1}}, "'layers' of network description", "dict"),
        ({"layers": "l0.bin"}, "'layers' of network description", "str"),
        ({"layers": [{"weights": "l0.bin", "params": None}]}, "'params' of layer 0 of", "NoneType"),
        ({"layers": [{"weights": "l0.bin", "params": 3}]}, "'params' of layer 0 of", "int"),
        ({"layers": [{"weights": "l0.bin", "params": "ab"}]}, "'params' of layer 0 of", "str"),
        ({"layers": [{"weights": "l0.bin"}, {"weights": "l0.bin", "params": [["threshold", 0.1]]}]},
         "'params' of layer 1 of", "list"),
    ], ids=["layers-object", "layers-string", "params-null", "params-number", "params-string",
            "params-list"])
    def test_from_json_rejects_mistyped_layers_and_params(self, tmp_path, desc, where, kind):
        # a dict of layers once iterated its keys, a None or numeric params
        # block raised a bare TypeError and a string one dict's own ValueError
        import json

        save_weights(random_conv_spec(np.random.default_rng(3), 3, 3, 3, 1), tmp_path / "l0.bin")
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(desc))
        with pytest.raises(ValueError, match=f"{where} .*{net_path}.*got {kind}"):
            Network.from_json(net_path)


class TestRunSequence:
    def test_static_pair_second_frame_costs_only_search(self):
        net = make_net(seed=3)
        frame = generate(SceneSpec(kind="static", height=12, width=12, channels=3, frame_count=1, seed=4))[0]
        result = run_sequence(net, [frame, frame.copy()], GopConfig(gop_length=2))
        np.testing.assert_array_equal(result.outputs[0], result.outputs[1])
        nonkey = [r for r in result.records if r.frame == 1]
        assert all(r.flops["key"] == 0 for r in nonkey)
        assert all(r.flops["res"] == 0 for r in nonkey)
        assert all(r.flops["unmatched"] == 0 for r in nonkey)
        assert sum(r.flops["me"] for r in nonkey) > 0

    def test_all_key_equals_plain_convolution_cost(self):
        net = make_net(seed=5)
        frames = generate(SceneSpec(kind="noise_mix", height=10, width=10, channels=3,
                                    frame_count=4, seed=6, noise_amplitude=0.1))
        result = run_sequence(net, frames, GopConfig(gop_length=1))
        assert result.ledger.total == result.baseline_total
        assert result.ledger.me_flops == 0

    def test_translating_sequence_lossless_at_tau_zero(self):
        net = make_net(seed=7, depth=3, tau=0.0, early_stop_density=-1.0, match_max_density=1.0)
        frames = generate(SceneSpec(kind="global_translate", height=16, width=16, channels=3,
                                    frame_count=6, seed=8, motion=(1, 0)))
        result = run_sequence(net, frames, GopConfig(gop_length=6, oracle=True))
        assert max(result.oracle_max_abs) <= 1e-4

    def test_gop_isolation(self):
        # frames in GOP 1 give identical outputs regardless of GOP 0 content
        net_a = make_net(seed=9)
        net_b = make_net(seed=9)
        rng = np.random.default_rng(10)
        gop1 = [rng.random((3, 10, 10), dtype=np.float32) for _ in range(3)]
        gop0_a = [rng.random((3, 10, 10), dtype=np.float32) for _ in range(3)]
        gop0_b = [rng.random((3, 10, 10), dtype=np.float32) for _ in range(3)]
        res_a = run_sequence(net_a, gop0_a + gop1, GopConfig(gop_length=3))
        res_b = run_sequence(net_b, gop0_b + gop1, GopConfig(gop_length=3))
        for t in (3, 4, 5):
            np.testing.assert_array_equal(res_a.outputs[t], res_b.outputs[t])

    def test_longer_gop_saves_more_on_static_scene(self):
        frames = generate(SceneSpec(kind="static", height=16, width=16, channels=3,
                                    frame_count=24, seed=11))
        totals = {}
        for gop in (2, 4, 6, 8, 12):
            net = make_net(seed=12)
            totals[gop] = run_sequence(net, frames, GopConfig(gop_length=gop)).ledger.total
        values = [totals[g] for g in (2, 4, 6, 8, 12)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dimension_drift_rejected_with_frame_index(self):
        net = make_net(seed=13)
        frames = [np.zeros((3, 10, 10), dtype=np.float32), np.zeros((3, 10, 12), dtype=np.float32)]
        with pytest.raises(ValueError, match="frame 1"):
            run_sequence(net, frames, GopConfig(gop_length=2))

    def test_empty_sequence_rejected(self):
        net = make_net(seed=14)
        with pytest.raises(ValueError, match="empty"):
            run_sequence(net, [], GopConfig())

    def test_oracle_zero_error_on_static_scene(self):
        net = make_net(seed=15, tau=0.0)
        frames = generate(SceneSpec(kind="static", height=12, width=12, channels=3,
                                    frame_count=6, seed=16))
        result = run_sequence(net, frames, GopConfig(gop_length=6, oracle=True))
        assert result.oracle_max_abs == [0.0] * 6

    def test_records_cover_every_frame_layer(self):
        net = make_net(seed=19, depth=2)
        frames = generate(SceneSpec(kind="static", height=10, width=10, channels=3,
                                    frame_count=5, seed=20))
        result = run_sequence(net, frames, GopConfig(gop_length=2))
        assert len(result.records) == 5 * 2
        assert [r.frame for r in result.records if r.layer == 0 and r.is_key] == [0, 2, 4]
        key_records = [r for r in result.records if r.is_key]
        assert all(r.flops["me"] == 0 for r in key_records)
        assert all(r.stats is None for r in key_records)

    def test_record_conv_flops_is_the_layer_dense_cost(self):
        # layers that change the grid (stride 2, no padding, k=1) so that each
        # layer's input dims differ from the frame's and from its output dims
        rng = np.random.default_rng(21)
        shapes = [(3, 8, 3, 1, 1), (8, 8, 3, 2, 1), (8, 4, 3, 1, 0), (4, 4, 1, 1, 0)]
        net = Network([MotionCompLayer(random_conv_spec(rng, *shape))
                       for shape in shapes])
        frames = generate(SceneSpec(kind="global_translate", height=15, width=13, channels=3,
                                    frame_count=4, motion=(1, 0), seed=22))
        result = run_sequence(net, frames, GopConfig(gop_length=3))
        assert len(result.records) == 4 * len(shapes)
        for rec in result.records:
            h, w = frames[0].shape[1:]
            for layer in net.layers[: rec.layer]:
                h, w = layer.spec.out_shape(h, w)
            assert type(rec.conv_flops) is int
            assert rec.conv_flops == rec.spec.conv_flops(h, w)
        assert result.baseline_total == sum(rec.conv_flops for rec in result.records)

    def test_caches_released_on_return(self):
        # every run starts with a key frame, so nothing may outlive the run
        net = make_net(seed=12)
        frames = generate(SceneSpec(kind="noise_mix", height=10, width=10, channels=3,
                                    frame_count=4, seed=13, motion=(1, 0)))
        run_sequence(net, frames, GopConfig(gop_length=4))
        assert all(layer.cache is None and layer.last_stats is None for layer in net.layers)

    @pytest.mark.parametrize("bad", ["nan", "channels", "layer"])
    def test_caches_released_when_a_frame_fails(self, bad):
        # a frame that fails mid-sequence leaves no layer cache behind, and
        # the error names the frame once
        net = make_net(seed=12)
        frames = generate(SceneSpec(kind="noise_mix", height=10, width=10, channels=3,
                                    frame_count=4, seed=13, motion=(1, 0)))
        if bad == "nan":
            frames[2] = frames[2].copy()
            frames[2][0, 3, 3] = np.nan
            match = "^frame 2 contains non-finite values$"
        elif bad == "channels":
            frames[2] = frames[2][:2]
            match = "^frame 2 has 2 channels, expected 3$"
        else:
            # a frame that passes validation but overflows inside the network
            frames[2] = np.full_like(frames[2], 3e38)
            match = r"^frame 2, layer \d: "
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=match):
            run_sequence(net, frames, GopConfig(gop_length=4))
        assert all(layer.cache is None and layer.last_stats is None for layer in net.layers)

    def test_dense_oracle_failure_names_the_frame(self):
        # matched positions are pure copies, so only the oracle's dense
        # pass over the changed patch overflows float32
        spec = ConvSpec(np.full((1, 1, 3, 3), 1e38, dtype=np.float32), padding=1)
        net = Network([MotionCompLayer(spec, compensate=False)])
        patch = np.zeros((1, 8, 8), dtype=np.float32)
        patch[0, 3:5, 3:5] = 1.0
        frames = [np.zeros((1, 8, 8), dtype=np.float32), patch]
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match="^frame 1, dense oracle: convolution produced non-finite values$"):
            run_sequence(net, frames, GopConfig(gop_length=2, oracle=True))
        assert all(layer.cache is None for layer in net.layers)
