import numpy as np
import pytest

from motionconv.layer import MotionCompLayer
from motionconv.motion import MotionParams
from motionconv.scheduler import GopConfig, Network, run_sequence, segment
from motionconv.synth import SceneSpec, generate, random_conv_spec
from motionconv.tensors import save_weights


def make_net(seed=0, c_in=3, depth=2, c_mid=8, tau=0.01, **params):
    rng = np.random.default_rng(seed)
    mp = MotionParams(threshold=tau, **params)
    layers = []
    chans = [c_in] + [c_mid] * depth
    for a, b in zip(chans, chans[1:]):
        layers.append(MotionCompLayer(random_conv_spec(rng, a, b, 3, 1), mp, activation="relu"))
    return Network(layers)


class TestSegment:
    def test_paper_setting(self):
        assert segment(25, 12) == [0, 12, 24]

    def test_all_key_degenerate(self):
        assert segment(5, 1) == [0, 1, 2, 3, 4]

    def test_single_gop(self):
        assert segment(12, 12) == [0]

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            segment(10, 0)
        with pytest.raises(ValueError):
            segment(0, 4)


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
        assert result.key_indices == [0, 2, 4]
        key_records = [r for r in result.records if r.is_key]
        assert all(r.flops["me"] == 0 for r in key_records)
        assert all(r.alpha is None for r in key_records)

    def test_caches_released_on_return(self):
        # every run starts with a key frame, so nothing may outlive the run
        net = make_net(seed=12)
        frames = generate(SceneSpec(kind="noise_mix", height=10, width=10, channels=3,
                                    frame_count=4, seed=13, motion=(1, 0)))
        run_sequence(net, frames, GopConfig(gop_length=4))
        assert all(layer.cache is None and layer.last_stats is None for layer in net.layers)
