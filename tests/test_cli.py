import hashlib
import json

import numpy as np
import pytest

from motionconv.bayer import load_raw_sequence
from motionconv.cli import main

STATIC_SCENE = json.dumps(
    {"kind": "static", "height": 24, "width": 24, "channels": 3, "frame_count": 12}
)
MOVING_SCENE = json.dumps(
    {"kind": "global_translate", "height": 24, "width": 24, "channels": 3,
     "frame_count": 6, "motion": [1, 0]}
)


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestRun:
    def test_static_defaults_saves_flops_with_zero_error(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--scene", STATIC_SCENE, "--tau", "0", "--oracle",
                     "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["delta_flops_pct"] > 0
        assert report["oracle_error"]["max_abs"] == 0.0

    def test_all_key_gop_has_zero_delta(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--scene", STATIC_SCENE, "--gop", "1", "--out", str(out)])
        assert code == 0
        assert read_report(out)["delta_flops_pct"] == 0.0

    def test_translation_scene_full_match_ratio(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--scene", MOVING_SCENE, "--out", str(out)])
        assert code == 0
        report = read_report(out)
        # the search matches every position; only border predictions whose
        # source leaves the grid fall back to the dense path
        assert report["measured_search_alpha"] == 1.0
        assert report["measured_alpha"] > 0.95

    def test_csv_format(self, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--scene", STATIC_SCENE, "--format", "both", "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()

    def test_scene_file_input(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(STATIC_SCENE)
        code = main(["run", "--scene", str(scene_path), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_missing_input_is_usage_error(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "o")]) == 2

    def test_bad_scene_json_is_usage_error(self, tmp_path):
        assert main(["run", "--scene", '{"kind": "nope"}', "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "entry", [{"seed": 1.5}, {"height": 16.5}, {"motion": [0.5, 0]}, {"frame_count": True},
                  # the JSON reader takes NaN and Infinity; a noise_mix scene
                  # with either once died in the noise generator, uncaught
                  {"noise_amplitude": float("nan")}, {"noise_amplitude": float("inf")},
                  {"noise_amplitude": True},
                  # past float32's largest value, each once an uncaught
                  # OverflowError or an overflow warning in the generator
                  {"noise_amplitude": 9e307}, {"noise_amplitude": 10**400},
                  {"noise_amplitude": 1e307}]
    )
    def test_non_integer_scene_field_is_usage_error(self, tmp_path, capsys, entry):
        scene = json.dumps({**json.loads(STATIC_SCENE), **entry})
        out = tmp_path / "o"
        assert main(["run", "--scene", scene, "--out", str(out)]) == 2
        assert "bad scene spec" in capsys.readouterr().err
        assert not out.exists()

    def test_input_without_sidecar_is_usage_error(self, tmp_path, capsys):
        raw = tmp_path / "seq.raw"
        raw.write_bytes(b"\x00" * 64)
        assert main(["run", "--input", str(raw), "--out", str(tmp_path / "o")]) == 2
        assert "--sidecar" in capsys.readouterr().err

    def test_missing_scene_file_is_io_error(self, tmp_path):
        assert main(["run", "--scene", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["run", "sweep", "verify"])
    @pytest.mark.parametrize(
        "flag,value",
        [("--gop", "0"), ("--tau", "-1"), ("--range", "-1"), ("--beta-max", "2"),
         ("--early-stop", "2"), ("--gop", "x"), ("--seed", "-1")],
    )
    def test_out_of_domain_flag_is_usage_error(self, tmp_path, capsys, command, flag, value):
        argv = [command, "--scene", STATIC_SCENE, flag, value, "--out", str(tmp_path / "o")]
        if command == "sweep":
            argv += ["--axis", "threshold", "--values", "0,0.1"]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_beta_max_overrides_every_layer(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--scene", STATIC_SCENE, "--beta-max", "0.5", "--out", str(out)]) == 0
        layers = read_report(out)["config"]["layers"]
        assert len(layers) == 2
        assert all(layer["match_max_density"] == 0.5 for layer in layers)

    def test_resolved_config_recorded(self, tmp_path):
        out = tmp_path / "o"
        main(["run", "--scene", STATIC_SCENE, "--tau", "0.05", "--range", "2",
              "--out", str(out)])
        report = read_report(out)
        layer_cfg = report["config"]["layers"][0]
        assert layer_cfg["threshold"] == 0.05
        assert layer_cfg["search_range"] == 2
        assert report["config"]["gop_length"] == 12


class TestNetworkLoading:
    def test_run_with_network_file(self, tmp_path):
        from motionconv.synth import random_conv_spec
        from motionconv.tensors import save_weights

        rng = np.random.default_rng(0)
        save_weights(random_conv_spec(rng, 3, 6, 3, 1), tmp_path / "l0.bin")
        save_weights(random_conv_spec(rng, 6, 6, 3, 1), tmp_path / "l1.bin")
        net_desc = {
            "layers": [
                {"weights": "l0.bin", "params": {"activation": "relu"}},
                {"weights": "l1.bin", "params": {}},
            ]
        }
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net_desc))
        out = tmp_path / "o"
        code = main(["run", "--scene", STATIC_SCENE, "--net", str(net_path), "--out", str(out)])
        assert code == 0
        assert len(read_report(out)["per_layer"]) == 2

    @pytest.mark.parametrize("entry, key", [
        ({"weights": "l0.bin", "params": {"treshold": 0.0}}, "treshold"),
        ({"weights": "l0.bin", "threshold": 0.0}, "threshold"),
        ({"weights": "l0.bin", "params": {"search_range": 1.5}}, "search_range"),
        # strings and bools are not numbers, and a string is not a bool: they
        # once ran with compensation on, ran at tau=1, or failed naming no key
        ({"weights": "l0.bin", "compensate": "false"}, "compensate"),
        ({"weights": "l0.bin", "params": {"threshold": True}}, "threshold"),
        ({"weights": "l0.bin", "params": {"threshold": "0.01"}}, "threshold"),
    ])
    def test_bad_layer_entry_is_usage_error(self, tmp_path, capsys, entry, key):
        from motionconv.synth import random_conv_spec
        from motionconv.tensors import save_weights

        save_weights(random_conv_spec(np.random.default_rng(2), 3, 6, 3, 1), tmp_path / "l0.bin")
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps({"layers": [entry]}))
        assert main(["run", "--scene", STATIC_SCENE, "--net", str(net_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_fractional_stride_in_weights_sidecar_is_usage_error(self, tmp_path, capsys):
        from motionconv.synth import random_conv_spec
        from motionconv.tensors import save_weights

        sidecar = save_weights(random_conv_spec(np.random.default_rng(3), 3, 6, 3, 1),
                               tmp_path / "l0.bin")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "stride": 1.5}))
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps({"layers": [{"weights": "l0.bin"}]}))
        assert main(["run", "--scene", STATIC_SCENE, "--net", str(net_path),
                     "--out", str(tmp_path / "o")]) == 2
        assert "stride must be an integer" in capsys.readouterr().err

    def test_string_has_bias_in_weights_sidecar_is_usage_error(self, tmp_path, capsys):
        # "true" is a string, not a JSON bool, even where the file holds a bias
        from motionconv.synth import random_conv_spec
        from motionconv.tensors import save_weights

        sidecar = save_weights(random_conv_spec(np.random.default_rng(3), 3, 6, 3, 1),
                               tmp_path / "l0.bin")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "has_bias": "true"}))
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps({"layers": [{"weights": "l0.bin"}]}))
        assert main(["run", "--scene", STATIC_SCENE, "--net", str(net_path),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert str(sidecar) in err and "'has_bias'" in err

    def test_channel_mismatch_is_usage_error(self, tmp_path):
        from motionconv.synth import random_conv_spec
        from motionconv.tensors import save_weights

        rng = np.random.default_rng(1)
        save_weights(random_conv_spec(rng, 4, 6, 3, 1), tmp_path / "l0.bin")
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps({"layers": [{"weights": "l0.bin"}]}))
        assert main(["run", "--scene", STATIC_SCENE, "--net", str(net_path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_flag_overrides_network_file_params(self, tmp_path):
        # precedence: command-line flags beat the per-layer parameter blocks
        from motionconv.synth import random_conv_spec
        from motionconv.tensors import save_weights

        rng = np.random.default_rng(2)
        save_weights(random_conv_spec(rng, 3, 6, 3, 1), tmp_path / "l0.bin")
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(
            {"layers": [{"weights": "l0.bin", "params": {"threshold": 0.5, "search_range": 3}}]}
        ))
        out = tmp_path / "o"
        assert main(["run", "--scene", STATIC_SCENE, "--net", str(net_path),
                     "--tau", "0.02", "--out", str(out)]) == 0
        layer_cfg = read_report(out)["config"]["layers"][0]
        assert layer_cfg["threshold"] == 0.02  # flag wins
        assert layer_cfg["search_range"] == 3  # file value kept where no flag given


class TestSweep:
    def test_gop_axis_on_static_scene(self, tmp_path, capsys):
        scene = json.dumps({"kind": "static", "height": 24, "width": 24,
                            "channels": 3, "frame_count": 24})
        out = tmp_path / "o"
        code = main(["sweep", "--scene", scene, "--axis", "gop",
                     "--values", "2,4,6,8,12", "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        deltas = [r["delta_flops_pct"] for r in rows]
        assert all(a < b for a, b in zip(deltas, deltas[1:]))
        increments = [b - a for a, b in zip(deltas, deltas[1:])]
        assert all(a >= b for a, b in zip(increments, increments[1:]))

    def test_threshold_axis_flops_non_increasing(self, tmp_path):
        scene = json.dumps({"kind": "noise_mix", "height": 24, "width": 24, "channels": 3,
                            "frame_count": 8, "motion": [1, 0], "noise_amplitude": 0.02})
        out = tmp_path / "o"
        code = main(["sweep", "--scene", scene, "--axis", "threshold",
                     "--values", "0,0.01,0.05,0.1", "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        totals = [r["total_flops"] for r in rows]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_search_range_axis_me_strictly_increasing(self, tmp_path):
        out = tmp_path / "o"
        code = main(["sweep", "--scene", MOVING_SCENE, "--axis", "search_range",
                     "--values", "1,2,3", "--early-stop", "-1", "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        me = [r["me_flops"] for r in rows]
        assert me[0] < me[1] < me[2]

    def test_unsorted_values_reordered_with_warning(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["sweep", "--scene", STATIC_SCENE, "--axis", "gop",
                     "--values", "4,2", "--out", str(out)])
        assert code == 0
        assert "reordered" in capsys.readouterr().err
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        assert [r["gop"] for r in rows] == [2, 4]

    def test_out_of_domain_value_is_usage_error(self, tmp_path):
        assert main(["sweep", "--scene", STATIC_SCENE, "--axis", "gop",
                     "--values", "0,4", "--out", str(tmp_path / "o")]) == 2

    def test_single_value_is_usage_error(self, tmp_path):
        assert main(["sweep", "--scene", STATIC_SCENE, "--axis", "gop",
                     "--values", "4", "--out", str(tmp_path / "o")]) == 2


class TestVerify:
    def test_default_scene_passes_all_settings(self, capsys):
        assert main(["verify", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_threshold_bound_grows_with_gop_position(self, capsys):
        # the cache chains reconstructions: each frame is held to g times the
        # one-step bound at GOP position g, a key frame to 1e-4
        assert main(["verify", "--seed", "5"]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if "GOP position g" in l]
        assert len(line) == 1 and line[0].startswith("PASS")
        ratio = float(line[0].split("worst ratio=")[1].rstrip("]"))
        assert 0 < ratio <= 1

    def test_threshold_bound_folds_post_scale_into_weights(self):
        # post_scale multiplies each output channel, so the bound is that of
        # weights pre-multiplied by it
        from motionconv.cli import _error_bound_after_threshold
        from motionconv.layer import MotionCompLayer
        from motionconv.scheduler import Network
        from motionconv.synth import random_conv_spec
        from motionconv.tensors import ConvSpec

        rng = np.random.default_rng(11)
        specs = [random_conv_spec(rng, 3, 6, 3, 1), random_conv_spec(rng, 6, 4, 3, 1)]
        scales = [rng.uniform(-2.0, 2.0, 6), rng.uniform(-2.0, 2.0, 4)]
        scaled = Network([MotionCompLayer(s, post_scale=v) for s, v in zip(specs, scales)])
        folded = Network([
            MotionCompLayer(ConvSpec(s.weights * v.astype(np.float32)[:, None, None, None],
                                     s.bias, s.stride, s.padding))
            for s, v in zip(specs, scales)
        ])
        bound = _error_bound_after_threshold(scaled, 0.01)
        assert bound > 0
        assert bound == pytest.approx(_error_bound_after_threshold(folded, 0.01), rel=1e-6)

    def test_gop_bound_scales_with_position(self):
        from motionconv.cli import _worst_gop_bound_ratio

        bound = 0.5
        at_allowance = [(t % 4) * bound + 1e-4 for t in range(9)]
        assert _worst_gop_bound_ratio(at_allowance, 4, bound) == pytest.approx(1.0)
        # 2.5 one-step bounds are within reach at position 3, not at position 1
        assert _worst_gop_bound_ratio([0.0, 0.0, 0.0, 2.5 * bound], 4, bound) < 1
        assert _worst_gop_bound_ratio([0.0, 2.5 * bound], 4, bound) > 1
        # a key frame may differ by 1e-4 only
        assert _worst_gop_bound_ratio([2e-4], 4, bound) == pytest.approx(2.0)

    def test_tau_zero_settings_coincide(self, capsys):
        assert main(["verify", "--tau", "0", "--seed", "4"]) == 0
        assert "coincide" in capsys.readouterr().out

    def test_static_scene_fails_degradation_check(self, capsys):
        # on a perfectly static scene prediction alone is already exact, so
        # the "setting 2 degrades" assertion must fail with exit code 1
        assert main(["verify", "--scene", STATIC_SCENE]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestSynth:
    def test_writes_file_and_sidecar(self, tmp_path):
        scene = json.dumps({"kind": "static", "height": 4, "width": 4,
                            "channels": 3, "frame_count": 2})
        out = tmp_path / "seq.raw"
        code = main(["synth", "--scene", scene, "--out", str(out)])
        assert code == 0
        assert out.stat().st_size == 32  # 2 frames of 4x4 8-bit
        sidecar = json.loads((tmp_path / "seq.raw.json").read_text())
        assert sidecar["frame_count"] == 2
        assert sidecar["pattern"] == "RGGB"

    def test_same_seed_byte_identical(self, tmp_path):
        scene = json.dumps({"kind": "noise_mix", "height": 8, "width": 8, "channels": 3,
                            "frame_count": 3, "noise_amplitude": 0.1})
        a, b = tmp_path / "a.raw", tmp_path / "b.raw"
        assert main(["synth", "--scene", scene, "--out", str(a), "--seed", "5"]) == 0
        assert main(["synth", "--scene", scene, "--out", str(b), "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_roundtrip_through_loader(self, tmp_path):
        scene = json.dumps({"kind": "global_translate", "height": 8, "width": 8,
                            "channels": 3, "frame_count": 4, "motion": [1, 0]})
        out = tmp_path / "seq.raw"
        assert main(["synth", "--scene", scene, "--out", str(out),
                     "--pattern", "GBRG", "--bit-depth", "16"]) == 0
        frames = list(load_raw_sequence(out, tmp_path / "seq.raw.json"))
        assert len(frames) == 4
        assert frames[0].pattern == "GBRG"

    def test_run_consumes_synth_output(self, tmp_path):
        scene = json.dumps({"kind": "noise_mix", "height": 16, "width": 16, "channels": 3,
                            "frame_count": 6, "motion": [1, 0], "noise_amplitude": 0.02})
        raw = tmp_path / "seq.raw"
        assert main(["synth", "--scene", scene, "--out", str(raw)]) == 0
        out = tmp_path / "o"
        code = main(["run", "--input", str(raw), "--sidecar", str(tmp_path / "seq.raw.json"),
                     "--gop", "3", "--oracle", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report["config"]["bayer_mode"] == "packed"
        assert report["per_layer"][0]["in_channels"] == 4

    def test_plane_mode(self, tmp_path):
        scene = json.dumps({"kind": "static", "height": 16, "width": 16,
                            "channels": 3, "frame_count": 2})
        raw = tmp_path / "seq.raw"
        assert main(["synth", "--scene", scene, "--out", str(raw)]) == 0
        out = tmp_path / "o"
        code = main(["run", "--input", str(raw), "--sidecar", str(tmp_path / "seq.raw.json"),
                     "--bayer-mode", "plane", "--gop", "2", "--out", str(out)])
        assert code == 0
        assert read_report(out)["per_layer"][0]["in_channels"] == 1

    def test_raw_sidecar_with_string_width_names_key(self, tmp_path, capsys):
        scene = json.dumps({"kind": "static", "height": 8, "width": 8,
                            "channels": 3, "frame_count": 2})
        raw = tmp_path / "seq.raw"
        assert main(["synth", "--scene", scene, "--out", str(raw)]) == 0
        sidecar = tmp_path / "seq.raw.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "width": "8"}))
        code = main(["run", "--input", str(raw), "--sidecar", str(sidecar),
                     "--out", str(tmp_path / "o")])
        assert code == 1  # the exit of a sidecar missing a key
        assert "'width'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["20", "7", "x"])
    def test_out_of_domain_bit_depth_is_usage_error(self, tmp_path, capsys, value):
        scene = json.dumps({"kind": "static", "height": 4, "width": 4,
                            "channels": 3, "frame_count": 1})
        out = tmp_path / "x.raw"
        assert main(["synth", "--scene", scene, "--out", str(out), "--bit-depth", value]) == 2
        assert "--bit-depth" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        scene = json.dumps({"kind": "static", "height": 4, "width": 4,
                            "channels": 3, "frame_count": 1})
        out = tmp_path / "x.raw"
        assert main(["synth", "--scene", scene, "--out", str(out), "--seed", "-5"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_pattern_is_usage_error(self, tmp_path, capsys):
        scene = json.dumps({"kind": "static", "height": 4, "width": 4,
                            "channels": 3, "frame_count": 1})
        out = tmp_path / "x.raw"
        assert main(["synth", "--scene", scene, "--out", str(out), "--pattern", "XYZZ"]) == 2
        assert "XYZZ" in capsys.readouterr().err
        assert not out.exists()

    def test_non_rgb_scene_is_usage_error(self, tmp_path):
        scene = json.dumps({"kind": "static", "height": 4, "width": 4,
                            "channels": 2, "frame_count": 1})
        assert main(["synth", "--scene", scene, "--out", str(tmp_path / "x.raw")]) == 2


class TestDeterminism:
    def test_identical_runs_identical_reports(self, tmp_path):
        scene = json.dumps({"kind": "noise_mix", "height": 16, "width": 16, "channels": 3,
                            "frame_count": 6, "motion": [1, 0], "noise_amplitude": 0.05})
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["run", "--scene", scene, "--oracle", "--seed", "9",
                         "--out", str(out)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_report_bytes_pinned(self, tmp_path):
        # report.json holds only integer counts and their ratios when the
        # oracle is off, so its bytes are fixed by the seeded scene and net;
        # a refactor of the layer or cost-model paths must leave them alone
        scene = json.dumps({"kind": "noise_mix", "height": 20, "width": 20, "channels": 3,
                            "frame_count": 7, "motion": [1, 0], "noise_amplitude": 0.05})
        out = tmp_path / "o"
        assert main(["run", "--scene", scene, "--seed", "5", "--gop", "4", "--out", str(out)]) == 0
        report = (out / "report.json").read_bytes()
        assert 0 < json.loads(report)["measured_alpha"] < 1  # copies and fallbacks both ran
        digest = hashlib.sha256(report).hexdigest()
        assert digest == "dbb54d8d7cd4f03d87bc4122adc0196d4c0326d2e6b7981970e1b6e4db58fa90"
