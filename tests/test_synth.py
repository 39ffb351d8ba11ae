import numpy as np
import pytest

from motionconv.ledger import FlopsLedger
from motionconv.motion import MotionParams
from motionconv.synth import SceneSpec, generate, random_conv_spec

from oracles import expected_motion, full_grid, search


class TestGenerate:
    def test_static_frames_identical(self):
        frames = generate(SceneSpec(kind="static", height=8, width=8, channels=2, frame_count=3))
        np.testing.assert_array_equal(frames[0], frames[1])
        np.testing.assert_array_equal(frames[0], frames[2])

    def test_translate_is_column_shift(self):
        spec = SceneSpec(kind="global_translate", height=6, width=6, channels=1,
                         frame_count=2, seed=1, motion=(1, 0))
        f0, f1 = generate(spec)
        np.testing.assert_array_equal(f1[:, :, :-1], f0[:, :, 1:])
        assert (f1[:, :, -1] == 0).all()

    def test_translate_row_shift_with_negative_motion(self):
        spec = SceneSpec(kind="global_translate", height=6, width=6, channels=1,
                         frame_count=2, seed=2, motion=(0, -2))
        f0, f1 = generate(spec)
        np.testing.assert_array_equal(f1[:, 2:, :], f0[:, :-2, :])
        assert (f1[:, :2, :] == 0).all()

    def test_noise_amplitude_zero_equals_base_kind(self):
        quiet = SceneSpec(kind="noise_mix", height=8, width=8, channels=2,
                          frame_count=3, seed=3, motion=(1, 0), noise_amplitude=0.0)
        moving = SceneSpec(kind="global_translate", height=8, width=8, channels=2,
                           frame_count=3, seed=3, motion=(1, 0))
        for a, b in zip(generate(quiet), generate(moving)):
            np.testing.assert_array_equal(a, b)

    def test_seeded_determinism(self):
        spec = SceneSpec(kind="noise_mix", height=8, width=8, channels=3,
                         frame_count=4, seed=7, noise_amplitude=0.1)
        for a, b in zip(generate(spec), generate(spec)):
            np.testing.assert_array_equal(a, b)

    def test_block_translate_moves_block_only(self):
        spec = SceneSpec(kind="block_translate", height=16, width=16, channels=1,
                         frame_count=3, seed=4, motion=(-1, 0), block=(4, 4, 4, 4))
        frames = generate(spec)
        # the block region shifts one column right per frame (source offset -1)
        diff = frames[1] != frames[0]
        assert diff.any()
        rows, cols = np.nonzero(diff[0])
        assert rows.min() >= 4 and rows.max() <= 7
        assert cols.min() >= 4 and cols.max() <= 9

    def test_rejects_motion_exceeding_dims(self):
        with pytest.raises(ValueError, match="exceeds"):
            SceneSpec(kind="global_translate", height=8, width=8, channels=1,
                      frame_count=10, motion=(1, 0))

    def test_rejects_block_leaving_frame(self):
        with pytest.raises(ValueError, match="block"):
            SceneSpec(kind="block_translate", height=16, width=16, channels=1,
                      frame_count=8, motion=(2, 0), block=(4, 4, 4, 4))

    @pytest.mark.parametrize("name,value", [
        ("seed", -1), ("seed", 1.5), ("height", 16.5), ("frame_count", True),
        ("motion", (0.5, 0)), ("block", (0, 0, 8.5, 8)),
        ("noise_amplitude", float("nan")), ("noise_amplitude", float("inf")),
        ("noise_amplitude", -0.1), ("noise_amplitude", True), ("noise_amplitude", "0.1"),
        # past float32's largest value: the draw's range overflows, the int
        # does not convert to float, or the float32 cast overflows
        ("noise_amplitude", 9e307), ("noise_amplitude", 1e307),
        pytest.param("noise_amplitude", 10**400, id="noise_amplitude-int10**400"),
        # too long for repr: once Python's own digit-limit error, naming no field
        pytest.param("noise_amplitude", 10**5000, id="noise_amplitude-int10**5000"),
    ])
    def test_rejects_non_integer_or_negative_seed_fields(self, name, value):
        with pytest.raises(ValueError, match=name):
            SceneSpec(**{"kind": "static", "height": 8, "width": 8, "channels": 1,
                         "frame_count": 3, name: value})

    @pytest.mark.parametrize("value, got", [
        (-0.1, "got -0.1"),
        (10**400, "got 10000000000000000000... (401 characters)"),
        (10**5000, "got an int of 16610 bits"),
    ], ids=["negative", "int10**400", "int10**5000"])
    def test_bad_amplitude_message_is_short(self, value, got):
        with pytest.raises(ValueError) as info:
            SceneSpec(kind="static", noise_amplitude=value)
        message = str(info.value)
        assert message.startswith("noise_amplitude must be a real in [0, 3.402823e+38]")
        assert message.endswith(got)
        assert len(message) < 100

    def test_largest_float32_amplitude_generates_without_overflow(self):
        amp = float(np.finfo(np.float32).max)
        spec = SceneSpec(kind="noise_mix", height=8, width=8, channels=1,
                         frame_count=2, noise_amplitude=amp)
        for frame in generate(spec):
            assert frame.dtype == np.float32
            assert frame.min() >= 0.0 and frame.max() <= 1.0

    def test_values_stay_in_unit_range(self):
        spec = SceneSpec(kind="noise_mix", height=8, width=8, channels=2,
                         frame_count=3, seed=5, noise_amplitude=0.5)
        for frame in generate(spec):
            assert frame.min() >= 0.0 and frame.max() <= 1.0

    def test_json_roundtrip(self):
        spec = SceneSpec(kind="block_translate", height=16, width=16, channels=2,
                         frame_count=3, seed=6, motion=(-1, 1), block=(4, 4, 6, 6))
        assert SceneSpec.from_json(spec.to_json()) == spec


class TestExpectedMotion:
    def test_static_is_zero(self):
        spec = SceneSpec(kind="static", height=8, width=8, channels=1, frame_count=3)
        assert expected_motion(spec, 1).mv == (0, 0)

    def test_translate_returns_scene_motion(self):
        spec = SceneSpec(kind="global_translate", height=16, width=16, channels=1,
                         frame_count=4, motion=(2, -1))
        assert expected_motion(spec, 2).mv == (2, -1)

    def test_refuses_noisy_scene(self):
        spec = SceneSpec(kind="noise_mix", height=8, width=8, channels=1,
                         frame_count=3, noise_amplitude=0.05)
        with pytest.raises(ValueError, match="ground-truth"):
            expected_motion(spec, 1)

    def test_refuses_out_of_range_frame(self):
        spec = SceneSpec(kind="static", height=8, width=8, channels=1, frame_count=3)
        with pytest.raises(ValueError, match="frame_index"):
            expected_motion(spec, 0)

    def test_recovery_on_translation(self):
        # the core oracle: search recovers the declared motion exactly at
        # every interior position, with empty residuals at tau=0
        rng = np.random.default_rng(8)
        for s, d in [(1, 1), (1, -1), (2, 2), (2, -2)]:
            scene = SceneSpec(kind="global_translate", height=20, width=20, channels=2,
                              frame_count=3, seed=9, motion=(d, 0))
            frames = generate(scene)
            conv = random_conv_spec(rng, 2, 4, 3, s, 1)
            params = MotionParams(search_range=2, threshold=0.0)
            for t in (1, 2):
                field = full_grid(search(frames[t], frames[t - 1], conv, params, FlopsLedger()))
                truth = expected_motion(scene, t)
                mask = truth.interior_mask(conv)
                assert mask.any()
                exp_dy, exp_dx = truth.mv_arrays(conv, field.out_h, field.out_w)
                assert field.matched[mask].all()
                np.testing.assert_array_equal(field.mv_dx[mask], exp_dx[mask])
                np.testing.assert_array_equal(field.mv_dy[mask], exp_dy[mask])
                assert all(field.nnz[i, j] == 0 for i, j in zip(*np.nonzero(mask)))

    def test_block_motion_ground_truth(self):
        scene = SceneSpec(kind="block_translate", height=24, width=24, channels=2,
                          frame_count=3, seed=10, motion=(-1, 0), block=(8, 8, 8, 8))
        frames = generate(scene)
        rng = np.random.default_rng(11)
        conv = random_conv_spec(rng, 2, 4, 3, 1, 1)
        params = MotionParams(search_range=1, threshold=0.0)
        t = 1
        field = full_grid(search(frames[t], frames[t - 1], conv, params, FlopsLedger()))
        truth = expected_motion(scene, t)
        mask = truth.interior_mask(conv)
        exp_dy, exp_dx = truth.mv_arrays(conv, field.out_h, field.out_w)
        assert mask.any()
        assert (exp_dx[mask] != 0).any() and (exp_dx[mask] == 0).any()
        np.testing.assert_array_equal(field.mv_dx[mask], exp_dx[mask])
        np.testing.assert_array_equal(field.mv_dy[mask], exp_dy[mask])

    def test_interior_alpha_is_one_on_translation(self):
        scene = SceneSpec(kind="global_translate", height=24, width=24, channels=3,
                          frame_count=2, seed=12, motion=(1, 0))
        frames = generate(scene)
        rng = np.random.default_rng(13)
        conv = random_conv_spec(rng, 3, 8, 3, 1, 1)
        field = search(frames[1], frames[0], conv, MotionParams(threshold=0.0), FlopsLedger())
        assert field.alpha == 1.0
