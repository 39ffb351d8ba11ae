import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionconv.bayer import (
    PATTERNS,
    BayerFrame,
    load_raw_sequence,
    mosaic,
    pack,
    quantize_plane,
    save_raw_sequence,
    unpack,
)

ALL_PATTERNS = sorted(PATTERNS)


class TestMosaic:
    def test_constant_rgb_tile(self):
        rgb = np.empty((3, 2, 2), dtype=np.float32)
        rgb[0], rgb[1], rgb[2] = 0.2, 0.4, 0.6
        frame = mosaic(rgb, "RGGB")
        np.testing.assert_allclose(frame.plane, [[0.2, 0.4], [0.4, 0.6]], atol=0)

    def test_pure_red_sites(self):
        rgb = np.zeros((3, 6, 6), dtype=np.float32)
        rgb[0] = 0.8
        plane = mosaic(rgb, "RGGB").plane
        assert (plane[0::2, 0::2] == np.float32(0.8)).all()
        mask = np.zeros((6, 6), bool)
        mask[0::2, 0::2] = True
        assert (plane[~mask] == 0).all()

    def test_rejects_odd_dims(self):
        with pytest.raises(ValueError, match="even"):
            mosaic(np.zeros((3, 5, 6), dtype=np.float32), "RGGB")

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError, match="pattern"):
            mosaic(np.zeros((3, 4, 4), dtype=np.float32), "RGBG")

    def test_samples_copied_bit_exact(self):
        rng = np.random.default_rng(0)
        rgb = rng.random((3, 8, 8), dtype=np.float32)
        for pattern in ALL_PATTERNS:
            frame = mosaic(rgb, pattern)
            for role, (ty, tx) in PATTERNS[pattern].items():
                src = {"R": 0, "G1": 1, "G2": 1, "B": 2}[role]
                np.testing.assert_array_equal(frame.plane[ty::2, tx::2], rgb[src, ty::2, tx::2])


class TestPackUnpack:
    def test_rggb_channel_zero_holds_red_sites(self):
        plane = (np.arange(16, dtype=np.float32) / 16).reshape(4, 4)
        packed = pack(BayerFrame("RGGB", plane))
        assert packed.shape == (4, 2, 2)
        np.testing.assert_array_equal(packed[0], plane[0::2, 0::2])
        np.testing.assert_array_equal(packed[3], plane[1::2, 1::2])

    @pytest.mark.parametrize("pattern", ALL_PATTERNS)
    def test_roundtrip_identity(self, pattern):
        rng = np.random.default_rng(1)
        plane = rng.random((8, 10), dtype=np.float32)
        frame = BayerFrame(pattern, plane)
        back = unpack(pack(frame), pattern)
        np.testing.assert_array_equal(back.plane, plane)
        assert back.pattern == pattern

    def test_cross_pattern_channel_consistency(self):
        rng = np.random.default_rng(2)
        rgb = rng.random((3, 8, 8), dtype=np.float32)
        packs = {p: pack(mosaic(rgb, p)) for p in ALL_PATTERNS}
        for p, packed in packs.items():
            # channel 0 is always R samples, channel 3 always B samples
            ty, tx = PATTERNS[p]["R"]
            np.testing.assert_array_equal(packed[0], rgb[0, ty::2, tx::2])
            ty, tx = PATTERNS[p]["B"]
            np.testing.assert_array_equal(packed[3], rgb[2, ty::2, tx::2])

    def test_mosaic_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(3)
        rgb = rng.random((3, 6, 6), dtype=np.float32)
        for pattern in ALL_PATTERNS:
            frame = mosaic(rgb, pattern)
            back = unpack(pack(frame), pattern)
            np.testing.assert_array_equal(back.plane, frame.plane)


class TestBayerFrame:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            BayerFrame("RGGB", np.full((4, 4), 1.5, dtype=np.float32))

    def test_rejects_odd_dims(self):
        with pytest.raises(ValueError, match="even"):
            BayerFrame("RGGB", np.zeros((3, 4), dtype=np.float32))


class TestRawIO:
    def test_two_frame_8bit_file_size(self, tmp_path):
        frames = [
            BayerFrame("RGGB", np.zeros((4, 4), dtype=np.float32)),
            BayerFrame("RGGB", np.ones((4, 4), dtype=np.float32)),
        ]
        path = tmp_path / "seq.raw"
        meta = save_raw_sequence(path, frames, bit_depth=8)
        assert path.stat().st_size == 32
        loaded = list(load_raw_sequence(path, meta))
        assert len(loaded) == 2
        np.testing.assert_array_equal(loaded[0].plane, frames[0].plane)
        np.testing.assert_array_equal(loaded[1].plane, frames[1].plane)

    def test_16bit_max_code_normalizes_to_one(self, tmp_path):
        path = tmp_path / "one.raw"
        path.write_bytes(b"\xff\xff" * 4)
        sidecar = {"width": 2, "height": 2, "pattern": "BGGR", "bit_depth": 16, "frame_count": 1}
        (frame,) = load_raw_sequence(path, sidecar)
        assert (frame.plane == 1.0).all()

    def test_16bit_little_endian(self, tmp_path):
        path = tmp_path / "le.raw"
        # sample value 0x0102 = 258 stored little-endian
        path.write_bytes(b"\x02\x01" * 4)
        sidecar = {"width": 2, "height": 2, "pattern": "RGGB", "bit_depth": 16, "frame_count": 1}
        (frame,) = load_raw_sequence(path, sidecar)
        np.testing.assert_allclose(frame.plane, 258 / 65535, atol=0)

    def test_truncated_file_names_frame(self, tmp_path):
        path = tmp_path / "short.raw"
        path.write_bytes(b"\x00" * 24)  # 1.5 frames of 4x4 8-bit
        sidecar = {"width": 4, "height": 4, "pattern": "RGGB", "bit_depth": 8, "frame_count": 2}
        with pytest.raises(IOError, match="frame 1"):
            list(load_raw_sequence(path, sidecar))

    def test_unknown_pattern_rejected(self, tmp_path):
        path = tmp_path / "x.raw"
        path.write_bytes(b"\x00" * 16)
        sidecar = {"width": 4, "height": 4, "pattern": "XYZW", "bit_depth": 8, "frame_count": 1}
        with pytest.raises(ValueError, match="pattern"):
            list(load_raw_sequence(path, sidecar))

    def test_bad_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "x.raw"
        path.write_bytes(b"\x00" * 16)
        sidecar = {"width": 4, "height": 4, "pattern": "RGGB", "bit_depth": 7, "frame_count": 1}
        with pytest.raises(ValueError, match="bit_depth"):
            list(load_raw_sequence(path, sidecar))

    @pytest.mark.parametrize("key, value", [
        ("width", "8"), ("width", -8), ("width", 0), ("width", 8.0), ("width", True),
        ("height", 8.0), ("height", None),
        ("frame_count", True), ("frame_count", 1.5), ("frame_count", 0),
        ("bit_depth", 8.0), ("bit_depth", "8"), ("pattern", ["RGGB"]),
    ])
    def test_sidecar_with_wrong_type_names_key(self, tmp_path, key, value):
        path = tmp_path / "x.raw"
        path.write_bytes(b"\x00" * 128)
        sidecar = {"width": 8, "height": 8, "pattern": "RGGB", "bit_depth": 8, "frame_count": 2,
                   key: value}
        with pytest.raises(ValueError, match=key):
            list(load_raw_sequence(path, sidecar))

    @pytest.mark.parametrize("bit_depth", [8, 12, 16])
    def test_write_read_write_bit_exact(self, tmp_path, bit_depth):
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 2**bit_depth, size=(3, 6, 6))
        max_code = np.float32(2**bit_depth - 1)
        frames = [
            BayerFrame("GRBG", (c.astype(np.float32) / max_code)) for c in codes
        ]
        p1 = tmp_path / "a.raw"
        meta = save_raw_sequence(p1, frames, bit_depth=bit_depth)
        loaded = list(load_raw_sequence(p1, meta))
        for orig, back in zip(frames, loaded):
            np.testing.assert_array_equal(back.plane, orig.plane)
        p2 = tmp_path / "b.raw"
        save_raw_sequence(p2, loaded, bit_depth=bit_depth)
        assert p1.read_bytes() == p2.read_bytes()

    def test_normalization_endpoints(self):
        assert quantize_plane(np.array([[0.0]]), 10)[0, 0] == 0
        assert quantize_plane(np.array([[1.0]]), 10)[0, 0] == 1023

    @settings(deadline=None, max_examples=20)
    @given(st.integers(8, 16), st.integers(0, 2**31 - 1))
    def test_quantize_dequantize_identity(self, bit_depth, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 2**bit_depth, size=(4, 4))
        plane = codes.astype(np.float32) / np.float32(2**bit_depth - 1)
        np.testing.assert_array_equal(quantize_plane(plane, bit_depth), codes)
