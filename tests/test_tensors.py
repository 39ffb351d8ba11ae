import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionconv.ledger import FlopsLedger
from motionconv.tensors import (
    ConvSpec,
    block_index,
    conv2d,
    load_weights,
    save_weights,
    unfold_blocks,
    zero_pad,
)

from oracles import (
    SparseBlock,
    conv_sparse_block,
    extract_block,
    naive_conv2d,
    naive_extract_block,
    naive_sparse_conv,
)


def make_spec(rng, c_in, c_out, k, stride=1, padding=0, bias=True):
    weights = rng.uniform(-0.5, 0.5, size=(c_out, c_in, k, k)).astype(np.float32)
    b = rng.uniform(-0.5, 0.5, size=c_out).astype(np.float32) if bias else None
    return ConvSpec(weights=weights, bias=b, stride=stride, padding=padding)


class TestConv2d:
    def test_identity_kernel(self):
        spec = ConvSpec(weights=np.ones((1, 1, 1, 1), dtype=np.float32))
        x = np.ones((1, 3, 3), dtype=np.float32)
        out = conv2d(x, spec, FlopsLedger())
        np.testing.assert_array_equal(out, x)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_result_is_c_contiguous(self, stride):
        # a transposed GEMM view here slowed every downstream layer
        rng = np.random.default_rng(20)
        spec = make_spec(rng, 3, 5, 3, stride=stride, padding=1)
        out = conv2d(rng.random((3, 9, 7), dtype=np.float32), spec, None)
        assert out.shape == (5, *spec.out_shape(9, 7))
        assert out.flags.c_contiguous

    def test_flops_charge(self):
        # 2 * 9 * 4 * 16 * 64 = 73,728 for k=3, C_in=4, C_out=16, 8x8 out
        rng = np.random.default_rng(0)
        spec = make_spec(rng, 4, 16, 3, stride=1, padding=1)
        led = FlopsLedger()
        conv2d(rng.random((4, 8, 8), dtype=np.float32), spec, led)
        assert led.key_flops == 73_728

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_naive_oracle(self, k, stride, padding):
        for trial in range(3):
            rng = np.random.default_rng(k * 1000 + stride * 100 + padding * 10 + trial)
            h, w = int(rng.integers(k, 17)), int(rng.integers(k, 17))
            spec = make_spec(rng, 3, 4, k, stride, padding, bias=bool(trial % 2))
            x = rng.random((3, h, w), dtype=np.float32)
            got = conv2d(x, spec, FlopsLedger())
            want = naive_conv2d(x, spec.weights, spec.bias, stride, padding)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-5, rtol=0)

    def test_flops_deterministic_across_calls(self):
        rng = np.random.default_rng(2)
        spec = make_spec(rng, 2, 5, 3, padding=1)
        x = rng.random((2, 9, 9), dtype=np.float32)
        deltas = []
        led = FlopsLedger()
        for _ in range(3):
            before = led.key_flops
            conv2d(x, spec, led)
            deltas.append(led.key_flops - before)
        assert deltas[0] == deltas[1] == deltas[2]

    def test_rejects_channel_mismatch(self):
        rng = np.random.default_rng(3)
        spec = make_spec(rng, 3, 4, 3)
        with pytest.raises(ValueError, match="channels"):
            conv2d(rng.random((2, 8, 8), dtype=np.float32), spec, FlopsLedger())

    def test_rejects_non_finite_input(self):
        rng = np.random.default_rng(4)
        spec = make_spec(rng, 1, 1, 1)
        x = np.ones((1, 4, 4), dtype=np.float32)
        x[0, 2, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            conv2d(x, spec, FlopsLedger())

    def test_rejects_degenerate_output(self):
        rng = np.random.default_rng(5)
        spec = make_spec(rng, 1, 1, 5)
        with pytest.raises(ValueError, match="output"):
            conv2d(np.ones((1, 3, 3), dtype=np.float32), spec, FlopsLedger())


class TestConvSpec:
    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError, match="odd"):
            ConvSpec(weights=np.ones((1, 1, 2, 2), dtype=np.float32))

    def test_rejects_non_finite_weights(self):
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ConvSpec(weights=w)

    def test_rejects_bad_stride_padding(self):
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            ConvSpec(weights=w, stride=0)
        with pytest.raises(ValueError):
            ConvSpec(weights=w, padding=-1)

    @pytest.mark.parametrize("geometry", [{"stride": 1.7}, {"stride": 1.0}, {"stride": True},
                                          {"padding": 0.9}, {"padding": False}])
    def test_rejects_non_integer_geometry(self, geometry):
        (name,) = geometry
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ConvSpec(weights=np.ones((1, 1, 1, 1), dtype=np.float32), **geometry)

    def test_accepts_numpy_integers(self):
        spec = ConvSpec(weights=np.ones((1, 1, 1, 1), dtype=np.float32),
                        stride=np.int64(2), padding=np.int32(1))
        assert (spec.stride, spec.padding) == (2, 1)
        assert type(spec.stride) is int and type(spec.padding) is int

    def test_weights_read_only(self):
        spec = ConvSpec(weights=np.ones((1, 1, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            spec.weights[0, 0, 0, 0] = 2.0


class TestExtractBlock:
    def test_padded_corner(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        spec = ConvSpec(weights=np.ones((1, 1, 3, 3), dtype=np.float32), stride=1, padding=1)
        block = extract_block(x, spec, 0, 0)
        np.testing.assert_array_equal(block[0], [[0, 0, 0], [0, 0, 1], [0, 4, 5]])

    def test_interior(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        spec = ConvSpec(weights=np.ones((1, 1, 3, 3), dtype=np.float32), stride=1, padding=1)
        block = extract_block(x, spec, 1, 1)
        np.testing.assert_array_equal(block[0], [[0, 1, 2], [4, 5, 6], [8, 9, 10]])

    def test_stride_anchoring(self):
        x = np.arange(25, dtype=np.float32).reshape(1, 5, 5)
        spec = ConvSpec(weights=np.ones((1, 1, 3, 3), dtype=np.float32), stride=2, padding=0)
        block = extract_block(x, spec, 1, 1)
        np.testing.assert_array_equal(block[0], x[0, 2:5, 2:5])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.random((3, 10, 11), dtype=np.float32)
        spec = ConvSpec(
            weights=rng.random((2, 3, 5, 5)).astype(np.float32), stride=2, padding=1
        )
        out_h, out_w = spec.out_shape(10, 11)
        for i in (0, out_h - 1):
            for j in (0, out_w - 1):
                got = extract_block(x, spec, i, j)
                want = naive_extract_block(x, 5, 2, 1, i, j)
                np.testing.assert_allclose(got, want, atol=0, rtol=0)

    def test_rejects_out_of_grid(self):
        x = np.ones((1, 4, 4), dtype=np.float32)
        spec = ConvSpec(weights=np.ones((1, 1, 3, 3), dtype=np.float32), padding=1)
        with pytest.raises(ValueError, match="outside"):
            extract_block(x, spec, 4, 0)


class TestUnfoldBlocks:
    @pytest.mark.parametrize("c, k, s", [(1, 1, 1), (1, 1, 2), (3, 1, 1), (1, 3, 1)])
    @pytest.mark.parametrize("positions", [False, True])
    def test_returns_a_writeable_array_it_owns(self, c, k, s, positions):
        x = np.arange(c * 5 * 6, dtype=np.float32).reshape(c, 5, 6)
        at = (np.array([0, 1]), np.array([2, 0])) if positions else None
        out = unfold_blocks(x, k, s, at=at)  # padding 0: x is the padded plane
        assert out.flags.writeable and out.flags.owndata
        assert not np.shares_memory(out, x)
        before = out.copy()
        out += 1
        np.testing.assert_array_equal(out, before + 1)

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(1, 3),
        st.sampled_from([1, 3, 5]),
        st.sampled_from([1, 2, 3]),
        st.integers(0, 3),
        st.integers(0, 2),
        st.data(),
    )
    def test_positions_match_full_gather_and_oracle(self, c, k, s, padding, extra, data):
        h = data.draw(st.integers(max(1, k - 2 * padding), k + 7))
        w = data.draw(st.integers(max(1, k - 2 * padding), k + 7))
        seed = data.draw(st.integers(0, 2**31 - 1))
        x = np.random.default_rng(seed).random((c, h, w), dtype=np.float32)
        padded = zero_pad(x, padding + extra * s)
        full = unfold_blocks(padded, k, s)
        grid_h, grid_w = full.shape[:2]
        # grid positions in random order, margin positions included; past
        # the grid size they repeat
        count = data.draw(st.integers(0, 3 * grid_h * grid_w))
        flat = np.arange(count) % (grid_h * grid_w)
        rows, cols = np.divmod(np.random.default_rng(seed).permutation(flat), grid_w)
        got = unfold_blocks(padded, k, s, at=(rows, cols))
        assert got.shape == (c * k * k, count) and got.dtype == np.float32
        np.testing.assert_array_equal(got.T, full[rows, cols])
        for n, (i, j) in enumerate(zip(rows, cols)):
            want = naive_extract_block(x, k, s, padding, int(i) - extra, int(j) - extra)
            np.testing.assert_array_equal(got[:, n], want.ravel())

    def test_rejects_positions_outside_the_grid(self):
        x = np.ones((2, 6, 6), dtype=np.float32)
        padded = zero_pad(x, 3)  # padding 1 plus one grid step of stride 2
        grid_h, grid_w = unfold_blocks(padded, 3, 2).shape[:2]
        for rows, cols in [([grid_h], [0]), ([0], [grid_w]), ([-1], [0]), ([0], [-1])]:
            with pytest.raises(ValueError, match="outside the grid"):
                unfold_blocks(padded, 3, 2, at=(np.array(rows), np.array(cols)))

    @pytest.mark.parametrize(
        "rows, cols, match",
        [
            # floats, even whole ones, would reach take as non-integer indices
            (np.array([0.0, 1.0]), np.array([0, 1]), "integer"),
            (np.array([0, 1]), np.array([1.0, 0.0]), "integer"),
            # bools are not positions
            (np.array([True, False]), np.array([0, 1]), "integer"),
            # 2-D positions, or rows and columns of other lengths, would
            # broadcast into blocks nobody asked for
            (np.array([[0, 1]]), np.array([[1, 0]]), "1-D"),
            (np.array([0, 1]), np.array([1]), "2 rows but 1 columns"),
            (np.array([0]), np.array([0, 1]), "1 rows but 2 columns"),
        ],
    )
    def test_rejects_malformed_positions(self, rows, cols, match):
        # the gathers read with take(mode="wrap"), which would wrap rather
        # than fail, so block_index's check is the only one
        padded = np.ones((2, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError, match=match):
            block_index(padded.shape, 3, 1, (rows, cols))
        with pytest.raises(ValueError, match=match):
            unfold_blocks(padded, 3, 1, at=(rows, cols))

    def test_accepts_any_integer_dtype(self):
        # row 30 starts 30 * 40 elements into a channel, more than int8 or
        # uint8 holds
        padded = np.arange(2 * 40 * 40, dtype=np.float32).reshape(2, 40, 40)
        rows, cols = [0, 30, 37], [2, 1, 37]
        want = unfold_blocks(padded, 3, 1, at=(np.array(rows), np.array(cols)))
        np.testing.assert_array_equal(want[:, 1], padded[:, 30:33, 1:4].ravel())
        for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint64):
            at = (np.array(rows, dtype), np.array(cols, dtype))
            np.testing.assert_array_equal(unfold_blocks(padded, 3, 1, at=at), want)


class TestConvSparseBlock:
    def test_empty_block_zero_cost(self):
        rng = np.random.default_rng(7)
        spec = make_spec(rng, 2, 6, 3)
        led = FlopsLedger()
        out = conv_sparse_block(SparseBlock.empty(), spec, led)
        np.testing.assert_array_equal(out, np.zeros(6, dtype=np.float32))
        assert led.res_flops == 0

    def test_single_entry(self):
        spec = ConvSpec(weights=np.full((5, 2, 3, 3), 0.5, dtype=np.float32))
        block = SparseBlock(anchor=(0, 0), channels=[0], dys=[1], dxs=[1], values=[2.0])
        led = FlopsLedger()
        out = conv_sparse_block(block, spec, led)
        np.testing.assert_allclose(out, np.ones(5), atol=0)
        assert led.res_flops == 2 * 1 * 5

    def test_dense_block_matches_oracle(self):
        rng = np.random.default_rng(8)
        spec = make_spec(rng, 3, 4, 3)
        k = spec.kernel_size
        entries = []
        channels, dys, dxs, values = [], [], [], []
        for c in range(3):
            for dy in range(k):
                for dx in range(k):
                    v = float(rng.uniform(0.1, 1.0))
                    entries.append((c, dy, dx, v))
                    channels.append(c)
                    dys.append(dy)
                    dxs.append(dx)
                    values.append(v)
        block = SparseBlock((0, 0), channels, dys, dxs, values)
        got = conv_sparse_block(block, spec, FlopsLedger())
        want = naive_sparse_conv(entries, spec.weights)
        np.testing.assert_allclose(got, want, atol=1e-5, rtol=0)

    def test_dense_block_equals_conv_position_minus_bias(self):
        rng = np.random.default_rng(9)
        spec = make_spec(rng, 2, 4, 3, stride=1, padding=1)
        x = rng.random((2, 6, 6), dtype=np.float32)
        full = conv2d(x, spec, FlopsLedger())
        for i, j in [(0, 0), (2, 3), (5, 5)]:
            dense = extract_block(x, spec, i, j)
            nz = np.nonzero(dense)
            block = SparseBlock((i, j), nz[0], nz[1], nz[2], dense[nz])
            got = conv_sparse_block(block, spec, FlopsLedger())
            np.testing.assert_allclose(got, full[:, i, j] - spec.bias, atol=1e-5, rtol=0)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        spec = make_spec(rng, 2, 3, 3)
        k = spec.kernel_size
        dense_a = rng.uniform(-1, 1, size=(2, k, k)).astype(np.float32)
        dense_b = rng.uniform(-1, 1, size=(2, k, k)).astype(np.float32)

        def to_block(dense):
            nz = np.nonzero(dense)
            return SparseBlock((0, 0), nz[0], nz[1], nz[2], dense[nz])

        lhs = conv_sparse_block(to_block(dense_a + dense_b), spec, FlopsLedger())
        rhs = conv_sparse_block(to_block(dense_a), spec, FlopsLedger()) + conv_sparse_block(
            to_block(dense_b), spec, FlopsLedger()
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-5, rtol=0)

    def test_rejects_out_of_bounds_entry(self):
        rng = np.random.default_rng(10)
        spec = make_spec(rng, 2, 3, 3)
        block = SparseBlock((0, 0), [0], [3], [0], [1.0])
        with pytest.raises(ValueError, match="bounds"):
            conv_sparse_block(block, spec, FlopsLedger())

    def test_block_rejects_zero_values(self):
        with pytest.raises(ValueError, match="nonzero"):
            SparseBlock((0, 0), [0], [0], [0], [0.0])


class TestWeightsIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        spec = make_spec(rng, 3, 8, 5, stride=2, padding=2)
        path = tmp_path / "layer0.bin"
        sidecar = save_weights(spec, path)
        assert sidecar.exists()
        loaded = load_weights(path)
        np.testing.assert_array_equal(loaded.weights, spec.weights)
        np.testing.assert_array_equal(loaded.bias, spec.bias)
        assert (loaded.stride, loaded.padding) == (2, 2)

    def test_roundtrip_without_bias(self, tmp_path):
        rng = np.random.default_rng(12)
        spec = make_spec(rng, 2, 2, 3, bias=False)
        path = tmp_path / "nobias.bin"
        save_weights(spec, path)
        loaded = load_weights(path)
        assert loaded.bias is None
        np.testing.assert_array_equal(loaded.weights, spec.weights)

    def test_rejects_wrong_length(self, tmp_path):
        rng = np.random.default_rng(13)
        spec = make_spec(rng, 2, 2, 3)
        path = tmp_path / "w.bin"
        save_weights(spec, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="floats"):
            load_weights(path)

    def test_sidecar_with_fractional_stride_is_value_error(self, tmp_path):
        import json

        path = tmp_path / "w.bin"
        sidecar = save_weights(make_spec(np.random.default_rng(15), 2, 2, 3), path)
        meta = json.loads(sidecar.read_text())
        sidecar.write_text(json.dumps({**meta, "stride": 1.5}))
        with pytest.raises(ValueError, match="stride must be an integer"):
            load_weights(path)

    @pytest.mark.parametrize("key, value", [
        ("kernel_size", 3.0),
        ("kernel_size", -3),
        ("in_channels", "2"),
        ("in_channels", True),
        ("out_channels", 0),
        ("has_bias", "false"),
        ("has_bias", 1),
        ("stride", 1.5),
        ("padding", -1),
    ])
    def test_sidecar_with_mistyped_value_names_file_and_key(self, tmp_path, key, value):
        import json
        import re

        path = tmp_path / "w.bin"
        sidecar = save_weights(make_spec(np.random.default_rng(16), 2, 2, 3), path)
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
        with pytest.raises(ValueError, match=f"{re.escape(str(sidecar))}.*{key}"):
            load_weights(path)

    @pytest.mark.parametrize(
        "key", ["in_channels", "out_channels", "kernel_size", "stride", "padding", "has_bias"]
    )
    def test_sidecar_missing_key_is_value_error(self, tmp_path, key):
        import json

        rng = np.random.default_rng(14)
        path = tmp_path / "w.bin"
        sidecar = save_weights(make_spec(rng, 2, 2, 3), path)
        meta = json.loads(sidecar.read_text())
        del meta[key]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{sidecar}.*'{key}'"):
            load_weights(path)
