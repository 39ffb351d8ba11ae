"""The vectorised residual path against the per-position references.

``search``, ``field_from_vectors`` and ``MotionCompLayer.forward_nonkey``
work on one compact residual (``MotionField.residual`` columns at
``residual_at``); ``tests/oracles.py`` keeps the one-block-at-a-time
kernels they replaced. Random small layer stacks run through both.
Inputs sit on a 1/256 grid, so every SAD is an exact float64 sum, ties
(which the search breaks by candidate order) are common, and differences
equal to a threshold on that grid hit its boundary.

``search`` scores candidates with box sums, which add in another order
than the per-block sum. Two more cases check what the 1/256 grid cannot
show: mirror-symmetric frames of powers of two, where near-ties round
differently in the two orders, and early-stopped scenes where only a small
box of positions stays active.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motionconv import layer as layer_mod
from motionconv import motion, tensors
from motionconv.layer import MotionCompLayer
from motionconv.ledger import FlopsLedger
from motionconv.motion import MotionParams, field_from_vectors, search
from motionconv.scheduler import GopConfig, Network, run_sequence
from motionconv.synth import SceneSpec, generate, random_conv_spec
from motionconv.tensors import ConvSpec

from oracles import (
    dense_residual, extract_block, loop_forward_nonkey, loop_search, read_block_at, sad,
    threshold_residual,
)


@st.composite
def stacks(draw):
    """A random layer, a reference frame and a shifted, perturbed current frame."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    k = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    c_in = draw(st.integers(1, 3))
    c_out = draw(st.integers(1, 4))
    h, w = draw(st.integers(k + 2, 10)), draw(st.integers(k + 2, 10))
    params = MotionParams(
        search_range=draw(st.integers(0, 2)),
        threshold=draw(st.sampled_from([0.0, 0.01, 4 / 256, 16 / 256, 0.2])),
        early_stop_density=draw(st.sampled_from([-1.0, 0.0, 0.3])),
        match_max_density=draw(st.sampled_from([0.5, 0.9, 1.0])),
    )
    weights = rng.uniform(-0.5, 0.5, size=(c_out, c_in, k, k)).astype(np.float32)
    bias = rng.uniform(-0.2, 0.2, size=c_out).astype(np.float32)
    spec = ConvSpec(weights=weights, bias=bias, stride=stride, padding=draw(st.integers(0, k // 2)))
    ref = (rng.integers(0, 257, size=(c_in, h, w)) / 256).astype(np.float32)
    cur = np.roll(ref, (rng.integers(-2, 3), rng.integers(-2, 3)), axis=(1, 2))
    noise = rng.integers(-8, 9, size=cur.shape) * (rng.random(cur.shape) < draw(st.sampled_from([0.0, 0.2, 1.0])))
    cur = (cur + noise / 256).astype(np.float32)
    return spec, params, cur, ref, rng


def block_row(blk, spec):
    return blk.densify(spec.in_channels, spec.kernel_size).ravel()


@settings(deadline=None, max_examples=100)
@given(stacks())
def test_search_matches_per_position_loop(case):
    spec, params, cur, ref, _ = case
    led, loop_led = FlopsLedger(), FlopsLedger()
    field = search(cur, ref, spec, params, led)
    mv_dy, mv_dx, matched, sad_arr, blocks = loop_search(cur, ref, spec, params, loop_led)

    np.testing.assert_array_equal(field.mv_dy, mv_dy)
    np.testing.assert_array_equal(field.mv_dx, mv_dx)
    np.testing.assert_array_equal(field.matched, matched)
    np.testing.assert_array_equal(field.sad, sad_arr)
    assert led.me_flops == loop_led.me_flops
    assert field.residual.dtype == np.float32
    np.testing.assert_array_equal(field.residual_at, np.flatnonzero(matched & (field.nnz > 0)))
    assert field.residual.shape == (spec.block_size, field.residual_at.size)
    residual = dense_residual(field)
    for i in range(field.out_h):
        for j in range(field.out_w):
            blk = blocks[i][j]
            assert field.nnz[i, j] == blk.nnz
            want = block_row(blk, spec) if matched[i, j] else np.zeros(spec.block_size, np.float32)
            np.testing.assert_array_equal(residual[i * field.out_w + j], want)


def mirror_stack(seed):
    """Frames symmetric about their middle row and column, with values 2^-e
    for e in [0, 60). At the middle row or column, mirrored candidates see
    the same absolute differences in permuted order, and sums of such
    values round, so their SADs tie or nearly tie depending on the order in
    which they are added."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 5))
    h, w = 2 * int(rng.integers(2, 6)) + 1, 2 * int(rng.integers(2, 6)) + 1

    def symmetric(e):
        x = 2.0 ** -e
        x = np.concatenate([x, x[:, :, -2::-1]], axis=2)
        return np.concatenate([x, x[:, -2::-1, :]], axis=1).astype(np.float32)

    e = rng.integers(0, 60, size=(c, (h + 1) // 2, (w + 1) // 2))
    ref = symmetric(e)
    cur = symmetric(np.where(rng.random(e.shape) < 0.5, e, rng.integers(0, 60, size=e.shape)))
    spec = ConvSpec(weights=np.ones((1, c, 3, 3), np.float32), stride=int(rng.integers(1, 3)),
                    padding=int(rng.integers(0, 2)))
    params = MotionParams(
        search_range=1,
        threshold=float(rng.choice([0.0, 2.0**-20, 2.0**-8, 0.01])),
        early_stop_density=float(rng.choice([-1.0, 0.3, 0.6])),
        match_max_density=0.9,
    )
    return cur, ref, spec, params


def search_as_loop(cur, ref, spec, params):
    """Run ``search`` and ``loop_search``, check that vectors, match flags,
    SAD and me FLOPs agree, and return the field, its me FLOPs and the
    oracle's blocks."""
    led, loop_led = FlopsLedger(), FlopsLedger()
    field = search(cur, ref, spec, params, led)
    mv_dy, mv_dx, matched, sad_arr, blocks = loop_search(cur, ref, spec, params, loop_led)
    np.testing.assert_array_equal(field.mv_dy, mv_dy)
    np.testing.assert_array_equal(field.mv_dx, mv_dx)
    np.testing.assert_array_equal(field.matched, matched)
    np.testing.assert_array_equal(field.sad, sad_arr)
    assert led.me_flops == loop_led.me_flops
    return field, led.me_flops, blocks


# Seeds 63 and 100 pick a different winner than the oracle when box-sum
# near-ties are decided without recomputing them as block sums.
@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1))
@example(63)
@example(100)
def test_search_breaks_near_ties_as_block_sums(seed):
    search_as_loop(*mirror_stack(seed))


def test_search_keeps_candidate_zero_when_its_sad_overflows():
    # float32 differences of finite frames can overflow to inf, and so can a
    # SAD; candidate (0, 0) is still every position's first best, with its
    # kept count, as in the per-position loop (the box search once left such
    # positions matched with a kept count of 0)
    spec = ConvSpec(weights=np.ones((1, 2, 3, 3), np.float32), padding=1)
    ref = np.full((2, 5, 6), -3e38, np.float32)
    ref[:, 2:, :3] = 0.5
    cur = -ref
    params = MotionParams(search_range=0, threshold=0.0, match_max_density=0.9)
    with np.errstate(over="ignore"):
        field = search(cur, ref, spec, params, None)
    differs = tensors.zero_pad((cur != ref).astype(np.float32), 1)
    kept = tensors.unfold_blocks(differs, 3, 1).sum(axis=-1)
    np.testing.assert_array_equal(field.nnz, kept)
    np.testing.assert_array_equal(field.matched, kept <= 0.9 * spec.block_size)
    assert not field.matched.all()


@pytest.mark.parametrize("corner", ["top_left", "bottom_right"])
@pytest.mark.parametrize("stride, padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_search_on_a_small_active_box(corner, stride, padding):
    # A static frame with one 3x3 block moving one grid step diagonally near
    # a corner: with early stopping on, every position whose field misses
    # the block retires after candidate (0, 0). 20 rows make
    # (h + 2p - k) % 2 = 1.
    rng = np.random.default_rng(5)
    c, h, w = 3, 20, 21
    ref = rng.random((c, h, w)).astype(np.float32)
    cur = ref.copy()
    y, x = (1, 1) if corner == "top_left" else (h - 5, w - 5)
    ref[:, y : y + 3, x : x + 3] += 0.5
    cur[:, y + stride : y + stride + 3, x + stride : x + stride + 3] = ref[:, y : y + 3, x : x + 3]
    spec = ConvSpec(weights=np.ones((2, c, 3, 3), np.float32), stride=stride, padding=padding)
    params = MotionParams(search_range=1, threshold=0.01, early_stop_density=0.3)
    field, me_flops, blocks = search_as_loop(cur, ref, spec, params)
    np.testing.assert_array_equal(field.nnz, [[b.nnz for b in row] for row in blocks])
    # most positions stopped after one candidate, so the box was small
    assert me_flops < 2 * 2 * spec.block_size * field.positions


def test_nonkey_path_gathers_only_rows_the_gemm_reads(monkeypatch):
    # A static textured frame with one 6x6 block moving one pixel: with early
    # stopping on, the background retires after candidate (0, 0) with empty
    # residuals, and only matched rows with kept entries may be gathered, once
    # from each frame. Near-ties would add rows of their own (one current and
    # two reference rows each); uniform random texture gives none, so the
    # builder's two gathers are the only ones.
    rng = np.random.default_rng(21)
    c, h, w = 3, 32, 32
    ref = rng.random((c, h, w)).astype(np.float32)
    cur = ref.copy()
    cur[:, 10:16, 11:17] = ref[:, 10:16, 10:16]
    spec = ConvSpec(weights=rng.uniform(-0.5, 0.5, (4, c, 3, 3)).astype(np.float32), padding=1)
    params = MotionParams(search_range=1, threshold=0.01, early_stop_density=0.3)
    field = search(cur, ref, spec, params, None)
    needed = int(np.count_nonzero(field.matched & (field.nnz > 0)))
    assert 0 < needed < field.positions // 10

    gathered = []
    real = motion.unfold_blocks

    def counting(x, *args, **kwargs):
        out = real(x, *args, **kwargs)
        gathered.append(out.size // spec.block_size)
        return out

    layer = MotionCompLayer(spec, params)
    layer.forward_key(ref, FlopsLedger())
    monkeypatch.setattr(motion, "unfold_blocks", counting)
    layer.forward_nonkey(cur, FlopsLedger())
    assert layer.last_stats.matched == int(np.count_nonzero(field.matched))
    assert len(gathered) == 2
    assert sum(gathered) == 2 * needed


@pytest.mark.parametrize("seed", [63, 100])
def test_each_frame_is_padded_once(seed, monkeypatch):
    # search pads the two frames for its candidate loop; the near-tie check,
    # the residual builder and the lazy SAD gather from those two planes.
    # field_from_vectors likewise pads each frame once. In a layer, each
    # non-key call pads its input once, by the search margin: the search
    # reads that plane and the cached one, and the fallback gathers from it,
    # so neither pads. A key frame caches its input unpadded (its conv2d pads
    # its own plane, as the dense baseline does), so the first non-key frame
    # after it pads that too.
    cur, ref, spec, params = mirror_stack(seed)
    pads, gathers, fallbacks = [], [], []
    real_pad, real_gather = tensors.zero_pad, motion.unfold_blocks

    def counting_pad(owner):
        def pad(x, width):
            pads.append((owner.__name__.rsplit(".")[-1], width))
            return real_pad(x, width)
        return pad

    def counting_gather(*args, **kwargs):
        gathers.append(1)
        return real_gather(*args, **kwargs)

    def counting_fallback(*args, **kwargs):
        fallbacks.append(1)
        return real_gather(*args, **kwargs)

    for owner in (motion, tensors, layer_mod):
        monkeypatch.setattr(owner, "zero_pad", counting_pad(owner))
    monkeypatch.setattr(motion, "unfold_blocks", counting_gather)
    monkeypatch.setattr(layer_mod, "unfold_blocks", counting_fallback)
    field = search(cur, ref, spec, params, None)
    field.sad
    # two builder gathers and two SAD gathers; more means near ties ran
    assert len(gathers) > 4
    margin = spec.padding + params.search_range * spec.stride
    assert pads == [("motion", margin)] * 2
    pads.clear()
    rebuilt = field_from_vectors(cur, ref, spec, field.mv_dy, field.mv_dx, field.matched,
                                 tau=params.threshold)
    rebuilt.sad
    assert len(pads) == 2 and pads[0] == pads[1]

    # every position with a kept entry falls back to the dense path
    layer = MotionCompLayer(spec, params.updated(match_max_density=0.0))
    pads.clear()
    layer.forward_key(ref, FlopsLedger())
    assert pads == [("tensors", spec.padding)]
    for x, want in ((cur, 2), (ref, 1)):
        pads.clear()
        layer.forward_nonkey(x, FlopsLedger())
        assert pads == [("layer", margin)] * want
    assert fallbacks


@pytest.mark.parametrize("padding, search_range", [(0, 0), (1, 0), (0, 1), (1, 1)])
@pytest.mark.parametrize("edit_after", ["forward_key", "forward_nonkey"])
def test_cache_owns_its_input(padding, search_range, edit_after):
    # the layer caches its own padded plane, never the caller's array, so
    # editing a frame after the call does not reach the next frame's output
    rng = np.random.default_rng(11)
    spec = ConvSpec(weights=rng.uniform(-0.5, 0.5, (2, 3, 3, 3)).astype(np.float32),
                    padding=padding)
    params = MotionParams(search_range=search_range, threshold=0.01)
    # small changes between frames, so that most positions are predicted
    # from the reference and read it
    base = rng.random((3, 9, 9))
    frames = [(base + rng.uniform(-0.02, 0.02, base.shape)).astype(np.float32) for _ in range(3)]

    def run(edit):
        layer = MotionCompLayer(spec, params)
        xs = [f.copy() for f in frames]
        layer.forward_key(xs[0], FlopsLedger())
        if edit == "forward_key":
            xs[0][...] = 7.0
        layer.forward_nonkey(xs[1], FlopsLedger())
        if edit == "forward_nonkey":
            xs[1][...] = 7.0
        return layer.forward_nonkey(xs[2], FlopsLedger())

    np.testing.assert_array_equal(run(edit_after), run(None))


def test_lazy_sad_ignores_later_edits_to_the_frames():
    cur, ref, spec, params = mirror_stack(63)
    want = search(cur.copy(), ref.copy(), spec, params, None).sad
    field = search(cur, ref, spec, params, None)
    cur[...] = 0
    ref[...] = 1
    np.testing.assert_array_equal(field.sad, want)


@settings(deadline=None, max_examples=100)
@given(stacks())
def test_field_from_search_vectors_reproduces_search(case):
    spec, params, cur, ref, _ = case
    field = search(cur, ref, spec, params, None)
    rebuilt = field_from_vectors(cur, ref, spec, field.mv_dy, field.mv_dx, field.matched,
                                 tau=params.threshold)
    np.testing.assert_array_equal(rebuilt.residual, field.residual)
    np.testing.assert_array_equal(rebuilt.nnz, field.nnz)
    np.testing.assert_array_equal(rebuilt.sad, field.sad)
    assert rebuilt.alpha == field.alpha
    assert rebuilt.beta == field.beta


@settings(deadline=None, max_examples=40)
@given(stacks(), st.integers(1, 12))
def test_field_from_far_vectors_matches_block_reads(case, reach):
    # vectors far beyond the frame read zeros, as read_block_at does
    spec, params, cur, ref, rng = case
    out_h, out_w = spec.out_shape(cur.shape[1], cur.shape[2])
    s, p, k = spec.stride, spec.padding, spec.kernel_size
    mv_dy = rng.integers(-reach, reach + 1, size=(out_h, out_w)).astype(np.int32) * s
    mv_dx = rng.integers(-reach, reach + 1, size=(out_h, out_w)).astype(np.int32) * s
    matched = rng.random((out_h, out_w)) < 0.8
    field = field_from_vectors(cur, ref, spec, mv_dy, mv_dx, matched, tau=params.threshold)
    residual = dense_residual(field)
    for i in range(out_h):
        for j in range(out_w):
            row = residual[i * out_w + j]
            ref_blk = read_block_at(ref, i * s - p + int(mv_dy[i, j]), j * s - p + int(mv_dx[i, j]), k)
            cur_blk = extract_block(cur, spec, i, j)
            blk = threshold_residual(cur_blk, ref_blk, params.threshold)
            assert field.nnz[i, j] == blk.nnz
            assert field.sad[i, j] == sad(cur_blk, ref_blk, None)
            if not matched[i, j]:
                assert not row.any()
                continue
            np.testing.assert_array_equal(row, block_row(blk, spec))


@settings(deadline=None, max_examples=100)
@given(stacks(), st.booleans())
def test_forward_nonkey_matches_per_position_sparse_conv(case, affine):
    spec, params, cur, ref, rng = case
    c_out = spec.out_channels
    scale = rng.uniform(0.5, 1.5, c_out) if affine else None
    shift = rng.uniform(-0.3, 0.3, c_out) if affine else None
    layer = MotionCompLayer(spec, params, post_scale=scale, post_shift=shift)
    layer.forward_key(ref, FlopsLedger())
    ref_output = layer.cache.prev_output.copy()
    led = FlopsLedger()
    out = layer.forward_nonkey(cur, led)

    field = search(cur, ref, spec, params, None)
    loop_led = FlopsLedger()
    want = loop_forward_nonkey(spec, ref, ref_output, cur, field.mv_dy, field.mv_dx, field.matched,
                               params.threshold, layer.post_scale, layer.post_shift, loop_led)
    np.testing.assert_allclose(out, want, atol=1e-5, rtol=0)
    assert led.res_flops == loop_led.res_flops
    assert led.unmatched_flops == loop_led.unmatched_flops
    assert layer.last_stats.nnz_total * 2 * c_out == loop_led.res_flops


def test_ledger_counts_pinned_on_seeded_sequence():
    # counts recorded from the per-position SparseBlock pipeline this
    # representation replaced; the ledger must not move
    rng = np.random.default_rng(2024)
    params = MotionParams(search_range=1, threshold=0.01)
    net = Network([
        MotionCompLayer(random_conv_spec(rng, 3, 8, 3, 1), params, activation="relu"),
        MotionCompLayer(random_conv_spec(rng, 8, 8, 3, 2), params, activation="relu",
                        post_scale=rng.uniform(0.5, 1.5, 8)),
        MotionCompLayer(random_conv_spec(rng, 8, 16, 3, 1), params.updated(match_max_density=0.5)),
    ])
    frames = generate(SceneSpec(kind="noise_mix", height=24, width=24, channels=3, frame_count=6,
                                seed=7, motion=(1, 0), noise_amplitude=0.02))
    result = run_sequence(net, frames, GopConfig(gop_length=6))
    assert result.ledger.counts() == {
        "key": 746496, "me": 2490318, "res": 979104, "unmatched": 1386864, "total": 5602782,
    }
    assert result.ledger.pred_bytes_moved == 121696
    assert [(r.matched, r.demoted, r.nnz_total) for r in result.records if not r.is_key] == [
        (549, 27, 7944), (139, 5, 2534), (31, 0, 1024),
        (554, 22, 7827), (132, 12, 2382), (20, 12, 665),
        (573, 3, 8062), (140, 4, 2671), (23, 10, 734),
        (576, 0, 7931), (140, 4, 2704), (24, 10, 748),
        (575, 1, 7994), (143, 1, 2567), (43, 0, 1118),
    ]


def forward_nonkey_as_loop(spec, params, cur, ref, field=None):
    """Run ``forward_nonkey`` after a key frame on ``ref``, with ``field``
    or the layer's own search, check output and res/unmatched FLOPs against
    ``loop_forward_nonkey`` on the same vectors, and return the layer."""
    layer = MotionCompLayer(spec, params)
    layer.forward_key(ref, FlopsLedger())
    ref_output = layer.cache.prev_output.copy()
    led = FlopsLedger()
    out = layer.forward_nonkey(cur, led, field=field)
    if field is None:
        field = search(cur, ref, spec, params, None)
    loop_led = FlopsLedger()
    want = loop_forward_nonkey(spec, ref, ref_output, cur, field.mv_dy, field.mv_dx, field.matched,
                               params.threshold, ledger=loop_led)
    np.testing.assert_allclose(out, want, atol=1e-5, rtol=0)
    assert led.res_flops == loop_led.res_flops
    assert led.unmatched_flops == loop_led.unmatched_flops
    return layer


@settings(deadline=None, max_examples=60)
@given(stacks())
def test_forward_nonkey_when_nearly_every_position_falls_back(case):
    # match_max_density=0 matches only empty residuals: everything else
    # takes the dense fallback
    spec, params, cur, ref, _ = case
    params = params.updated(match_max_density=0.0)
    layer = forward_nonkey_as_loop(spec, params, cur, ref)
    assert layer.last_stats.nnz_total == 0


@settings(deadline=None, max_examples=60)
@given(stacks(), st.integers(1, 3))
def test_forward_nonkey_demotes_predictions_off_the_grid(case, reach):
    # external vectors up to `reach` steps past the grid edges; matched
    # positions whose prediction leaves the grid take the dense fallback
    spec, params, cur, ref, rng = case
    out_h, out_w = spec.out_shape(cur.shape[1], cur.shape[2])
    s = spec.stride
    steps_y = rng.integers(-out_h - reach, out_h + reach + 1, size=(out_h, out_w))
    steps_x = rng.integers(-out_w - reach, out_w + reach + 1, size=(out_h, out_w))
    steps_y[0, 0] = -1
    matched = rng.random((out_h, out_w)) < 0.8
    matched[0, 0] = True
    field = field_from_vectors(cur, ref, spec, steps_y * s, steps_x * s, matched,
                               tau=params.threshold)
    layer = forward_nonkey_as_loop(spec, params, cur, ref, field)
    src_i = np.arange(out_h)[:, None] + steps_y
    src_j = np.arange(out_w)[None, :] + steps_x
    off = (src_i < 0) | (src_i >= out_h) | (src_j < 0) | (src_j >= out_w)
    assert layer.last_stats.demoted == np.count_nonzero(matched & off) >= 1


@settings(deadline=None, max_examples=60)
@given(stacks())
def test_forward_nonkey_demotes_positions_that_carry_a_residual(case):
    # every position matched at tau=0, border vectors one grid step off the
    # grid: demoted positions keep residual columns, which must not reach
    # their dense output
    spec, params, cur, ref, _ = case
    params = params.updated(threshold=0.0)
    out_h, out_w = spec.out_shape(cur.shape[1], cur.shape[2])
    s = spec.stride
    steps_y = np.zeros((out_h, out_w), dtype=np.int32)
    steps_x = np.zeros((out_h, out_w), dtype=np.int32)
    steps_y[0], steps_y[-1] = -1, 1
    steps_x[:, 0], steps_x[:, -1] = -1, 1
    field = field_from_vectors(cur, ref, spec, steps_y * s, steps_x * s,
                               np.ones((out_h, out_w), bool), tau=0.0)
    layer = forward_nonkey_as_loop(spec, params, cur, ref, field)
    off = (steps_y != 0) | (steps_x != 0)
    assert layer.last_stats.demoted == np.count_nonzero(off)
    assert (field.nnz[off] > 0).any()


@settings(deadline=None, max_examples=60)
@given(stacks())
def test_masked_residual_entries_are_zero(case):
    # the residual is the difference times its keep mask, so entries masked
    # out of a negative difference read -0.0, which must equal zero
    spec, params, cur, ref, _ = case
    field = search(cur, ref, spec, params, None)
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    residual = dense_residual(field)
    for i in range(field.out_h):
        for j in range(field.out_w):
            cur_blk = extract_block(cur, spec, i, j)
            ref_blk = read_block_at(ref, i * s - p + int(field.mv_dy[i, j]),
                                    j * s - p + int(field.mv_dx[i, j]), k)
            diff = (cur_blk - ref_blk).ravel()
            kept = field.matched[i, j] & (np.abs(diff) >= params.threshold) & (diff != 0)
            row = residual[i * field.out_w + j]
            np.testing.assert_array_equal(row[kept], diff[kept])
            assert (row[~kept] == 0).all()
