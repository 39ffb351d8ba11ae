"""Independent brute-force references for the numeric kernels.

Deliberately loop-based and float64-accumulated; these stay independent
of the vectorized implementations they check. The per-position kernels
below them (``SparseBlock``, ``threshold_residual``, ``sad``,
``extract_block``, ``read_block_at``, ``conv_sparse_block``) compute one
receptive field at a time, as the pipeline once did; ``loop_forward_nonkey``
composes them into a position-by-position non-key layer forward, and
``oracle_field`` into the ``MotionField`` of chosen vectors, which tests
hand to a layer in place of its own search. ``full_grid`` spreads a
search's box-shaped field over the whole output grid, and
``dense_residual`` expands a field's compact residual columns into one row
per position, the form the per-position references compare with.

The rest are references only tests use: ``search``, the motion search
on two frames, which validates and pads them for ``motion.search_planes``;
``sliding_tap_views``, the ``sliding_window_view`` construction of
``motion._tap_views``; ``unpack``, the inverse of ``bayer.pack``; and
``expected_motion``, the ground-truth vectors a search should recover on
a synthetic scene (``GroundTruthMotion``).
"""

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from motionconv import tensors
from motionconv.bayer import PATTERNS, ROLE_NAMES, BayerFrame
from motionconv.ledger import FlopsLedger
from motionconv.motion import MotionField, search_margin, search_planes
from motionconv.synth import SceneSpec
from motionconv.tensors import ConvSpec, ensure_feature_map


def naive_conv2d(x, weights, bias, stride, padding):
    """Sextuple-loop dense convolution with zero padding."""
    c_out, c_in, k, _ = weights.shape
    _, h, w = x.shape
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    out = np.zeros((c_out, out_h, out_w), dtype=np.float64)
    for o in range(c_out):
        for i in range(out_h):
            for j in range(out_w):
                acc = float(bias[o]) if bias is not None else 0.0
                for c in range(c_in):
                    for dy in range(k):
                        for dx in range(k):
                            y = i * stride + dy - padding
                            xx = j * stride + dx - padding
                            if 0 <= y < h and 0 <= xx < w:
                                acc += float(weights[o, c, dy, dx]) * float(x[c, y, xx])
                out[o, i, j] = acc
    return out


def naive_extract_block(x, k, stride, padding, i, j):
    """Per-element receptive-field gather with explicit bounds checks."""
    c_in, h, w = x.shape
    block = np.zeros((c_in, k, k), dtype=np.float64)
    for c in range(c_in):
        for dy in range(k):
            for dx in range(k):
                y = i * stride + dy - padding
                xx = j * stride + dx - padding
                if 0 <= y < h and 0 <= xx < w:
                    block[c, dy, dx] = float(x[c, y, xx])
    return block


def naive_sad(a, b):
    """Sequential scalar sum of absolute differences."""
    total = 0.0
    for av, bv in zip(np.asarray(a).ravel(), np.asarray(b).ravel()):
        total += abs(float(av) - float(bv))
    return total


def naive_sparse_conv(entries, weights):
    """Per-entry accumulation: out[o] = sum of w[o, c, dy, dx] * value."""
    c_out = weights.shape[0]
    out = np.zeros(c_out, dtype=np.float64)
    for c, dy, dx, v in entries:
        for o in range(c_out):
            out[o] += float(weights[o, c, dy, dx]) * float(v)
    return out


@dataclass
class SparseBlock:
    """Thresholded residual for one receptive field.

    Entries are parallel arrays of (channel, dy, dx, value) with every
    stored value nonzero; ``anchor`` is the output position the block
    compensates.
    """

    anchor: tuple[int, int]
    channels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))
    dys: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))
    dxs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int32))
    values: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float32))

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.int32)
        self.dys = np.asarray(self.dys, dtype=np.int32)
        self.dxs = np.asarray(self.dxs, dtype=np.int32)
        self.values = np.asarray(self.values, dtype=np.float32)
        n = self.channels.shape[0]
        if not (self.dys.shape == self.dxs.shape == self.values.shape == (n,)):
            raise ValueError("entry arrays must have identical length")
        if n and (not np.isfinite(self.values).all() or (self.values == 0.0).any()):
            raise ValueError("entry values must be finite and nonzero")

    @classmethod
    def empty(cls, anchor: tuple[int, int] = (0, 0)) -> "SparseBlock":
        return cls(anchor=anchor)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def entries(self) -> Iterator[tuple[int, int, int, float]]:
        for c, dy, dx, v in zip(self.channels, self.dys, self.dxs, self.values):
            yield int(c), int(dy), int(dx), float(v)

    def densify(self, in_channels: int, kernel_size: int) -> np.ndarray:
        """Expand to a dense (C_in, k, k) block of the entry values."""
        dense = np.zeros((in_channels, kernel_size, kernel_size), dtype=np.float32)
        dense[self.channels, self.dys, self.dxs] = self.values
        return dense


def sad(block_a: np.ndarray, block_b: np.ndarray, ledger: FlopsLedger | None) -> float:
    """Sum of absolute differences between two same-shaped dense blocks.

    Charges 2 FLOPs per element (difference plus accumulation; the absolute
    value is uncharged).
    """
    a = np.asarray(block_a, dtype=np.float32)
    b = np.asarray(block_b, dtype=np.float32)
    if a.shape != b.shape:
        raise ValueError(f"block shapes differ: {a.shape} vs {b.shape}")
    if ledger is not None:
        ledger.charge("me", 2 * a.size)
    return float(np.sum(np.abs(a - b), dtype=np.float64))


def threshold_residual(
    current: np.ndarray,
    reference: np.ndarray,
    tau: float,
    anchor: tuple[int, int] = (0, 0),
) -> SparseBlock:
    """Sparse block of differences with magnitude >= tau.

    Boundary values are kept; zero differences are never stored, so tau=0
    keeps exactly the nonzero differences.
    """
    if tau < 0:
        raise ValueError(f"threshold must be >= 0, got {tau}")
    cur = np.asarray(current, dtype=np.float32)
    ref = np.asarray(reference, dtype=np.float32)
    if cur.shape != ref.shape:
        raise ValueError(f"block shapes differ: {cur.shape} vs {ref.shape}")
    diff = cur - ref
    keep = (np.abs(diff) >= tau) & (diff != 0)
    c_idx, y_idx, x_idx = np.nonzero(keep)
    return SparseBlock(
        anchor=anchor,
        channels=c_idx.astype(np.int32),
        dys=y_idx.astype(np.int32),
        dxs=x_idx.astype(np.int32),
        values=diff[keep],
    )


def extract_block(x: np.ndarray, spec: ConvSpec, i: int, j: int) -> np.ndarray:
    """Dense (C_in, k, k) receptive field of output position (i, j),
    zero-filled where the field extends past the frame."""
    x = ensure_feature_map(x, channels=spec.in_channels)
    h, w = x.shape[1], x.shape[2]
    out_h, out_w = spec.out_shape(h, w)
    if not (0 <= i < out_h and 0 <= j < out_w):
        raise ValueError(f"position ({i}, {j}) outside output grid {out_h}x{out_w}")
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    return read_block_at(x, i * s - p, j * s - p, k)


def read_block_at(x: np.ndarray, y0: int, x0: int, k: int) -> np.ndarray:
    """Read a (C, k, k) window anchored at input pixel (y0, x0), zero-padded."""
    c, h, w = x.shape
    block = np.zeros((c, k, k), dtype=np.float32)
    y_lo, y_hi = max(0, y0), min(h, y0 + k)
    x_lo, x_hi = max(0, x0), min(w, x0 + k)
    if y_lo < y_hi and x_lo < x_hi:
        block[:, y_lo - y0 : y_hi - y0, x_lo - x0 : x_hi - x0] = x[:, y_lo:y_hi, x_lo:x_hi]
    return block


def conv_sparse_block(
    block: SparseBlock, spec: ConvSpec, ledger: FlopsLedger | None
) -> np.ndarray:
    """Convolve one sparse residual block: out[o] = sum over entries of
    weights[o, c, dy, dx] * value. No bias (the predicted output already
    carries it). Charges 2 * nnz * C_out; an empty block charges nothing.
    """
    k = spec.kernel_size
    if block.nnz == 0:
        return np.zeros(spec.out_channels, dtype=np.float32)
    if (
        (block.channels < 0).any()
        or (block.channels >= spec.in_channels).any()
        or (block.dys < 0).any()
        or (block.dys >= k).any()
        or (block.dxs < 0).any()
        or (block.dxs >= k).any()
    ):
        raise ValueError(
            f"sparse block at position {block.anchor} has entries outside "
            f"kernel bounds (k={k}, C_in={spec.in_channels})"
        )
    gathered = spec.weights[:, block.channels, block.dys, block.dxs]  # (C_out, nnz)
    out = gathered @ block.values
    if ledger is not None:
        ledger.charge("res", 2 * block.nnz * spec.out_channels)
    return out.astype(np.float32, copy=False)


def search(cur_input, ref_input, spec, params, ledger) -> MotionField:
    """``search_planes`` on two frames: validates both (finite (C, H, W)
    arrays of one shape with ``spec``'s input channels and a nonempty
    output grid) and zero-pads each once by ``search_margin``, through
    ``tensors.zero_pad``, into the planes it reads. The field covers the
    box of changed positions at its ``origin``; ``full_grid`` spreads it."""
    cur = ensure_feature_map(cur_input, channels=spec.in_channels, name="current input")
    ref = ensure_feature_map(ref_input, channels=spec.in_channels, name="reference input")
    if cur.shape != ref.shape:
        raise ValueError(f"current/reference shapes differ: {cur.shape} vs {ref.shape}")
    spec.out_shape(cur.shape[1], cur.shape[2])  # raises when the output grid is empty
    margin = search_margin(spec, params)
    return search_planes(tensors.zero_pad(cur, margin), tensors.zero_pad(ref, margin), spec, params,
                         ledger)


def _candidate_offsets(search_range):
    offsets = [(0, 0)]
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            if (dy, dx) != (0, 0):
                offsets.append((dy, dx))
    return offsets


def loop_search(cur, ref, spec, params, ledger=None):
    """Position-by-position candidate loop with the search's decision rules:
    (0, 0) first then raster order, strict SAD improvement, early stop on
    the best candidate's kept count, match when that count stays within
    ``match_max_density``. Returns per-position arrays
    ``(mv_dy, mv_dx, matched, blocks)`` where ``blocks[i][j]`` is the
    winning candidate's ``SparseBlock``."""
    out_h, out_w = spec.out_shape(cur.shape[1], cur.shape[2])
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    bsz = spec.block_size
    mv_dy = np.zeros((out_h, out_w), dtype=np.int32)
    mv_dx = np.zeros((out_h, out_w), dtype=np.int32)
    matched = np.zeros((out_h, out_w), dtype=bool)
    blocks = [[None] * out_w for _ in range(out_h)]
    for i in range(out_h):
        for j in range(out_w):
            cur_blk = extract_block(cur, spec, i, j)
            best = None
            for qy, qx in _candidate_offsets(params.search_range):
                ref_blk = read_block_at(ref, i * s - p + qy * s, j * s - p + qx * s, k)
                cost = sad(cur_blk, ref_blk, ledger)
                if best is None or cost < best[0]:
                    blk = threshold_residual(cur_blk, ref_blk, params.threshold, anchor=(i, j))
                    best = (cost, qy, qx, blk)
                    if params.early_stop_enabled and blk.nnz <= params.early_stop_density * bsz:
                        break
            _, qy, qx, blk = best
            mv_dy[i, j], mv_dx[i, j] = qy * s, qx * s
            matched[i, j] = blk.nnz <= params.match_max_density * bsz
            blocks[i][j] = blk
    return mv_dy, mv_dx, matched, blocks


def loop_forward_nonkey(layer_spec, ref_input, ref_output, x, mv_dy, mv_dx, matched, tau,
                        post_scale=None, post_shift=None, ledger=None):
    """Pre-activation non-key output, one position at a time. A matched
    position whose vector-displaced source stays on the output grid copies
    ``ref_output`` there and adds ``conv_sparse_block`` of its thresholded
    residual (scaled by ``post_scale``); every other position is the dense
    dot product with bias, scale and shift. Charges res and unmatched work
    to ``ledger`` as the layer does."""
    spec = layer_spec
    c_out, out_h, out_w = ref_output.shape
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    scale = np.ones(c_out) if post_scale is None else np.asarray(post_scale, dtype=np.float64)
    shift = np.zeros(c_out) if post_shift is None else np.asarray(post_shift, dtype=np.float64)
    bias = np.zeros(c_out) if spec.bias is None else spec.bias.astype(np.float64)
    w_flat = spec.weights.reshape(c_out, -1).astype(np.float64)
    out = np.zeros((c_out, out_h, out_w), dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            si, sj = i + int(mv_dy[i, j]) // s, j + int(mv_dx[i, j]) // s
            cur_blk = extract_block(x, spec, i, j)
            if matched[i, j] and 0 <= si < out_h and 0 <= sj < out_w:
                ref_blk = read_block_at(ref_input, i * s - p + int(mv_dy[i, j]),
                                        j * s - p + int(mv_dx[i, j]), k)
                blk = threshold_residual(cur_blk, ref_blk, tau, anchor=(i, j))
                res = conv_sparse_block(blk, spec, ledger).astype(np.float64)
                out[:, i, j] = ref_output[:, si, sj] + scale * res
            else:
                out[:, i, j] = (w_flat @ cur_blk.ravel().astype(np.float64) + bias) * scale + shift
                if ledger is not None:
                    ledger.charge("unmatched", 2 * spec.block_size * c_out)
    return out


def oracle_field(cur, ref, spec, mv_dy, mv_dx, matched, tau) -> MotionField:
    """``MotionField`` of chosen vectors (input pixels, stride multiples of
    any length) and match flags, one position at a time. Every position
    gets the kept count of ``threshold_residual`` between its block and
    the reference block at its vector, read as zeros past the frame; the
    matched positions with kept entries get their thresholded blocks as
    tap-major residual columns, in raster order."""
    out_h, out_w = spec.out_shape(cur.shape[1], cur.shape[2])
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    mv_dy = np.asarray(mv_dy, dtype=np.int32)
    mv_dx = np.asarray(mv_dx, dtype=np.int32)
    matched = np.asarray(matched, dtype=bool)
    nnz = np.zeros((out_h, out_w), dtype=np.int32)
    rows = np.zeros((out_h * out_w, spec.block_size), dtype=np.float32)
    for i in range(out_h):
        for j in range(out_w):
            ref_blk = read_block_at(ref, i * s - p + int(mv_dy[i, j]), j * s - p + int(mv_dx[i, j]), k)
            blk = threshold_residual(extract_block(cur, spec, i, j), ref_blk, tau, anchor=(i, j))
            nnz[i, j] = blk.nnz
            rows[i * out_w + j] = blk.densify(spec.in_channels, k).ravel()
    at = np.flatnonzero(matched & (nnz > 0))
    return MotionField(
        out_h=out_h, out_w=out_w, block_size=spec.block_size, matched=matched,
        mv_dy=mv_dy, mv_dx=mv_dx, nnz=nnz, residual=np.ascontiguousarray(rows[at].T),
        residual_at=at,
    )


def full_grid(field) -> MotionField:
    """The full-grid ``MotionField`` of a field whose arrays cover the box
    at ``field.origin``: positions outside the box get vector (0, 0), kept
    count 0 and a match, as the search settles them, and the residual
    columns keep their order at whole-grid raster indices."""
    i0, j0 = field.origin
    box_h, box_w = field.matched.shape
    box = (slice(i0, i0 + box_h), slice(j0, j0 + box_w))

    def spread(a, fill):
        grid = np.full((field.out_h, field.out_w), fill, dtype=a.dtype)
        grid[box] = a
        return grid

    bi, bj = np.divmod(field.residual_at, box_w)
    return MotionField(
        out_h=field.out_h, out_w=field.out_w, block_size=field.block_size,
        matched=spread(field.matched, True), mv_dy=spread(field.mv_dy, 0),
        mv_dx=spread(field.mv_dx, 0), nnz=spread(field.nnz, 0), residual=field.residual,
        residual_at=(bi + i0) * field.out_w + bj + j0,
    )


def dense_residual(field) -> np.ndarray:
    """``(positions, block_size)`` residual rows of a full-grid
    ``MotionField``: each of its columns at the raster index
    ``residual_at`` lists for it, zero rows everywhere else."""
    rows = np.zeros((field.positions, field.block_size), dtype=np.float32)
    rows[field.residual_at] = field.residual.T
    return rows


def sliding_tap_views(plane: np.ndarray, k: int, s: int, y: int, x: int, h: int,
                      w: int) -> np.ndarray:
    """``motion._tap_views`` built from ``sliding_window_view``: the ``(C,
    k, k, h, w)`` taps of the stride-``s`` windows at grid positions (y + i,
    x + j) of ``plane``."""
    win = np.lib.stride_tricks.sliding_window_view(plane, (k, k), axis=(1, 2))
    win = win[:, y * s : (y + h - 1) * s + 1 : s, x * s : (x + w - 1) * s + 1 : s]
    return win.transpose(0, 3, 4, 1, 2)


def unpack(packed: np.ndarray, pattern: str) -> BayerFrame:
    """Exact inverse of ``pack``."""
    packed = np.asarray(packed, dtype=np.float32)
    if packed.ndim != 3 or packed.shape[0] != 4:
        raise ValueError(f"expected (4, H/2, W/2) input, got shape {packed.shape}")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown Bayer pattern {pattern!r}")
    h, w = packed.shape[1] * 2, packed.shape[2] * 2
    plane = np.empty((h, w), dtype=np.float32)
    sites = PATTERNS[pattern]
    for ci, role in enumerate(ROLE_NAMES):
        ty, tx = sites[role]
        plane[ty::2, tx::2] = packed[ci]
    return BayerFrame(pattern=pattern, plane=plane)


@dataclass
class GroundTruthMotion:
    """Expected search outcome for one non-key frame.

    ``mv`` is the uniform expected vector where one exists; block scenes
    provide per-position vectors instead. ``interior_mask`` restricts
    assertions to positions whose receptive fields stay clear of frame
    borders, fill regions, and (for block scenes) occlusion boundaries.
    """

    frame_index: int
    scene: SceneSpec
    mv: Optional[tuple[int, int]] = None  # (dx, dy)

    def mv_arrays(self, spec: ConvSpec, out_h: int, out_w: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-position expected (dy, dx) arrays on the output grid."""
        dy = np.zeros((out_h, out_w), dtype=np.int32)
        dx = np.zeros((out_h, out_w), dtype=np.int32)
        if self.scene.kind in ("static", "global_translate", "noise_mix"):
            dx[:], dy[:] = self.mv
            return dy, dx
        # block scene: block positions move, the rest is static background
        mdx, mdy = self.scene.motion
        inside = self._block_position_mask(spec, out_h, out_w)
        dy[inside], dx[inside] = mdy, mdx
        return dy, dx

    def _field_bounds(self, spec: ConvSpec, out_h: int, out_w: int):
        k, s, p = spec.kernel_size, spec.stride, spec.padding
        i = np.arange(out_h)
        j = np.arange(out_w)
        y_first = i * s - p
        x_first = j * s - p
        return y_first, y_first + k - 1, x_first, x_first + k - 1

    def _block_position_mask(self, spec: ConvSpec, out_h: int, out_w: int) -> np.ndarray:
        t = self.frame_index
        y0, x0, bh, bw = self.scene.block
        mdx, mdy = self.scene.motion
        oy, ox = y0 - t * mdy, x0 - t * mdx
        y_lo, y_hi, x_lo, x_hi = self._field_bounds(spec, out_h, out_w)
        # field inside the block at t AND its match inside the block at t-1
        rows = (y_lo >= oy) & (y_hi <= oy + bh - 1)
        cols = (x_lo >= ox) & (x_hi <= ox + bw - 1)
        return rows[:, None] & cols[None, :]

    def interior_mask(self, spec: ConvSpec) -> np.ndarray:
        """Positions where exact recovery of the expected vector is forced."""
        h, w = self.scene.height, self.scene.width
        out_h, out_w = spec.out_shape(h, w)
        t = self.frame_index
        y_lo, y_hi, x_lo, x_hi = self._field_bounds(spec, out_h, out_w)

        if self.scene.kind in ("static", "noise_mix"):
            rows = (y_lo >= 0) & (y_hi <= h - 1)
            cols = (x_lo >= 0) & (x_hi <= w - 1)
            return rows[:, None] & cols[None, :]

        if self.scene.kind == "global_translate":
            mdx, mdy = self.scene.motion
            # live texture in the current frame, the matched read in-frame,
            # and no convolution padding inside the current block
            row_min = max(0, -mdy, -t * mdy)
            row_max = h - 1 - max(0, mdy, t * mdy)
            col_min = max(0, -mdx, -t * mdx)
            col_max = w - 1 - max(0, mdx, t * mdx)
            rows = (y_lo >= row_min) & (y_hi <= row_max)
            cols = (x_lo >= col_min) & (x_hi <= col_max)
            return rows[:, None] & cols[None, :]

        # block_translate: inside-block positions as computed above, plus
        # background positions whose fields avoid the block at both frames
        inside = self._block_position_mask(spec, out_h, out_w)
        y0, x0, bh, bw = self.scene.block
        mdx, mdy = self.scene.motion
        in_frame = ((y_lo >= 0) & (y_hi <= h - 1))[:, None] & ((x_lo >= 0) & (x_hi <= w - 1))[None, :]
        clear = in_frame.copy()
        for tt in (t, t - 1):
            oy, ox = y0 - tt * mdy, x0 - tt * mdx
            overlap_rows = (y_hi >= oy) & (y_lo <= oy + bh - 1)
            overlap_cols = (x_hi >= ox) & (x_lo <= ox + bw - 1)
            clear &= ~(overlap_rows[:, None] & overlap_cols[None, :])
        return inside | clear


def expected_motion(spec: SceneSpec, frame_index: int) -> GroundTruthMotion:
    """Ground truth the search should recover at interior positions of frame
    ``frame_index`` against frame ``frame_index - 1``. Refused for scenes
    without well-defined motion (noise above zero amplitude)."""
    if not 1 <= frame_index < spec.frame_count:
        raise ValueError(f"frame_index must be in [1, {spec.frame_count}), got {frame_index}")
    if spec.kind == "noise_mix" and spec.noise_amplitude > 0:
        raise ValueError("noise_mix scenes with nonzero amplitude have no ground-truth motion")
    if spec.kind in ("static", "noise_mix"):
        return GroundTruthMotion(frame_index, spec, mv=(0, 0))
    if spec.kind == "global_translate":
        return GroundTruthMotion(frame_index, spec, mv=spec.motion)
    return GroundTruthMotion(frame_index, spec, mv=None)
