"""Sliding-window block matching on the convolution output grid.

``search_planes`` picks, for every output position, the stride-aligned
candidate offset whose block best matches the reference frame, and hands
the winners with their thresholded residuals to the layer as a
``MotionField``; its docstring describes the search. ``search_margin`` is
the zero padding of the two planes it reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .ledger import FlopsLedger
from .tensors import ConvSpec, block_index, is_int, is_real, unfold_blocks


@dataclass(frozen=True)
class MotionParams:
    """Search controls.

    ``search_range`` counts grid steps, so candidates span +/- range*stride
    input pixels. ``early_stop_density`` ends the search once the current
    best match's residual density falls to it or below; any negative value
    disables early stopping (used for counter-validation runs).
    ``match_max_density`` is the densest residual still accepted as a match.
    """

    search_range: int = 1
    threshold: float = 0.01
    early_stop_density: float = 0.3
    match_max_density: float = 0.9

    def __post_init__(self):
        if not is_int(self.search_range) or self.search_range < 0:
            raise ValueError(f"search_range must be an integer >= 0, got {self.search_range!r}")
        object.__setattr__(self, "search_range", int(self.search_range))
        for name in ("threshold", "early_stop_density", "match_max_density"):
            value = getattr(self, name)
            if not is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not self.threshold >= 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if not self.early_stop_density <= 1:
            raise ValueError(f"early_stop_density must be <= 1, got {self.early_stop_density}")
        if not 0 <= self.match_max_density <= 1:
            raise ValueError("match_max_density must be in [0, 1]")

    @property
    def early_stop_enabled(self) -> bool:
        return self.early_stop_density >= 0

    def updated(self, **changes) -> "MotionParams":
        return replace(self, **changes)


@dataclass
class MotionField:
    """Per-position search outcome for one frame at one layer, handed from
    ``search_planes`` to ``MotionCompLayer.forward_nonkey``.

    The arrays cover a box of the ``out_h x out_w`` output grid whose first
    position is ``origin`` (row, column); every position outside it has
    vector (0, 0) and kept count 0 and is matched, a pure copy of the
    reference output. A full-grid field has origin (0, 0) and grid-shaped
    arrays. ``mv_dy``/``mv_dx``/``nnz`` hold the winning candidate for every
    box position, including unmatched ones. ``residual_at`` lists, as sorted
    raster indices of the box, the matched positions with ``nnz > 0``: the
    only positions with a nonzero residual (every box position, in raster
    order, when they fill the box). ``residual`` is ``(block_size,
    len(residual_at))`` float32 in the tap-major ``unfold_blocks(...,
    at=)`` layout, rows in (channel, dy, dx) order, filled by the builder
    a block of channels at a time: column n is the thresholded difference
    of position ``residual_at[n]``, zero for entries below the threshold.
    Every other position's residual is zero and is not stored.
    ``positions`` counts the whole grid and ``alpha`` is its matched
    fraction, positions outside the box included.
    """

    out_h: int
    out_w: int
    block_size: int
    matched: np.ndarray
    mv_dy: np.ndarray
    mv_dx: np.ndarray
    nnz: np.ndarray
    residual: np.ndarray
    residual_at: np.ndarray
    origin: tuple[int, int] = (0, 0)

    @property
    def positions(self) -> int:
        return self.out_h * self.out_w

    @property
    def alpha(self) -> float:
        outside = self.positions - self.matched.size
        return float(np.count_nonzero(self.matched) + outside) / self.positions


@functools.cache
def _candidate_offsets(search_range: int) -> np.ndarray:
    """``(candidates, 2)`` int32 (dy, dx) offsets in grid steps, built once
    per search range and read-only: (0, 0) first so zero motion wins SAD
    ties, the rest in raster order."""
    steps = range(-search_range, search_range + 1)
    table = np.array([(0, 0)] + [(dy, dx) for dy in steps for dx in steps if dy or dx], np.int32)
    table.flags.writeable = False
    return table


def _kept(mag: np.ndarray, tau: float, out: np.ndarray | None = None) -> np.ndarray:
    """Entries a residual keeps, given the magnitudes of the differences:
    magnitude >= tau, boundary values included. Zero differences never
    count, so tau=0 keeps exactly the nonzero differences. For magnitudes
    (never negative or NaN) this is one comparison either way."""
    return np.greater_equal(mag, tau, out=out) if tau > 0 else np.not_equal(mag, 0, out=out)


def _block_sad(diff: np.ndarray) -> np.ndarray:
    """SAD of every block of gathered differences, blocks along axis 0 as
    ``unfold_blocks(..., at=)`` returns them. Each block is copied to a
    contiguous row and summed there, the order of a per-block sum."""
    rows = np.ascontiguousarray(np.moveaxis(np.abs(diff), 0, -1))
    return np.sum(rows, axis=-1, dtype=np.float64)


# The builder works a block of channels at a time, each of its two gathers
# at most this many bytes of float32 (but at least one channel), so that a
# block stays in cache from its gathers through the thresholding.
_GATHER_BLOCK_BYTES = 128 * 1024


def _tap_views(plane: np.ndarray, k: int, s: int, y: int, x: int, h: int, w: int) -> np.ndarray:
    """``(C, k, k, h, w)`` view of the C-contiguous ``plane``: element [c, dy,
    dx, i, j] is tap (dy, dx) of channel c of the stride-``s`` k x k window
    at grid position (y + i, x + j), the tap-major residual layout of an
    ``h x w`` box in raster order. It is built from the plane's strides:
    ~1.4 us per call against ~21 us for ``sliding_window_view`` (timeit)."""
    sc, sy, sx = plane.strides
    return np.ndarray((plane.shape[0], k, k, h, w), plane.dtype, plane, (y * sy + x * sx) * s,
                      (sc, sy, sx, s * sy, s * sx))


def _build_field(
    spec: ConvSpec,
    cur_pad: np.ndarray,
    ref_pad: np.ndarray,
    e: int,
    steps_y: np.ndarray,
    steps_x: np.ndarray,
    tau: float,
    nnz: np.ndarray,
    matched: np.ndarray,
    out_h: int,
    out_w: int,
    origin: tuple[int, int],
) -> MotionField:
    """The MotionField of per-position vectors given in grid steps, with
    their kept counts ``nnz`` and match flags ``matched``. The field's
    arrays and raster indices are those of the ``steps_y`` grid, here the
    box whose first position is ``origin`` of an ``out_h x out_w`` output
    grid. Both planes are zero-padded by the layer's padding plus ``e``
    grid steps, so their grids reach e steps beyond the box on every side
    and box position (i, j) sits at grid position (i + e, j + e); each
    reference block is read at the position's vector, at most e steps long.

    Both planes are read only at matched positions with ``nnz > 0``; the
    current blocks minus the reference blocks, times the keep mask, are the
    residual's columns (masked entries of negative differences read -0.0,
    which equals 0). At tau 0 the keep mask is "difference != 0", so the
    multiply would return every entry as it is, -0.0 included, and is
    skipped. The residual is built a block of channels at a time
    (``_GATHER_BLOCK_BYTES``): the current block goes straight into the
    residual's rows, the reference block into one reused buffer, and the
    subtraction and thresholding run on them while they are in cache. The
    reference blocks are gathered through one ``block_index``. So are the
    current blocks, unless every box position is listed: then the columns
    are the box's, in raster order, and the current blocks are copied from
    the k^2 strided slices of the current plane (``_tap_views``), which
    reads no index and took 0.3-0.7 of a gather's time. A field that lists
    no position is returned at once.
    """
    need = np.flatnonzero(matched & (nnz > 0))
    k, s = spec.kernel_size, spec.stride
    c, taps, n = spec.in_channels, k * k, need.size
    res = np.empty((c, taps, n), np.float32)
    field = MotionField(
        out_h=out_h,
        out_w=out_w,
        block_size=spec.block_size,
        matched=matched,
        mv_dy=steps_y * spec.stride,
        mv_dx=steps_x * spec.stride,
        nnz=nnz,
        residual=res.reshape(c * taps, n),
        residual_at=need,
        origin=origin,
    )
    if not n:
        return field
    # the rest fills the field's residual, a view of res
    box_h, box_w = matched.shape
    sliced = n == matched.size
    i, j = np.divmod(need, box_w)
    if sliced:
        cur_taps = _tap_views(cur_pad, k, s, e, e, box_h, box_w)
    else:
        cur_index = block_index(cur_pad.shape, k, s, (i + e, j + e))
    ref_index = block_index(ref_pad.shape, k, s, (i + e + steps_y.ravel()[need],
                                                  j + e + steps_x.ravel()[need]))
    cur_flat, ref_flat = cur_pad.reshape(c, -1), ref_pad.reshape(c, -1)
    step = max(1, _GATHER_BLOCK_BYTES // (4 * taps * n))
    buf = np.empty((min(step, c), taps, n), np.float32)
    keep = np.empty(buf.shape, bool) if tau > 0 else None
    for c0 in range(0, c, step):
        c1 = min(c, c0 + step)
        diff, ref = res[c0:c1], buf[: c1 - c0]
        # block_index checks the positions, so "wrap" never wraps: numpy's
        # "wrap" gather took ~3/4 of "clip"'s time (same bits), and either
        # writes to its out unbuffered
        if sliced:
            np.copyto(diff.reshape(c1 - c0, k, k, box_h, box_w), cur_taps[c0:c1])
        else:
            np.take(cur_flat[c0:c1], cur_index, axis=1, mode="wrap", out=diff)
        np.take(ref_flat[c0:c1], ref_index, axis=1, mode="wrap", out=ref)
        np.subtract(diff, ref, out=diff)
        if tau > 0:
            np.abs(diff, out=ref)
            np.multiply(diff, _kept(ref, tau, out=keep[: c1 - c0]), out=diff)
    return field


def _box(plane: np.ndarray, k: int, s: int, out_h: int, out_w: int, acc) -> np.ndarray:
    """Sums over the k x k windows of ``plane``'s last two axes whose
    corners lie on the stride-``s`` grid, in dtype ``acc``: a k-tap
    horizontal sum, then a k-tap vertical one. Leading axes are kept."""
    rows = plane[..., : (out_w - 1) * s + 1 : s].astype(acc)
    for dx in range(1, k):
        rows += plane[..., dx : dx + (out_w - 1) * s + 1 : s]
    out = rows[..., : (out_h - 1) * s + 1 : s, :].copy()
    for dy in range(1, k):
        out += rows[..., dy : dy + (out_h - 1) * s + 1 : s, :]
    return out


def _score(
    cur_pad: np.ndarray,
    ref_pad: np.ndarray,
    k: int,
    s: int,
    tau: float,
    corner: tuple[int, int],
    out_h: int,
    out_w: int,
    shifts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Box SADs (float32) and kept counts (int32), each ``(len(shifts),
    out_h, out_w)``, of the ``out_h x out_w`` stride-``s`` windows of
    ``cur_pad`` whose first corner is the plane pixel ``corner``, against
    the windows of ``ref_pad`` shifted by each ``(dy, dx)`` of ``shifts``
    in pixels.

    Per shift, the box's difference is taken, its absolute value summed
    over channels in float32 and its kept entries counted per pixel. One
    box filter then sums each window of both stacks, held as one float32
    array. A kept count is an integer of at most k^2 C <= 2^24, and float32
    holds every such integer, each partial sum included, exactly; one
    filter over both stacks took ~10% less time than one per stack, and
    the SADs are summed in the same order either way. The difference is formed
    in one reused buffer, a copy of the current window then an in-place
    subtraction: numpy's out-of-place subtraction of these views, whose
    rows lie a plane apart, took ~1.3x as long at 32 channels (timeit,
    same bits). A float32 difference or sum
    of finite terms may overflow to inf, with no warning: ``search_planes``
    re-scores such SADs. Each channel's rows of the box are subtracted as
    one contiguous run of the flattened plane, which runs through the
    columns beside the box: per-pixel results sit in rows of the plane's
    width, and the box filter reads only the box's columns."""
    c, _, wp = cur_pad.shape
    if k * k * c > 2**24:
        raise ValueError(f"a block of {k}x{k}x{c} entries has kept counts float32 cannot hold")
    hh, ww = (out_h - 1) * s + k, (out_w - 1) * s + k
    run = (hh - 1) * wp + ww
    cur, ref = cur_pad.reshape(c, -1), ref_pad.reshape(c, -1)

    def window(plane, y, x):
        return plane[:, y * wp + x : y * wp + x + run]

    cur = window(cur, *corner)
    mag = np.empty((c, run), np.float32)
    keep = np.empty((c, run), bool)
    ns = len(shifts)
    # per-pixel SADs, then kept counts, each row a plane of the box's rows
    px = np.empty((2 * ns, hh * wp), np.float32)
    # per-pixel kept counts, at most C, summed in the narrowest type that holds them
    kept_px = np.empty((ns, hh * wp), np.min_scalar_type(c))

    with np.errstate(over="ignore"):
        for n, (dy, dx) in enumerate(shifts):
            shifted = window(ref, corner[0] + int(dy), corner[1] + int(dx))
            np.copyto(mag, cur)
            np.subtract(mag, shifted, out=mag)
            np.abs(mag, out=mag)
            np.add.reduce(mag, axis=0, out=px[n, :run])
            _kept(mag, tau, out=keep)
            np.add.reduce(keep.view(np.uint8), axis=0, dtype=kept_px.dtype, out=kept_px[n, :run])
        np.copyto(px[ns:], kept_px)
        sums = _box(px.reshape(-1, hh, wp)[..., :ww], k, s, out_h, out_w, np.float32)
    return sums[:ns], sums[ns:].astype(np.int32)


def _replay(sad: np.ndarray, kept: np.ndarray, trigger: int):
    """Replay the sequential candidate loop on stacked scores, candidates
    along axis 0 in search order and positions along the others: each candidate that scores strictly below
    the best so far improves its position, and a position retires after the
    first improving candidate (candidate 0 always improves) whose kept
    count is at or below ``trigger``. Returns the best so far after each
    candidate, the mask of candidates each position evaluates (a prefix of
    the stack) and the winner, the last improving candidate evaluated,
    which is the first of least SAD among them.

    The running minimum and the retirement prefix are one whole-plane
    operation per candidate: numpy's ``accumulate`` along the leading axis
    steps through it position by position, several times slower here."""
    n = len(sad)
    best = np.empty_like(sad)
    best[0] = sad[0]
    for c in range(1, n):
        np.minimum(best[c - 1], sad[c], out=best[c])
    improved = np.empty(sad.shape, bool)
    improved[0] = True
    np.less(sad[1:], best[:-1], out=improved[1:])
    retires = np.less_equal(kept, trigger)
    retires &= improved
    live = np.empty(sad.shape, bool)
    live[0] = True
    for c in range(1, n):
        np.greater(live[c - 1], retires[c - 1], out=live[c])  # live and not retired
    improved &= live
    order = np.arange(n, dtype=np.min_scalar_type(n - 1)).reshape((n,) + (1,) * (sad.ndim - 1))
    winner = np.max(improved * order, axis=0).astype(np.intp)
    return best, live, winner


def _changed_box(
    cur_pad: np.ndarray, ref_pad: np.ndarray, k: int, s: int, m: int, out_h: int, out_w: int
) -> tuple[int, int, int, int]:
    """Rows ``i0:i1`` and columns ``j0:j1`` of the ``out_h x out_w`` grid
    bounding the positions whose candidate-(0, 0) window, at plane pixel
    (i s + m, j s + m), reads a pixel that differs bitwise between the two
    planes; ``(0, 0, 0, 0)`` when none does.

    The whole planes are compared, contiguous and several times faster
    than the region the windows read alone, and that region is cut from the
    channel-reduced mask. A changed row y of it (from the region's first
    row) is read by the window rows i with i s <= y <= i s + k - 1, and
    likewise for columns."""
    hh, ww = (out_h - 1) * s + k, (out_w - 1) * s + k
    changed = np.not_equal(cur_pad.view(np.uint32), ref_pad.view(np.uint32)).any(axis=0)
    changed = changed[m : m + hh, m : m + ww]
    ys = np.flatnonzero(changed.any(axis=1))
    if not ys.size:
        return 0, 0, 0, 0
    xs = np.flatnonzero(changed.any(axis=0))
    # the first window reading pixel y is ceil((y - k + 1) / s), the last floor(y / s)
    return (max(0, -((k - 1 - int(ys[0])) // s)), min(out_h, int(ys[-1]) // s + 1),
            max(0, -((k - 1 - int(xs[0])) // s)), min(out_w, int(xs[-1]) // s + 1))


def search_margin(spec: ConvSpec, params: MotionParams) -> int:
    """Zero padding of the planes ``search_planes`` reads: the layer's
    padding plus the search range in input pixels."""
    return spec.padding + params.search_range * spec.stride


def search_planes(
    cur_pad: np.ndarray,
    ref_pad: np.ndarray,
    spec: ConvSpec,
    params: MotionParams,
    ledger: FlopsLedger | None,
) -> MotionField:
    """Full search over stride-aligned candidates for every output position
    of two frames of one shape, each validated and zero-padded by
    ``search_margin(spec, params)``. Output position (i, j) sits at grid
    position (i + r, j + r) of either plane, r the search range. The planes
    are read, never written, and are neither validated nor padded again:
    every gather reads them.

    Candidates are enumerated with (0, 0) first, then raster order; each
    evaluated SAD charges 2 k^2 C_in to ``me``. The decisions are those of
    a sequential candidate loop on per-block SADs: a candidate whose SAD is
    strictly below a position's best so far improves it, and with early
    stopping on the position retires after the first improving candidate
    whose kept count is at or below the early-stop trigger (candidate
    (0, 0), every position's first, always improves). The winner is the
    minimum-SAD candidate among those evaluated (ties keep the earlier
    candidate), and a position is matched when its winner's kept count
    does not exceed ``match_max_density`` of the block. Candidate reads
    beyond the reference frame see zeros.

    Only the box of positions whose candidate-(0, 0) block holds a pixel
    that differs bitwise between the planes is scored (``_changed_box``),
    from contiguous crops of both, and the field's arrays cover that box,
    at ``MotionField.origin``. Every other position's block is the same in
    both, so candidate (0, 0) has SAD 0 and kept count 0 there: no later
    candidate improves on it (a SAD is never below 0 and the test is
    strict), the position is matched with vector (0, 0) and no residual,
    and its output is a copy of the reference output. ``me`` still charges
    it what the loop charges: one candidate with early stopping on, since a
    kept count of 0 reaches any trigger, and every candidate with it off.

    No loop runs candidate by candidate through the decisions. Candidate
    (0, 0) is scored over the whole box, and every other candidate in one
    batch over the bounding box of the positions (0, 0) leaves searching
    (``_score``), into stacked (candidate, row, column) float32 SADs and
    integer kept counts; kept counts are exact. The decisions are replayed
    on the stacks (``_replay``): the running minimum along the candidate
    axis is each position's best so far, the first improving candidate
    whose kept count reaches the trigger ends the prefix of candidates a
    position evaluates, and the winner is the last improving candidate of
    that prefix. ``me`` is charged once, for every evaluated (position,
    candidate) pair of the whole grid.

    A box SAD adds the block's k^2 C_in non-negative terms in float32, in
    another order than a per-block float64 sum (``_block_sad``): each term
    passes through at most d = (C_in - 1) + 2 (k - 1) additions, over the
    channels and then in the two k-tap box passes. So it lies within about
    d 2^-24 of the exact sum, relatively, and is 0 exactly when every term
    is 0; the per-block sum lies within (k^2 C_in - 1) 2^-53 of it. Where
    the two disagree on a comparison, the two box SADs compared therefore
    lie within about 2 d 2^-24 of each other, relatively. The tolerance is
    twice that, plus 1e-9 for the per-block sum of any block of fewer than
    two million elements: 4 d 2^-24 + 1e-9, ~8.3e-6 at C_in = 32, k = 3.
    Where an evaluated candidate's box SAD is nonzero and within it of the
    best so far, relatively, or either is inf (a float32 sum of finite
    terms can overflow where a float64 one does not), every candidate of
    that position, (0, 0) included, is re-scored as a per-block float64
    sum, on blocks gathered from the two planes for those positions only,
    and those positions alone are replayed on them. Elsewhere no
    comparison is that close, so the box sums order it as the per-block
    sums do. Every comparison, and so every winner, early stop and ``me``
    charge, is the one the per-block sums give.

    The builder (``_build_field``) then turns the winners, their kept
    counts and match flags into the field, reading both planes only at the
    blocks the residual GEMM reads: matched positions with kept entries.
    """
    k, s = spec.kernel_size, spec.stride
    bsz = spec.block_size
    r = params.search_range
    tau = params.threshold
    m = r * s  # each plane's margin beyond the layer's padding
    out_h = (cur_pad.shape[1] - k) // s + 1 - 2 * r
    out_w = (cur_pad.shape[2] - k) // s + 1 - 2 * r
    # kept counts are integers, so they compare with the trigger's whole part;
    # with early stopping off it is -1, which no kept count reaches
    trigger = math.floor(params.early_stop_density * bsz) if params.early_stop_enabled else -1
    offsets = _candidate_offsets(r)
    # the relative gap below which box SADs may order otherwise than per-block sums
    near_tie = 4 * ((spec.in_channels - 1) + 2 * (k - 1)) * 2.0**-24 + 1e-9

    i0, i1, j0, j1 = _changed_box(cur_pad, ref_pad, k, s, m, out_h, out_w)
    box_h, box_w = i1 - i0, j1 - j0
    # outside the box candidate (0, 0) scores 0 with nothing kept and no later
    # candidate beats it: the loop evaluates it alone there with early stopping
    # on (a kept count of 0 reaches any trigger), and every candidate with it off
    evaluated = (out_h * out_w - box_h * box_w) * (1 if trigger >= 0 else len(offsets))
    best_cand = np.zeros((box_h, box_w), dtype=np.intp)
    best_nnz = np.zeros((box_h, box_w), dtype=np.int32)
    if best_nnz.size:
        # crops holding the box's windows over every candidate, and the s - 1
        # pixels after its last one, which no window reads: a box that ends at
        # the grid's end keeps the plane's end, so a whole-grid box crops to
        # the whole plane, with no copy
        crop = (slice(None), slice(i0 * s, (i1 + 2 * r) * s + k - 1),
                slice(j0 * s, (j1 + 2 * r) * s + k - 1))
        cur_pad, ref_pad = np.ascontiguousarray(cur_pad[crop]), np.ascontiguousarray(ref_pad[crop])
        sad0, kept0 = _score(cur_pad, ref_pad, k, s, tau, (m, m), box_h, box_w, offsets[:1])
        best_nnz = kept0[0]
        evaluated += box_h * box_w  # every box position evaluates candidate (0, 0)
        searching = best_nnz > trigger
        live_i = np.flatnonzero(searching.any(axis=1))
        if live_i.size and len(offsets) > 1:
            live_j = np.flatnonzero(searching.any(axis=0))
            a0, b0 = int(live_i[0]), int(live_j[0])
            nh, nw = int(live_i[-1]) + 1 - a0, int(live_j[-1]) + 1 - b0
            rows, cols = slice(a0, a0 + nh), slice(b0, b0 + nw)
            corner = (a0 * s + m, b0 * s + m)
            sad, kept = _score(cur_pad, ref_pad, k, s, tau, corner, nh, nw, offsets[1:] * s)
            sad = np.concatenate([sad0[:, rows, cols], sad])
            kept = np.concatenate([kept0[:, rows, cols], kept])
            best, live, winner = _replay(sad, kept, trigger)
            with np.errstate(invalid="ignore"):  # inf - inf
                gap = np.subtract(sad[1:], best[:-1])
            np.abs(gap, out=gap)
            unsure = np.less(gap, near_tie * sad[1:])
            unsure |= np.isinf(sad[1:])
            unsure |= np.isinf(best[:-1])
            unsure &= live[1:]
            ti, tj = np.nonzero(unsure.any(axis=0))
            if ti.size:
                # every candidate of these positions, (0, 0) included, as
                # per-block float64 sums, replayed on their own
                gi, gj = ti + a0 + r, tj + b0 + r
                cur_cols = unfold_blocks(cur_pad, k, s, at=(gi, gj))
                at = ((gi + offsets[:, :1]).ravel(), (gj + offsets[:, 1:]).ravel())
                ref_cols = unfold_blocks(ref_pad, k, s, at=at).reshape(bsz, len(offsets), -1)
                block_sad = _block_sad(cur_cols[:, None] - ref_cols)
                _, live[:, ti, tj], winner[ti, tj] = _replay(block_sad, kept[:, ti, tj], trigger)
            best_cand[rows, cols] = winner
            best_nnz[rows, cols] = np.take_along_axis(kept, winner[None], axis=0)[0]
            evaluated += int(np.count_nonzero(live[1:]))
    if ledger is not None:
        ledger.charge("me", 2 * bsz * evaluated)

    steps = np.take(offsets, best_cand, axis=0)
    matched = best_nnz <= params.match_max_density * bsz
    return _build_field(spec, cur_pad, ref_pad, r, steps[..., 0], steps[..., 1], tau, best_nnz,
                        matched, out_h, out_w, (i0, j0))
