"""Sliding-window block matching on the convolution output grid.

Every output position owns one block the size of the kernel's receptive
field. Candidates are stride-aligned offsets within the search range,
and the search loop scores them by SAD against the reference frame. It
scores a candidate for all positions at once: one difference of the
padded frames, cropped to the box of positions still searching, summed
over each block with a separable box filter (the window-cost aggregation
of stereo block matching). Box sums add in another order than per-block
sums, so near-ties are re-decided on per-block sums, and every decision
is the one per-block sums give. The same loop box-sums the kept entries
of every candidate that improves a position, so each position leaves it
with its winner's kept count. The loop reads both frames as planes
zero-padded once by the search margin (``search_margin``), and every
later gather reads those two planes: ``search`` validates and pads its
two frames, and ``search_planes``, which the layer calls on planes it
has already validated and padded, does the rest. Neither frame is
gathered whole: the near-tie check gathers the blocks of its near
positions only, and the builder turns the winners, their kept counts
and match flags into a ``MotionField`` by gathering both planes only at
the blocks the residual GEMM reads, matched positions with a nonzero
kept count. It thresholds their differences (a multiply by the keep
mask, no select) into one compact residual: a tap-major column per
listed position, the layout the layer's GEMM takes as it is. Matches
whose residual stays too dense are handed back to the dense fallback
path.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .ledger import FlopsLedger
from .tensors import ConvSpec, FeatureMap, ensure_feature_map, is_int, unfold_blocks, zero_pad


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
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
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

    ``mv_dy``/``mv_dx``/``nnz`` hold the winning candidate for every
    position, including unmatched ones. ``residual_at`` lists, as sorted
    raster indices, the matched positions with ``nnz > 0``: the only
    positions with a nonzero residual. ``residual`` is ``(block_size,
    len(residual_at))`` float32 in the tap-major ``unfold_blocks(...,
    at=)`` layout: column n is the thresholded difference of position
    ``residual_at[n]``, zero for entries below the threshold. Every other
    position's residual is zero and is not stored. ``alpha`` is the
    matched fraction.
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

    @property
    def positions(self) -> int:
        return self.out_h * self.out_w

    @property
    def alpha(self) -> float:
        return float(np.count_nonzero(self.matched)) / self.positions


def _candidate_offsets(search_range: int) -> list[tuple[int, int]]:
    # (0, 0) first so zero motion wins SAD ties; the rest in raster order.
    offsets = [(0, 0)]
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            if (dy, dx) != (0, 0):
                offsets.append((dy, dx))
    return offsets


def _kept(mag: np.ndarray, tau: float) -> np.ndarray:
    """Entries a residual keeps, given the magnitudes of the differences:
    magnitude >= tau, boundary values included. Zero differences never
    count, so tau=0 keeps exactly the nonzero differences. For magnitudes
    (never negative or NaN) this is one comparison either way."""
    return mag >= tau if tau > 0 else mag != 0


def _block_sad(diff: np.ndarray) -> np.ndarray:
    """SAD of every block of gathered differences, blocks along axis 0 as
    ``unfold_blocks(..., at=)`` returns them. Each block is copied to a
    contiguous row and summed there, the order of a per-block sum."""
    rows = np.ascontiguousarray(np.moveaxis(np.abs(diff), 0, -1))
    return np.sum(rows, axis=-1, dtype=np.float64)


def _differences(
    spec: ConvSpec,
    cur_pad: np.ndarray,
    ref_pad: np.ndarray,
    e: int,
    steps_y: np.ndarray,
    steps_x: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """``(block_size, len(positions))`` current blocks minus reference
    blocks for the raster indices ``positions``. Both planes are zero-padded
    by the layer's padding plus ``e`` grid steps, so their grids reach e
    steps beyond the output grid on every side and output position (i, j)
    sits at grid position (i + e, j + e). Each reference block is read at
    the position's vector in grid steps, at most e steps long."""
    out_w = steps_y.shape[1]
    k, s = spec.kernel_size, spec.stride
    i, j = np.divmod(positions, out_w)
    src_i = i + steps_y.ravel()[positions] + e
    src_j = j + steps_x.ravel()[positions] + e
    diff = unfold_blocks(cur_pad, k, s, at=(i + e, j + e))
    diff -= unfold_blocks(ref_pad, k, s, at=(src_i, src_j))
    return diff


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
) -> MotionField:
    """The MotionField of per-position vectors given in grid steps, with
    their kept counts ``nnz`` and match flags ``matched``, on planes padded
    by ``e`` grid steps beyond the layer's padding as ``_differences``
    takes them.

    Both planes are gathered only at matched positions with ``nnz > 0``;
    their differences, times the keep mask, are the residual's columns
    (masked entries of negative differences read -0.0, which equals 0).
    """
    out_h, out_w = steps_y.shape
    need = np.flatnonzero(matched & (nnz > 0))
    diff = _differences(spec, cur_pad, ref_pad, e, steps_y, steps_x, need)
    return MotionField(
        out_h=out_h,
        out_w=out_w,
        block_size=spec.block_size,
        matched=matched,
        mv_dy=steps_y * spec.stride,
        mv_dx=steps_x * spec.stride,
        nnz=nnz,
        residual=np.multiply(diff, _kept(np.abs(diff), tau), out=diff),
        residual_at=need,
    )


# Box SADs within this relative gap of the best so far are re-decided on
# gathered blocks; see ``search``.
_NEAR_TIE = 1e-9


def _box(plane: np.ndarray, k: int, s: int, out_h: int, out_w: int, acc) -> np.ndarray:
    """Sums over the k x k windows of ``plane`` whose corners lie on the
    stride-``s`` grid, in dtype ``acc``: a k-tap horizontal sum, then a
    k-tap vertical one."""
    rows = plane[:, : (out_w - 1) * s + 1 : s].astype(acc)
    for dx in range(1, k):
        rows += plane[:, dx : dx + (out_w - 1) * s + 1 : s]
    out = rows[: (out_h - 1) * s + 1 : s].copy()
    for dy in range(1, k):
        out += rows[dy : dy + (out_h - 1) * s + 1 : s]
    return out


def search_margin(spec: ConvSpec, params: MotionParams) -> int:
    """Zero padding of the planes ``search_planes`` reads: the layer's
    padding plus the search range in input pixels."""
    return spec.padding + params.search_range * spec.stride


def search(
    cur_input: FeatureMap,
    ref_input: FeatureMap,
    spec: ConvSpec,
    params: MotionParams,
    ledger: FlopsLedger | None,
) -> MotionField:
    """Full search over stride-aligned candidates for every output position.

    Validates both frames, zero-pads each once by ``search_margin`` into
    planes no caller sees, and runs ``search_planes`` on them.

    Candidates are enumerated with (0, 0) first, then raster order; each
    evaluated SAD charges 2 k^2 C_in. The candidate loop keeps each
    position's best SAD, winning candidate and that candidate's kept count:
    the kept entries of every candidate that becomes the best so far are
    counted, and with early stopping on the position retires once that
    count is at or below the early-stop trigger. The winner is the
    minimum-SAD candidate among those evaluated (ties keep the earlier
    candidate), and a position is matched when its kept count does not
    exceed ``match_max_density`` of the block. The residual is built once,
    after the loop, from blocks of both frames gathered at matched
    positions with a nonzero kept count only. Candidate reads beyond the
    reference frame see zeros.

    Each candidate is scored on whole planes, cropped to the bounding box
    of the positions still active: one float32 difference of the current
    plane and the shifted reference plane (each element equal to the
    gathered difference it stands for), its absolute value summed over
    channels in float64, then a k-tap horizontal and a k-tap vertical box
    sum at the stride. Kept counts are the same box sums of the per-pixel
    kept counts, so they are exact. Candidate (0, 0) is every position's
    first, so each takes it as its best so far without a comparison.

    The box sums add the block's n = k^2 C_in non-negative terms in another
    order than a per-block sum (``_block_sad``). Any order of
    adding them lies within about (n - 1) * 2^-53 of the exact sum,
    relatively, and gives 0 exactly when every term is 0. Two sums whose
    per-block order and box order disagree therefore lie within about
    4 (n - 1) * 2^-53 of each other, under ``_NEAR_TIE`` for any block of
    fewer than two million elements. So where a candidate's box SAD is
    nonzero and within ``_NEAR_TIE`` of the best so far, relatively, both
    are recomputed as per-block sums, on current and reference blocks
    gathered from the two planes for those positions only, and those are
    compared. Every comparison, and so every winner, early stop and ledger
    charge, is the one the per-block sums give.
    """
    cur = ensure_feature_map(cur_input, channels=spec.in_channels, name="current input")
    ref = ensure_feature_map(ref_input, channels=spec.in_channels, name="reference input")
    if cur.shape != ref.shape:
        raise ValueError(f"current/reference shapes differ: {cur.shape} vs {ref.shape}")
    spec.out_shape(cur.shape[1], cur.shape[2])  # raises when the output grid is empty
    margin = search_margin(spec, params)
    return search_planes(zero_pad(cur, margin), zero_pad(ref, margin), spec, params, ledger)


def search_planes(
    cur_pad: np.ndarray,
    ref_pad: np.ndarray,
    spec: ConvSpec,
    params: MotionParams,
    ledger: FlopsLedger | None,
) -> MotionField:
    """``search`` on two validated frames of one shape, each zero-padded by
    ``search_margin(spec, params)``: the candidate loop and the field
    builder ``search`` describes, with no validation or padding of their
    own. Output position (i, j) sits at grid position (i + r, j + r) of
    either plane, r the search range. The planes are read, never written.
    """
    k, s = spec.kernel_size, spec.stride
    bsz = spec.block_size
    r = params.search_range
    tau = params.threshold
    m = r * s  # each plane's margin beyond the layer's padding
    out_h = (cur_pad.shape[1] - k) // s + 1 - 2 * r
    out_w = (cur_pad.shape[2] - k) // s + 1 - 2 * r
    # per-pixel kept counts, at most C_in, summed in the narrowest type that holds them
    per_pixel = np.min_scalar_type(spec.in_channels)
    trigger = params.early_stop_density * bsz

    best_cand = np.zeros((out_h, out_w), dtype=np.int32)
    active = np.ones((out_h, out_w), dtype=bool)

    offsets = np.array(_candidate_offsets(r), dtype=np.int32)
    for ci, (qy, qx) in enumerate(offsets):
        live_i = np.flatnonzero(active.any(axis=1))
        if live_i.size == 0:
            break
        live_j = np.flatnonzero(active.any(axis=0))
        if ledger is not None:
            ledger.charge("me", 2 * bsz * int(np.count_nonzero(active)))
        i0, j0 = int(live_i[0]), int(live_j[0])
        nh, nw = int(live_i[-1]) + 1 - i0, int(live_j[-1]) + 1 - j0
        y0, x0 = i0 * s + m, j0 * s + m
        hh, ww = (nh - 1) * s + k, (nw - 1) * s + k
        ry, rx = y0 + int(qy) * s, x0 + int(qx) * s
        mag = np.subtract(cur_pad[:, y0 : y0 + hh, x0 : x0 + ww], ref_pad[:, ry : ry + hh, rx : rx + ww])
        np.abs(mag, out=mag)
        sad_vals = _box(mag.sum(axis=0, dtype=np.float64), k, s, nh, nw, np.float64)

        def kept_counts():
            return _box(_kept(mag, tau).sum(axis=0, dtype=per_pixel), k, s, nh, nw, np.int32)

        if ci == 0:
            # the whole grid is active and every position improves on no best
            best_sad, best_nnz = sad_vals, kept_counts()
            if params.early_stop_enabled:
                active = best_nnz > trigger
            continue

        crop = (slice(i0, i0 + nh), slice(j0, j0 + nw))
        act, best, cand, nnz = active[crop], best_sad[crop], best_cand[crop], best_nnz[crop]
        improved = act & (sad_vals < best)
        near = act & (np.abs(sad_vals - best) < _NEAR_TIE * sad_vals)
        if near.any():
            ni, nj = np.nonzero(near)
            bq = offsets[cand[near]]
            ni, nj = ni + i0, nj + j0
            # reference blocks of this candidate, then of the best so far
            at = (np.concatenate([ni + qy, ni + bq[:, 0]]) + r,
                  np.concatenate([nj + qx, nj + bq[:, 1]]) + r)
            ref_cols = unfold_blocks(ref_pad, k, s, at=at).reshape(bsz, 2, -1)
            cur_cols = unfold_blocks(cur_pad, k, s, at=(ni + r, nj + r))
            sad_q, sad_best = _block_sad(cur_cols[:, None] - ref_cols)
            improved[near] = sad_q < sad_best
        if improved.any():
            np.copyto(best, sad_vals, where=improved)
            np.copyto(cand, ci, where=improved)
            kept = kept_counts()
            np.copyto(nnz, kept, where=improved)
            if params.early_stop_enabled:
                np.copyto(act, False, where=improved & (kept <= trigger))

    steps = offsets[best_cand]
    matched = best_nnz <= params.match_max_density * bsz
    return _build_field(spec, cur_pad, ref_pad, r, steps[..., 0], steps[..., 1], tau, best_nnz, matched)

