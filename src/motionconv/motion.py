"""Sliding-window block matching on the convolution output grid.

Every output position owns one block the size of the kernel's receptive
field. Candidates are stride-aligned offsets within the search range,
and the search loop only scores them by SAD against the reference frame.
It scores a candidate for all positions at once: one difference of the
padded frames, cropped to the box of positions still searching, summed
over each block with a separable box filter (the window-cost aggregation
of stereo block matching). Box sums add in another order than per-block
sums, so near-ties are re-decided on per-block sums, and every decision
is the one per-block sums give. The reference frame is never gathered
whole: the near-tie check gathers the rows of its near positions only,
and one builder turns per-position vectors into a ``MotionField`` by
gathering each position's reference block once, at its vector. It
thresholds the difference into that position's row of one dense residual
array (a multiply by the keep mask, no select) and records the SAD and
kept count of every position. ``search`` feeds it the winners and
``field_from_vectors`` externally chosen vectors. Matches whose residual
stays too dense are handed back to the dense fallback path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import IO, Callable

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
        if self.threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if self.early_stop_density > 1:
            raise ValueError("early_stop_density must be <= 1")
        if not 0 <= self.match_max_density <= 1:
            raise ValueError("match_max_density must be in [0, 1]")

    @property
    def early_stop_enabled(self) -> bool:
        return self.early_stop_density >= 0

    def updated(self, **changes) -> "MotionParams":
        return replace(self, **changes)


@dataclass
class MotionField:
    """Per-position search outcome for one frame at one layer.

    ``mv_dy``/``mv_dx``/``sad``/``nnz`` hold the winning candidate for every
    position, including unmatched ones. ``residual`` is ``(out_h * out_w,
    block_size)`` float32 in raster order and ``unfold_blocks`` layout: the
    thresholded difference of each matched position, zero for entries below
    the threshold and for every row of an unmatched position. ``alpha`` is
    the matched fraction, ``beta`` the mean residual density over matched
    positions.
    """

    out_h: int
    out_w: int
    block_size: int
    stride: int
    matched: np.ndarray
    mv_dy: np.ndarray
    mv_dx: np.ndarray
    sad: np.ndarray
    nnz: np.ndarray
    residual: np.ndarray

    @property
    def positions(self) -> int:
        return self.out_h * self.out_w

    @property
    def alpha(self) -> float:
        return float(np.count_nonzero(self.matched)) / self.positions

    @property
    def beta(self) -> float:
        m = int(np.count_nonzero(self.matched))
        if m == 0:
            return 0.0
        total = int(self.nnz[self.matched].sum())
        return total / (m * self.block_size)

    def to_csv(self, dest: IO[str] | str) -> None:
        """Debug dump, one row per output position. The winning candidate's
        dx/dy/sad/nnz are shown even when the position is unmatched."""
        close = False
        if isinstance(dest, str):
            dest = open(dest, "w", newline="")
            close = True
        try:
            writer = csv.writer(dest)
            writer.writerow(["i", "j", "matched", "dx", "dy", "sad", "nnz"])
            for i in range(self.out_h):
                for j in range(self.out_w):
                    writer.writerow(
                        [
                            i,
                            j,
                            int(self.matched[i, j]),
                            int(self.mv_dx[i, j]),
                            int(self.mv_dy[i, j]),
                            repr(float(self.sad[i, j])),
                            int(self.nnz[i, j]),
                        ]
                    )
        finally:
            if close:
                dest.close()


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
    count, so tau=0 keeps exactly the nonzero differences."""
    return (mag >= tau) & (mag != 0)


def _row_sad(mag: np.ndarray) -> np.ndarray:
    """SAD of every row (last axis) of gathered magnitudes;
    ``MotionField.sad`` holds this sum."""
    return np.sum(mag, axis=-1, dtype=np.float64)


def _inputs(cur_input: FeatureMap, ref_input: FeatureMap, spec: ConvSpec):
    """Validated current and reference maps and the output grid shape."""
    cur = ensure_feature_map(cur_input, channels=spec.in_channels, name="current input")
    ref = ensure_feature_map(ref_input, channels=spec.in_channels, name="reference input")
    if cur.shape != ref.shape:
        raise ValueError(f"current/reference shapes differ: {cur.shape} vs {ref.shape}")
    return cur, ref, spec.out_shape(cur.shape[1], cur.shape[2])


def _build_field(
    spec: ConvSpec,
    cur_blocks: np.ndarray,
    ref: FeatureMap,
    e: int,
    steps_y: np.ndarray,
    steps_x: np.ndarray,
    tau: float,
    match: Callable[[np.ndarray], np.ndarray],
) -> MotionField:
    """The MotionField of per-position vectors given in grid steps.

    ``cur_blocks`` is the current frame's ``(n, block_size)`` gather. Each
    position's reference block is gathered once, at its source clipped to
    ``e`` grid steps beyond the output grid, and subtracted from it.
    ``match`` maps the kept count of every position to its match flag.
    Every position gets its SAD and kept count; the residual keeps the
    kept entries of matched rows and is zero elsewhere (masked entries of
    negative differences read -0.0, which equals 0).
    """
    out_h, out_w = steps_y.shape
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    src_i = np.clip(np.arange(out_h)[:, None] + steps_y, -e, out_h - 1 + e) + e
    src_j = np.clip(np.arange(out_w)[None, :] + steps_x, -e, out_w - 1 + e) + e
    at = (src_i.ravel(), src_j.ravel())
    diff = cur_blocks - unfold_blocks(ref, k, s, p, extra_steps=e, at=at)
    mag = np.abs(diff)
    keep = _kept(mag, tau)
    nnz = np.count_nonzero(keep, axis=1)
    matched = np.array(match(nnz), dtype=bool).reshape(out_h, out_w)
    keep &= matched.reshape(-1, 1)
    return MotionField(
        out_h=out_h,
        out_w=out_w,
        block_size=spec.block_size,
        stride=s,
        matched=matched,
        mv_dy=steps_y * s,
        mv_dx=steps_x * s,
        sad=_row_sad(mag).reshape(out_h, out_w),
        nnz=nnz.astype(np.int32).reshape(out_h, out_w),
        residual=np.multiply(diff, keep, out=diff),
    )


# Box SADs within this relative gap of the best so far are re-decided on
# gathered rows; see ``search``.
_NEAR_TIE = 1e-9


def _box(plane: np.ndarray, k: int, s: int, out_h: int, out_w: int) -> np.ndarray:
    """Sums over the k x k windows of ``plane`` whose corners lie on the
    stride-``s`` grid: a k-tap horizontal sum, then a k-tap vertical one."""
    rows = plane[:, : (out_w - 1) * s + 1 : s].copy()
    for dx in range(1, k):
        rows += plane[:, dx : dx + (out_w - 1) * s + 1 : s]
    out = rows[: (out_h - 1) * s + 1 : s].copy()
    for dy in range(1, k):
        out += rows[dy : dy + (out_h - 1) * s + 1 : s]
    return out


def search(
    cur_input: FeatureMap,
    ref_input: FeatureMap,
    spec: ConvSpec,
    params: MotionParams,
    ledger: FlopsLedger | None,
) -> MotionField:
    """Full search over stride-aligned candidates for every output position.

    Candidates are enumerated with (0, 0) first, then raster order; each
    evaluated SAD charges 2 k^2 C_in. The candidate loop only scores: it
    keeps each position's best SAD and winning candidate, and, with early
    stopping on, counts the kept entries of every candidate that becomes
    the best so far and retires the position once that count is at or
    below the early-stop trigger. The winner is the minimum-SAD candidate
    among those evaluated (ties keep the earlier candidate); its residual
    is built once, after the loop, from the current frame's gather and
    the reference rows at the winning vectors, and a position is matched
    when the winning density does not exceed ``match_max_density``.
    Candidate reads beyond the reference frame see zeros.

    Each candidate is scored on whole planes, cropped to the bounding box
    of the positions still active: one float32 difference of the
    zero-padded current plane and the shifted reference plane (each
    element equal to the gathered difference it stands for), its absolute
    value summed over channels in float64, then a k-tap horizontal and a
    k-tap vertical box sum at the stride. Kept counts are the same box
    sums of the per-pixel kept counts, so they are exact.

    The box sums add the block's n = k^2 C_in non-negative terms in another
    order than the row sum ``MotionField.sad`` reports. Any order of
    adding them lies within about (n - 1) * 2^-53 of the exact sum,
    relatively, and gives 0 exactly when every term is 0. Two sums whose
    row order and box order disagree therefore lie within about
    4 (n - 1) * 2^-53 of each other, under ``_NEAR_TIE`` for any block of
    fewer than two million elements. So where a candidate's box SAD is
    nonzero and within ``_NEAR_TIE`` of the best so far, relatively, both
    are recomputed as row sums, on reference rows gathered for those
    positions only, and those are compared. Every comparison, and so every
    winner, early stop and ledger charge, is the one the row sums give.
    """
    cur, ref, (out_h, out_w) = _inputs(cur_input, ref_input, spec)
    n = out_h * out_w
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    bsz = spec.block_size
    r = params.search_range
    tau = params.threshold

    cur_blocks = unfold_blocks(cur, k, s, p).reshape(n, bsz)
    m = r * s  # the reference plane's margin beyond the current's padding
    cur_pad, ref_pad = zero_pad(cur, p), zero_pad(ref, p + m)

    best_sad = np.full((out_h, out_w), np.inf)
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
        y0, x0 = i0 * s, j0 * s
        hh, ww = (nh - 1) * s + k, (nw - 1) * s + k
        ry, rx = y0 + m + int(qy) * s, x0 + m + int(qx) * s
        mag = np.abs(cur_pad[:, y0 : y0 + hh, x0 : x0 + ww] - ref_pad[:, ry : ry + hh, rx : rx + ww])
        sad_vals = _box(mag.sum(axis=0, dtype=np.float64), k, s, nh, nw)

        crop = (slice(i0, i0 + nh), slice(j0, j0 + nw))
        act, best, cand = active[crop], best_sad[crop], best_cand[crop]
        improved = act & (sad_vals < best)
        near = act & (np.abs(sad_vals - best) < _NEAR_TIE * sad_vals)
        if near.any():
            ni, nj = np.nonzero(near)
            bq = offsets[cand[near]]
            ni, nj = ni + i0, nj + j0
            # reference rows of this candidate, then of the best so far
            at = (np.concatenate([ni + qy, ni + bq[:, 0]]) + r,
                  np.concatenate([nj + qx, nj + bq[:, 1]]) + r)
            ref_rows = unfold_blocks(ref, k, s, p, extra_steps=r, at=at).reshape(2, -1, bsz)
            sad_q, sad_best = _row_sad(np.abs(cur_blocks[ni * out_w + nj] - ref_rows))
            improved[near] = sad_q < sad_best
        best[improved] = sad_vals[improved]
        cand[improved] = ci
        if params.early_stop_enabled and improved.any():
            kept = _box(_kept(mag, tau).sum(axis=0, dtype=np.int32), k, s, nh, nw)
            act[improved & (kept <= params.early_stop_density * bsz)] = False

    steps = offsets[best_cand]
    max_nnz = params.match_max_density * bsz
    return _build_field(
        spec, cur_blocks, ref, r, steps[..., 0], steps[..., 1], tau, lambda nnz: nnz <= max_nnz
    )


def field_from_vectors(
    cur_input: FeatureMap,
    ref_input: FeatureMap,
    spec: ConvSpec,
    mv_dy: np.ndarray,
    mv_dx: np.ndarray,
    matched: np.ndarray,
    tau: float = 0.0,
) -> MotionField:
    """Build a MotionField for externally chosen vectors and match flags.

    Residuals are recomputed from the inputs so the field stays consistent
    with the frames; reconstruction from any such field is exact at tau=0
    regardless of vector quality. Vectors must be stride multiples. Every
    position, matched or not, gets the SAD and kept count of its vector;
    residual rows of unmatched positions are zero.
    """
    cur, ref, (out_h, out_w) = _inputs(cur_input, ref_input, spec)
    mv_dy = np.asarray(mv_dy, dtype=np.int32)
    mv_dx = np.asarray(mv_dx, dtype=np.int32)
    matched = np.asarray(matched, dtype=bool)
    if mv_dy.shape != (out_h, out_w) or mv_dx.shape != (out_h, out_w) or matched.shape != (out_h, out_w):
        raise ValueError(f"field arrays must have shape {(out_h, out_w)}")
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    if ((mv_dy % s) != 0).any() or ((mv_dx % s) != 0).any():
        raise ValueError("motion vectors must be integer multiples of the stride")
    if tau < 0:
        raise ValueError(f"threshold must be >= 0, got {tau}")

    # Sources more than ceil((k + s) / s) grid steps outside the grid read
    # only zeros, as that step itself does, so the gather is clipped there.
    steps_y, steps_x = mv_dy // s, mv_dx // s
    e = min(int(max(np.abs(steps_y).max(), np.abs(steps_x).max())), -(-(k + s) // s))
    cur_blocks = unfold_blocks(cur, k, s, p).reshape(out_h * out_w, spec.block_size)
    return _build_field(spec, cur_blocks, ref, e, steps_y, steps_x, tau, lambda nnz: matched)
