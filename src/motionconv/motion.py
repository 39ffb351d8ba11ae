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
with its winner's kept count. Each frame is zero-padded once, for the
loop, and every later gather reads those two planes. Neither frame is
gathered whole: the near-tie check gathers the blocks of its near
positions only, and one builder turns per-position vectors, kept counts
and match flags into a ``MotionField`` by gathering both planes only at
the blocks the residual GEMM reads, matched positions with a nonzero
kept count. It thresholds
their differences (a multiply by the keep mask, no select) into one
compact residual: a tap-major column per listed position, the layout the
layer's GEMM takes as it is. ``search`` feeds it the winners and
``field_from_vectors`` externally chosen vectors. Matches whose residual
stays too dense are handed back to the dense fallback path. The SAD of
each position's vector is computed on first access to
``MotionField.sad``, never on the pipeline path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    """Per-position search outcome for one frame at one layer.

    ``mv_dy``/``mv_dx``/``nnz`` hold the winning candidate for every
    position, including unmatched ones; so does ``sad``, computed on first
    access. ``residual_at`` lists, as sorted raster indices, the matched
    positions with ``nnz > 0``: the only positions with a nonzero
    residual. ``residual`` is ``(block_size,
    len(residual_at))`` float32 in the tap-major ``unfold_blocks(...,
    at=)`` layout: column n is the thresholded difference of position
    ``residual_at[n]``, zero for entries below the threshold. Every other
    position's residual is zero and is not stored. ``alpha`` is the
    matched fraction, ``beta`` the mean residual density over matched
    positions.
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
    # every position's current-minus-reference column at its vector, on demand
    _diff_cols: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def sad(self) -> np.ndarray:
        """SAD of every position's winning candidate, summed over its block;
        computed on first access from the padded planes the field was built
        from, so later edits to the caller's frames do not reach it."""
        return _block_sad(self._diff_cols()).reshape(self.out_h, self.out_w)

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
    count, so tau=0 keeps exactly the nonzero differences. For magnitudes
    (never negative or NaN) this is one comparison either way."""
    return mag >= tau if tau > 0 else mag != 0


def _block_sad(diff: np.ndarray) -> np.ndarray:
    """SAD of every block of gathered differences, blocks along axis 0 as
    ``unfold_blocks(..., at=)`` returns them. Each block is copied to a
    contiguous row and summed there, the order of a per-block sum;
    ``MotionField.sad`` holds this sum."""
    rows = np.ascontiguousarray(np.moveaxis(np.abs(diff), 0, -1))
    return np.sum(rows, axis=-1, dtype=np.float64)


def _inputs(cur_input: FeatureMap, ref_input: FeatureMap, spec: ConvSpec):
    """Validated current and reference maps and the output grid shape."""
    cur = ensure_feature_map(cur_input, channels=spec.in_channels, name="current input")
    ref = ensure_feature_map(ref_input, channels=spec.in_channels, name="reference input")
    if cur.shape != ref.shape:
        raise ValueError(f"current/reference shapes differ: {cur.shape} vs {ref.shape}")
    return cur, ref, spec.out_shape(cur.shape[1], cur.shape[2])


def _differences(
    spec: ConvSpec,
    cur_pad: np.ndarray,
    ref_pad: np.ndarray,
    steps_y: np.ndarray,
    steps_x: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """``(block_size, len(positions))`` current blocks minus reference
    blocks for the raster indices ``positions``. ``cur_pad`` is the
    current frame zero-padded by the layer's padding; ``ref_pad`` is the
    reference padded by e grid steps more, so its grid reaches e steps
    beyond the output grid on every side. Each reference block is read at
    the position's vector in grid steps, its source clipped to that
    margin."""
    out_h, out_w = steps_y.shape
    k, s = spec.kernel_size, spec.stride
    e = (ref_pad.shape[1] - cur_pad.shape[1]) // (2 * s)
    i, j = np.divmod(positions, out_w)
    src_i = np.clip(i + steps_y.ravel()[positions], -e, out_h - 1 + e) + e
    src_j = np.clip(j + steps_x.ravel()[positions], -e, out_w - 1 + e) + e
    diff = unfold_blocks(cur_pad, k, s, at=(i, j))
    diff -= unfold_blocks(ref_pad, k, s, at=(src_i, src_j))
    return diff


def _build_field(
    spec: ConvSpec,
    cur_pad: np.ndarray,
    ref_pad: np.ndarray,
    steps_y: np.ndarray,
    steps_x: np.ndarray,
    tau: float,
    nnz: np.ndarray,
    matched: np.ndarray,
) -> MotionField:
    """The MotionField of per-position vectors given in grid steps, with
    their kept counts ``nnz`` and match flags ``matched``, on the padded
    planes ``_differences`` takes.

    Both planes are gathered only at matched positions with ``nnz > 0``;
    their differences, times the keep mask, are the residual's columns
    (masked entries of negative differences read -0.0, which equals 0).
    The field's lazy SAD holds the two planes, which no caller sees.
    """
    out_h, out_w = steps_y.shape
    need = np.flatnonzero(matched & (nnz > 0))
    diff = _differences(spec, cur_pad, ref_pad, steps_y, steps_x, need)
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
        _diff_cols=lambda: _differences(
            spec, cur_pad, ref_pad, steps_y, steps_x, np.arange(out_h * out_w)
        ),
    )


# Box SADs within this relative gap of the best so far are re-decided on
# gathered blocks; see ``search``.
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
    of the positions still active: one float32 difference of the
    zero-padded current plane and the shifted reference plane (each
    element equal to the gathered difference it stands for), its absolute
    value summed over channels in float64, then a k-tap horizontal and a
    k-tap vertical box sum at the stride. Kept counts are the same box
    sums of the per-pixel kept counts, so they are exact.

    The box sums add the block's n = k^2 C_in non-negative terms in another
    order than the per-block sum ``MotionField.sad`` reports. Any order of
    adding them lies within about (n - 1) * 2^-53 of the exact sum,
    relatively, and gives 0 exactly when every term is 0. Two sums whose
    per-block order and box order disagree therefore lie within about
    4 (n - 1) * 2^-53 of each other, under ``_NEAR_TIE`` for any block of
    fewer than two million elements. So where a candidate's box SAD is
    nonzero and within ``_NEAR_TIE`` of the best so far, relatively, both
    are recomputed as per-block sums, on current and reference blocks
    gathered from the loop's padded planes for those positions only, and
    those are compared. Every comparison, and so every winner, early stop
    and ledger charge, is the one the per-block sums give.
    """
    cur, ref, (out_h, out_w) = _inputs(cur_input, ref_input, spec)
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    bsz = spec.block_size
    r = params.search_range
    tau = params.threshold

    m = r * s  # the reference plane's margin beyond the current's padding
    cur_pad, ref_pad = zero_pad(cur, p), zero_pad(ref, p + m)

    best_sad = np.full((out_h, out_w), np.inf)
    best_cand = np.zeros((out_h, out_w), dtype=np.int32)
    best_nnz = np.zeros((out_h, out_w), dtype=np.int32)
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
            cur_cols = unfold_blocks(cur_pad, k, s, at=(ni, nj))
            sad_q, sad_best = _block_sad(cur_cols[:, None] - ref_cols)
            improved[near] = sad_q < sad_best
        best[improved] = sad_vals[improved]
        cand[improved] = ci
        if improved.any():
            kept = _box(_kept(mag, tau).sum(axis=0, dtype=np.int32), k, s, nh, nw)
            nnz[improved] = kept[improved]
            if params.early_stop_enabled:
                act[improved & (kept <= params.early_stop_density * bsz)] = False

    steps = offsets[best_cand]
    matched = best_nnz <= params.match_max_density * bsz
    return _build_field(spec, cur_pad, ref_pad, steps[..., 0], steps[..., 1], tau, best_nnz, matched)


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
    position, matched or not, gets the kept count (from one gather of both
    frames at every position, each frame padded once) and the SAD of its
    vector; unmatched positions carry no residual column.
    """
    cur, ref, (out_h, out_w) = _inputs(cur_input, ref_input, spec)
    mv_dy = np.asarray(mv_dy, dtype=np.int32)
    mv_dx = np.asarray(mv_dx, dtype=np.int32)
    matched = np.array(matched, dtype=bool)
    if mv_dy.shape != (out_h, out_w) or mv_dx.shape != (out_h, out_w) or matched.shape != (out_h, out_w):
        raise ValueError(f"field arrays must have shape {(out_h, out_w)}")
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    if ((mv_dy % s) != 0).any() or ((mv_dx % s) != 0).any():
        raise ValueError("motion vectors must be integer multiples of the stride")
    if not tau >= 0:
        raise ValueError(f"threshold must be >= 0, got {tau}")

    # Sources more than ceil((k + s) / s) grid steps outside the grid read
    # only zeros, as that step itself does, so the gather is clipped there.
    steps_y, steps_x = mv_dy // s, mv_dx // s
    e = min(int(max(np.abs(steps_y).max(), np.abs(steps_x).max())), -(-(k + s) // s))
    cur_pad, ref_pad = zero_pad(cur, p), zero_pad(ref, p + e * s)
    diff = _differences(spec, cur_pad, ref_pad, steps_y, steps_x, np.arange(out_h * out_w))
    nnz = np.count_nonzero(_kept(np.abs(diff), tau), axis=0).astype(np.int32).reshape(out_h, out_w)
    return _build_field(spec, cur_pad, ref_pad, steps_y, steps_x, tau, nnz, matched)
