"""Sliding-window block matching on the convolution output grid.

Every output position owns one block the size of the kernel's receptive
field. Candidates are stride-aligned offsets within the search range,
and the search loop only scores them by SAD against the reference frame.
One builder then turns per-position vectors into a ``MotionField``: it
gathers each position's reference block, thresholds the difference into
that position's row of one dense residual array, and records the SAD and
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
from .tensors import ConvSpec, FeatureMap, ensure_feature_map, unfold_blocks


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
        if self.search_range < 0:
            raise ValueError(f"search_range must be >= 0, got {self.search_range}")
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


def _kept(diff: np.ndarray, tau: float) -> np.ndarray:
    """Entries of ``diff`` a residual keeps: magnitude >= tau, boundary
    values included. Zero differences never count, so tau=0 keeps exactly
    the nonzero differences."""
    return (np.abs(diff) >= tau) & (diff != 0)


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
    ext: np.ndarray,
    steps_y: np.ndarray,
    steps_x: np.ndarray,
    tau: float,
    match: Callable[[np.ndarray], np.ndarray],
) -> MotionField:
    """The MotionField of per-position vectors given in grid steps.

    ``cur_blocks`` is the current frame's ``(n, block_size)`` gather and
    ``ext`` the reference gather with ``e`` extra grid steps on every side;
    sources beyond that margin are clipped onto it. ``match`` maps the kept
    count of every position to its match flag. Every position gets its SAD
    and kept count; residual rows of unmatched positions stay zero.
    """
    out_h, out_w = steps_y.shape
    e = (ext.shape[0] - out_h) // 2
    src_i = np.clip(np.arange(out_h)[:, None] + steps_y, -e, out_h - 1 + e) + e
    src_j = np.clip(np.arange(out_w)[None, :] + steps_x, -e, out_w - 1 + e) + e
    diff = cur_blocks - ext[src_i, src_j].reshape(cur_blocks.shape)
    keep = _kept(diff, tau)
    nnz = np.count_nonzero(keep, axis=1)
    matched = np.array(match(nnz), dtype=bool).reshape(out_h, out_w)
    s = spec.stride
    return MotionField(
        out_h=out_h,
        out_w=out_w,
        block_size=spec.block_size,
        stride=s,
        matched=matched,
        mv_dy=steps_y * s,
        mv_dx=steps_x * s,
        sad=np.sum(np.abs(diff), axis=1, dtype=np.float64).reshape(out_h, out_w),
        nnz=nnz.astype(np.int32).reshape(out_h, out_w),
        residual=np.where(keep & matched.reshape(-1, 1), diff, np.float32(0)),
    )


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
    is built once, after the loop, and a position is matched when the
    winning density does not exceed ``match_max_density``. Candidate reads
    beyond the reference frame see zeros.
    """
    cur, ref, (out_h, out_w) = _inputs(cur_input, ref_input, spec)
    n = out_h * out_w
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    bsz = spec.block_size
    r = params.search_range
    tau = params.threshold

    cur_blocks = unfold_blocks(cur, k, s, p).reshape(n, bsz)
    ext = unfold_blocks(ref, k, s, p, extra_steps=r)
    ext_w = out_w + 2 * r
    ext_flat = ext.reshape(-1, bsz)

    pos_i = np.repeat(np.arange(out_h), out_w)
    pos_j = np.tile(np.arange(out_w), out_h)

    best_sad = np.full(n, np.inf, dtype=np.float64)
    best_cand = np.zeros(n, dtype=np.int32)
    active = np.ones(n, dtype=bool)

    offsets = np.array(_candidate_offsets(r), dtype=np.int32)
    for ci, (qy, qx) in enumerate(offsets):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        ref_rows = (pos_i[idx] + qy + r) * ext_w + (pos_j[idx] + qx + r)
        diff = cur_blocks[idx] - ext_flat[ref_rows]
        sad_vals = np.sum(np.abs(diff), axis=1, dtype=np.float64)
        if ledger is not None:
            ledger.charge("me", 2 * bsz * idx.size)
        improved = sad_vals < best_sad[idx]
        imp = idx[improved]
        best_sad[imp] = sad_vals[improved]
        best_cand[imp] = ci
        if params.early_stop_enabled:
            kept = np.count_nonzero(_kept(diff[improved], tau), axis=1)
            active[imp[kept <= params.early_stop_density * bsz]] = False

    steps = offsets[best_cand].reshape(out_h, out_w, 2)
    max_nnz = params.match_max_density * bsz
    return _build_field(
        spec, cur_blocks, ext, steps[..., 0], steps[..., 1], tau, lambda nnz: nnz <= max_nnz
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
    ext = unfold_blocks(ref, k, s, p, extra_steps=e)
    return _build_field(spec, cur_blocks, ext, steps_y, steps_x, tau, lambda nnz: matched)
