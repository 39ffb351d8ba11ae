"""Sliding-window block matching on the convolution output grid.

Every output position owns one block the size of the kernel's receptive
field. Candidates are stride-aligned offsets within the search range,
scored by SAD against the reference frame; the winning block's
thresholded difference becomes that position's row of one dense residual
array. Matches whose residual stays too dense are handed back to the
dense fallback path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import IO

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


@dataclass(frozen=True)
class MotionVector:
    """Displacement from a current block to its reference match, in input
    pixels; always a multiple of the layer stride."""

    dx: int
    dy: int


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
    alpha: float = 0.0
    beta: float = 0.0

    @property
    def positions(self) -> int:
        return self.out_h * self.out_w

    def mv(self, i: int, j: int) -> MotionVector:
        if not self.matched[i, j]:
            raise ValueError(f"position ({i}, {j}) is unmatched and carries no motion vector")
        return MotionVector(dx=int(self.mv_dx[i, j]), dy=int(self.mv_dy[i, j]))

    def recompute_alpha(self) -> float:
        return float(np.count_nonzero(self.matched)) / self.positions

    def recompute_beta(self) -> float:
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


def _thresholded(diff: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Residual rows of ``diff`` keeping entries with magnitude >= tau, and
    the kept count per row. Boundary values are kept; zero differences
    never count, so tau=0 keeps exactly the nonzero differences."""
    keep = (np.abs(diff) >= tau) & (diff != 0)
    return np.where(keep, diff, np.float32(0)), np.count_nonzero(keep, axis=1)


def search(
    cur_input: FeatureMap,
    ref_input: FeatureMap,
    spec: ConvSpec,
    params: MotionParams,
    ledger: FlopsLedger | None,
) -> MotionField:
    """Full search over stride-aligned candidates for every output position.

    Candidates are enumerated with (0, 0) first, then raster order; each
    evaluated SAD charges 2 k^2 C_in. After a candidate becomes the best so
    far, its thresholded residual density is checked against the early-stop
    trigger. The winner is the minimum-SAD candidate among those evaluated
    (ties keep the earlier candidate); a position is matched when the
    winning density does not exceed ``match_max_density``. Candidate reads
    beyond the reference frame see zeros.
    """
    cur = ensure_feature_map(cur_input, channels=spec.in_channels, name="current input")
    ref = ensure_feature_map(ref_input, channels=spec.in_channels, name="reference input")
    if cur.shape != ref.shape:
        raise ValueError(f"current/reference shapes differ: {cur.shape} vs {ref.shape}")
    h, w = cur.shape[1], cur.shape[2]
    out_h, out_w = spec.out_shape(h, w)
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
    best_cand = np.full(n, -1, dtype=np.int32)
    best_nnz = np.zeros(n, dtype=np.int64)
    residual = np.zeros((n, bsz), dtype=np.float32)
    active = np.ones(n, dtype=bool)

    offsets = _candidate_offsets(r)
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
        if improved.any():
            imp = idx[improved]
            best_sad[imp] = sad_vals[improved]
            best_cand[imp] = ci
            residual[imp], best_nnz[imp] = _thresholded(diff[improved], tau)
            if params.early_stop_enabled:
                stop = best_nnz[imp] <= params.early_stop_density * bsz
                active[imp[stop]] = False

    matched_flat = best_nnz <= params.match_max_density * bsz
    residual[~matched_flat] = 0
    mv_dy = (np.array([o[0] for o in offsets], dtype=np.int32)[best_cand] * s).reshape(
        out_h, out_w
    )
    mv_dx = (np.array([o[1] for o in offsets], dtype=np.int32)[best_cand] * s).reshape(
        out_h, out_w
    )

    fld = MotionField(
        out_h=out_h,
        out_w=out_w,
        block_size=bsz,
        stride=s,
        matched=matched_flat.reshape(out_h, out_w),
        mv_dy=mv_dy,
        mv_dx=mv_dx,
        sad=best_sad.reshape(out_h, out_w),
        nnz=best_nnz.astype(np.int32).reshape(out_h, out_w),
        residual=residual,
    )
    fld.alpha = fld.recompute_alpha()
    fld.beta = fld.recompute_beta()
    return fld


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
    regardless of vector quality. Vectors must be stride multiples.
    """
    cur = ensure_feature_map(cur_input, channels=spec.in_channels, name="current input")
    ref = ensure_feature_map(ref_input, channels=spec.in_channels, name="reference input")
    if cur.shape != ref.shape:
        raise ValueError(f"current/reference shapes differ: {cur.shape} vs {ref.shape}")
    out_h, out_w = spec.out_shape(cur.shape[1], cur.shape[2])
    mv_dy = np.asarray(mv_dy, dtype=np.int32)
    mv_dx = np.asarray(mv_dx, dtype=np.int32)
    matched = np.asarray(matched, dtype=bool)
    if mv_dy.shape != (out_h, out_w) or mv_dx.shape != (out_h, out_w) or matched.shape != (out_h, out_w):
        raise ValueError(f"field arrays must have shape {(out_h, out_w)}")
    s = spec.stride
    if ((mv_dy % s) != 0).any() or ((mv_dx % s) != 0).any():
        raise ValueError("motion vectors must be integer multiples of the stride")
    if tau < 0:
        raise ValueError(f"threshold must be >= 0, got {tau}")
    k, p = spec.kernel_size, spec.padding
    n, bsz = out_h * out_w, spec.block_size

    # Sources more than ceil((k + s) / s) grid steps outside the grid read
    # only zeros, as that step itself does, so the gather is clipped there.
    steps_y, steps_x = mv_dy // s, mv_dx // s
    reach = max(np.abs(steps_y[matched]).max(initial=0), np.abs(steps_x[matched]).max(initial=0))
    e = min(int(reach), -(-(k + s) // s))
    src_i = np.clip(np.arange(out_h)[:, None] + steps_y, -e, out_h - 1 + e) + e
    src_j = np.clip(np.arange(out_w)[None, :] + steps_x, -e, out_w - 1 + e) + e
    rows = np.flatnonzero(matched)
    ref_rows = (src_i * (out_w + 2 * e) + src_j).ravel()[rows]
    ext = unfold_blocks(ref, k, s, p, extra_steps=e).reshape(-1, bsz)
    diff = unfold_blocks(cur, k, s, p).reshape(n, bsz)[rows] - ext[ref_rows]

    residual = np.zeros((n, bsz), dtype=np.float32)
    nnz = np.zeros(n, dtype=np.int32)
    sad_arr = np.zeros(n, dtype=np.float64)
    residual[rows], nnz[rows] = _thresholded(diff, tau)
    sad_arr[rows] = np.sum(np.abs(diff), axis=1, dtype=np.float64)

    fld = MotionField(
        out_h=out_h,
        out_w=out_w,
        block_size=bsz,
        stride=s,
        matched=matched.copy(),
        mv_dy=mv_dy.copy(),
        mv_dx=mv_dx.copy(),
        sad=sad_arr.reshape(out_h, out_w),
        nnz=nnz.reshape(out_h, out_w),
        residual=residual,
    )
    fld.alpha = fld.recompute_alpha()
    fld.beta = fld.recompute_beta()
    return fld
