"""One motion-compensated convolution layer.

Key frames run the dense convolution and cache both the input and the
(pre-activation) output. A non-key frame zero-pads its input once, by the
search margin, and caches that plane as the input: the next frame's
search reads it as its reference plane without padding it again; a key
frame's input is cached unpadded and padded by the next frame. Non-key
frames search the cached plane from the current frame's own padded
plane, copy matched outputs from the cached output map, add the
convolution of the sparse residual, and fall back to dense per-position
convolution where no usable match exists; the fallback gathers the
receptive fields of those positions only, from the same padded plane.
The cached output is already every position's output outside the
search's box of changed positions, so only the box is built, in its own
contiguous array: one column gather writes the predictions, and the
residual GEMM's output, the convolved residuals of the positions the
field's tap-major columns list, is added over it in place. The fallback
then overwrites every box position the prediction does not serve,
demoted ones included. A box of the whole grid becomes the cached output
as it is; any other box is copied into the cached output in place, as
the last step, which is safe because the layer never hands its cached
output out. The activation,
when configured, is applied after reconstruction so the next layer
always sees true post-activation features; the cache keeps
pre-activation values because only those decompose linearly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .ledger import FlopsLedger
from .motion import MotionParams, search_margin
from .motion import search_planes as search  # perfbench/tracing.py wraps ``layer.search``
from .tensors import (
    ConvSpec,
    FeatureMap,
    conv2d,
    dense_rows,
    ensure_feature_map,
    load_weights,
    require_keys,
    unfold_blocks,
    zero_pad,
)


def _identity(x: np.ndarray) -> np.ndarray:
    # a copy: the array handed in is the cached output, updated in place later
    return x.copy()


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, x, np.float32(0.1) * x)


ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "none": _identity,
    "relu": _relu,
    "leaky_relu": _leaky_relu,
}


# Keys a layer's parameter block may hold: the MotionParams fields, then the layer's own.
MOTION_KEYS = tuple(f.name for f in fields(MotionParams))
PARAM_KEYS = MOTION_KEYS + ("activation", "post_scale", "post_shift", "compensate")


class LayerError(ValueError):
    """Contract violation in layer usage (missing cache, shape drift)."""


@dataclass
class LayerCache:
    """Previous frame's layer input and pre-activation output.

    The input is kept as a plane zero-padded by ``margin`` on every side:
    after a non-key frame, the plane its search and fallback read, which
    the next frame's search reads as its reference plane; after a key
    frame, an unpadded copy. ``prev_input`` is its read-only interior.
    ``prev_output`` belongs to the layer alone: no call returns it (every
    activation returns a new array), because a non-key frame whose box
    covers part of the grid updates it in place.
    """

    plane: np.ndarray
    margin: int
    prev_output: np.ndarray

    @property
    def prev_input(self) -> np.ndarray:
        m = self.margin
        view = self.plane[:, m : self.plane.shape[1] - m, m : self.plane.shape[2] - m]
        view.flags.writeable = False
        return view


@dataclass
class NonKeyStats:
    """Cost-relevant outcome of one non-key forward pass.

    ``matched``/``nnz_total`` count positions that were actually served by
    prediction plus residual compensation; positions demoted to the dense
    path (out-of-grid prediction) count as unmatched here even if the
    search matched them.
    """

    positions: int
    matched: int
    demoted: int
    nnz_total: int
    block_size: int
    search_alpha: float

    @property
    def alpha(self) -> float:
        return self.matched / self.positions

    @property
    def beta(self) -> float:
        if self.matched == 0:
            return 0.0
        return self.nnz_total / (self.matched * self.block_size)


class MotionCompLayer:
    """Stateful per-layer operator; frames must arrive in temporal order."""

    def __init__(
        self,
        spec: ConvSpec,
        params: MotionParams | None = None,
        activation: str = "none",
        post_scale=None,
        post_shift=None,
        compensate: bool = True,
    ):
        self.spec = spec
        self.params = params if params is not None else MotionParams()
        if not isinstance(activation, str) or activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; choose from {sorted(ACTIVATIONS)}")
        self.activation = activation
        self.post_scale = self._channel_vec(post_scale, "post_scale")
        self.post_shift = self._channel_vec(post_shift, "post_shift")
        if not isinstance(compensate, bool):
            raise ValueError(f"compensate must be a bool, got {compensate!r}")
        # Ablation switch: with compensation off, matched positions are pure
        # predictions and residuals are never convolved.
        self.compensate = compensate
        self.cache: Optional[LayerCache] = None
        self.last_stats: Optional[NonKeyStats] = None

    def _channel_vec(self, v, name: str) -> Optional[np.ndarray]:
        if v is None:
            return None
        arr = np.asarray(v, dtype=np.float32)
        if arr.shape != (self.spec.out_channels,):
            raise ValueError(f"{name} must have shape ({self.spec.out_channels},), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite values")
        return arr

    @classmethod
    def from_files(cls, weights_path, params) -> "MotionCompLayer":
        """Build from a weights file plus a JSON parameter block (path or
        dict) holding any of ``PARAM_KEYS``; any other key is rejected."""
        source = f"parameters for weights {weights_path}"
        if not isinstance(params, dict):
            source = f"parameter file {params}"
            params = json.loads(Path(params).read_text())
        require_keys(params, (), source, allowed=PARAM_KEYS)
        spec = load_weights(weights_path)
        mp = MotionParams(**{k: params[k] for k in MOTION_KEYS if k in params})
        return cls(
            spec=spec,
            params=mp,
            activation=params.get("activation", "none"),
            post_scale=params.get("post_scale"),
            post_shift=params.get("post_shift"),
            compensate=params.get("compensate", True),
        )

    def _affine(self, linear: np.ndarray) -> np.ndarray:
        """``post_scale`` then ``post_shift`` along axis 0 of a
        channel-first array of any shape."""
        per_channel = (-1,) + (1,) * (linear.ndim - 1)
        if self.post_scale is not None:
            linear = linear * self.post_scale.reshape(per_channel)
        if self.post_shift is not None:
            linear = linear + self.post_shift.reshape(per_channel)
        return linear

    def _activate(self, linear: np.ndarray) -> np.ndarray:
        return ACTIVATIONS[self.activation](linear)

    def reset(self) -> None:
        """Drop the cache; the next frame must be a key frame. Idempotent."""
        self.cache = None
        self.last_stats = None

    def forward_key(self, x: FeatureMap, ledger: FlopsLedger | None) -> FeatureMap:
        """Dense convolution; refreshes the cache with a copy of this frame.

        ``conv2d`` validates ``x``. The copy is cached unpadded (margin 0),
        and the next non-key frame pads it: a margin pad costs more than
        the copy, and a key frame followed by another key frame never
        reads it."""
        linear = self._affine(conv2d(x, self.spec, ledger))
        self.cache = LayerCache(plane=np.array(x, dtype=np.float32), margin=0, prev_output=linear)
        self.last_stats = None
        return self._activate(linear)

    def dense_forward(self, x: FeatureMap, ledger: FlopsLedger | None = None) -> FeatureMap:
        """Plain convolution path with no cache side effects (oracle runs)."""
        return self._activate(self._affine(conv2d(x, self.spec, ledger)))

    def forward_nonkey(self, x: FeatureMap, ledger: FlopsLedger | None) -> FeatureMap:
        """Predict from the cached reference output and compensate residuals.

        Matched positions copy the cached output at the vector-displaced grid
        position (a free copy in the FLOPs model) and add the convolution of
        their thresholded residual; positions with no kept entry are pure
        copies. No bias is re-added there because the prediction already
        carries it. Unmatched positions, and matched positions whose
        prediction would fall outside the output grid, are computed densely
        with bias and charged as unmatched work. Positions outside the
        field's box are matched copies at vector (0, 0), which the cached
        output already holds, so only the box is worked on, in a new
        C-contiguous ``(C_out, box_h, box_w)`` array.

        One take writes every box position's prediction. The residual GEMM
        turns the field's columns into the convolved residuals, scaled by
        ``post_scale``, of the positions ``residual_at`` lists, and they are
        added over the box in place. When it lists only some positions, the
        columns are first spread over the box with -0.0 at the others:
        adding -0.0 leaves a float unchanged, so a position with nothing
        kept is a pure copy, -0.0 included. The fallback then overwrites
        every position the prediction does not serve, unmatched and demoted
        ones. A box holding a non-finite value raises, as ``conv2d`` does
        on a key frame. A box of the whole grid is then the new cached
        output; any other box is copied into the cached output in place.
        Nothing before that copy writes to the cache, so a call that raises
        leaves it as it was.

        ``x`` is validated and zero-padded once, by the search margin. The
        search reads that plane against the cached one without validating
        or padding again, the dense fallback gathers from it at grid offset
        r (the search range), and the cache keeps it for the next frame.
        A cached plane with another margin, a key frame's unpadded copy or
        a plane padded under another search range, is padded again from
        its interior. ``ledger=None`` skips accounting, as in ``forward_key``
        and the search.
        """
        if self.cache is None:
            raise LayerError("no cached reference; process a key frame first")
        x = ensure_feature_map(x, channels=self.spec.in_channels)
        if x.shape != self.cache.prev_input.shape:
            raise LayerError(
                f"input shape {x.shape} differs from cached reference "
                f"{self.cache.prev_input.shape}"
            )
        spec = self.spec
        h, w = x.shape[1], x.shape[2]
        out_h, out_w = spec.out_shape(h, w)
        margin = search_margin(spec, self.params)
        plane = zero_pad(x, margin)
        ref_plane = self.cache.plane
        if self.cache.margin != margin:
            ref_plane = zero_pad(self.cache.prev_input, margin)
        field = search(plane, ref_plane, spec, self.params, ledger)
        s = spec.stride
        c_out = spec.out_channels

        i0, j0 = field.origin
        box_h, box_w = field.matched.shape
        i1, j1 = i0 + box_h, j0 + box_w
        src_i = np.arange(i0, i1)[:, None] + field.mv_dy // s
        src_j = np.arange(j0, j1)[None, :] + field.mv_dx // s
        in_grid = (src_i >= 0) & (src_i < out_h) & (src_j >= 0) & (src_j < out_w)
        served = field.matched & in_grid
        n_served = int(np.count_nonzero(served))
        demoted = int(np.count_nonzero(field.matched)) - n_served
        matched = n_served + out_h * out_w - served.size

        # the box is built in its own contiguous array: the prediction or the
        # fallback below writes every box position
        prev = self.cache.prev_output
        box = np.empty((c_out, box_h, box_w), np.float32)
        if ledger is not None:
            ledger.add_pred_bytes(4 * c_out * matched)

        nnz_total = 0
        if served.any():
            # Sources of unserved positions are clipped, and the fallback
            # overwrites those positions, demoted listed ones included.
            src = src_i * out_w + src_j
            np.take(prev.reshape(c_out, -1), src, axis=1, out=box, mode="clip")
            nz = field.residual_at
            if self.compensate:
                nnz_total = int(field.nnz[served].sum())
                if ledger is not None:
                    ledger.charge("res", 2 * nnz_total * c_out)
            if self.compensate and nz.size:
                comp = spec.weights.reshape(c_out, -1) @ field.residual
                if self.post_scale is not None:
                    comp *= self.post_scale[:, None]
                if nz.size < served.size:
                    # column n goes to box position nz[n]; every other
                    # position takes an appended -0.0 column
                    ext = np.full((c_out, nz.size + 1), -0.0, np.float32)
                    ext[:, :-1] = comp
                    at = np.full(served.size, nz.size)
                    at[nz] = np.arange(nz.size)
                    comp = np.take(ext, at, axis=1)
                box += comp.reshape(box.shape)

        fallback = np.flatnonzero(~served)
        if fallback.size:
            r = self.params.search_range
            fi, fj = np.divmod(fallback, box_w)
            cols = unfold_blocks(plane, spec.kernel_size, s, at=(fi + i0 + r, fj + j0 + r))
            box.reshape(c_out, -1)[:, fallback] = self._affine(
                dense_rows(cols.T, spec, ledger, "unmatched"))
        if not np.isfinite(box).all():
            raise ValueError("convolution produced non-finite values")

        # positions outside the box keep the cached output, which no caller
        # holds, so a partial box is written back into it in place
        if served.shape == (out_h, out_w):
            out = box
        else:
            out = prev
            out[:, i0:i1, j0:j1] = box
        self.cache = LayerCache(plane=plane, margin=margin, prev_output=out)
        self.last_stats = NonKeyStats(
            positions=out_h * out_w,
            matched=matched,
            demoted=demoted,
            nnz_total=nnz_total,
            block_size=spec.block_size,
            search_alpha=field.alpha,
        )
        return self._activate(out)
