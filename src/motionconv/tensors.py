"""Dense feature maps, reference 2-D convolution, and receptive-field gathers.

A feature map is a plain ``(channels, height, width)`` float32 ndarray.
Convolution uses zero padding, odd square kernels, and charges
``2 k^2 C_in C_out H_out W_out`` FLOPs (one multiply plus one add per
kernel element) to the caller's ledger.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .ledger import FlopsLedger

FeatureMap = np.ndarray  # (C, H, W) float32


def is_int(value) -> bool:
    """True for Python and numpy integers; bools and floats such as 2.0
    are not integers here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def ensure_feature_map(x, channels: int | None = None, name: str = "input") -> np.ndarray:
    """Validate and return ``x`` as a finite (C, H, W) float32 array."""
    arr = np.asarray(x, dtype=np.float32)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be 3-D (channels, height, width), got shape {arr.shape}")
    if channels is not None and arr.shape[0] != channels:
        raise ValueError(f"{name} has {arr.shape[0]} channels, expected {channels}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class ConvSpec:
    """Convolution layer definition: weights (C_out, C_in, k, k), optional
    per-output-channel bias, stride, and zero padding."""

    weights: np.ndarray
    bias: Optional[np.ndarray] = None
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float32)
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ValueError(f"weights must be (C_out, C_in, k, k), got shape {w.shape}")
        if w.shape[2] % 2 != 1:
            raise ValueError(f"kernel size must be odd, got {w.shape[2]}")
        if not np.isfinite(w).all():
            raise ValueError("weights contain non-finite values")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if self.bias is not None:
            b = np.asarray(self.bias, dtype=np.float32)
            if b.shape != (w.shape[0],):
                raise ValueError(f"bias must have shape ({w.shape[0]},), got {b.shape}")
            if not np.isfinite(b).all():
                raise ValueError("bias contains non-finite values")
            b = b.copy()
            b.flags.writeable = False
            object.__setattr__(self, "bias", b)
        for name, low in (("stride", 1), ("padding", 0)):
            value = getattr(self, name)
            if not is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]

    @property
    def block_size(self) -> int:
        """Elements in one receptive field: k^2 * C_in."""
        return self.kernel_size * self.kernel_size * self.in_channels

    def out_shape(self, height: int, width: int) -> tuple[int, int]:
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = (height + 2 * p - k) // s + 1
        out_w = (width + 2 * p - k) // s + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(
                f"convolution output would be {out_h}x{out_w} for input "
                f"{height}x{width} (k={k}, s={s}, p={p})"
            )
        return out_h, out_w

    def conv_flops(self, height: int, width: int) -> int:
        """Dense cost for one frame: 2 k^2 C_in C_out H_out W_out."""
        out_h, out_w = self.out_shape(height, width)
        return 2 * self.block_size * self.out_channels * out_h * out_w


def zero_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """``x`` as float32 with ``pad`` zero rows and columns on every side."""
    c, h, w = x.shape
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=np.float32)
    padded[:, pad : pad + h, pad : pad + w] = x
    return padded


def unfold_blocks(
    x: np.ndarray,
    kernel_size: int,
    stride: int,
    padding: int,
    extra_steps: int = 0,
    at: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Gather receptive fields on the output grid into one new array.

    Returns ``(grid_h, grid_w, C*k*k)`` float32 where the grid equals the
    convolution output dims plus ``extra_steps`` whole grid steps on every
    side; positions reaching past the frame read zeros. Flat block layout
    is (channel, dy, dx), matching ``weights.reshape(C_out, -1)``. With
    ``at=(rows, cols)``, integer arrays of equal length indexing that grid
    (row 0 is ``extra_steps`` steps above the output grid), only those
    positions are gathered, as ``(len(rows), C*k*k)`` in the given order.
    The result is always a writeable array that shares no memory.
    """
    c = x.shape[0]
    k, s = kernel_size, stride
    padded = zero_pad(x, padding + extra_steps * s)
    if at is not None:
        _, hp, wp = padded.shape
        rows, cols = np.asarray(at[0]), np.asarray(at[1])
        if rows.size and (
            min(rows.min(), cols.min()) < 0
            or rows.max() > (hp - k) // s
            or cols.max() > (wp - k) // s
        ):
            raise ValueError("unfold_blocks: a gathered position lies outside the grid")
        offsets = (np.arange(c)[:, None, None] * (hp * wp)
                   + np.arange(k)[:, None] * wp + np.arange(k)).ravel()
        corners = rows * (s * wp) + cols * s
        return np.take(padded.ravel(), corners.reshape(-1, 1) + offsets)
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))
    win = win[:, ::s, ::s]  # (C, grid_h, grid_w, k, k)
    grid_h, grid_w = win.shape[1], win.shape[2]
    out = np.empty((grid_h, grid_w, c * k * k), dtype=np.float32)
    out.reshape(grid_h, grid_w, c, k, k)[...] = win.transpose(1, 2, 0, 3, 4)
    return out


def dense_rows(
    blocks: np.ndarray, spec: ConvSpec, ledger: FlopsLedger | None, category: str
) -> np.ndarray:
    """Convolve gathered receptive fields: ``(n, C_in*k*k)`` rows in
    ``unfold_blocks`` layout give ``(C_out, n)`` outputs, weights times rows
    plus the bias. Charges ``2 k^2 C_in C_out`` per row to ``ledger`` under
    ``category``; ``ledger=None`` skips accounting."""
    out = blocks @ spec.weights.reshape(spec.out_channels, -1).T
    if spec.bias is not None:
        out = out + spec.bias
    if ledger is not None:
        ledger.charge(category, 2 * spec.block_size * spec.out_channels * len(blocks))
    return out.T


def conv2d(
    x: FeatureMap, spec: ConvSpec, ledger: FlopsLedger | None, category: str = "key"
) -> FeatureMap:
    """Dense 2-D convolution with zero padding and optional bias.

    output(o, i, j) = bias[o] + sum_{c,dy,dx} weights[o,c,dy,dx] *
    padded_input(c, i*s + dy - p, j*s + dx - p). Charges the full dense
    cost to ``ledger`` under ``category`` (key frames by default).
    ``ledger=None`` skips accounting. The result is C-contiguous.
    """
    x = ensure_feature_map(x, channels=spec.in_channels)
    out_h, out_w = spec.out_shape(x.shape[1], x.shape[2])
    blocks = unfold_blocks(x, spec.kernel_size, spec.stride, spec.padding)
    out = dense_rows(blocks.reshape(out_h * out_w, -1), spec, ledger, category)
    result = np.ascontiguousarray(out.reshape(-1, out_h, out_w))
    if not np.isfinite(result).all():
        raise ValueError("convolution produced non-finite values")
    return result


def save_weights(spec: ConvSpec, path) -> Path:
    """Write weights as flat little-endian float32 in (C_out, C_in, k, k)
    order, bias (when present) appended, plus a JSON sidecar at
    ``<path>.json`` describing the layer geometry."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(spec.weights.astype("<f4").tobytes())
        if spec.bias is not None:
            fh.write(spec.bias.astype("<f4").tobytes())
    sidecar = {
        "in_channels": spec.in_channels,
        "out_channels": spec.out_channels,
        "kernel_size": spec.kernel_size,
        "stride": spec.stride,
        "padding": spec.padding,
        "has_bias": spec.bias is not None,
    }
    sidecar_path = Path(str(path) + ".json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    return sidecar_path


def require_keys(meta, keys, source: str, allowed=None) -> None:
    """Raise ``ValueError`` naming ``source`` unless ``meta`` is a JSON
    object holding every one of ``keys`` and, when ``allowed`` is given,
    no key outside it."""
    if not isinstance(meta, dict):
        raise ValueError(f"{source} must be a JSON object, got {type(meta).__name__}")
    for key in keys:
        if key not in meta:
            raise ValueError(f"{source} is missing key {key!r}")
    for key in meta:
        if allowed is not None and key not in allowed:
            raise ValueError(f"{source} has unknown key {key!r}; accepted: {', '.join(allowed)}")


def load_weights(path, sidecar=None) -> ConvSpec:
    """Load a ConvSpec written by ``save_weights``."""
    path = Path(path)
    sidecar_path = Path(sidecar) if sidecar is not None else Path(str(path) + ".json")
    meta = json.loads(sidecar_path.read_text())
    require_keys(
        meta,
        ("in_channels", "out_channels", "kernel_size", "stride", "padding", "has_bias"),
        f"weights sidecar {sidecar_path}",
    )
    c_out, c_in, k = meta["out_channels"], meta["in_channels"], meta["kernel_size"]
    n_weights = c_out * c_in * k * k
    raw = np.fromfile(path, dtype="<f4")
    expected = n_weights + (c_out if meta["has_bias"] else 0)
    if raw.size != expected:
        raise ValueError(
            f"weights file {path} holds {raw.size} floats, expected {expected}"
        )
    weights = raw[:n_weights].reshape(c_out, c_in, k, k)
    bias = raw[n_weights:] if meta["has_bias"] else None
    return ConvSpec(weights=weights, bias=bias, stride=meta["stride"], padding=meta["padding"])
