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
    # an exact type test first: the abstract-class check costs ~30x more
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def is_real(value) -> bool:
    """True for real numbers (Python and numpy ints and floats, fractions);
    bools are not numbers here."""
    return type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, bool))


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


def block_index(
    shape: tuple[int, int, int], kernel_size: int, stride: int, at: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """``(k*k, n)`` flat offsets of the blocks at ``at=(rows, cols)``, integer
    arrays of equal length n indexing the grid of every stride-aligned
    k x k window of a ``(C, H, W)`` plane of ``shape``: row t of column n
    is tap t = (dy, dx) of position n, as an offset into one channel of
    the plane flattened to ``(C, H*W)``. Raises ``ValueError`` unless the
    positions are two 1-D integer (not bool) arrays of one length inside
    the grid: the gathers read the offsets with ``take(mode="wrap")``, so
    this check is all that keeps a gather from wrapping."""
    _, hp, wp = shape
    k, s = kernel_size, stride
    rows, cols = np.asarray(at[0]), np.asarray(at[1])
    for a in (rows, cols):
        if a.ndim != 1 or a.dtype.kind not in "iu":
            raise ValueError(f"positions must be 1-D integer arrays, got {a.dtype} {a.shape}")
    if rows.size != cols.size:
        raise ValueError(f"got {rows.size} rows but {cols.size} columns")
    if rows.size and (
        min(rows.min(), cols.min()) < 0
        or rows.max() > (hp - k) // s
        or cols.max() > (wp - k) // s
    ):
        raise ValueError("a gathered position lies outside the grid")
    taps = (np.arange(k)[:, None] * wp + np.arange(k)).reshape(-1, 1)
    # offsets in intp: in a narrower type of the positions they could overflow
    rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
    return taps + (rows * (s * wp) + cols * s)


def unfold_blocks(
    padded: np.ndarray,
    kernel_size: int,
    stride: int,
    at: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Gather receptive fields from a plane the caller has zero-padded.

    The grid is every stride-aligned k x k window of ``padded``, a
    ``(C, H, W)`` float32 plane that is read but never padded or copied:
    padding it by the convolution's padding gives the output grid, and
    padding it by e grid steps more adds e steps on every side. Returns
    ``(grid_h, grid_w, C*k*k)`` float32; flat block layout is (channel,
    dy, dx), matching ``weights.reshape(C_out, -1)``. With ``at=(rows,
    cols)``, integer arrays of equal length n indexing that grid, only
    those positions are gathered, tap-major: ``(C*k*k, n)`` columns in the
    same (channel, dy, dx) row order, one column per position in the given
    order, so ``weights.reshape(C_out, -1) @ cols`` is the ``(C_out, n)``
    output. One ``take`` reads them through the ``(k*k, n)`` index of block
    corners plus tap offsets that ``block_index`` builds. The result is
    always a writeable array that shares no memory.
    """
    c, hp, wp = padded.shape
    k, s = kernel_size, stride
    if at is not None:
        index = block_index(padded.shape, k, s, at)
        out = np.empty((c * k * k, index.shape[1]), dtype=np.float32)
        # block_index checks the positions, so "wrap" never wraps: numpy's
        # "wrap" gather took ~3/4 of "clip"'s time (same bits), and either
        # writes to out unbuffered
        np.take(padded.reshape(c, hp * wp), index, axis=1, mode="wrap",
                out=out.reshape(c, k * k, -1))
        return out
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


def conv2d(x: FeatureMap, spec: ConvSpec, ledger: FlopsLedger | None) -> FeatureMap:
    """Dense 2-D convolution with zero padding and optional bias.

    output(o, i, j) = bias[o] + sum_{c,dy,dx} weights[o,c,dy,dx] *
    padded_input(c, i*s + dy - p, j*s + dx - p). Charges the full dense
    cost to ``ledger`` as key-frame work; ``ledger=None`` skips
    accounting. The result is C-contiguous.
    """
    x = ensure_feature_map(x, channels=spec.in_channels)
    out_h, out_w = spec.out_shape(x.shape[1], x.shape[2])
    blocks = unfold_blocks(zero_pad(x, spec.padding), spec.kernel_size, spec.stride)
    out = dense_rows(blocks.reshape(out_h * out_w, -1), spec, ledger, "key")
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
    """Load a ConvSpec written by ``save_weights``. The sidecar must give
    positive integer channel counts and kernel size and a JSON bool
    ``has_bias``; any error it causes names the sidecar."""
    path = Path(path)
    sidecar_path = Path(sidecar) if sidecar is not None else Path(str(path) + ".json")
    source = f"weights sidecar {sidecar_path}"
    meta = json.loads(sidecar_path.read_text())
    require_keys(
        meta, ("in_channels", "out_channels", "kernel_size", "stride", "padding", "has_bias"), source
    )
    for key in ("in_channels", "out_channels", "kernel_size"):
        if not is_int(meta[key]) or meta[key] < 1:
            raise ValueError(f"{source}: {key!r} must be a positive integer, got {meta[key]!r}")
    if not isinstance(meta["has_bias"], bool):
        raise ValueError(f"{source}: 'has_bias' must be true or false, got {meta['has_bias']!r}")
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
    try:
        return ConvSpec(weights=weights, bias=bias, stride=meta["stride"], padding=meta["padding"])
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc
