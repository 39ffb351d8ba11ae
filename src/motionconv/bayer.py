"""Bayer mosaic representation and raw-file I/O.

Frames are single-plane color filter mosaics normalized to [0, 1].
Packing rearranges one mosaic into a 4-channel half-resolution map with a
fixed (R, G1, G2, B) channel order regardless of pattern variant, where
G1 shares a row with R and G2 shares a row with B. Raw files are
headerless planar little-endian unsigned samples described by a JSON
sidecar; all conversions round-trip bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .tensors import is_int

# 2x2 tile position of each role, per pattern. Roles index the packed
# channel order (R, G1, G2, B).
ROLE_NAMES = ("R", "G1", "G2", "B")
PATTERNS: dict[str, dict[str, tuple[int, int]]] = {
    "RGGB": {"R": (0, 0), "G1": (0, 1), "G2": (1, 0), "B": (1, 1)},
    "BGGR": {"B": (0, 0), "G2": (0, 1), "G1": (1, 0), "R": (1, 1)},
    "GRBG": {"G1": (0, 0), "R": (0, 1), "B": (1, 0), "G2": (1, 1)},
    "GBRG": {"G2": (0, 0), "B": (0, 1), "R": (1, 0), "G1": (1, 1)},
}
# RGB source channel sampled at each role.
ROLE_RGB_CHANNEL = {"R": 0, "G1": 1, "G2": 1, "B": 2}


@dataclass
class BayerFrame:
    pattern: str
    plane: np.ndarray  # (H, W) float32 in [0, 1]

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown Bayer pattern {self.pattern!r}")
        self.plane = np.asarray(self.plane, dtype=np.float32)
        if self.plane.ndim != 2:
            raise ValueError(f"plane must be 2-D, got shape {self.plane.shape}")
        h, w = self.plane.shape
        if h % 2 or w % 2:
            raise ValueError(f"dims must be even, got {h}x{w}")
        # written so that NaN, which compares false, fails it
        if self.plane.size and not (self.plane.min() >= 0.0 and self.plane.max() <= 1.0):
            raise ValueError("plane values must lie in [0, 1]")

    @property
    def height(self) -> int:
        return self.plane.shape[0]

    @property
    def width(self) -> int:
        return self.plane.shape[1]


def mosaic(rgb: np.ndarray, pattern: str) -> BayerFrame:
    """Sample an RGB map (3, H, W) into a mosaic; no filtering, each pixel
    copies the channel its pattern site dictates."""
    rgb = np.asarray(rgb, dtype=np.float32)
    if rgb.ndim != 3 or rgb.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) RGB input, got shape {rgb.shape}")
    if pattern not in PATTERNS:
        raise ValueError(f"unknown Bayer pattern {pattern!r}")
    h, w = rgb.shape[1], rgb.shape[2]
    if h % 2 or w % 2:
        raise ValueError(f"dims must be even, got {h}x{w}")
    plane = np.empty((h, w), dtype=np.float32)
    for role, (ty, tx) in PATTERNS[pattern].items():
        plane[ty::2, tx::2] = rgb[ROLE_RGB_CHANNEL[role], ty::2, tx::2]
    return BayerFrame(pattern=pattern, plane=plane)


def pack(frame: BayerFrame) -> np.ndarray:
    """Rearrange a mosaic into (4, H/2, W/2) with channels (R, G1, G2, B)."""
    out = np.empty((4, frame.height // 2, frame.width // 2), dtype=np.float32)
    sites = PATTERNS[frame.pattern]
    for ci, role in enumerate(ROLE_NAMES):
        ty, tx = sites[role]
        out[ci] = frame.plane[ty::2, tx::2]
    return out


def _sample_dtype(bit_depth: int) -> np.dtype:
    return np.dtype("<u1") if bit_depth == 8 else np.dtype("<u2")


def _check_sidecar(meta: dict) -> dict:
    for key in ("width", "height", "pattern", "bit_depth", "frame_count"):
        if key not in meta:
            raise ValueError(f"sidecar missing {key!r}")
    for key in ("width", "height", "frame_count"):
        if not is_int(meta[key]) or meta[key] < 1:
            raise ValueError(f"sidecar {key!r} must be a positive integer, got {meta[key]!r}")
    if not isinstance(meta["pattern"], str) or meta["pattern"] not in PATTERNS:
        raise ValueError(f"unknown Bayer pattern {meta['pattern']!r}")
    if not is_int(meta["bit_depth"]) or not 8 <= meta["bit_depth"] <= 16:
        raise ValueError(
            f"sidecar 'bit_depth' must be an integer in [8, 16], got {meta['bit_depth']!r}"
        )
    if meta["width"] % 2 or meta["height"] % 2:
        raise ValueError("frame dims must be even")
    return meta


def load_raw_sequence(path, sidecar) -> Iterator[BayerFrame]:
    """Stream frames from a headerless raw file.

    ``sidecar`` is a dict or path to JSON with width, height, pattern,
    bit_depth, frame_count. Samples normalize by 2^bit_depth - 1. A short
    file raises naming the first missing frame index.
    """
    if not isinstance(sidecar, dict):
        sidecar = json.loads(Path(sidecar).read_text())
    meta = _check_sidecar(sidecar)
    h, w = meta["height"], meta["width"]
    dtype = _sample_dtype(meta["bit_depth"])
    frame_bytes = h * w * dtype.itemsize
    max_code = np.float32(2 ** meta["bit_depth"] - 1)
    with open(path, "rb") as fh:
        for t in range(meta["frame_count"]):
            buf = fh.read(frame_bytes)
            if len(buf) < frame_bytes:
                raise IOError(
                    f"raw file {path} truncated at frame {t}: "
                    f"got {len(buf)} of {frame_bytes} bytes"
                )
            samples = np.frombuffer(buf, dtype=dtype).reshape(h, w)
            if meta["bit_depth"] < 16 and dtype.itemsize == 2 and (samples > 2 ** meta["bit_depth"] - 1).any():
                raise ValueError(f"frame {t} holds samples above the declared bit depth")
            yield BayerFrame(
                pattern=meta["pattern"],
                plane=samples.astype(np.float32) / max_code,
            )


def quantize_plane(plane: np.ndarray, bit_depth: int) -> np.ndarray:
    """Map [0, 1] floats to integer codes (round half away from zero)."""
    max_code = 2**bit_depth - 1
    codes = np.floor(np.asarray(plane, dtype=np.float64) * max_code + 0.5)
    return np.clip(codes, 0, max_code).astype(_sample_dtype(bit_depth))


def save_raw_sequence(path, frames, bit_depth: int = 8, sidecar_path=None) -> dict:
    """Write frames as a headerless raw file plus JSON sidecar
    (``<path>.json`` unless given). Returns the sidecar dict."""
    frames = list(frames)
    if not frames:
        raise ValueError("no frames to write")
    if not is_int(bit_depth) or not 8 <= bit_depth <= 16:
        raise ValueError(f"bit_depth must be an integer in [8, 16], got {bit_depth!r}")
    bit_depth = int(bit_depth)
    pattern = frames[0].pattern
    h, w = frames[0].height, frames[0].width
    for t, frame in enumerate(frames):
        if frame.pattern != pattern or (frame.height, frame.width) != (h, w):
            raise ValueError(f"frame {t} differs in pattern or dims")
    with open(path, "wb") as fh:
        for frame in frames:
            fh.write(quantize_plane(frame.plane, bit_depth).tobytes())
    meta = {
        "width": w,
        "height": h,
        "pattern": pattern,
        "bit_depth": bit_depth,
        "frame_count": len(frames),
    }
    sidecar_path = Path(sidecar_path) if sidecar_path else Path(str(path) + ".json")
    sidecar_path.write_text(json.dumps(meta, indent=2) + "\n")
    return meta
