"""Deterministic synthetic sequences with known ground-truth motion.

Scene motion is expressed as the per-frame source displacement (dx, dy):
content now at pixel (y, x) sat at (y + dy, x + dx) one frame earlier, so
(dx, dy) is exactly the vector a correct block search should recover.
Textures are seeded high-entropy uniforms, keeping SAD minima unique so
recovery assertions are well posed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .tensors import ConvSpec, is_int, is_real

KINDS = ("static", "global_translate", "block_translate", "noise_mix")


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    height: int = 32
    width: int = 32
    channels: int = 3
    frame_count: int = 12
    seed: int = 0
    motion: tuple[int, int] = (0, 0)  # per-frame source displacement (dx, dy)
    noise_amplitude: float = 0.0
    block: tuple[int, int, int, int] = (0, 0, 8, 8)  # y0, x0, h, w

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}; choose from {KINDS}")
        for name in ("height", "width", "channels", "frame_count", "seed", "motion", "block"):
            value = getattr(self, name)
            if not all(map(is_int, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{name} must be an integer or a tuple of them, got {value!r}")
        if min(self.height, self.width, self.channels, self.frame_count) < 1 or self.seed < 0:
            raise ValueError("dims, channels and frame_count must be >= 1, seed >= 0")
        amp = self.noise_amplitude
        # generate draws the noise in float64 and casts it to float32, so an
        # amplitude past float32's largest value overflows one or the other
        amp_max = float(np.finfo(np.float32).max)
        ok = is_real(amp)
        try:
            ok = ok and 0 <= float(amp) <= amp_max
        except OverflowError:  # an int or Fraction past float64's range
            ok = False
        if not ok:
            try:
                got = repr(amp)
            except ValueError:  # an int past Python's int-to-str digit limit
                got = f"an int of {amp.bit_length()} bits"
            if len(got) > 40:
                got = f"{got[:20]}... ({len(got)} characters)"
            raise ValueError(f"noise_amplitude must be a real in [0, {amp_max:.7g}], got {got}")
        dx, dy = self.motion
        span = self.frame_count - 1
        if abs(dx) * span >= self.width or abs(dy) * span >= self.height:
            raise ValueError(
                f"motion {self.motion} over {self.frame_count} frames exceeds "
                f"frame dims {self.height}x{self.width}"
            )
        if self.kind == "block_translate":
            y0, x0, bh, bw = self.block
            if bh < 1 or bw < 1:
                raise ValueError("block dims must be >= 1")
            for t in range(self.frame_count):
                oy, ox = y0 - t * dy, x0 - t * dx
                if oy < 0 or ox < 0 or oy + bh > self.height or ox + bw > self.width:
                    raise ValueError(
                        f"block leaves the frame at frame {t}; shrink motion or frame_count"
                    )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SceneSpec":
        data = json.loads(text)
        for key in ("motion", "block"):
            if key in data and isinstance(data[key], list):
                data[key] = tuple(data[key])
        return cls(**data)


def _texture(rng: np.random.Generator, channels: int, h: int, w: int) -> np.ndarray:
    return rng.random((channels, h, w), dtype=np.float32)


def _shifted(tex: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """tex sampled at (y + dy, x + dx), zero where the index leaves the frame."""
    c, h, w = tex.shape
    out = np.zeros_like(tex)
    y_lo, y_hi = max(0, -dy), min(h, h - dy)
    x_lo, x_hi = max(0, -dx), min(w, w - dx)
    if y_lo < y_hi and x_lo < x_hi:
        out[:, y_lo:y_hi, x_lo:x_hi] = tex[:, y_lo + dy : y_hi + dy, x_lo + dx : x_hi + dx]
    return out


def generate(spec: SceneSpec) -> list[np.ndarray]:
    """Frames realizing the declared motion exactly (integer shifts, zero
    fill at exposed borders); identical specs give bit-identical output."""
    rng = np.random.default_rng(spec.seed)
    tex = _texture(rng, spec.channels, spec.height, spec.width)
    dx, dy = spec.motion
    frames: list[np.ndarray] = []

    if spec.kind == "static":
        frames = [tex.copy() for _ in range(spec.frame_count)]
    elif spec.kind == "global_translate":
        frames = [_shifted(tex, t * dy, t * dx) for t in range(spec.frame_count)]
    elif spec.kind == "block_translate":
        block_tex = rng.random(
            (spec.channels, spec.block[2], spec.block[3]), dtype=np.float32
        )
        y0, x0, bh, bw = spec.block
        for t in range(spec.frame_count):
            frame = tex.copy()
            oy, ox = y0 - t * dy, x0 - t * dx
            frame[:, oy : oy + bh, ox : ox + bw] = block_tex
            frames.append(frame)
    elif spec.kind == "noise_mix":
        # noise rides on top of the declared motion; motion (0, 0) degenerates
        # to a static scene with per-frame noise
        for t in range(spec.frame_count):
            base = _shifted(tex, t * dy, t * dx)
            noise = rng.uniform(
                -spec.noise_amplitude, spec.noise_amplitude, size=tex.shape
            ).astype(np.float32)
            frames.append(np.clip(base + noise, 0.0, 1.0))
    return frames


def random_conv_spec(
    rng: np.random.Generator,
    in_channels: int,
    out_channels: int,
    kernel_size: int = 3,
    stride: int = 1,
    padding: int | None = None,
    bias: bool = True,
) -> ConvSpec:
    """Seeded layer with uniform Glorot-scaled weights."""
    if padding is None:
        padding = kernel_size // 2
    fan_in = in_channels * kernel_size**2
    fan_out = out_channels * kernel_size**2
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    weights = rng.uniform(-bound, bound, size=(out_channels, in_channels, kernel_size, kernel_size))
    b = rng.uniform(-0.1, 0.1, size=out_channels) if bias else None
    return ConvSpec(weights=weights.astype(np.float32),
                    bias=None if b is None else b.astype(np.float32),
                    stride=stride, padding=padding)
