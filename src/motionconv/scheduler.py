"""Drives a layer stack over a frame sequence with fixed-length GOPs.

The first frame of every GOP is a key frame: all layer caches reset and
every layer runs its dense path. Remaining frames run prediction plus
residual compensation layer by layer. Optionally a plain-convolution
pipeline runs alongside to report per-frame output deviation; it never
feeds back into the pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .ledger import FlopsLedger
from .layer import MotionCompLayer, NonKeyStats
from .tensors import ConvSpec, FeatureMap, ensure_feature_map, is_int, require_keys


@dataclass(frozen=True)
class GopConfig:
    """Sequence-level controls. ``gop_length=1`` degenerates to all-key
    processing. ``oracle`` doubles compute for error stats. Search params
    belong to each layer (``MotionCompLayer.params``)."""

    gop_length: int = 12
    oracle: bool = False

    def __post_init__(self):
        if not is_int(self.gop_length) or self.gop_length < 1:
            raise ValueError(f"gop_length must be an integer >= 1, got {self.gop_length!r}")
        object.__setattr__(self, "gop_length", int(self.gop_length))


# Keys a layer entry of a network description may hold.
LAYER_KEYS = ("weights", "params", "post_scale", "post_shift", "compensate")


class Network:
    """Ordered stack of motion-compensated layers."""

    def __init__(self, layers: Sequence[MotionCompLayer]):
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.spec.out_channels != b.spec.in_channels:
                raise ValueError(
                    f"adjacent layers incompatible: {a.spec.out_channels} out vs "
                    f"{b.spec.in_channels} in"
                )
        self.layers = list(layers)

    def __len__(self) -> int:
        return len(self.layers)

    def reset_all(self) -> None:
        for layer in self.layers:
            layer.reset()

    def plain_forward(self, x: FeatureMap, ledger: FlopsLedger | None = None) -> FeatureMap:
        """Dense pipeline output for one frame; no cache side effects."""
        for layer in self.layers:
            x = layer.dense_forward(x, ledger)
        return x

    @classmethod
    def from_json(cls, path) -> "Network":
        """Load a network description: {"layers": [{"weights": ..., "params":
        {...}}, ...]}. Relative weight paths resolve against the JSON file.
        An entry may hold only ``LAYER_KEYS``; its params block only
        ``layer.PARAM_KEYS``."""
        path = Path(path)
        desc = json.loads(path.read_text())
        require_keys(desc, ("layers",), f"network description {path}")
        if not isinstance(desc["layers"], list):
            raise ValueError(
                f"'layers' of network description {path} must be a JSON list, "
                f"got {type(desc['layers']).__name__}"
            )
        layers = []
        for i, entry in enumerate(desc["layers"]):
            source = f"layer {i} of network description {path}"
            require_keys(entry, ("weights",), source, allowed=LAYER_KEYS)
            if not isinstance(entry["weights"], str):
                raise ValueError(
                    f"'weights' of {source} must be a path string, "
                    f"got {type(entry['weights']).__name__}"
                )
            weights = Path(entry["weights"])
            if not weights.is_absolute():
                weights = path.parent / weights
            require_keys(entry.get("params", {}), (), f"'params' of {source}")
            params = dict(entry.get("params", {}))
            for extra in ("post_scale", "post_shift", "compensate"):
                if extra in entry:
                    params[extra] = entry[extra]
            try:
                layers.append(MotionCompLayer.from_files(weights, params))
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from exc
        return cls(layers)


@dataclass
class LayerFrameRecord:
    """Exact cost of one layer on one frame, with the layer's ``spec`` and,
    on a non-key frame, its match statistics ``stats`` (``None`` on a key
    frame)."""

    frame: int
    layer: int
    is_key: bool
    flops: dict[str, int]
    spec: ConvSpec
    out_h: int
    out_w: int
    search_range: int
    stats: Optional[NonKeyStats]

    @property
    def conv_flops(self) -> int:
        """Dense cost of this layer at these dims (the baseline unit)."""
        return 2 * self.spec.block_size * self.spec.out_channels * self.out_h * self.out_w


@dataclass
class RunResult:
    outputs: list[np.ndarray]
    ledger: FlopsLedger
    records: list[LayerFrameRecord]
    baseline_total: int
    oracle_max_abs: Optional[list[float]] = None
    oracle_mean_abs: Optional[list[float]] = None


def run_sequence(net: Network, frames: Iterable[FeatureMap], config: GopConfig) -> RunResult:
    """Process frames in order, returning outputs, exact ledgers per
    frame/layer, and (in oracle mode) per-frame output deviation."""
    ledger = FlopsLedger()
    records: list[LayerFrameRecord] = []
    outputs: list[np.ndarray] = []
    oracle_max: list[float] = []
    oracle_mean: list[float] = []
    expected_shape = None

    try:
        for t, frame in enumerate(frames):
            x = ensure_feature_map(frame, channels=net.layers[0].spec.in_channels,
                                   name=f"frame {t}")
            if expected_shape is None:
                expected_shape = x.shape
            elif x.shape != expected_shape:
                raise ValueError(
                    f"frame {t}: shape {x.shape} drifted from {expected_shape}"
                )

            is_key = (t % config.gop_length) == 0
            if is_key:
                net.reset_all()
            for li, layer in enumerate(net.layers):
                sub = FlopsLedger()
                in_h, in_w = x.shape[1], x.shape[2]
                out_h, out_w = layer.spec.out_shape(in_h, in_w)
                try:
                    x = layer.forward_key(x, sub) if is_key else layer.forward_nonkey(x, sub)
                except ValueError as exc:
                    raise ValueError(f"frame {t}, layer {li}: {exc}") from exc
                records.append(LayerFrameRecord(
                    frame=t,
                    layer=li,
                    is_key=is_key,
                    flops=sub.counts(),
                    spec=layer.spec,
                    out_h=out_h,
                    out_w=out_w,
                    search_range=layer.params.search_range,
                    # a fresh NonKeyStats per non-key pass, None after a key pass
                    stats=layer.last_stats,
                ))
                ledger.merge(sub)
            outputs.append(x)

            if config.oracle:
                ref = net.plain_forward(ensure_feature_map(frame))
                diff = np.abs(outputs[-1].astype(np.float64) - ref.astype(np.float64))
                oracle_max.append(float(diff.max()))
                oracle_mean.append(float(diff.mean()))
    finally:
        # every run starts with a key frame, so the caches are dead from here
        # on, whether the run returns or raises
        net.reset_all()
    if not outputs:
        raise ValueError("empty frame sequence")
    return RunResult(
        outputs=outputs,
        ledger=ledger,
        records=records,
        baseline_total=sum(rec.conv_flops for rec in records),
        oracle_max_abs=oracle_max if config.oracle else None,
        oracle_mean_abs=oracle_mean if config.oracle else None,
    )
