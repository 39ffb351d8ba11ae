"""The benchmark's workloads: seeded inputs, set-up, and one measured pass.

Every workload runs the reference network (4->32 stride 1, 32->32 stride 2,
32->64 stride 1, all k=3 with ReLU) on packed Bayer frames made from a
seeded synthetic scene. The program only ever sees the generated inputs;
the seed stays on this side.

A pass is one closed-loop run over the whole sequence: ``run_sequence``
pulls the next frame as soon as the previous one is done. Each pull is
stamped, which gives per-frame latency without touching the program.
Modules are called through their module attributes (``scheduler.run_sequence``,
``synth.generate``, ...) so that the traced run can wrap them in place.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import motionconv.bayer as bayer
import motionconv.cli as cli
import motionconv.scheduler as scheduler
import motionconv.synth as synth
from motionconv.layer import MotionCompLayer
from motionconv.tensors import ConvSpec, save_weights

MOSAIC_SIDE = 128  # mosaic height and width; packed frames are 4 x 64 x 64
PATTERN = "RGGB"
REFERENCE_NET = ((4, 32, 1), (32, 32, 2), (32, 64, 1))  # (C_in, C_out, stride), k=3, ReLU
KERNEL = 3
WEIGHTS_SEED = 2025  # one fixed network: the workload seed varies only the scene
WORK_DIR = Path(".perfbench_work")


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict  # SceneSpec fields other than size, channels and seed
    gop: int
    tau: float
    via_cli: bool


_PAN_SCENE = {"kind": "noise_mix", "frame_count": 12, "motion": (2, 0), "noise_amplitude": 0.02}

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's operating point with imperfect matches: beta ~0.55 keeps
        # early stopping off, so search and compensation do nearly all the work.
        # A 2-pixel mosaic pan is a 1-pixel shift of the packed frame, inside R=1.
        Workload(
            name="pan_noise",
            scene=_PAN_SCENE,
            gop=12,
            tau=0.01,
            via_cli=False,
        ),
        # An 8-bit raw file through the CLI at tau=0: the copy path on the static
        # background, the dense fallback on a block moving past the search range,
        # raw I/O and reports. 4 mosaic pixels per frame is 2 packed pixels,
        # beyond layer 0's +-1 search; the block crosses from x=92 to x=0.
        Workload(
            name="block_raw_lossless",
            scene={
                "kind": "block_translate",
                "frame_count": 24,
                "motion": (4, 0),
                "block": (24, 92, 80, 36),
            },
            gop=12,
            tau=0.0,
            via_cli=True,
        ),
        # pan_noise at GOP 1: every frame is a key frame, so only dense convolution
        # and the scheduler work; motion and layer changes must not move it.
        Workload(
            name="dense_gop1",
            scene=_PAN_SCENE,
            gop=1,
            tau=0.01,
            via_cli=False,
        ),
    )
}


def input_size(w: Workload) -> str:
    half = MOSAIC_SIDE // 2
    return (
        f"{w.scene['frame_count']} frames per pass, {MOSAIC_SIDE}x{MOSAIC_SIDE} {PATTERN} mosaic "
        f"packed to 4x{half}x{half}, GOP {w.gop}, tau {w.tau:g}, search range 1"
    )


def reference_specs() -> list[ConvSpec]:
    rng = np.random.default_rng(WEIGHTS_SEED)
    return [
        synth.random_conv_spec(rng, c_in, c_out, KERNEL, stride)
        for c_in, c_out, stride in REFERENCE_NET
    ]


def dense_flops_per_frame(specs: list[ConvSpec]) -> int:
    h = w = MOSAIC_SIDE // 2
    total = 0
    for spec in specs:
        total += spec.conv_flops(h, w)
        h, w = spec.out_shape(h, w)
    return total


@dataclass
class Prepared:
    """What one set-up produces: the inputs and the network to run them on."""

    workload: Workload
    specs: list[ConvSpec]
    net: Optional[scheduler.Network] = None  # in-process workloads
    frames: Optional[list[np.ndarray]] = None  # in-process workloads
    argv: Optional[list[str]] = None  # CLI workload
    report_path: Optional[Path] = None


def setup(w: Workload, seed: int) -> Prepared:
    """Scene generation, Bayer sampling and network construction; the CLI
    workload also writes the raw file, the weights and the net description."""
    spec = synth.SceneSpec(
        height=MOSAIC_SIDE, width=MOSAIC_SIDE, channels=3, seed=seed, **w.scene
    )
    mosaics = [bayer.mosaic(rgb, PATTERN) for rgb in synth.generate(spec)]
    specs = reference_specs()
    if not w.via_cli:
        layers = [MotionCompLayer(s, activation="relu") for s in specs]
        for layer in layers:
            layer.params = layer.params.updated(threshold=w.tau)
        frames = [bayer.pack(m) for m in mosaics]
        return Prepared(w, specs, net=scheduler.Network(layers), frames=frames)

    # Relative paths keep report.json identical wherever the checkout lives.
    work = WORK_DIR / w.name
    work.mkdir(parents=True, exist_ok=True)
    raw = work / "scene.raw"
    bayer.save_raw_sequence(raw, mosaics, bit_depth=8)
    entries = []
    for i, s in enumerate(specs):
        save_weights(s, work / f"l{i}.bin")
        entries.append({"weights": f"l{i}.bin", "params": {"activation": "relu"}})
    net_path = work / "net.json"
    net_path.write_text(json.dumps({"layers": entries}, indent=2) + "\n")
    out = work / "out"
    argv = [
        "run", "--input", str(raw), "--sidecar", f"{raw}.json", "--net", str(net_path),
        "--tau", repr(w.tau), "--gop", str(w.gop), "--out", str(out), "--seed", str(seed),
    ]
    return Prepared(w, specs, argv=argv, report_path=out / "report.json")


@dataclass
class PassRecord:
    """One pass: timings, the ledger and every output, for the gate."""

    frames: int = 0
    wall_s: float = 0.0  # whole pass as the caller sees it (cli.main for the CLI workload)
    run_s: float = 0.0  # inside run_sequence
    dense_s: float = 0.0  # Network.plain_forward over the same frames, mean of the repeats
    frame_ms: list[float] = field(default_factory=list)
    is_key: list[bool] = field(default_factory=list)
    ledger: dict = field(default_factory=dict)
    outputs: list[np.ndarray] = field(default_factory=list)
    inputs: list[np.ndarray] = field(default_factory=list)
    net: Optional[scheduler.Network] = None
    exit_code: int = 0
    report_digest: Optional[str] = None
    error: Optional[str] = None


class Harness:
    """Stands in for ``run_sequence`` at the caller: stamps each frame as it
    is pulled and keeps the result for checking."""

    def __init__(self):
        self.record = PassRecord()

    def run_sequence(self, net, frames, config):
        rec = self.record
        rec.inputs = list(frames)
        rec.net = net
        stamps = []

        def pull():
            for frame in rec.inputs:
                stamps.append(time.perf_counter())
                yield frame

        t0 = time.perf_counter()
        result = scheduler.run_sequence(net, pull(), config)
        t1 = time.perf_counter()
        stamps.append(t1)
        rec.run_s = t1 - t0
        rec.frames = len(result.outputs)
        rec.frame_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
        rec.is_key = [t % config.gop_length == 0 for t in range(rec.frames)]
        rec.ledger = {**result.ledger.counts(), "pred_bytes": result.ledger.pred_bytes_moved}
        rec.outputs = result.outputs
        return result


def run_pass(prep: Prepared) -> PassRecord:
    """One closed-loop pass over the sequence."""
    harness = Harness()
    w = prep.workload
    if not w.via_cli:
        t0 = time.perf_counter()
        harness.run_sequence(prep.net, prep.frames, scheduler.GopConfig(gop_length=w.gop))
        harness.record.wall_s = time.perf_counter() - t0
        return harness.record

    saved = cli.run_sequence
    cli.run_sequence = harness.run_sequence
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(prep.argv)
            harness.record.wall_s = time.perf_counter() - t0
    finally:
        cli.run_sequence = saved
    rec = harness.record
    rec.exit_code = code
    if code == 0:
        rec.report_digest = hashlib.sha256(prep.report_path.read_bytes()).hexdigest()
    return rec


def dense_pass(net: scheduler.Network, frames: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """``Network.plain_forward`` over the same frames: the dense baseline."""
    t0 = time.perf_counter()
    outs = [net.plain_forward(f) for f in frames]
    return time.perf_counter() - t0, outs


def reference_forward(specs: list[ConvSpec], frame: np.ndarray) -> np.ndarray:
    """Independent float64 dense pipeline (zero padding, bias, ReLU)."""
    x = frame.astype(np.float64)
    for spec in specs:
        k, s, p = spec.kernel_size, spec.stride, spec.padding
        padded = np.pad(x, ((0, 0), (p, p), (p, p)))
        win = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(1, 2))[:, ::s, ::s]
        w = spec.weights.astype(np.float64)
        y = np.einsum("chwij,ocij->ohw", win, w, optimize=True)
        if spec.bias is not None:
            y = y + spec.bias.astype(np.float64)[:, None, None]
        x = np.maximum(y, 0.0)
    return x
