"""Command-line driver.

Subcommands:
  run     process a scene or raw Bayer sequence, write a FLOPs/error report
  sweep   repeat a run across gop / threshold / search_range values
  verify  four-setting ablation harness with pass/fail matrix
  synth   generate a seeded scene and export it as a raw Bayer file

Defaults mirror the main operating point: GOP length 12 (``GopConfig``),
residual threshold 0.01 and search range 1 (``MotionParams``). The search
flags are stored under ``MotionParams`` field names, and ``_build_network``
is the one place that sets them on the layers, with a command's own values
over the flags. ``sweep`` and ``verify`` measure output error with the
scheduler's dense oracle. Exit codes: 0 success, 1 assertion or invariant
failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .analysis import build_report, write_report_csv, write_report_json
from .bayer import PATTERNS, load_raw_sequence, mosaic, pack, save_raw_sequence
from .layer import MotionCompLayer
from .motion import MotionParams
from .scheduler import GopConfig, Network, run_sequence
from .synth import SceneSpec, generate, random_conv_spec

DEFAULT_VERIFY_SCENE = SceneSpec(
    kind="noise_mix",
    height=48,
    width=48,
    channels=3,
    frame_count=12,
    motion=(1, 0),
    noise_amplitude=0.02,
)


class UsageError(Exception):
    pass


class VerifyFailure(Exception):
    pass


def _checked(cast, ok, what: str):
    """argparse ``type=`` converter that rejects values outside the domain
    at parse time, so they exit 2 as usage errors."""

    def convert(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value

    return convert


_GOP = _checked(int, lambda v: v >= 1, "a GOP length >= 1")
_TAU = _checked(float, lambda v: v >= 0, "a threshold >= 0")
_RANGE = _checked(int, lambda v: v >= 0, "a search range >= 0")
_EARLY_STOP = _checked(float, lambda v: v <= 1, "a density <= 1 (negative disables)")
_DENSITY = _checked(float, lambda v: 0 <= v <= 1, "a density in [0, 1]")
_BIT_DEPTH = _checked(int, lambda v: 8 <= v <= 16, "a bit depth in [8, 16]")
_SEED = _checked(int, lambda v: v >= 0, "a seed >= 0")


def _load_scene(arg: str, seed: int) -> SceneSpec:
    text = arg if arg.lstrip().startswith("{") else Path(arg).read_text()
    try:
        spec = SceneSpec.from_json(text)
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"bad scene spec: {exc}") from exc
    return spec if "seed" in json.loads(text) else replace(spec, seed=seed)


def _resolve_frames(args) -> tuple[list[np.ndarray], dict]:
    """Returns the frame list and the config fragment describing the input."""
    if args.scene:
        spec = _load_scene(args.scene, args.seed)
        return generate(spec), {"scene": json.loads(spec.to_json())}
    if args.input:
        if not args.sidecar:
            raise UsageError("--input requires --sidecar")
        raw = list(load_raw_sequence(args.input, args.sidecar))
        if args.bayer_mode == "packed":
            frames = [pack(f) for f in raw]
        else:
            frames = [f.plane[None, :, :] for f in raw]
        return frames, {
            "input": args.input,
            "sidecar": args.sidecar,
            "bayer_mode": args.bayer_mode,
        }
    raise UsageError("provide --scene or --input/--sidecar")


def _default_network(in_channels: int, seed: int) -> Network:
    rng = np.random.default_rng(seed + 1)
    layers = [
        MotionCompLayer(random_conv_spec(rng, in_channels, 16, 3, 1), activation="relu"),
        MotionCompLayer(random_conv_spec(rng, 16, 16, 3, 1), activation="relu"),
    ]
    return Network(layers)


def _build_network(args, in_channels: int, **params) -> tuple[Network, dict]:
    """The ``--net`` network, or the seeded default one, with its search
    parameters overridden by the flags given, and ``params`` over both."""
    if args.net:
        try:
            net = Network.from_json(args.net)
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad network description {args.net}: {exc}") from exc
        net_desc = args.net
    else:
        net = _default_network(in_channels, args.seed)
        net_desc = f"default(seed={args.seed})"
    if net.layers[0].spec.in_channels != in_channels:
        raise UsageError(
            f"network expects {net.layers[0].spec.in_channels} input channels, "
            f"input provides {in_channels}"
        )
    flags = {f.name: getattr(args, f.name) for f in fields(MotionParams)}
    params = {k: v for k, v in flags.items() if v is not None} | params
    if params:
        for layer in net.layers:
            layer.params = layer.params.updated(**params)
    return net, {
        "net": net_desc,
        "layers": [
            {**asdict(l.params), "activation": l.activation}
            for l in net.layers
        ],
    }


def _write_reports(report: dict, out_dir: str, fmt: str, stem: str = "report") -> list[Path]:
    out = Path(out_dir)
    written = []
    if fmt in ("json", "both"):
        path = out / f"{stem}.json"
        write_report_json(report, path)
        written.append(path)
    if fmt in ("csv", "both"):
        path = out / f"{stem}.csv"
        write_report_csv(report, path)
        written.append(path)
    return written


def cmd_run(args) -> int:
    frames, input_cfg = _resolve_frames(args)
    net, net_cfg = _build_network(args, frames[0].shape[0])
    config = {
        "command": "run",
        "gop_length": args.gop,
        "oracle": bool(args.oracle),
        "seed": args.seed,
        **input_cfg,
        **net_cfg,
    }
    result = run_sequence(net, frames, GopConfig(gop_length=args.gop, oracle=args.oracle))
    report = build_report(result, config)
    written = _write_reports(report, args.out, args.format)
    print(
        f"frames={len(frames)} total_flops={report['totals']['total']} "
        f"baseline={report['baseline_totals']['total']} "
        f"delta_flops_pct={report['delta_flops_pct']:.4f}"
    )
    if report["oracle_error"] is not None:
        print(
            f"oracle_max_abs_err={report['oracle_error']['max_abs']:.3e} "
            f"oracle_mean_abs_err={report['oracle_error']['mean_abs']:.3e}"
        )
    for path in written:
        print(f"wrote {path}")
    return 0


_SWEEP_AXES = {"gop": _GOP, "threshold": _TAU, "search_range": _RANGE}


def cmd_sweep(args) -> int:
    cast = _SWEEP_AXES[args.axis]
    try:
        values = [cast(v) for v in args.values.split(",") if v.strip() != ""]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad sweep values {args.values!r}: {exc}") from exc
    if len(values) < 2:
        raise UsageError("sweep needs at least 2 values")
    if values != sorted(values):
        print(f"warning: sweep values reordered to ascending: {sorted(values)}", file=sys.stderr)
        values = sorted(values)

    frames, input_cfg = _resolve_frames(args)
    rows = []
    for value in values:
        gop, params = (value, {}) if args.axis == "gop" else (args.gop, {args.axis: value})
        net, _ = _build_network(args, frames[0].shape[0], **params)
        result = run_sequence(net, frames, GopConfig(gop_length=gop, oracle=True))
        report = build_report(result, {"command": "sweep", "axis": args.axis, "value": value})
        rows.append(
            {
                args.axis: value,
                "gflops": report["totals"]["total"] / 1e9,
                "total_flops": report["totals"]["total"],
                "me_flops": report["totals"]["me"],
                "delta_flops_pct": report["delta_flops_pct"],
                "oracle_max_abs_err": report["oracle_error"]["max_abs"],
            }
        )

    sweep_report = {
        "config": {
            "command": "sweep",
            "axis": args.axis,
            "values": values,
            "gop_length": args.gop,
            "seed": args.seed,
            **input_cfg,
        },
        "rows": rows,
    }
    write_report_json(sweep_report, Path(args.out) / "sweep.json")
    header = f"{args.axis:>14} {'GFLOPs':>14} {'dFLOPs%':>10} {'max_err':>12}"
    print(header)
    for row in rows:
        print(
            f"{row[args.axis]:>14} {row['gflops']:>14.6f} "
            f"{row['delta_flops_pct']:>10.2f} {row['oracle_max_abs_err']:>12.3e}"
        )
    print(f"wrote {Path(args.out) / 'sweep.json'}")
    return 0


def _error_bound_after_threshold(net: Network, tau: float) -> float:
    """Worst-case output deviation one non-key step adds when residual
    entries below tau are suppressed: per layer e_out <= L * e_in + tau *
    k^2 * C_in * max|w|, with L the max absolute kernel sum (activations
    are 1-Lipschitz). The cache chains reconstructions, so a frame at GOP
    position g is bounded by g times this (``_worst_gop_bound_ratio``)."""
    bound = 0.0
    for layer in net.layers:
        w = np.abs(layer.spec.weights.astype(np.float64))
        if layer.post_scale is not None:
            w = w * np.abs(layer.post_scale.astype(np.float64))[:, None, None, None]
        lipschitz = float(w.sum(axis=(1, 2, 3)).max())
        own = tau * layer.spec.block_size * float(w.max())
        bound = lipschitz * bound + own
    return bound


def _worst_gop_bound_ratio(errors, gop: int, bound: float) -> float:
    """Largest ratio of a frame's error to its allowance, g * ``bound`` +
    1e-4 for the frame at GOP position g (0 for a key frame). A layer's
    cached output drifts from the convolution of its own input by the
    residual entries it dropped, at most tau k^2 C_in max|w| per non-key
    step, so its drift at position g is at most g times that; the per-layer
    recursion is linear in the drift, so the output error is at most g
    times the one-step ``bound``."""
    return max(err / ((t % gop) * bound + 1e-4) for t, err in enumerate(errors))


def cmd_verify(args) -> int:
    if args.scene or args.input:
        frames = _resolve_frames(args)[0]
    else:
        frames = generate(replace(DEFAULT_VERIFY_SCENE, seed=args.seed))
    tau = MotionParams.threshold if args.threshold is None else args.threshold

    # Setting 1, all-key dense, is the oracle each run measures against, and
    # its cost is each run's baseline.
    config = GopConfig(gop_length=args.gop, oracle=True)
    settings = {}
    for setting, threshold, compensate in ((2, tau, False), (3, 0.0, True), (4, tau, True)):
        net, _ = _build_network(args, frames[0].shape[0], threshold=threshold)
        for layer in net.layers:
            layer.compensate = compensate
        settings[setting] = run_sequence(net, frames, config)
    errs = {s: max(r.oracle_max_abs) for s, r in settings.items()}
    flops = {1: settings[4].baseline_total, **{s: r.ledger.total for s, r in settings.items()}}
    bound = _error_bound_after_threshold(net, tau)  # every setting has the same weights
    ratio4 = _worst_gop_bound_ratio(settings[4].oracle_max_abs, args.gop, bound)

    checks = [
        ("setting 3 lossless vs setting 1 (<= 1e-4)", errs[3] <= 1e-4, f"max_err={errs[3]:.3e}"),
        ("setting 2 degrades without compensation (> 1e-3)", errs[2] > 1e-3, f"max_err={errs[2]:.3e}"),
        (
            "setting 4 cheaper than setting 3" if tau > 0 else "settings 3 and 4 coincide (tau=0)",
            flops[4] < flops[3] if tau > 0 else flops[4] == flops[3],
            f"flops4={flops[4]} flops3={flops[3]}",
        ),
        (
            f"setting 4 error within g x threshold bound ({bound:.3e}) at GOP position g",
            ratio4 <= 1,
            f"max_err={errs[4]:.3e} worst ratio={ratio4:.3f}",
        ),
    ]

    print(f"setting 1 (all-key dense):            flops={flops[1]}")
    print(f"setting 2 (no compensation):          flops={flops[2]} max_err={errs[2]:.3e}")
    print(f"setting 3 (compensation, tau=0):      flops={flops[3]} max_err={errs[3]:.3e}")
    print(f"setting 4 (compensation, tau={tau:g}):  flops={flops[4]} max_err={errs[4]:.3e}")
    failed = []
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}  [{detail}]")
        if not ok:
            failed.append(label)
    if failed:
        raise VerifyFailure("; ".join(failed))
    return 0


def cmd_synth(args) -> int:
    spec = _load_scene(args.scene, args.seed)
    if spec.channels != 3:
        raise UsageError("synth export needs a 3-channel scene (sampled through the mosaic)")
    if args.pattern not in PATTERNS:
        raise UsageError(f"unknown pattern {args.pattern!r}; choose from {sorted(PATTERNS)}")
    frames = [mosaic(rgb, args.pattern) for rgb in generate(spec)]
    meta = save_raw_sequence(args.out, frames, bit_depth=args.bit_depth)
    size = Path(args.out).stat().st_size
    print(f"wrote {args.out} ({size} bytes, {meta['frame_count']} frames) and {args.out}.json")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="raw Bayer file")
    p.add_argument("--sidecar", help="JSON sidecar for --input")
    p.add_argument("--scene", help="scene spec: JSON file path or inline JSON")
    p.add_argument("--net", help="network description JSON")
    p.add_argument("--gop", type=_GOP, default=GopConfig.gop_length, help="GOP length (default 12)")
    # the search flags keep MotionParams field names; None leaves a layer's own
    p.add_argument("--tau", type=_TAU, dest="threshold", metavar="TAU",
                   help="residual threshold (default 0.01)")
    p.add_argument("--range", type=_RANGE, dest="search_range", metavar="RANGE",
                   help="search range in grid steps (default 1)")
    p.add_argument("--early-stop", type=_EARLY_STOP, dest="early_stop_density", metavar="EARLY_STOP",
                   help="early-stop density trigger; negative disables (default 0.3)")
    p.add_argument("--beta-max", type=_DENSITY, dest="match_max_density", metavar="BETA_MAX",
                   help="densest residual still matched (default 0.9)")
    p.add_argument("--oracle", action="store_true", help="also run the dense pipeline and report errors")
    p.add_argument("--out", default="motionconv_out", help="output directory (default motionconv_out)")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")
    p.add_argument("--seed", type=_SEED, default=0)
    p.add_argument("--bayer-mode", choices=("packed", "plane"), default="packed", dest="bayer_mode",
                   help="feed raw input packed 4-channel half-res, or as a single plane")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motionconv",
        description="Motion-compensated video convolution runner and cost auditor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="process one sequence and write reports")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="repeat a run across parameter values")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=sorted(_SWEEP_AXES), required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="four-setting ablation assertions")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_synth = sub.add_parser("synth", help="export a synthetic scene as raw Bayer")
    p_synth.add_argument("--scene", required=True, help="scene spec: JSON file path or inline JSON")
    p_synth.add_argument("--out", required=True, help="output raw file path")
    p_synth.add_argument("--pattern", default="RGGB")
    p_synth.add_argument("--bit-depth", type=_BIT_DEPTH, default=8, dest="bit_depth")
    p_synth.add_argument("--seed", type=_SEED, default=0)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage errors, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except VerifyFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
