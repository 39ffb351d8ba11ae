"""Correctness gate applied to every pass of every run.

A pass fails when any of these does not hold:
  * the ledger equals the exact counts pinned for this workload and seed
    (``pins.json``, written by ``pin.py`` from the program at the commit
    that defined the benchmark), and equals the first pass of the run;
  * key-frame FLOPs equal the closed-form dense cost of the key frames, and
    an all-key workload charges nothing else;
  * outputs are bit-identical to the first pass of the run;
  * the dense reference (``Network.plain_forward``) agrees with an
    independent float64 pipeline to 1e-4;
  * the compensated outputs deviate from the dense reference by at most
    1e-4 where the workload is lossless (tau=0 or GOP 1), and by the pinned
    seed value +-1e-4 on ``pan_noise``;
  * the CLI exits 0 and writes the same ``report.json`` bytes every pass.

Seeds without pins still get every other check; ``pan_noise`` then holds
its error to ``PAN_ERR_CEILING`` instead of the pinned value.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LOSSLESS_TOL = 1e-4
PINNED_ERR_TOL = 1e-4
REFERENCE_TOL = 1e-4
# Loose sanity limit for unpinned pan_noise seeds; pinned seeds 0-99 lie
# between 1.3e-2 and 1.9e-2.
PAN_ERR_CEILING = 5e-2
COUNT_KEYS = ("key", "me", "res", "unmatched", "pred_bytes")
PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def max_abs_diff(a: list[np.ndarray], b: list[np.ndarray]) -> float:
    return max(
        float(np.max(np.abs(x.astype(np.float64) - y.astype(np.float64)))) for x, y in zip(a, b)
    )


def check_pass(
    workload,
    pin: dict | None,
    rec,
    first,
    dense_outputs: list[np.ndarray],
    reference: list[np.ndarray],
    expected_frames: int,
    key_flops_per_frame: int,
) -> tuple[list[str], float]:
    """Returns the failed checks (empty when the pass is correct) and the
    pass's max deviation from the dense reference."""
    fails = []
    if rec.error is not None:
        return [f"pass raised: {rec.error}"], float("nan")
    if rec.exit_code != 0:
        return [f"cli exit code {rec.exit_code}"], float("nan")
    if rec.frames != expected_frames or len(rec.outputs) != expected_frames:
        return [f"{rec.frames} frames processed, expected {expected_frames}"], float("nan")

    counts = {k: rec.ledger[k] for k in COUNT_KEYS}
    n_key = sum(rec.is_key)
    if counts["key"] != n_key * key_flops_per_frame:
        fails.append(f"key FLOPs {counts['key']} != {n_key} x {key_flops_per_frame}")
    if workload.gop == 1 and any(counts[k] for k in ("me", "res", "unmatched", "pred_bytes")):
        fails.append(f"all-key run charged non-key work: {counts}")
    if pin is not None:
        wrong = {k: (counts[k], pin[k]) for k in COUNT_KEYS if counts[k] != pin[k]}
        if wrong:
            fails.append(f"ledger differs from pinned counts (got, pinned): {wrong}")
    if first is not None:
        if counts != {k: first.ledger[k] for k in COUNT_KEYS}:
            fails.append("ledger differs from the first pass")
        if any(not np.array_equal(a, b) for a, b in zip(rec.outputs, first.outputs)):
            fails.append("outputs differ from the first pass")
        if rec.report_digest != first.report_digest:
            fails.append("report.json bytes differ from the first pass")

    ref_err = max_abs_diff(dense_outputs, reference)
    if ref_err > REFERENCE_TOL:
        fails.append(f"dense reference off the float64 pipeline by {ref_err:.3e}")
    err = max_abs_diff(rec.outputs, dense_outputs)
    if workload.tau == 0 or workload.gop == 1:
        if err > LOSSLESS_TOL:
            fails.append(f"max_abs_err {err:.3e} above lossless tolerance {LOSSLESS_TOL:g}")
    elif pin is not None:
        if abs(err - pin["max_abs_err"]) > PINNED_ERR_TOL:
            fails.append(f"max_abs_err {err:.6e} differs from pinned {pin['max_abs_err']:.6e}")
    elif err > PAN_ERR_CEILING:
        fails.append(f"max_abs_err {err:.3e} above ceiling {PAN_ERR_CEILING:g}")
    return fails, err
