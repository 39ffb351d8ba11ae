"""Closed-form cost model, acceleration ratio, and run reports.

The model mirrors the instrumented counters: dense convolution costs
2 k^2 C_in C_out H_out W_out, the search costs 2 k^2 C_in H_out W_out per
evaluated candidate, unmatched fallbacks cost (1 - alpha) of the dense
cost, and residual compensation costs alpha * beta of it. Two candidate
counts are always reported side by side: the exact grid-aligned
(2R + 1)^2 and the stride-discounted (2R + 1)^2 / s^2 variant, which
differ only for stride > 1.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .ledger import FlopsLedger
from .scheduler import LayerFrameRecord, RunResult

__all__ = [
    "CostModel",
    "FlopsLedger",
    "acceleration",
    "build_report",
    "candidate_count",
    "model_conv_flops",
    "model_nonkey_flops",
    "report_csv_rows",
    "write_report_csv",
    "write_report_json",
]


@dataclass(frozen=True)
class CostModel:
    """Geometry plus measured match ratio (alpha) and residual density (beta)."""

    kernel_size: int
    stride: int
    in_channels: int
    out_channels: int
    out_h: int
    out_w: int
    search_range: int
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self):
        for name in ("kernel_size", "stride", "in_channels", "out_channels", "out_h", "out_w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.search_range < 0:
            raise ValueError(f"search_range must be >= 0, got {self.search_range}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def model_conv_flops(m: CostModel) -> int:
    """Dense convolution cost for one frame at one layer."""
    return (
        2
        * m.kernel_size**2
        * m.in_channels
        * m.out_channels
        * m.out_h
        * m.out_w
    )


def candidate_count(m: CostModel, paper_variant: bool = False) -> float:
    """Candidates per position: exact grid-aligned count, or the
    stride-discounted printed form."""
    exact = (2 * m.search_range + 1) ** 2
    return exact / m.stride**2 if paper_variant else float(exact)


def model_nonkey_flops(m: CostModel, paper_variant: bool = False) -> dict[str, int]:
    """Analytical per-frame breakdown {me, unmatched, res}, rounded half-up."""
    conv_ops = model_conv_flops(m)
    me = 2 * m.kernel_size**2 * m.in_channels * m.out_h * m.out_w * candidate_count(m, paper_variant)
    unmatched = (1.0 - m.alpha) * conv_ops
    res = m.alpha * m.beta * conv_ops
    return {
        "me": _round_half_up(me),
        "unmatched": _round_half_up(unmatched),
        "res": _round_half_up(res),
    }


def acceleration(m: CostModel, paper_variant: bool = True) -> float:
    """Predicted savings fraction on a non-key frame:
    alpha - alpha*beta - candidates / C_out. May be negative when search
    overhead dominates reuse; reported as-is."""
    return m.alpha - m.alpha * m.beta - candidate_count(m, paper_variant) / m.out_channels


def _aggregate_alpha_beta(records: list[LayerFrameRecord]) -> tuple[Optional[float], Optional[float]]:
    nonkey = [r for r in records if not r.is_key and r.matched is not None]
    if not nonkey:
        return None, None
    positions = sum(r.positions for r in nonkey)
    matched = sum(r.matched for r in nonkey)
    entries = sum(r.matched * r.block_size for r in nonkey)
    nnz = sum(r.nnz_total for r in nonkey)
    alpha = matched / positions if positions else None
    beta = (nnz / entries) if entries else 0.0
    return alpha, beta


def _aggregate_search_alpha(records: list[LayerFrameRecord]) -> Optional[float]:
    nonkey = [r for r in records if not r.is_key and r.search_alpha is not None]
    if not nonkey:
        return None
    return sum(r.search_alpha * r.positions for r in nonkey) / sum(r.positions for r in nonkey)


def _cost_model(r: LayerFrameRecord, alpha: float, beta: float) -> CostModel:
    """The record's layer geometry with the given match statistics."""
    return CostModel(r.kernel_size, r.stride, r.in_channels, r.out_channels,
                     r.out_h, r.out_w, r.search_range, alpha, beta)


def _summary(recs: list[LayerFrameRecord]) -> tuple[dict[str, int], Optional[float], Optional[float]]:
    """FLOPs per category plus their total, and the aggregate alpha and beta."""
    flops = {cat: sum(r.flops[cat] for r in recs) for cat in ("key", "me", "res", "unmatched")}
    flops["total"] = sum(flops.values())
    return (flops, *_aggregate_alpha_beta(recs))


def _model_totals(records: list[LayerFrameRecord], paper_variant: bool) -> dict:
    me = unmatched = res = 0
    nonkey_conv = 0
    for r in records:
        if r.is_key or r.matched is None:
            continue
        part = model_nonkey_flops(_cost_model(r, r.alpha, r.beta), paper_variant)
        me += part["me"]
        unmatched += part["unmatched"]
        res += part["res"]
        nonkey_conv += r.conv_flops
    total = me + unmatched + res
    out = {"me": me, "unmatched": unmatched, "res": res, "nonkey_total": total}
    out["nonkey_acceleration"] = (1.0 - total / nonkey_conv) if nonkey_conv else None
    return out


def build_report(result: RunResult, config: dict) -> dict:
    """Structured run report: exact counters, baseline comparison, measured
    match statistics, and both analytical model variants."""
    if not result.records:
        raise ValueError("no frames processed; nothing to report")
    records = result.records
    n_layers = 1 + max(r.layer for r in records)
    n_frames = 1 + max(r.frame for r in records)
    by_layer: list[list[LayerFrameRecord]] = [[] for _ in range(n_layers)]
    by_frame: list[list[LayerFrameRecord]] = [[] for _ in range(n_frames)]
    for r in records:
        by_layer[r.layer].append(r)
        by_frame[r.frame].append(r)

    per_layer = []
    for li, recs in enumerate(by_layer):
        flops, alpha, beta = _summary(recs)
        r0 = recs[0]
        entry = {
            "layer": li,
            "kernel_size": r0.kernel_size,
            "stride": r0.stride,
            "padding": r0.padding,
            "in_channels": r0.in_channels,
            "out_channels": r0.out_channels,
            "out_h": r0.out_h,
            "out_w": r0.out_w,
            "search_range": r0.search_range,
            "flops": flops,
            "baseline_flops": r0.conv_flops * n_frames,
            "alpha": alpha,
            "beta": beta,
        }
        if alpha is not None:
            m = _cost_model(r0, alpha, beta)
            entry["acceleration_paper"] = acceleration(m, paper_variant=True)
            entry["acceleration_exact"] = acceleration(m, paper_variant=False)
        per_layer.append(entry)

    per_frame = []
    for t, recs in enumerate(by_frame):
        flops, alpha, beta = _summary(recs)
        entry = {
            "frame": t,
            "is_key": recs[0].is_key,
            "flops": flops,
            "baseline_flops": sum(r.conv_flops for r in recs),
            "alpha": alpha,
            "beta": beta,
        }
        if result.oracle_max_abs is not None:
            entry["oracle_max_abs_err"] = result.oracle_max_abs[t]
            entry["oracle_mean_abs_err"] = result.oracle_mean_abs[t]
        per_frame.append(entry)

    totals = result.ledger.counts()
    baseline = result.baseline_total
    measured_alpha, measured_beta = _aggregate_alpha_beta(records)
    nonkey_measured = {
        cat: sum(r.flops[cat] for r in records if not r.is_key)
        for cat in ("me", "unmatched", "res")
    }
    exact_model = _model_totals(records, paper_variant=False)
    discrepancy = {
        cat: nonkey_measured[cat] - exact_model[cat] for cat in ("me", "unmatched", "res")
    }
    report = {
        "config": dict(config),
        "per_layer": per_layer,
        "per_frame": per_frame,
        "totals": totals,
        "pred_bytes_moved": result.ledger.pred_bytes_moved,
        "baseline_totals": {"total": baseline},
        "delta_flops_pct": 100.0 * (1.0 - totals["total"] / baseline),
        "measured_alpha": measured_alpha,
        "measured_beta": measured_beta,
        "measured_search_alpha": _aggregate_search_alpha(records),
        "model": {
            "paper_variant": _model_totals(records, paper_variant=True),
            "exact_variant": exact_model,
            # measured minus exact-variant model, per non-key category; zero
            # everywhere when early stopping is disabled
            "discrepancy_vs_exact": discrepancy,
        },
        "notes": {
            # Front-end ISP work is outside every counter here; conventional
            # to learned ISPs span roughly 1-100 GFLOPs per frame, so savings
            # that also drop the ISP stage are understated by this report.
            "isp_flops_excluded_gflops_range": [1.0, 100.0],
        },
    }
    if result.oracle_max_abs is not None:
        report["oracle_error"] = {
            "max_abs": max(result.oracle_max_abs),
            "mean_abs": sum(result.oracle_mean_abs) / len(result.oracle_mean_abs),
            "per_frame_max": result.oracle_max_abs,
        }
    else:
        report["oracle_error"] = None
    return report


def report_csv_rows(report: dict) -> list[list]:
    """Flatten per-frame entries for spreadsheets."""
    header = [
        "frame",
        "is_key",
        "key_flops",
        "me_flops",
        "res_flops",
        "unmatched_flops",
        "total_flops",
        "baseline_flops",
        "alpha",
        "beta",
        "oracle_max_abs_err",
        "oracle_mean_abs_err",
    ]
    rows = [header]
    for entry in report["per_frame"]:
        rows.append(
            [
                entry["frame"],
                int(entry["is_key"]),
                entry["flops"]["key"],
                entry["flops"]["me"],
                entry["flops"]["res"],
                entry["flops"]["unmatched"],
                entry["flops"]["total"],
                entry["baseline_flops"],
                "" if entry["alpha"] is None else repr(entry["alpha"]),
                "" if entry["beta"] is None else repr(entry["beta"]),
                repr(entry["oracle_max_abs_err"]) if "oracle_max_abs_err" in entry else "",
                repr(entry["oracle_mean_abs_err"]) if "oracle_mean_abs_err" in entry else "",
            ]
        )
    return rows


def _write_atomic(path, data: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report_json(report: dict, path) -> None:
    """Serialize deterministically and rename into place (partial runs never
    leave a corrupt report)."""
    _write_atomic(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_report_csv(report: dict, path) -> None:
    buf = io.StringIO()
    csv.writer(buf).writerows(report_csv_rows(report))
    _write_atomic(path, buf.getvalue())
