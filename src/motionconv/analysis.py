"""Closed-form cost model, acceleration ratio, and run reports.

The model mirrors the instrumented counters: dense convolution costs
2 k^2 C_in C_out H_out W_out, the search costs 2 k^2 C_in H_out W_out per
evaluated candidate, unmatched fallbacks cost (1 - alpha) of the dense
cost, and residual compensation costs alpha * beta of it. Two candidate
counts are always reported side by side: the exact grid-aligned
(2R + 1)^2 and the stride-discounted (2R + 1)^2 / s^2 variant, which
differ only for stride > 1. The model never reads the ledger, so the two
can be reconciled against each other.

A report is one summary (FLOPs per category, dense baseline, aggregate
alpha, beta and search-alpha) taken over each group of run records: every
layer, every frame, the non-key frames and the whole run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from .ledger import CATEGORIES
from .scheduler import LayerFrameRecord, RunResult
from .tensors import is_int, is_real

__all__ = [
    "CostModel",
    "acceleration",
    "build_report",
    "candidate_count",
    "model_conv_flops",
    "model_nonkey_flops",
    "report_csv_rows",
    "write_report_csv",
    "write_report_json",
]

# Non-key FLOPs categories, the ones the model predicts.
NONKEY = ("me", "unmatched", "res")

CSV_COLUMNS = ("frame", "is_key", "key_flops", "me_flops", "res_flops", "unmatched_flops",
               "total_flops", "baseline_flops", "alpha", "beta",
               "oracle_max_abs_err", "oracle_mean_abs_err")


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
        for name in ("kernel_size", "stride", "in_channels", "out_channels", "out_h", "out_w",
                     "search_range"):
            value, low = getattr(self, name), 0 if name == "search_range" else 1
            if not is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            if type(value) is not int:  # a numpy integer would wrap around in the FLOPs products
                object.__setattr__(self, name, int(value))
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not is_real(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a real number in [0, 1], got {value!r}")


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


def _cost_model(r: LayerFrameRecord, alpha: float = 1.0, beta: float = 0.0) -> CostModel:
    """The record's layer geometry with the given match statistics."""
    return CostModel(r.spec.kernel_size, r.spec.stride, r.spec.in_channels, r.spec.out_channels,
                     r.out_h, r.out_w, r.search_range, alpha, beta)


def _summary(recs: list[LayerFrameRecord]) -> tuple[dict[str, int], int, Optional[float],
                                                     Optional[float], Optional[float]]:
    """FLOPs per category plus their total, the dense baseline, and the
    aggregate alpha, beta and search-alpha of the non-key records (``None``
    when there are none)."""
    flops = {cat: sum(r.flops[cat] for r in recs) for cat in CATEGORIES}
    flops["total"] = sum(flops.values())
    baseline = sum(r.conv_flops for r in recs)
    stats = [r.stats for r in recs if r.stats is not None]
    if not stats:
        return flops, baseline, None, None, None
    positions = sum(st.positions for st in stats)
    entries = sum(st.matched * st.block_size for st in stats)
    alpha = sum(st.matched for st in stats) / positions
    beta = sum(st.nnz_total for st in stats) / entries if entries else 0.0
    search_alpha = sum(st.search_alpha * st.positions for st in stats) / positions
    return flops, baseline, alpha, beta, search_alpha


def _model_totals(models: list[CostModel], baseline: int, paper_variant: bool) -> dict:
    """Model FLOPs summed over the non-key records' models, whose dense
    cost is ``baseline``."""
    parts = [model_nonkey_flops(m, paper_variant) for m in models]
    out = {cat: sum(p[cat] for p in parts) for cat in NONKEY}
    out["nonkey_total"] = total = sum(out.values())
    out["nonkey_acceleration"] = (1.0 - total / baseline) if baseline else None
    return out


def build_report(result: RunResult, config: dict) -> dict:
    """Structured run report: exact counters, baseline comparison, measured
    match statistics, and both analytical model variants."""
    if not result.records:
        raise ValueError("no frames processed; nothing to report")
    by_layer: dict[int, list[LayerFrameRecord]] = {}
    by_frame: dict[int, list[LayerFrameRecord]] = {}
    for r in result.records:
        by_layer.setdefault(r.layer, []).append(r)
        by_frame.setdefault(r.frame, []).append(r)

    per_layer = []
    for li, recs in by_layer.items():
        flops, baseline, alpha, beta, _ = _summary(recs)
        entry = {**asdict(_cost_model(recs[0])), "layer": li, "padding": recs[0].spec.padding,
                 "flops": flops, "baseline_flops": baseline, "alpha": alpha, "beta": beta}
        if alpha is not None:
            m = _cost_model(recs[0], alpha, beta)
            entry["acceleration_paper"] = acceleration(m, paper_variant=True)
            entry["acceleration_exact"] = acceleration(m, paper_variant=False)
        per_layer.append(entry)

    per_frame = []
    for t, recs in by_frame.items():
        flops, baseline, alpha, beta, _ = _summary(recs)
        entry = {"frame": t, "is_key": recs[0].is_key, "flops": flops,
                 "baseline_flops": baseline, "alpha": alpha, "beta": beta}
        if result.oracle_max_abs is not None:
            entry["oracle_max_abs_err"] = result.oracle_max_abs[t]
            entry["oracle_mean_abs_err"] = result.oracle_mean_abs[t]
        per_frame.append(entry)

    totals, baseline, alpha, beta, search_alpha = _summary(result.records)
    nonkey = [r for r in result.records if r.stats is not None]
    nonkey_flops, nonkey_baseline, *_ = _summary(nonkey)
    models = [_cost_model(r, r.stats.alpha, r.stats.beta) for r in nonkey]
    exact_model = _model_totals(models, nonkey_baseline, paper_variant=False)
    report = {
        "config": dict(config),
        "per_layer": per_layer,
        "per_frame": per_frame,
        "totals": totals,
        "pred_bytes_moved": result.ledger.pred_bytes_moved,
        "baseline_totals": {"total": baseline},
        "delta_flops_pct": 100.0 * (1.0 - totals["total"] / baseline),
        "measured_alpha": alpha,
        "measured_beta": beta,
        "measured_search_alpha": search_alpha,
        "model": {
            "paper_variant": _model_totals(models, nonkey_baseline, paper_variant=True),
            "exact_variant": exact_model,
            # measured minus exact-variant model, per non-key category; zero
            # everywhere when early stopping is disabled
            "discrepancy_vs_exact": {cat: nonkey_flops[cat] - exact_model[cat] for cat in NONKEY},
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
    """Flatten per-frame entries for spreadsheets, one row of
    ``CSV_COLUMNS`` per frame; floats as their repr, missing values empty."""
    rows = [list(CSV_COLUMNS)]
    for entry in report["per_frame"]:
        flat = {**entry, "is_key": int(entry["is_key"]),
                **{f"{cat}_flops": n for cat, n in entry["flops"].items()}}
        rows.append([repr(v) if isinstance(v, float) else "" if v is None else v
                     for v in map(flat.get, CSV_COLUMNS)])
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
