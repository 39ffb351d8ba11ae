import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionconv.analysis import (
    CostModel,
    acceleration,
    build_report,
    candidate_count,
    model_conv_flops,
    model_nonkey_flops,
    report_csv_rows,
    write_report_csv,
    write_report_json,
)
from motionconv.layer import MotionCompLayer
from motionconv.ledger import FlopsLedger
from motionconv.motion import MotionParams
from motionconv.scheduler import GopConfig, Network, run_sequence
from motionconv.synth import SceneSpec, generate, random_conv_spec
from motionconv.tensors import conv2d


def model(**kw):
    base = dict(kernel_size=3, stride=1, in_channels=3, out_channels=64,
                out_h=32, out_w=32, search_range=1, alpha=1.0, beta=0.0)
    base.update(kw)
    return CostModel(**base)


class TestModelConvFlops:
    def test_frozen_example(self):
        assert model_conv_flops(model()) == 3_538_944  # 2*9*3*64*1024

    def test_unit_dims(self):
        m = model(kernel_size=1, in_channels=5, out_channels=7, out_h=1, out_w=1)
        assert model_conv_flops(m) == 2 * 5 * 7

    def test_matches_instrumented_conv(self):
        rng = np.random.default_rng(0)
        spec = random_conv_spec(rng, 3, 12, 3, 2, 1)
        x = rng.random((3, 17, 19), dtype=np.float32)
        led = FlopsLedger()
        out = conv2d(x, spec, led)
        m = model(kernel_size=3, stride=2, in_channels=3, out_channels=12,
                  out_h=out.shape[1], out_w=out.shape[2])
        assert led.key_flops == model_conv_flops(m)

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            model(out_h=0)

    @pytest.mark.parametrize("field,value", [
        ("search_range", -1), ("kernel_size", 2.5), ("kernel_size", "3"),
        ("stride", True), ("out_w", 4.0), ("search_range", True), ("search_range", None),
        ("alpha", True), ("alpha", "0.5"), ("beta", None), ("beta", float("nan")), ("alpha", 1.5),
    ])
    def test_rejects_malformed_numbers(self, field, value):
        # a float or bool dimension would make the "exact" model FLOPs floats
        with pytest.raises(ValueError, match=f"^{field} must be "):
            model(**{field: value})

    def test_numpy_integers_become_python_ints(self):
        # int32 products wrapped to 0 here before the geometry was converted
        m = model(kernel_size=np.int32(3), in_channels=np.int32(64), out_channels=np.int32(64),
                  out_h=np.int32(4096), out_w=np.int32(4096), alpha=np.float32(0.5))
        assert model_conv_flops(m) == 2 * 9 * 64 * 64 * 4096 * 4096
        assert type(m.out_h) is int


class TestModelMevcFlops:
    def test_full_match_zero_density_range_zero(self):
        m = model(search_range=0, alpha=1.0, beta=0.0)
        got = model_nonkey_flops(m)
        assert got["unmatched"] == 0
        assert got["res"] == 0
        assert got["me"] == 2 * 9 * 3 * 32 * 32

    def test_no_match_falls_back_entirely(self):
        m = model(alpha=0.0)
        got = model_nonkey_flops(m)
        assert got["unmatched"] == model_conv_flops(m)
        assert got["res"] == 0

    def test_paper_variant_divides_candidates_by_stride_sq(self):
        m = model(stride=2, search_range=1)
        assert candidate_count(m, paper_variant=False) == 9
        assert candidate_count(m, paper_variant=True) == 9 / 4
        exact = model_nonkey_flops(m, paper_variant=False)
        paper = model_nonkey_flops(m, paper_variant=True)
        assert paper["me"] * 4 == exact["me"]

    def test_rounding_half_up(self):
        # alpha chosen so unmatched lands exactly on x.5
        m = model(kernel_size=1, in_channels=1, out_channels=1, out_h=1, out_w=1,
                  alpha=0.25, beta=0.0)
        # conv_ops = 2, unmatched = 1.5 -> 2 under half-up
        assert model_nonkey_flops(m)["unmatched"] == 2


class TestAcceleration:
    def test_frozen_example(self):
        m = model(alpha=0.95, beta=0.10, search_range=1, stride=1, out_channels=64)
        assert acceleration(m) == pytest.approx(0.714375, abs=1e-12)

    def test_ideal_match(self):
        m = model(alpha=1.0, beta=0.0)
        assert acceleration(m) == pytest.approx(1 - 9 / 64, abs=1e-12)

    def test_admits_negative_values(self):
        m = model(alpha=0.0, beta=0.0, out_channels=4)
        assert acceleration(m) == pytest.approx(-9 / 4, abs=1e-12)

    def test_exact_variant_skips_stride_discount(self):
        m = model(stride=2, alpha=1.0, beta=0.0, out_channels=16)
        assert acceleration(m, paper_variant=True) == pytest.approx(1 - 9 / (4 * 16), abs=1e-12)
        assert acceleration(m, paper_variant=False) == pytest.approx(1 - 9 / 16, abs=1e-12)


class TestLedger:
    def test_total_invariant(self):
        led = FlopsLedger()
        led.charge("key", 10)
        led.charge("me", 20)
        led.charge("res", 30)
        led.charge("unmatched", 40)
        assert led.total == 100

    def test_rejects_negative_and_unknown(self):
        led = FlopsLedger()
        with pytest.raises(ValueError):
            led.charge("key", -1)
        with pytest.raises(ValueError):
            led.charge("bogus", 1)

    @pytest.mark.parametrize("amount", [2.5, 2.0, "3", True, None])
    def test_rejects_counts_that_are_not_integers(self, amount):
        # a float charge was once truncated silently; counts stay exact integers
        led = FlopsLedger()
        with pytest.raises(ValueError, match="must be an integer"):
            led.charge("me", amount)
        with pytest.raises(ValueError, match="must be an integer"):
            led.add_pred_bytes(amount)
        assert led.total == 0 and led.pred_bytes_moved == 0

    def test_accepts_numpy_integers_as_python_ints(self):
        led = FlopsLedger()
        led.charge("res", np.int64(6))
        led.add_pred_bytes(np.int32(8))
        assert (led.res_flops, led.pred_bytes_moved) == (6, 8)
        assert type(led.res_flops) is int and type(led.pred_bytes_moved) is int
        with pytest.raises(ValueError, match="non-negative"):
            led.add_pred_bytes(-4)

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.tuples(st.sampled_from(["key", "me", "res", "unmatched"]),
                              st.integers(0, 10**12)), max_size=20))
    def test_merge_matches_sequential_charges(self, charges):
        sequential = FlopsLedger()
        a, b = FlopsLedger(), FlopsLedger()
        for idx, (cat, amount) in enumerate(charges):
            sequential.charge(cat, amount)
            (a if idx % 2 else b).charge(cat, amount)
        a.merge(b)
        assert a.counts() == sequential.counts()

    def test_merge_commutative(self):
        a = FlopsLedger(key_flops=1, me_flops=2)
        b = FlopsLedger(res_flops=3, unmatched_flops=4)
        ab, ba = copy.copy(a), copy.copy(b)
        ab.merge(b)
        ba.merge(a)
        assert ab.counts() == ba.counts()


def small_run(gop=4, oracle=False, tau=0.01, frame_count=8, seed=0, **params):
    rng = np.random.default_rng(seed)
    net = Network([
        MotionCompLayer(random_conv_spec(rng, 3, 8, 3, 1), MotionParams(threshold=tau, **params)),
        MotionCompLayer(random_conv_spec(rng, 8, 8, 3, 1), MotionParams(threshold=tau, **params)),
    ])
    frames = generate(SceneSpec(kind="noise_mix", height=12, width=12, channels=3,
                                frame_count=frame_count, seed=seed + 1,
                                motion=(0, 0), noise_amplitude=0.02))
    result = run_sequence(net, frames, GopConfig(gop_length=gop, oracle=oracle))
    return result


class TestReport:
    def test_all_key_baseline_identity(self):
        result = small_run(gop=1)
        report = build_report(result, {"via": "test"})
        assert report["delta_flops_pct"] == 0.0
        assert report["totals"]["total"] == report["baseline_totals"]["total"]

    def test_delta_self_consistency(self):
        result = small_run(gop=4, oracle=True)
        report = build_report(result, {})
        recomputed = 100.0 * (1.0 - report["totals"]["total"] / report["baseline_totals"]["total"])
        assert report["delta_flops_pct"] == recomputed

    def test_schema_keys(self):
        report = build_report(small_run(oracle=True), {"run": 1})
        for key in ("config", "per_layer", "per_frame", "totals", "baseline_totals",
                    "delta_flops_pct", "measured_alpha", "measured_beta", "model",
                    "oracle_error"):
            assert key in report
        assert set(report["model"]) == {"paper_variant", "exact_variant", "discrepancy_vs_exact"}
        assert report["config"] == {"run": 1}
        assert len(report["per_frame"]) == 8
        assert len(report["per_layer"]) == 2

    def test_measured_stats_aggregate_records(self):
        result = small_run(gop=4)
        report = build_report(result, {})
        nonkey = [r for r in result.records if not r.is_key]
        alpha = sum(r.stats.matched for r in nonkey) / sum(r.stats.positions for r in nonkey)
        assert report["measured_alpha"] == alpha

    @pytest.mark.parametrize("kw,early_stopped", [
        (dict(gop=4), True),
        (dict(gop=4, early_stop_density=-1.0), False),
        (dict(gop=4, tau=0.0), False),  # alpha < 1: search-alpha weights differ
        (dict(gop=1), False),  # every frame a key frame: every alpha is None
    ])
    def test_every_aggregate_matches_the_records(self, kw, early_stopped):
        result = small_run(**kw)
        report = build_report(result, {})

        def expected(recs):
            stats = [r.stats for r in recs if not r.is_key]
            baseline = sum(r.conv_flops for r in recs)
            if not stats:
                return baseline, None, None, None
            positions = sum(s.positions for s in stats)
            entries = sum(s.matched * s.block_size for s in stats)
            return (baseline, sum(s.matched for s in stats) / positions,
                    sum(s.nnz_total for s in stats) / entries if entries else 0.0,
                    sum(s.search_alpha * s.positions for s in stats) / positions)

        for key, entries in (("layer", report["per_layer"]), ("frame", report["per_frame"])):
            for entry in entries:
                recs = [r for r in result.records if getattr(r, key) == entry[key]]
                got = (entry["baseline_flops"], entry["alpha"], entry["beta"])
                assert got == expected(recs)[:3]
        assert (report["baseline_totals"]["total"], report["measured_alpha"],
                report["measured_beta"], report["measured_search_alpha"]) == expected(result.records)

        nonkey = [r for r in result.records if not r.is_key]
        exact = report["model"]["exact_variant"]
        discrepancy = report["model"]["discrepancy_vs_exact"]
        for cat in ("me", "unmatched", "res"):
            model_sum = sum(model_nonkey_flops(CostModel(
                r.spec.kernel_size, r.spec.stride, r.spec.in_channels, r.spec.out_channels,
                r.out_h, r.out_w, r.search_range, r.stats.alpha, r.stats.beta))[cat] for r in nonkey)
            assert exact[cat] == model_sum
            assert discrepancy[cat] == sum(r.flops[cat] for r in nonkey) - model_sum
        assert (discrepancy["me"] != 0) == early_stopped
        nonkey_baseline = sum(r.conv_flops for r in nonkey)
        assert exact["nonkey_acceleration"] == (
            1.0 - exact["nonkey_total"] / nonkey_baseline if nonkey else None)
        if kw["gop"] == 1:
            assert all(e["alpha"] is None for e in report["per_layer"] + report["per_frame"])

    def test_model_exact_variant_matches_ledger_when_early_stop_disabled(self):
        result = small_run(gop=4, tau=0.01, early_stop_density=-1.0)
        report = build_report(result, {})
        exact = report["model"]["exact_variant"]
        totals = report["totals"]
        assert exact["me"] == totals["me"]
        assert exact["unmatched"] == totals["unmatched"]
        assert exact["res"] == totals["res"]
        assert report["model"]["discrepancy_vs_exact"] == {"me": 0, "unmatched": 0, "res": 0}

    def test_exact_acceleration_tracks_measured_savings(self):
        # formula with measured alpha/beta and the grid-aligned candidate
        # count stays within one percentage point of the instrumented
        # per-frame savings once early stopping is off
        result = small_run(gop=8, tau=0.01, early_stop_density=-1.0)
        for rec in result.records:
            if rec.is_key:
                continue
            m = CostModel(
                kernel_size=rec.spec.kernel_size, stride=rec.spec.stride,
                in_channels=rec.spec.in_channels, out_channels=rec.spec.out_channels,
                out_h=rec.out_h, out_w=rec.out_w, search_range=rec.search_range,
                alpha=rec.stats.alpha, beta=rec.stats.beta,
            )
            predicted = acceleration(m, paper_variant=False)
            measured = 1.0 - rec.flops["total"] / rec.conv_flops
            assert abs(predicted - measured) <= 0.01

    def test_csv_rows_match_per_frame(self):
        report = build_report(small_run(oracle=True), {})
        rows = report_csv_rows(report)
        assert rows[0][0] == "frame"
        assert len(rows) == 1 + len(report["per_frame"])
        assert rows[1][1] == 1  # frame 0 is a key frame

    def test_write_json_atomic_and_deterministic(self, tmp_path):
        report = build_report(small_run(), {"seed": 0})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report_json(report, p1)
        write_report_json(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        parsed = json.loads(p1.read_text())
        assert parsed["totals"]["total"] == report["totals"]["total"]

    def test_write_csv(self, tmp_path):
        report = build_report(small_run(oracle=True), {})
        path = tmp_path / "r.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(report["per_frame"])

    def test_empty_records_rejected(self):
        result = small_run()
        result.records = []
        with pytest.raises(ValueError, match="report"):
            build_report(result, {})
