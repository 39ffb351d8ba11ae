"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pan_noise --seed 0 --seconds 30 --trace 0

Workloads, metrics and their units are listed in BENCHMARK.json at the
repository root and explained in perfbench/README.md. The program is
imported from ``src/`` of the checkout this script sits in; without it the
script exits 2 and prints no result.

Each run sets up the workload several times (the median is ``setup_s``),
runs one warm-up pass, then closed-loop passes until ``--seconds`` have
gone by. After every pass, outside the timed region, the dense baseline
runs over the same frames and the correctness gate (gate.py) checks the
pass. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every pass passed the gate.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench_out")
# One BLAS thread, which never exceeds the usable CPUs. On a shared
# two-core machine a second thread bought ~5% on dense_gop1 and doubled the
# CPU time, so it made the runs more exposed to neighbours' load.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 5
DENSE_REPS = 3


def load_program() -> None:
    """Pins BLAS threads, then imports the program from ``src/`` of this
    checkout; exits 2 when the source is missing."""
    os.chdir(ROOT)
    src = ROOT / "src" / "motionconv"
    if not (src / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        raise SystemExit(2)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import motionconv

    if Path(motionconv.__file__).resolve().parent != src:
        print(f"perfbench: imported motionconv from {motionconv.__file__}", file=sys.stderr)
        raise SystemExit(2)


def import_seconds() -> float:
    """Median time to import the program in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import motionconv; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": "src"}
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def frames_per_s(recs) -> float:
    """Frames over total time of the passes."""
    return sum(r.frames for r in recs) / sum(r.wall_s for r in recs)


class Run:
    """Set-up and passes of one workload and seed, each pass checked by the gate."""

    def __init__(self, workload, seed: int, tracer):
        import gate
        import workloads as wl

        self.gate, self.wl = gate, wl
        self.w, self.tracer = workload, tracer
        setups = []
        for i in range(SETUP_REPS):
            if tracer:
                tracer.run = f"setup-{i}"
            t0 = time.perf_counter()
            self.prep = wl.setup(workload, seed)
            setups.append(time.perf_counter() - t0)
        if tracer:
            tracer.run = None
        self.import_s = import_seconds()
        self.setup_s = self.import_s + statistics.median(setups)
        self.pin = gate.load_pins().get(workload.name, {}).get(str(seed))
        self.frames = workload.scene["frame_count"]
        self.key_per_frame = wl.dense_flops_per_frame(self.prep.specs)
        self.first = None  # the first correct pass keeps its arrays for comparison
        self.reference = None
        self.measured = []  # (record, traced) of timed passes that passed the gate
        self.errs = []
        self.attempted = self.failed = 0

    def one_pass(self, traced: bool, timed: bool) -> None:
        wl, tracer = self.wl, self.tracer
        if tracer:
            tracer.run = f"pass-{self.attempted // self.frames}" if traced else None
        try:
            rec = wl.run_pass(self.prep)
        except Exception as exc:  # a pass that raises counts as failed; keep measuring
            traceback.print_exc(file=sys.stderr)
            rec = wl.PassRecord(error=repr(exc))
        finally:
            if tracer:
                tracer.run = None
        dense = []
        if rec.inputs:
            for _ in range(DENSE_REPS):
                seconds, dense = wl.dense_pass(rec.net, rec.inputs)
                rec.dense_s += seconds / DENSE_REPS
            if self.reference is None:
                self.reference = [wl.reference_forward(self.prep.specs, f) for f in rec.inputs]
        fails, err = self.gate.check_pass(self.w, self.pin, rec, self.first, dense,
                                          self.reference, self.frames, self.key_per_frame)
        self.attempted += self.frames
        if fails:
            self.failed += self.frames
            print("perfbench: pass failed: " + "; ".join(fails), file=sys.stderr)
            return
        self.errs.append(err)
        if self.first is None:
            self.first = rec
        else:
            rec.outputs = rec.inputs = []
        if timed:
            self.measured.append((rec, traced))

    def measure(self, seconds: float) -> None:
        """A warm-up pass, then timed passes until ``seconds`` have gone by.
        A traced run alternates untraced and traced passes, so that drift in
        the machine's speed falls on both alike."""
        self.one_pass(traced=False, timed=False)
        start = time.perf_counter()
        for i in itertools.count():
            kinds = {t for _, t in self.measured}
            done = kinds == {False, True} if self.tracer else bool(kinds)
            if time.perf_counter() - start >= seconds and (done or self.failed):
                return
            self.one_pass(traced=bool(self.tracer) and i % 2 == 1, timed=True)

    def end_to_end(self, peak_rss_mb: float) -> tuple[dict, dict]:
        """``{metric: (value, samples)}``, and further figures printed for
        information as ``{name: (value, unit)}``."""
        import numpy as np

        recs = [r for r, _ in self.measured]
        if not recs:
            return {}, {}
        all_ms = [ms for r in recs for ms in r.frame_ms]
        key_ms = [ms for r in recs for ms, k in zip(r.frame_ms, r.is_key) if k]
        nonkey_ms = [ms for r in recs for ms, k in zip(r.frame_ms, r.is_key) if not k]
        total = sum(self.first.ledger[k] for k in ("key", "me", "res", "unmatched"))
        baseline = self.frames * self.key_per_frame
        # On a shared host the CPU speed flips between two levels ~1.5x apart
        # every few seconds. Medians and means follow the mix of the two from
        # run to run; the slow tail (90th percentile) and ratios of times taken
        # side by side in the same passes do not.
        pass_p90 = np.percentile([r.wall_s for r in recs], 90)
        values = {
            "frames_per_s": (self.frames / pass_p90, len(recs)),
            "frame_ms_p90": (np.percentile(all_ms, 90), len(all_ms)),
            "speedup_vs_dense": (sum(r.dense_s for r in recs) / sum(r.run_s for r in recs),
                                 len(recs)),
            "flops_vs_dense": (total / baseline, 1),
            "peak_rss_mb": (peak_rss_mb, 1),
            "setup_s": (self.setup_s, SETUP_REPS),
        }
        info = {
            "frames_per_s_mean": (frames_per_s(recs), f"1/s (n={len(recs)})"),
            "frame_ms_p50": (np.percentile(all_ms, 50), f"ms (n={len(all_ms)})"),
            "key_frame_ms_p50": (np.percentile(key_ms, 50), f"ms (n={len(key_ms)})"),
            "delta_flops_pct": (100.0 * (1.0 - total / baseline), "%"),
            "max_abs_err": (max(self.errs), "abs"),
            "failed_share": (self.failed / self.attempted, "ratio"),
            "import_s": (self.import_s, "s"),
        }
        if nonkey_ms:
            n = f"ms (n={len(nonkey_ms)})"
            info["nonkey_frame_ms_p50"] = (np.percentile(nonkey_ms, 50), n)
            info["nonkey_frame_ms_p90"] = (np.percentile(nonkey_ms, 90), n)
        return values, info

    def per_layer(self) -> tuple[dict, dict]:
        """``{metric: (value, traced passes)}`` from the spans, plus the
        tracing overhead; for information, the self time of every span name."""
        import tracing

        traced = [r for r, t in self.measured if t]
        untraced = [r for r, t in self.measured if not t]
        if not traced:
            return {}, {}
        values = tracing.per_layer_metrics(self.tracer, len(traced), len(self.wl.REFERENCE_NET))
        fps_u = frames_per_s(untraced) if untraced else 0.0
        fps_t = frames_per_s(traced)
        values["trace.frames_per_s_untraced"] = fps_u
        values["trace.frames_per_s_traced"] = fps_t
        values["trace.overhead_pct"] = 100.0 * (1.0 - fps_t / fps_u) if fps_u else 0.0
        split = tracing.self_time_split(self.tracer, len(traced))
        return ({k: (v, len(traced)) for k, v in values.items()},
                {f"self_s[{name}]": (v, "s per pass") for name, v in split.items()})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    load_program()

    import numpy as np

    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    run = Run(w, args.seed, tracer)
    run.measure(args.seconds)
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "seed": args.seed,
        "workload": w.name,
        "input_size": wl.input_size(w),
        "pinned_counts": run.pin is not None,
        "report_sha256": run.first.report_digest if run.first else None,
    }
    print("env " + json.dumps(env))
    values, info = run.per_layer() if tracer else run.end_to_end(peak_rss_mb)
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            value, n = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:<36} {value:>14.6g} {m['unit']}  (n={n})")
    for name, (value, unit) in info.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    correct = run.failed == 0 and len(metrics) == len(wanted)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(f"{stem}-spans.jsonl")
    Path(f"{stem}.json").write_text(json.dumps(
        {"env": env, **result, "info": {k: v for k, (v, _) in info.items()}}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
