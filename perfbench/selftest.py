"""Shows that the correctness gate rejects wrong results.

    python3 perfbench/selftest.py

Runs one real pass of each workload at seed 0, checks that the gate
accepts it, then feeds the gate mutated copies of the pass (one candidate
too many in the ledger, key FLOPs off by two, one output element nudged)
and checks that each copy is rejected. The program is never modified.
Also checks that the traced run derives exactly the per-layer metrics
BENCHMARK.json lists. Exits 0 when all checks hold.
"""

from __future__ import annotations

import copy
import json
import sys

from run import ROOT, load_program


def main() -> int:
    load_program()
    import gate
    import tracing
    import workloads as wl

    pins = gate.load_pins()
    results = []

    def expect(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {label}")

    for name, w in wl.WORKLOADS.items():
        prep = wl.setup(w, 0)
        rec = wl.run_pass(prep)
        _, dense = wl.dense_pass(rec.net, rec.inputs)
        reference = [wl.reference_forward(prep.specs, f) for f in rec.inputs]
        pin = pins.get(name, {}).get("0")
        key_per_frame = wl.dense_flops_per_frame(prep.specs)

        def verdict(r):
            fails, _ = gate.check_pass(w, pin, r, rec, dense, reference,
                                       w.scene["frame_count"], key_per_frame)
            return fails

        expect(f"{name}: gate accepts the real pass", verdict(rec) == [])

        wrong_count = copy.deepcopy(rec)
        bsz = prep.specs[0].block_size
        wrong_count.ledger["me"] += 2 * bsz  # one extra candidate at one position
        expect(f"{name}: gate rejects a ledger with one extra candidate", verdict(wrong_count) != [])

        wrong_key = copy.deepcopy(rec)
        wrong_key.ledger["key"] -= 2
        expect(f"{name}: gate rejects key FLOPs off the closed form", verdict(wrong_key) != [])

        # Without a first pass to compare against, only the error checks see this.
        lossless = w.tau == 0 or w.gop == 1
        nudge = 1e-3 if lossless else 0.05
        nudged = copy.deepcopy(rec)
        frame = len(nudged.outputs) - 1  # last frame: deepest into the GOP
        nudged.outputs[frame].flat[0] += nudge
        fails, _ = gate.check_pass(w, pin, nudged, None, dense, reference,
                                   w.scene["frame_count"], key_per_frame)
        expect(f"{name}: gate rejects an output element moved by {nudge:g}", fails != [])

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    derived = set(tracing.per_layer_metrics(tracing.Tracer(), 1, len(wl.REFERENCE_NET)))
    derived |= {"trace.frames_per_s_untraced", "trace.frames_per_s_traced", "trace.overhead_pct"}
    listed = {m["name"] for m in bench["per_layer"]}
    expect("traced run derives exactly the per-layer metrics BENCHMARK.json lists",
           derived == listed)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
