"""Write the exact counts the correctness gate pins, for a range of seeds.

    python3 perfbench/pin.py FIRST_SEED LAST_SEED

For ``pan_noise`` and ``block_raw_lossless`` this runs one pass per seed
and records the ledger (key, me, res, unmatched FLOPs and prediction
bytes) and, for ``pan_noise``, the max deviation from the dense reference,
merging them into ``pins.json``. ``dense_gop1`` needs no pins: its counts
have a closed form. Pins record the program's behaviour when the benchmark
was defined; a change that claims only speed must reproduce them, so they
are regenerated only by a change to the benchmark itself.
"""

from __future__ import annotations

import json
import sys

from run import load_program

PINNED_WORKLOADS = ("pan_noise", "block_raw_lossless")


def main(argv: list[str]) -> int:
    first_seed, last_seed = int(argv[0]), int(argv[1])
    load_program()
    import gate
    import workloads as wl

    pins = json.loads(gate.PINS_PATH.read_text()) if gate.PINS_PATH.exists() else {}
    for name in PINNED_WORKLOADS:
        w = wl.WORKLOADS[name]
        for seed in range(first_seed, last_seed + 1):
            prep = wl.setup(w, seed)
            rec = wl.run_pass(prep)
            _, dense = wl.dense_pass(rec.net, rec.inputs)
            reference = [wl.reference_forward(prep.specs, f) for f in rec.inputs]
            fails, err = gate.check_pass(w, None, rec, None, dense, reference,
                                         w.scene["frame_count"], wl.dense_flops_per_frame(prep.specs))
            if fails:
                print(f"{name} seed {seed}: not pinned: {fails}", file=sys.stderr)
                return 1
            entry = {k: rec.ledger[k] for k in gate.COUNT_KEYS}
            if w.tau > 0:
                entry["max_abs_err"] = err
            pins.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {entry}", flush=True)
    gate.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
