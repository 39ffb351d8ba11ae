"""Check that two checkouts compute the same thing, bit for bit.

    python3 scripts/parity.py BASE HEAD --seeds 0-99

For each seed, one benchmark pass of ``pan_noise`` and one of
``block_raw_lossless`` runs in each checkout, and the two are compared:
the sha256 of every output's ``uint32`` view (with its dtype and shape),
the FLOPs ledger, the CLI workload's ``report.json`` digest, and the
``me`` charge of each search call in order. The first difference is
printed and the exit code is 1; 0 means every pass was equal.

Each checkout runs in its own subprocess that imports the program from its
own ``src/`` and loads its ``perfbench/workloads.py`` read-only (no
bytecode is written), in a temporary working directory, with one BLAS
thread as the benchmark runs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("pan_noise", "block_raw_lossless")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RESULT = "parity.json"


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be A-B or N, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"seeds must satisfy 0 <= A <= B, got {text!r}")
    return range(lo, hi + 1)


def worker(checkout: Path, seeds: range) -> None:
    """Runs the passes in this process and writes their digests to
    ``RESULT`` in the working directory."""
    import numpy as np
    import motionconv
    from motionconv import layer

    src = checkout / "src" / "motionconv"
    if Path(motionconv.__file__).resolve().parent != src:
        raise SystemExit(f"parity: imported {motionconv.__file__}, not {src}")
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", checkout / "perfbench" / "workloads.py"
    )
    wl = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = wl  # dataclasses look their module up by name
    spec.loader.exec_module(wl)

    me_charges: list[int] = []
    real_search = layer.search

    def charging(cur, ref, conv, params, ledger):
        before = ledger.me_flops
        field = real_search(cur, ref, conv, params, ledger)
        me_charges.append(ledger.me_flops - before)
        return field

    layer.search = charging
    passes = []
    for seed in seeds:
        for name in WORKLOADS:
            prep = wl.setup(wl.WORKLOADS[name], seed)
            me_charges.clear()
            rec = wl.run_pass(prep)
            passes.append({
                "pass": f"{name} seed {seed}",
                "exit": [rec.exit_code, rec.error],
                "outputs": [
                    f"{o.dtype}{o.shape} "
                    + hashlib.sha256(np.ascontiguousarray(o).view(np.uint32)).hexdigest()
                    for o in rec.outputs
                ],
                "ledger": rec.ledger,
                "report": rec.report_digest,
                "me": list(me_charges),
            })
    Path(RESULT).write_text(json.dumps(passes))


def seed_text(seeds: range) -> str:
    return f"{seeds.start}-{seeds.stop - 1}"


def run_checkout(checkout: Path, seeds: range, work: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.update({var: "1" for var in BLAS_VARS})
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(checkout),
         "--seeds", seed_text(seeds)],
        cwd=work, env=env,
    )


def first_difference(base: list, head: list) -> str | None:
    if len(base) != len(head):
        return f"{len(base)} passes against {len(head)}"
    for a, b in zip(base, head):
        for key in ("exit", "outputs", "ledger", "report", "me"):
            x, y = a[key], b[key]
            if x == y:
                continue
            where = a["pass"]
            if key == "ledger":
                k = next(k for k in sorted(set(x) | set(y)) if x.get(k) != y.get(k))
                return f"{where}: ledger {k!r} {x.get(k)} != {y.get(k)}"
            if key in ("outputs", "me"):
                if len(x) != len(y):
                    return f"{where}: {len(x)} {key} against {len(y)}"
                i = next(i for i, (u, v) in enumerate(zip(x, y)) if u != v)
                label = "output" if key == "outputs" else "search call"
                return f"{where}: {label} {i}: {x[i]} != {y[i]}"
            return f"{where}: {key} {x} != {y}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", nargs="?", type=Path, help="checkout to compare against")
    ap.add_argument("head", nargs="?", type=Path, help="checkout under test")
    ap.add_argument("--seeds", required=True, type=seed_range,
                    help="inclusive seed range A-B, or one seed N")
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker is not None:
        worker(args.worker.resolve(), args.seeds)
        return 0
    if args.base is None or args.head is None:
        ap.error("BASE and HEAD checkouts are required")
    checkouts = [args.base.resolve(), args.head.resolve()]
    for c in checkouts:
        if not (c / "src" / "motionconv" / "__init__.py").is_file():
            ap.error(f"{c} has no src/motionconv")

    with tempfile.TemporaryDirectory() as tmp:
        works = [Path(tmp) / side for side in ("base", "head")]
        procs = []
        for checkout, work in zip(checkouts, works):
            work.mkdir()
            procs.append(run_checkout(checkout, args.seeds, work))
        codes = [p.wait() for p in procs]
        for checkout, code in zip(checkouts, codes):
            if code != 0:
                print(f"parity: passes in {checkout} failed (exit {code})", file=sys.stderr)
                return 1
        base, head = (json.loads((w / RESULT).read_text()) for w in works)

    diff = first_difference(base, head)
    if diff is not None:
        print(f"parity: differs at {diff}")
        return 1
    print(f"parity: {len(head)} passes equal ({', '.join(WORKLOADS)}, seeds {seed_text(args.seeds)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
