"""Run the benchmark on two commits in alternating pairs and compare them.

    python3 scripts/abtest.py BASE HEAD --workload pan_noise --seed 43 --pairs 10

Both commits are checked out as sibling ``git worktree``s of this
repository, made the same way in one new temporary directory, so that
metrics which follow the checkout's path (``peak_rss_mb``, ``setup_s``)
compare like with like. Pair i runs BASE first when i is even and HEAD
first when i is odd; each run is the checkout's own benchmark command
(``BENCHMARK.json``'s ``command``) with ``--workload W --seed S --seconds T
--trace 0``, T being ``BENCHMARK.json``'s ``run_seconds``, in that
checkout's directory. The run's result is the last line of its standard
output.

For each end-to-end metric of ``BENCHMARK.json`` the script prints each
side's median and quartiles, the median and quartiles of the per-pair
ratio HEAD over BASE (the host's slow and fast phases move both runs of a
pair together, which the ratio cancels and the medians do not), the pairs
HEAD won (ties count for neither),
the median gap in the better direction, and whether a claimed gain would
hold: HEAD ahead in at least nine tenths of the pairs and the median gap
larger than BASE's interquartile range. Its bound column reads WORSE
when HEAD's median is worse than BASE's by more than the metric's bound,
else ``unresolved`` when either side's IQR, relative to BASE's median,
exceeds the bound and HEAD's runs are not all better than all of BASE's
(the spread is too wide to tell), else ``ok``. ``--json PATH`` writes
every run's line and the summary. The worktrees are removed at the end.
Exit code 1 means a run failed (nonzero exit, ``correct`` false, or no
result line), 2 a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("base", "head")  # sibling directory names of one length


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """Summary of one metric over pairs ``zip(base, head)``."""
    sign = 1 if better == "higher" else -1
    bq, hq = quartiles(base), quartiles(head)
    won = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    gap = sign * (hq[1] - bq[1]) + 0.0  # positive when HEAD's median is better; no -0.0
    iqr = bq[2] - bq[0]
    worse = bq[1] != 0 and -gap / abs(bq[1]) > bound
    spread = max(iqr, hq[2] - hq[0]) / abs(bq[1]) if bq[1] else 0.0
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    ratio = quartiles([h / b for b, h in zip(base, head)]) if all(base) else None
    return {
        "base": bq, "head": hq, "ratio": ratio, "won": won, "pairs": len(base), "gap": gap,
        "base_iqr": iqr,
        "claim_holds": 10 * won >= 9 * len(base) and gap > iqr,
        "worse_beyond_bound": worse,
        "unresolved": not worse and spread > bound and not all_better,
    }


def run_side(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        line = None
    if not isinstance(line, dict) or "metrics" not in line:
        line = None
    return {"exit": proc.returncode, "line": line,
            "stderr": proc.stderr.strip().splitlines()[-5:] if proc.returncode else []}


def failed(run: dict) -> bool:
    return run["exit"] != 0 or run["line"] is None or not run["line"].get("correct")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="commit to compare against")
    ap.add_argument("head", help="commit under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--json", type=Path, help="write every run and the summary here")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        ap.error("--pairs must be >= 1 and --seed >= 0")
    repo = Path(__file__).resolve().parent.parent
    try:
        commits = [git(repo, "rev-parse", "--verify", f"{c}^{{commit}}")
                   for c in (args.base, args.head)]
    except subprocess.CalledProcessError as exc:
        ap.error(f"not a commit of {repo}: {exc.stderr.strip()}")

    runs = []
    with tempfile.TemporaryDirectory(prefix="abtest-") as tmp:
        trees = [Path(tmp) / side for side in SIDES]
        try:
            for tree, commit in zip(trees, commits):
                git(repo, "worktree", "add", "--detach", str(tree), commit)
            benches = [json.loads((t / "BENCHMARK.json").read_text()) for t in trees]
            if benches[0] != benches[1]:
                print("abtest: BENCHMARK.json differs between the commits", file=sys.stderr)
                return 2
            bench = benches[0]
            seconds = bench["run_seconds"]
            for i in range(args.pairs):
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    run = run_side(trees[side], bench["command"], args.workload, args.seed,
                                   seconds)
                    runs.append({"pair": i, "side": SIDES[side], **run})
                    state = "FAILED" if failed(run) else "ok"
                    print(f"pair {i} {SIDES[side]}: {state}", file=sys.stderr, flush=True)
        finally:
            for tree in trees:
                if tree.exists():
                    git(repo, "worktree", "remove", "--force", str(tree))
            git(repo, "worktree", "prune")

    bad = [r for r in runs if failed(r)]
    summary = {}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s, "
          f"{commits[0][:10]} (base) against {commits[1][:10]} (head)")
    print(f"{'metric':<18} {'base q1/median/q3':>30} {'head q1/median/q3':>30} "
          f"{'head/base q1/median/q3':>24} {'won':>6} {'gap':>10} {'base IQR':>10}  claim  bound")
    for m in bench["end_to_end"]:
        name = m["name"]
        vals = {side: [r["line"]["metrics"][name]["value"] for r in runs
                       if r["side"] == side and not failed(r)
                       and name in r["line"]["metrics"]] for side in SIDES}
        if len(vals["base"]) != args.pairs or len(vals["head"]) != args.pairs:
            print(f"{name:<18} missing in a failed run")
            continue
        # each side ran once per pair, in pair order
        s = summary[name] = compare(vals["base"], vals["head"], m["better"], m["bound"])
        fmt = "/".join
        verdict = "WORSE" if s["worse_beyond_bound"] else "unresolved" if s["unresolved"] else "ok"
        ratio = fmt(f"{v:.4f}" for v in s["ratio"]) if s["ratio"] else "-"
        print(f"{name:<18} {fmt(f'{v:.4g}' for v in s['base']):>30} "
              f"{fmt(f'{v:.4g}' for v in s['head']):>30} {ratio:>24} "
              f"{s['won']:>3}/{s['pairs']:<2} "
              f"{s['gap']:>10.4g} {s['base_iqr']:>10.4g}  {'yes' if s['claim_holds'] else 'no':<5}  "
              f"{verdict}")
    if bad:
        print(f"abtest: {len(bad)} of {len(runs)} runs failed", file=sys.stderr)
        for r in bad:
            print(f"  pair {r['pair']} {r['side']}: exit {r['exit']} {r['stderr']}",
                  file=sys.stderr)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": seconds,
             "base": commits[0], "head": commits[1], "runs": runs, "summary": summary},
            indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
