"""``scripts/abtest.py``: two commits benchmarked in alternating pairs.

A throwaway repository stands in for this one: it holds a copy of the
script, which works on the repository it sits in, and its
``perfbench/run.py`` is a stub that logs each call and prints a result
line built from the commit's ``value.json``."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "abtest.py"

STUB = """\
import json, os, sys
from pathlib import Path

value = json.loads(Path("value.json").read_text())
log = Path(os.environ["ABTEST_LOG"])
calls = log.read_text().splitlines() if log.exists() else []
with log.open("a") as f:
    f.write(json.dumps({"label": value["label"], "cwd": os.getcwd(), "argv": sys.argv[1:]}) + "\\n")
if value.get("fail"):
    sys.exit(1)
# a spread between runs of one side: each call reads a little higher
drift = 0.01 * len(calls)
print("env {}")
print(json.dumps({"correct": True, "attempted": 12, "failed": 0, "metrics": {
    "speedup_vs_dense": {"value": value["speedup"] + drift, "unit": "ratio"},
    "frame_ms_p90": {"value": value["p90"], "unit": "ms"},
}}))
"""

BENCHMARK = {
    "command": [sys.executable, "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 7,
    "workloads": [{"name": "w", "why": "stub"}],
    "end_to_end": [
        {"name": "speedup_vs_dense", "unit": "ratio", "better": "higher", "bound": 0.2},
        {"name": "frame_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
}


def _abtest():
    spec = importlib.util.spec_from_file_location("abtest_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], check=True, capture_output=True, text=True).stdout.strip()


def _commit(repo, value):
    (repo / "value.json").write_text(json.dumps(value))
    _git(repo, "add", "-A")
    _git(repo, "commit", "-qm", value["label"])
    return _git(repo, "rev-parse", "HEAD")


@pytest.fixture
def stub_repo(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (repo / "scripts").mkdir()
    shutil.copy(SCRIPT, repo / "scripts" / "abtest.py")
    _git(repo, "init", "-q")
    return repo


def _run(repo, base, head, log, pairs):
    out = repo.parent / "ab.json"
    done = subprocess.run(
        [sys.executable, str(repo / "scripts" / "abtest.py"), base, head, "--workload", "w",
         "--seed", "3", "--pairs", str(pairs), "--json", str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "ABTEST_LOG": str(log)},
    )
    return done, (json.loads(out.read_text()) if out.exists() else None)


def test_pairs_alternate_in_sibling_worktrees(stub_repo, tmp_path):
    base = _commit(stub_repo, {"label": "base", "speedup": 1.0, "p90": 10.0})
    head = _commit(stub_repo, {"label": "head", "speedup": 1.2, "p90": 10.0})
    log = tmp_path / "calls.log"
    done, result = _run(stub_repo, base, head, log, 4)
    assert done.returncode == 0, done.stderr

    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert [c["label"] for c in calls] == ["base", "head", "head", "base"] * 2
    for c in calls:
        assert c["argv"] == ["--workload", "w", "--seed", "3", "--seconds", "7", "--trace", "0"]
    dirs = {c["label"]: Path(c["cwd"]) for c in calls}
    assert dirs["base"].parent == dirs["head"].parent
    assert len(dirs["base"].name) == len(dirs["head"].name)
    assert not dirs["base"].exists() and not dirs["head"].exists()
    # only the main worktree is left
    assert _git(stub_repo, "worktree", "list", "--porcelain").count("worktree ") == 1

    assert (result["base"], result["head"]) == (base, head)
    speed, p90 = result["summary"]["speedup_vs_dense"], result["summary"]["frame_ms_p90"]
    assert speed["won"] == 4 and speed["claim_holds"] and not speed["worse_beyond_bound"]
    assert not speed["unresolved"]
    # equal values: every pair a tie, which counts for neither side
    assert p90["won"] == 0 and not p90["claim_holds"] and not p90["worse_beyond_bound"]
    assert not p90["unresolved"]
    # base read 1.00, 1.03, 1.04, 1.07 in running order
    assert speed["base"] == pytest.approx([1.0225, 1.035, 1.0475])
    assert "speedup_vs_dense" in done.stdout and "frame_ms_p90" in done.stdout


def test_a_worse_head(stub_repo, tmp_path):
    base = _commit(stub_repo, {"label": "base", "speedup": 1.0, "p90": 10.0})
    head = _commit(stub_repo, {"label": "head", "speedup": 0.5, "p90": 20.0})
    done, result = _run(stub_repo, base, head, tmp_path / "calls.log", 1)
    assert done.returncode == 0, done.stderr
    for name in ("speedup_vs_dense", "frame_ms_p90"):
        s = result["summary"][name]
        assert s["won"] == 0 and not s["claim_holds"] and s["worse_beyond_bound"]
    assert "WORSE" in done.stdout


def test_a_failed_run_fails_the_comparison(stub_repo, tmp_path):
    base = _commit(stub_repo, {"label": "base", "speedup": 1.0, "p90": 10.0})
    head = _commit(stub_repo, {"label": "head", "speedup": 1.0, "p90": 10.0, "fail": True})
    done, result = _run(stub_repo, base, head, tmp_path / "calls.log", 2)
    assert done.returncode == 1
    assert "2 of 4 runs failed" in done.stderr
    assert result["summary"] == {}
    assert _git(stub_repo, "worktree", "list", "--porcelain").count("worktree ") == 1


def test_unknown_commit_is_a_usage_error(stub_repo, tmp_path):
    base = _commit(stub_repo, {"label": "base", "speedup": 1.0, "p90": 10.0})
    done, _ = _run(stub_repo, base, "no-such-commit", tmp_path / "calls.log", 1)
    assert done.returncode == 2
    assert "not a commit" in done.stderr


@pytest.mark.parametrize(
    "base, head, better, won, holds, unresolved",
    [
        # ahead in 9 of 10, median gap 0.55 above the base IQR of 0.1
        ([1.0] * 5 + [1.1] * 5, [1.6] * 9 + [0.9], "higher", 9, True, False),
        # ahead in 8 of 10: not enough pairs won
        ([1.0] * 10, [2.0] * 8 + [0.5] * 2, "higher", 8, False, False),
        # ahead in every pair, but the median gap is inside the base IQR,
        # which is 0.6 of the base median: too wide to tell
        ([1.0, 2.0, 3.0, 4.0], [1.1, 2.1, 3.1, 4.1], "higher", 4, False, True),
        # lower is better
        ([10.0, 10.0, 10.0], [9.0, 9.0, 9.0], "lower", 3, True, False),
        # a base IQR of 0.43 of its median, but every head run beats every base run
        ([1.0, 1.5, 2.0, 2.5], [3.0, 3.5, 4.0, 4.5], "higher", 4, True, False),
        # a narrow base but a head IQR of 0.55 of the base median
        ([1.0] * 4, [1.0, 1.5, 0.9, 1.6], "higher", 2, False, True),
    ],
)
def test_claim_rule(base, head, better, won, holds, unresolved):
    s = _abtest().compare(base, head, better, bound=0.25)
    assert s["won"] == won and s["pairs"] == len(base)
    assert s["claim_holds"] is holds
    assert s["unresolved"] is unresolved
    assert not s["worse_beyond_bound"]


def test_pair_ratio():
    # slow and fast phases of the host: head is faster within four of five
    # pairs, yet its median reads 90% slower, since more of its runs fell in
    # the slow phase; the per-pair ratio shows the pairs as they ran
    s = _abtest().compare([10.0, 10.0, 10.0, 20.0, 20.0], [9.0, 9.0, 21.0, 19.0, 19.0],
                          "lower", bound=0.25)
    assert s["won"] == 4 and s["head"][1] == 19.0 and s["base"][1] == 10.0
    assert s["ratio"] == pytest.approx((0.9, 0.95, 0.95))
    # no ratio when a base run reads 0
    assert _abtest().compare([0.0, 1.0], [1.0, 1.0], "higher", bound=0.25)["ratio"] is None
