"""The benchmark's pinned ledgers, checked in tier 1.

``perfbench/pins.json`` holds the exact FLOPs ledger of one pass for seeds
0-99 of the two pinned workloads, and the benchmark gate rejects any pass
that differs. This runs one pass for the first three seeds of each through
``perfbench/workloads.py`` and compares it the way ``perfbench/gate.py``
does (both imported read-only), so that ledger drift shows in the test
suite without running the benchmark. It also checks that the functions
``perfbench/tracing.py`` wraps by attribute name are still there.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from motionconv import layer, motion, tensors

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(module):
    name = f"perfbench_{module}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{module}.py")
        loaded = importlib.util.module_from_spec(spec)
        sys.modules[name] = loaded  # dataclasses look their module up by name
        spec.loader.exec_module(loaded)
    return sys.modules[name]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", ["pan_noise", "block_raw_lossless"])
def test_ledger_equals_pin(workload, seed, tmp_path, monkeypatch):
    # the CLI workload writes its raw file, weights and report under the cwd
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    wl, gate = _perfbench("workloads"), _perfbench("gate")
    pin = gate.load_pins()[workload][str(seed)]
    rec = wl.run_pass(wl.setup(wl.WORKLOADS[workload], seed))
    assert rec.exit_code == 0 and rec.error is None
    assert {k: rec.ledger[k] for k in gate.COUNT_KEYS} == {k: pin[k] for k in gate.COUNT_KEYS}


def test_traced_attributes_exist():
    # a traced benchmark run replaces these module attributes by name, and
    # fails to start when one is renamed or removed
    assert layer.search is motion.search
    assert layer.conv2d is tensors.conv2d
    assert layer.unfold_blocks is tensors.unfold_blocks
    assert motion.unfold_blocks is tensors.unfold_blocks
