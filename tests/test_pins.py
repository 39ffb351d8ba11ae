"""The benchmark's pinned ledgers, checked in tier 1.

``perfbench/pins.json`` holds the exact FLOPs ledger of one pass for seeds
0-99 of the two pinned workloads, and the benchmark gate rejects any pass
that differs. This runs one pass for the first three seeds of each through
``perfbench/workloads.py`` and compares it the way ``perfbench/gate.py``
does (both imported read-only), so that ledger drift shows in the test
suite without running the benchmark. One seed-58 pass of each also pins
the candidates the traced benchmark counts per pass and the CLI
workload's ``report.json`` digest. It also checks that the functions
``perfbench/tracing.py`` wraps by attribute name, and the attributes it
reads off their results, are still there.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from motionconv import layer, motion, scheduler, tensors
from motionconv.ledger import FlopsLedger
from motionconv.tensors import ConvSpec

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


# Seed 58's per-pass traced motion.candidates_evaluated and block_raw_lossless
# report.json digest, as BENCH_12.json recorded them before the search
# settled unchanged positions without scoring them.
SEED_58_CANDIDATES = {"pan_noise": 570963, "block_raw_lossless": 357790}
SEED_58_REPORT = "2e02f090416aa44e5977e4fcec773cc893b6279ea2044796f727ca8dd1ddcf66"


@pytest.mark.parametrize("workload", ["pan_noise", "block_raw_lossless"])
def test_each_search_charges_every_position(workload, tmp_path, monkeypatch):
    # the tracer counts one search call's candidates as its me charge over
    # 2 k^2 C_in; that charge covers every output position, those the search
    # settles outside its changed box included, so the count per pass and the
    # CLI workload's report bytes stay as they were
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    wl = _perfbench("workloads")
    prep = wl.setup(wl.WORKLOADS[workload], 58)
    counted, real = [], layer.search

    def counting(cur, ref, spec, params, ledger):
        before = ledger.me_flops
        field = real(cur, ref, spec, params, ledger)
        counted.append((ledger.me_flops - before) // (2 * field.block_size))
        return field

    monkeypatch.setattr(layer, "search", counting)
    rec = wl.run_pass(prep)
    assert rec.exit_code == 0 and rec.error is None
    assert sum(counted) == SEED_58_CANDIDATES[workload]
    if workload == "block_raw_lossless":
        assert rec.report_digest == SEED_58_REPORT


def test_traced_attributes_exist():
    # a traced benchmark run replaces these module attributes by name, and
    # fails to start when one is renamed or removed; the non-key path calls
    # the search on padded planes through ``layer.search``
    assert layer.search is motion.search_planes
    assert layer.conv2d is tensors.conv2d
    assert layer.unfold_blocks is tensors.unfold_blocks
    assert motion.unfold_blocks is tensors.unfold_blocks
    # it also reads these attributes off the results of the wrapped calls,
    # and fails mid-run when one is gone
    rng = np.random.default_rng(0)
    spec = ConvSpec(weights=rng.uniform(-0.5, 0.5, (2, 1, 3, 3)).astype(np.float32), padding=1)
    frames = [rng.random((1, 6, 6)).astype(np.float32) for _ in range(2)]
    params = motion.MotionParams()
    planes = [tensors.zero_pad(f, motion.search_margin(spec, params)) for f in frames]
    # the tracer reads the ledger as positional argument 4
    ledger = FlopsLedger()
    field = layer.search(planes[1], planes[0], spec, params, ledger)
    assert ledger.me_flops > 0
    for attr in ("block_size", "positions", "alpha"):
        assert hasattr(field, attr), attr
    net = scheduler.Network([layer.MotionCompLayer(spec)])
    result = scheduler.run_sequence(net, frames, scheduler.GopConfig(gop_length=2))
    for attr in ("outputs", "ledger"):
        assert hasattr(result, attr), attr
    net.layers[0].forward_key(frames[0], FlopsLedger())
    net.layers[0].forward_nonkey(frames[1], FlopsLedger())
    stats = net.layers[0].last_stats
    for attr in ("positions", "matched", "demoted", "nnz_total", "block_size"):
        assert hasattr(stats, attr), attr
