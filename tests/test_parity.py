"""``scripts/parity.py``: two checkouts compared pass by pass."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "parity.py"


def _parity():
    spec = importlib.util.spec_from_file_location("parity_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(base, head, seeds="0"):
    return subprocess.run([sys.executable, str(SCRIPT), str(base), str(head), "--seeds", seeds],
                          capture_output=True, text=True, timeout=300)


def _checkout_copy(dest: Path) -> Path:
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_a_checkout_equals_itself():
    done = _run(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    assert "2 passes equal" in done.stdout


def test_an_output_bit_moved_is_named(tmp_path):
    head = _checkout_copy(tmp_path / "head")
    layer = head / "src" / "motionconv" / "layer.py"
    text = layer.read_text()
    anchor = "        self.cache = LayerCache(plane=plane, margin=margin, prev_output=out)\n"
    assert anchor in text
    layer.write_text(text.replace(anchor, "        out[0, 0, 0] += np.float32(1e-3)\n" + anchor))
    done = _run(ROOT, head)
    assert done.returncode == 1
    assert "pan_noise seed 0: output 1:" in done.stdout


@pytest.mark.parametrize("text,seeds", [("0-9", range(10)), ("7", range(7, 8)),
                                        ("3-3", range(3, 4))])
def test_seed_ranges(text, seeds):
    assert _parity().seed_range(text) == seeds


@pytest.mark.parametrize("text", ["9-0", "-1", "a-b", "1-2-3", ""])
def test_bad_seed_ranges_rejected(text):
    with pytest.raises(Exception, match="seeds"):
        _parity().seed_range(text)


def test_first_difference_names_the_field():
    first_difference = _parity().first_difference
    p = {"pass": "pan_noise seed 4", "exit": [0, None], "outputs": ["a", "b"],
         "ledger": {"key": 1, "me": 2}, "report": None, "me": [5, 6, 7]}
    assert first_difference([p], [dict(p)]) is None
    assert first_difference([p], [{**p, "me": [5, 6, 8]}]) == "pan_noise seed 4: search call 2: 7 != 8"
    assert first_difference([p], [{**p, "ledger": {"key": 1, "me": 3}}]) == (
        "pan_noise seed 4: ledger 'me' 2 != 3")
    assert first_difference([p], [{**p, "me": [5, 6]}]) == "pan_noise seed 4: 3 me against 2"
    assert first_difference([p], [{**p, "report": "d"}]) == "pan_noise seed 4: report None != d"
    assert first_difference([p], []) == "1 passes against 0"
