"""Outside-in tracing: spans recorded around the program's public functions.

``Tracer.install`` replaces module attributes (and two ``MotionCompLayer``
methods) with wrappers that record a span per call: name, start, end,
parent span and run id, plus a few counts read from arguments and
results. Nothing in the program changes; ``uninstall`` restores every
attribute. Spans stay in memory until ``write`` is called at the end.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

import motionconv.bayer as bayer
import motionconv.cli as cli
import motionconv.layer as layer_mod
import motionconv.motion as motion
import motionconv.scheduler as scheduler
import motionconv.synth as synth

NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = None  # spans are recorded only while a run id is set
        self.layer_index: dict[int, int] = {}
        self._saved: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """``before(args)`` runs ahead of the call and its value reaches
        ``after(args, result, state)``, which returns the span's attrs."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.run is None:
                return original(*args, **kwargs)
            state = before(args) if before else None
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after:
                tracer.spans[idx][ATTRS] = after(args, result, state)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_iterator(self, owner, attr: str, name: str, before, after) -> None:
        """Like ``wrap`` for a generator function: one span per item pulled;
        ``before(args)`` runs once per call, ``after(state, item)`` per item."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            state = before(args)
            it = original(*args, **kwargs)
            while True:
                if tracer.run is None:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    yield item
                    continue
                idx = tracer._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.spans[idx][ATTRS] = after(state, item)
                yield item

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        def layer_of(args, result, state):
            attrs = {"layer": self.layer_index.get(id(args[0]))}
            st = args[0].last_stats
            if st is not None:
                attrs.update(
                    positions=st.positions, matched=st.matched, demoted=st.demoted,
                    nnz_total=st.nnz_total, block_size=st.block_size,
                )
            return attrs

        def register_net(args):
            self.layer_index = {id(l): i for i, l in enumerate(args[0].layers)}

        def run_result(args, result, state):
            return {"frames": len(result.outputs), "ledger": {
                **result.ledger.counts(), "pred_bytes": result.ledger.pred_bytes_moved}}

        def me_before(args):
            return args[4].me_flops if args[4] is not None else 0

        def search_result(args, result, state):
            me = args[4].me_flops - state if args[4] is not None else 0
            return {"candidates": me // (2 * result.block_size), "positions": result.positions,
                    "alpha": result.alpha}

        def nbytes(args, result, state):
            return {"bytes": result.nbytes}

        def sample_bytes(args):
            sidecar = args[1] if isinstance(args[1], dict) else json.loads(Path(args[1]).read_text())
            return 1 if sidecar["bit_depth"] <= 8 else 2

        def raw_bytes(itemsize, frame):
            return {"bytes": frame.plane.size * itemsize}

        def file_bytes(args, result, state):
            return {"bytes": os.path.getsize(args[1])}

        self.wrap(scheduler, "run_sequence", "scheduler.run_sequence", register_net, run_result)
        self.wrap(layer_mod.MotionCompLayer, "forward_key", "layer.forward_key", after=layer_of)
        self.wrap(layer_mod.MotionCompLayer, "forward_nonkey", "layer.forward_nonkey",
                  after=layer_of)
        self.wrap(layer_mod, "search", "motion.search", me_before, search_result)
        self.wrap(layer_mod, "conv2d", "tensors.conv2d")
        # conv2d's own gather (tensors.unfold_blocks) stays inside the conv2d span
        for owner in (layer_mod, motion):
            self.wrap(owner, "unfold_blocks", "tensors.unfold_blocks", after=nbytes)
        self.wrap_iterator(cli, "load_raw_sequence", "bayer.load_raw", sample_bytes, raw_bytes)
        for owner in (cli, bayer):
            self.wrap(owner, "pack", "bayer.pack")
        self.wrap(cli, "build_report", "analysis.build_report")
        self.wrap(cli, "write_report_json", "analysis.write_report", after=file_bytes)
        self.wrap(synth, "generate", "synth.generate")
        self.wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "attrs": attrs}) + "\n")


def _child_time(spans: list[list]) -> dict[int, float]:
    """Seconds covered by each span's direct children."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    return child_time


def self_time_split(tracer: Tracer, passes: int) -> dict[str, float]:
    """Self seconds per pass for each span name, largest first."""
    child_time = _child_time(tracer.spans)
    split = defaultdict(float)
    for i, s in enumerate(tracer.spans):
        if (s[RUN] or "").startswith("pass"):
            split[s[NAME]] += (s[END] - s[START] - child_time[i]) / passes
    return dict(sorted(split.items(), key=lambda kv: -kv[1]))


def per_layer_metrics(tracer: Tracer, passes: int, n_layers: int) -> dict[str, float]:
    """Per-pass figures from the spans of runs named ``pass-*``; set-up
    figures (``synth.generate_s``) are per set-up, median over set-ups."""
    spans = tracer.spans
    child_time = _child_time(spans)

    total = defaultdict(float)  # summed over the measured passes
    setup_gen = defaultdict(float)
    search_layer_pos = defaultdict(int)
    search_layer_alpha = defaultdict(float)
    frames_seen = 0
    ledger = {}
    for i, s in enumerate(spans):
        name, dur, attrs = s[NAME], s[END] - s[START], s[ATTRS] or {}
        run = s[RUN] or ""
        if run.startswith("setup"):
            if name == "synth.generate":
                setup_gen[run] += dur
            continue
        if not run.startswith("pass"):
            continue
        self_dur = dur - child_time[i]
        total[name + ".s"] += dur
        total[name + ".self_s"] += self_dur
        total[name + ".calls"] += 1
        total[name + ".bytes"] += attrs.get("bytes", 0)
        if name in ("layer.forward_key", "layer.forward_nonkey"):
            li = attrs["layer"]
            total[f"{name}.s.l{li}"] += dur
            total[f"{name}.self_s.l{li}"] += self_dur
            for key in ("positions", "matched", "demoted", "nnz_total"):
                total[f"{name}.{key}.l{li}"] += attrs.get(key, 0)
            total[f"{name}.entries.l{li}"] += attrs.get("matched", 0) * attrs.get("block_size", 0)
        elif name == "motion.search":
            li = (spans[s[PARENT]][ATTRS] or {}).get("layer") if s[PARENT] is not None else None
            total["motion.candidates"] += attrs["candidates"]
            total["motion.positions"] += attrs["positions"]
            search_layer_pos[li] += attrs["positions"]
            search_layer_alpha[li] += attrs["alpha"] * attrs["positions"]
        elif name == "scheduler.run_sequence":
            frames_seen += attrs["frames"]
            ledger = attrs["ledger"]

    def per_pass(key):
        return total[key] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "motion.search_s": per_pass("motion.search.s"),
        "motion.search_self_s": per_pass("motion.search.self_s"),
        "motion.search_calls": per_pass("motion.search.calls"),
        "motion.candidates_evaluated": per_pass("motion.candidates"),
        "motion.candidates_per_position": ratio(total["motion.candidates"],
                                                total["motion.positions"]),
    }
    for li in range(n_layers):
        m[f"motion.search_alpha.l{li}"] = ratio(search_layer_alpha[li], search_layer_pos[li])
    for li in range(n_layers):
        nk = "layer.forward_nonkey"
        m[f"layer.forward_nonkey_s.l{li}"] = per_pass(f"{nk}.s.l{li}")
        m[f"layer.forward_nonkey_self_s.l{li}"] = per_pass(f"{nk}.self_s.l{li}")
        m[f"layer.forward_key_s.l{li}"] = per_pass(f"layer.forward_key.s.l{li}")
        m[f"layer.matched.l{li}"] = per_pass(f"{nk}.matched.l{li}")
        m[f"layer.demoted.l{li}"] = per_pass(f"{nk}.demoted.l{li}")
        m[f"layer.nnz_total.l{li}"] = per_pass(f"{nk}.nnz_total.l{li}")
        m[f"layer.alpha.l{li}"] = ratio(total[f"{nk}.matched.l{li}"], total[f"{nk}.positions.l{li}"])
        m[f"layer.beta.l{li}"] = ratio(total[f"{nk}.nnz_total.l{li}"], total[f"{nk}.entries.l{li}"])
    m.update({
        "tensors.conv2d_s": per_pass("tensors.conv2d.s"),
        "tensors.conv2d_calls": per_pass("tensors.conv2d.calls"),
        "tensors.unfold_blocks_s": per_pass("tensors.unfold_blocks.s"),
        "tensors.unfold_calls": per_pass("tensors.unfold_blocks.calls"),
        "tensors.unfold_bytes": per_pass("tensors.unfold_blocks.bytes"),
        "scheduler.run_sequence_s": per_pass("scheduler.run_sequence.s"),
        "scheduler.self_s": per_pass("scheduler.run_sequence.self_s"),
        "scheduler.frames": frames_seen / passes,
        "ledger.key_flops": ledger.get("key", 0),
        "ledger.me_flops": ledger.get("me", 0),
        "ledger.res_flops": ledger.get("res", 0),
        "ledger.unmatched_flops": ledger.get("unmatched", 0),
        "ledger.pred_bytes_moved": ledger.get("pred_bytes", 0),
        "bayer.load_raw_s": per_pass("bayer.load_raw.s"),
        "bayer.pack_s": per_pass("bayer.pack.s"),
        "bayer.bytes_read": per_pass("bayer.load_raw.bytes"),
        "analysis.build_report_s": per_pass("analysis.build_report.s"),
        "analysis.write_report_s": per_pass("analysis.write_report.s"),
        "analysis.report_bytes": per_pass("analysis.write_report.bytes"),
        "synth.generate_s": statistics.median(setup_gen.values()) if setup_gen else 0.0,
        "cli.main_s": per_pass("cli.main.s"),
        "cli.self_s": per_pass("cli.main.self_s"),
    })
    return m
