"""Outside-in span tracer for the siamcaps benchmark.

It never edits the program.  ``install`` replaces public functions on the
modules where their callers look them up (``models.conv2d_forward`` is the
name the encoder calls for conv1, ``capsules.dynamic_route`` the name the
capsule layer calls, and so on) with wrappers that record a span around the
call, and replaces ``autodiff._emit`` so each tape node's vjp is timed and
tagged with the innermost layer span that was open when the node was made.
``uninstall`` puts every original back.

Spans stay in memory as ``[name, start, end, parent, tag, count]`` rows and
are written out once, at the end of a run.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from siamcaps import autodiff, capsules, checkpoint, data, harness, models

# Layer spans: vjps of tape nodes made inside them are charged to them.
LAYERS = {
    "layers.conv1": [(models, "conv2d_forward")],
    "layers.bn1": [(models, "batchnorm_forward")],
    "capsules.primary": [(models, "primary_capsules_forward")],
    "capsules.face": [(models, "capsule_layer_forward")],
    "capsules.routing": [(capsules, "dynamic_route")],
    "layers.fc": [(models, "dense_forward")],
    "models.loss": [(harness, "distance"), (harness, "contrastive_loss")],
}


def _size_of_path(args, kwargs):
    return os.path.getsize(kwargs["path"] if "path" in kwargs else args[2])


# Other spans: glue and phases that own no tape nodes.  The optional
# function counts work done by the call from (result, args, kwargs).
CALLS = {
    "autodiff.backward": ((autodiff, "backward"), None),
    "optim.amsgrad": ((harness, "amsgrad_step"), None),
    "harness.pair_distances": ((harness, "pair_distances"), None),
    "harness.eval_distances": ((harness, "eval_distances"), None),
    "data.load_att": ((data, "load_att"), lambda r, a, k: len(r)),
    "checkpoint.save": ((checkpoint, "save_checkpoint"),
                        lambda r, a, k: _size_of_path(a, k)),
    "checkpoint.restore": ((checkpoint, "restore_checkpoint"), None),
}

OP = "op"    # one timed operation of the benchmark: a train step or eval pass
VJP = "vjp"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._open: list = []      # indices of open spans, innermost last
        self._scopes: list = []    # names of open layer spans
        self.nodes: dict = {}      # tag -> [tape nodes, output bytes]
        self._saved: list = []     # (module, attr, original)

    # -- recording -------------------------------------------------------

    def begin(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, tag, None])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, module, attr: str, name: str, layer: bool, count) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            if layer:
                self._scopes.append(name)
            try:
                result = original(*args, **kwargs)
            finally:
                if layer:
                    self._scopes.pop()
                self.end(idx)
            if count is not None:
                self.spans[idx][5] = count(result, args, kwargs)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def _emit(self, op, out_data, inputs, vjp):
        tag = self._scopes[-1] if self._scopes else None

        def timed_vjp(g):
            idx = self.begin(VJP, tag)
            try:
                return vjp(g)
            finally:
                self.end(idx)

        out = self._emit_original(op, out_data, inputs, timed_vjp)
        if out.node_id is not None:
            c = self.nodes.setdefault(tag, [0, 0])
            c[0] += 1
            c[1] += out.data.nbytes
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, targets in LAYERS.items():
            for module, attr in targets:
                self._wrap(module, attr, name, True, None)
        for name, ((module, attr), count) in CALLS.items():
            self._wrap(module, attr, name, False, count)
        self._emit_original = autodiff._emit
        self._saved.append((autodiff, "_emit", autodiff._emit))
        autodiff._emit = self._emit

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        """One JSON row per span; times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, tag, count) in \
                    enumerate(self.spans):
                fh.write(json.dumps(dict(
                    id=i, name=name, start=start - t0, end=end - t0,
                    parent=parent, tag=tag, count=count)) + "\n")


# -- aggregation -----------------------------------------------------------

def self_times(spans: list) -> list:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]


def layer_table(tracer: Tracer) -> dict:
    """Per-op layer metrics (ms, counts) over the spans under OP spans.

    The self times of every span under an OP span add up to the OP spans'
    total, so ``trace.unattributed_ms`` (the OP spans' own time, glue calls
    with no layer, and vjps of nodes made outside any layer) closes the sum.
    """
    spans = tracer.spans
    own = self_times(spans)
    in_op = [False] * len(spans)
    fwd = {name: 0.0 for name in LAYERS}
    bwd = {name: 0.0 for name in LAYERS}
    calls = {name: 0.0 for name in CALLS}
    backward_total = unattributed = op_total = 0.0
    n_ops = 0
    chunks = []
    for i, (name, start, end, parent, tag, _) in enumerate(spans):
        in_op[i] = name == OP or (parent >= 0 and in_op[parent])
        if not in_op[i]:
            continue
        if name == OP:
            n_ops += 1
            op_total += end - start
            unattributed += own[i]
        elif name == VJP:
            if tag is None:
                unattributed += own[i]
            else:
                bwd[tag] += own[i]
        elif name in LAYERS:
            fwd[name] += own[i]
        else:
            calls[name] += own[i]
            if name == "autodiff.backward":
                backward_total += end - start
            elif name == "harness.pair_distances" and \
                    spans[parent][0] == "harness.eval_distances":
                chunks.append(end - start)
    unattributed += (calls["harness.pair_distances"]
                     + calls["harness.eval_distances"])
    per = 1000.0 / n_ops if n_ops else 0.0
    out = {}
    for name in LAYERS:
        out[f"{name}.fwd_ms"] = fwd[name] * per
        out[f"{name}.bwd_ms"] = bwd[name] * per
    tape = tracer.nodes
    for name in ("capsules.primary", "capsules.routing"):
        nodes, nbytes = tape.get(name, (0, 0))
        out[f"{name}.tape_nodes"] = nodes // n_ops if n_ops else 0
        out[f"{name}.tape_bytes"] = nbytes // n_ops if n_ops else 0
    out["autodiff.backward_ms"] = backward_total * per
    out["autodiff.backward_self_ms"] = calls["autodiff.backward"] * per
    out["autodiff.tape_nodes"] = (sum(c[0] for c in tape.values()) // n_ops
                                  if n_ops else 0)
    out["autodiff.tape_bytes"] = (sum(c[1] for c in tape.values()) // n_ops
                                  if n_ops else 0)
    out["optim.amsgrad_ms"] = calls["optim.amsgrad"] * per
    out["harness.eval_chunk_ms.p50"] = (statistics.median(chunks) * 1000.0
                                        if chunks else 0.0)
    out["trace.op_ms"] = op_total * per
    out["trace.unattributed_ms"] = unattributed * per
    return out


def setup_table(tracer: Tracer) -> dict:
    """Medians over set-ups of the spans outside any OP span."""
    by_name: dict = {}
    in_op = [False] * len(tracer.spans)
    for i, (name, start, end, parent, _, count) in enumerate(tracer.spans):
        in_op[i] = name == OP or (parent >= 0 and in_op[parent])
        if not in_op[i]:
            by_name.setdefault(name, []).append((end - start, count))

    def med(name, field):
        rows = by_name.get(name)
        if not rows:
            return 0
        return statistics.median(r[field] for r in rows)

    return {
        "data.load_att_ms": med("data.load_att", 0) * 1000.0,
        "data.images": med("data.load_att", 1),
        "checkpoint.save_ms": med("checkpoint.save", 0) * 1000.0,
        "checkpoint.restore_ms": med("checkpoint.restore", 0) * 1000.0,
        "checkpoint.bytes": med("checkpoint.save", 1),
    }
