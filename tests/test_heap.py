"""The malloc policy set at import: steady-state steps take no page faults."""

import ast
import ctypes
import os
import platform
import subprocess
import sys

import pytest

from siamcaps import _heap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"

# Desk-size train steps (the criterion-8 model, 8 pairs) in a fresh process,
# in 4-step episodes that each start from the initial weights and zeroed
# optimizer moments; prints the minor page faults of each step after a
# 16-step warm-up.  The benchmark's train loop makes a new OptimState per
# episode; here the moments are allocated once and zeroed in place, so the
# count depends on the train step, not on where new moments land in the heap.
STEPS = """
import resource
import numpy as np
from siamcaps import harness as hz
from siamcaps.autodiff import Tensor
from siamcaps.data import PairBatch

cfg = hz.RunConfig(conv_channels=32, primary_types=8, primary_d=8,
                   face_caps=16, face_d=8, routing_iters=2,
                   input_size=64).finalize()
enc = hz.build_run_encoder(cfg)
initial = [p.data.copy() for _, p in enc.named_parameters()]
r = np.random.default_rng(4)
size = (8, 1, cfg.input_size, cfg.input_size)
batch = PairBatch(Tensor(r.uniform(size=size)), Tensor(r.uniform(size=size)),
                  np.array([0.0, 1.0] * 4))
state = hz.OptimState()
faults = []
for k in range(32):
    if k % 4 == 0:
        for (_, p), w in zip(enc.named_parameters(), initial):
            np.copyto(p.data, w)
        for moments in (state.m, state.v, state.v_hat):
            for a in moments.values():
                a.fill(0.0)
        state.t = 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    hz._train_step(enc, state, batch, cfg, None)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[16:])
"""


@pytest.mark.skipif(not GLIBC, reason="the policy applies to glibc only")
def test_steady_state_train_step_takes_no_page_faults():
    # Without the policy these 16 steps fault in 9,000 to 13,000 pages, up
    # to 3,600 in one step.  With it a step takes 0 faults, or 1 or 2: CPython
    # maps its small-object arenas itself, outside malloc, and maps one
    # again now and then.  The bound leaves room for those and for one late
    # growth of the heap, a few hundred pages.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", STEPS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = ast.literal_eval(proc.stdout.strip())
    assert len(faults) == 16
    assert sum(faults) < 400, faults


@pytest.mark.skipif(not GLIBC, reason="the policy applies to glibc only")
def test_glibc_accepts_both_settings():
    assert _heap.keep_freed_memory()


def test_other_libc_makes_no_mallopt_call(monkeypatch):
    def no_libc_lookup(*args, **kwargs):
        raise AssertionError("looked up libc on a non-glibc platform")

    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("", ""))
    monkeypatch.setattr(ctypes, "CDLL", no_libc_lookup)
    assert _heap.keep_freed_memory() is False
