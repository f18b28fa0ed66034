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


def _run(script: str):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.skipif(not GLIBC, reason="the policy applies to glibc only")
def test_steady_state_train_step_takes_no_page_faults():
    # Without the policy these 16 steps fault in 9,000 to 13,000 pages, up
    # to 3,600 in one step.  With it a step takes 0 faults, or 1 or 2: CPython
    # maps its small-object arenas itself, outside malloc, and maps one
    # again now and then.  The bound leaves room for those and for one late
    # growth of the heap, a few hundred pages.
    faults = ast.literal_eval(_run(STEPS).stdout.strip())
    assert len(faults) == 16
    assert sum(faults) < 400, faults


# Prints the number of malloc arenas after a second thread has allocated.
ARENAS = """
import ctypes, threading
import numpy as np
import siamcaps

def work():
    return [np.ones(1 << 16) for _ in range(4)]

t = threading.Thread(target=work)
t.start()
t.join()
ctypes.CDLL(None).malloc_stats()  # one "Arena <k>:" line per arena, on stderr
"""

# Repeated graph-free passes of a capsule layer whose 32 samples split into
# 8 groups of 4 (4 MiB of u_hat each) over the layer's worker threads;
# prints ru_maxrss in KiB after each pass.
PASSES = """
import resource
import numpy as np
from siamcaps import capsules as caps
from siamcaps.autodiff import Tensor

caps.WORKERS, caps.LAYER_BYTES = 2, 8 << 20
p = caps.CapsuleLayerParams(512, 16, 8, 16, seed=5)
poses = Tensor(np.random.default_rng(5).uniform(-1, 1, (32, 512, 8)))
rss = []
for _ in range(12):
    caps.capsule_layer_forward(poses, p, 3)
    rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(rss)
"""


@pytest.mark.skipif(not GLIBC, reason="the policy applies to glibc only")
def test_glibc_accepts_every_setting():
    # no mmap, no trim and one arena; without the arena setting the second
    # thread allocates from an arena of its own
    assert _heap.keep_freed_memory()
    stats = _run(ARENAS).stderr
    assert [line for line in stats.splitlines()
            if line.startswith("Arena ")] == ["Arena 0:"], stats


@pytest.mark.skipif(not GLIBC, reason="the policy applies to glibc only")
def test_repeated_threaded_layer_passes_keep_peak_rss():
    # After the first pass the heap holds what a pass needs, so later passes
    # reuse it.  The slack, 1 MiB, is a quarter of one group's u_hat, so
    # memory that each pass leaves behind (a group's u_hat, or the pass's
    # routing states, 8 MiB) would exceed it.  Both
    # with one arena and with one per thread, the later passes read 0 to
    # 256 KiB here, but one arena per thread read 1.5 MiB in one run of 5.
    rss = ast.literal_eval(_run(PASSES).stdout.strip())
    assert len(rss) == 12
    assert max(rss) - rss[0] <= 1024, rss


def test_other_libc_makes_no_mallopt_call(monkeypatch):
    def no_libc_lookup(*args, **kwargs):
        raise AssertionError("looked up libc on a non-glibc platform")

    monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("", ""))
    monkeypatch.setattr(ctypes, "CDLL", no_libc_lookup)
    assert _heap.keep_freed_memory() is False
