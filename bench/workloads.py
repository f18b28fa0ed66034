"""Workloads, measurement and output checks of the siamcaps benchmark.

Each workload is a closed loop in one process: the next train step or eval
pass starts when the previous one has returned.  A run generates its inputs
from the seed, sets the workload up several times (``setup_s`` is the
median), warms up untimed, then measures for the given seconds.  Every timed
operation's output is checked against a reference (the first timed train
episode, or the warm-up eval pass); a failed check, an exception or a
non-finite value is a failed operation.

Every run times at least ``min_ops`` operations, even past the deadline, and
reads ``peak_rss_mb`` right after them, so that metric covers a fixed amount
of work however many operations the seconds fit.

With tracing on, the timed seconds are split in two: an untraced half and a
traced half, so the tracing overhead is measured inside the run.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import platform
import resource
import statistics
import time
import traceback

import numpy as np

from siamcaps import checkpoint, data, harness
from siamcaps.autodiff import Tensor

import inputs
import spans

EVAL_TOL = 1e-10      # chunked vs per-pair eval distances
# The weights are part of a workload, like its size: the seed varies the
# inputs (faces and pairs) and not the model, so loss_mean moves with the
# inputs alone and stays steady across seeds.
MODEL_SEED = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "train" or "eval"
    model: dict             # RunConfig fields that shape the encoder
    pairs_per_op: int       # pairs per train step, or per eval pass
    episode_ops: int        # train steps before the model is reset
    min_ops: int            # timed ops per phase; peak_rss_mb is read then
    setups: int             # set-ups per run; setup_s is their median
    min_free_mb: int        # measured peak RSS; refuse to start below it
    # Full size only.  Tapes are cyclic garbage that the program leaves to
    # the collector, and at full size the collector does not run in time:
    # RSS grows by about 720 MB per step and passes 6 GB within 8 steps.
    # So each episode's first step starts with gc.collect(), inside the
    # timed step.  Desk runs never collect, so the lag shows in full there.
    collect_per_episode: bool = False

    def __post_init__(self):
        # the reference episode must fit in the ops every run times
        assert self.kind == "eval" or self.min_ops >= self.episode_ops


# Desk scale is the criterion-8 SCN config; full is the paper's model
# (13,729,044 parameters), which is RunConfig's default.
DESK = dict(conv_channels=32, primary_types=8, primary_d=8, face_caps=16,
            face_d=8, routing_iters=2, input_size=64)
FULL = dict(routing_iters=4)

WORKLOADS = {
    "desk_train": Workload("desk_train", "train", DESK, pairs_per_op=8,
                           episode_ops=4, min_ops=100, setups=9,
                           min_free_mb=800),
    "full_train": Workload("full_train", "train", FULL, pairs_per_op=4,
                           episode_ops=4, min_ops=4, setups=5,
                           min_free_mb=5300, collect_per_episode=True),
    "full_eval": Workload("full_eval", "eval", FULL, pairs_per_op=16,
                          episode_ops=1, min_ops=3, setups=3,
                          min_free_mb=1100),
}

END_TO_END_UNITS = {
    "setup_s": "s", "pairs_per_s": "pairs/s", "step_ms.p50": "ms",
    "step_ms.p90": "ms", "peak_rss_mb": "MB", "loss_mean": "loss",
}


class MemoryShortage(RuntimeError):
    pass


# -- environment -------------------------------------------------------------

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return dict(
        numpy=np.__version__, blas=blas_name,
        blas_threads=os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        mem_total_mb=os.sysconf("SC_PAGE_SIZE")
        * os.sysconf("SC_PHYS_PAGES") // 2 ** 20)


def available_mb():
    """MemAvailable from /proc/meminfo, or None where there is none."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) // 1024
    except OSError:
        return None
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up ------------------------------------------------------------------

@dataclasses.dataclass
class Setup:
    pairs: data.PairBatch
    encoder: object
    source: object = None   # eval: the encoder the checkpoint was saved from


def pair_batch(ds: data.FaceDataset, ids: list) -> data.PairBatch:
    by_subject = ds.by_subject()

    def image(sid_j):
        sid, j = sid_j
        return ds.images[by_subject[sid][j - 1]][1].data

    left = np.stack([image(a) for a, _, _ in ids])
    right = np.stack([image(b) for _, b, _ in ids])
    labels = np.array([float(y) for _, _, y in ids])
    return data.PairBatch(Tensor(left), Tensor(right), labels)


def _trained_looking_stats(encoder) -> None:
    """Give batchnorm running stats non-default values, so the checkpoint
    round trip and eval-mode normalization both have something to carry."""
    bn = encoder.bn1
    r = np.random.default_rng([MODEL_SEED, 4])
    bn.running_mean = r.normal(0.0, 0.05, bn.channels)
    bn.running_var = r.uniform(0.5, 1.5, bn.channels)


def setup(w: Workload, cfg, root: str, ids: list, ckpt: str) -> Setup:
    ds = data.load_att(root, target=cfg.input_size)
    pairs = pair_batch(ds, ids)
    encoder = harness.build_run_encoder(cfg)
    if w.kind == "train":
        return Setup(pairs, encoder)
    _trained_looking_stats(encoder)
    checkpoint.save_checkpoint(encoder, None, ckpt)
    restored = harness.build_run_encoder(
        dataclasses.replace(cfg, seed=cfg.seed + 1))
    checkpoint.restore_checkpoint(restored, None, ckpt)
    return Setup(pairs, restored, encoder)


def restore_matches(st: Setup) -> bool:
    """Both encoders share one architecture, so their names line up."""
    params = zip(st.source.named_parameters(), st.encoder.named_parameters())
    buffers = zip(st.source.named_buffers(), st.encoder.named_buffers())
    return (all(np.array_equal(a.data, b.data) for (_, a), (_, b) in params)
            and all(np.array_equal(a, b) for (_, a), (_, b) in buffers))


# -- timed loops ---------------------------------------------------------------

@dataclasses.dataclass
class Phase:
    times: list = dataclasses.field(default_factory=list)
    failed: int = 0
    peak_rss_mb: float = 0.0   # read once min_ops ops have been timed


class TrainLoop:
    """Train steps over a fixed pair list.  Every episode_ops steps the
    encoder and optimizer go back to their initial state.  The first timed
    episode is the reference: each later step's loss must equal the
    reference step's loss bitwise."""

    def __init__(self, w: Workload, cfg, st: Setup):
        self.cfg = cfg
        self.collect = w.collect_per_episode
        self.encoder = st.encoder
        self.batches = [st.pairs.slice(k * w.pairs_per_op,
                                       (k + 1) * w.pairs_per_op)
                        for k in range(w.episode_ops)]
        self.initial = [t.data.copy()
                        for _, t in self.encoder.named_parameters()]
        self.initial_buffers = [b.copy()
                                for _, b in self.encoder.named_buffers()]
        self.k = 0
        self.state = None
        self.reference = []

    def reset(self) -> None:
        for (_, t), init in zip(self.encoder.named_parameters(), self.initial):
            np.copyto(t.data, init)
        for (_, b), init in zip(self.encoder.named_buffers(),
                                self.initial_buffers):
            np.copyto(b, init)
        self.state = harness.OptimState()
        self.k = 0

    def step(self, batch) -> float:
        # no dropout in either config, so the step draws nothing from rng
        return harness._train_step(self.encoder, self.state, batch,
                                   self.cfg, None)

    def warm_up(self) -> None:
        self.reset()
        self.step(self.batches[0])
        self.reset()

    def pairs_per_op(self) -> int:
        return len(self.batches[0])

    def timed_op(self, tracer) -> tuple:
        """(seconds, failed ops) of one step; the reset of weights and
        optimizer happens outside it, the collection inside it."""
        if self.k == len(self.batches):
            self.reset()
        k = self.k
        self.k += 1
        ok = False
        t0 = time.perf_counter()
        idx = tracer.begin(spans.OP) if tracer else None
        try:
            if self.collect and k == 0:
                gc.collect()
            loss = self.step(self.batches[k])
            if k == len(self.reference):
                self.reference.append(loss)
            ok = math.isfinite(loss) and loss == self.reference[k]
        except Exception:  # a failed op is counted, the loop goes on
            traceback.print_exc()
            self.k = len(self.batches)
        finally:
            if tracer:
                tracer.end(idx)
        return time.perf_counter() - t0, 0 if ok else 1

    def finish(self) -> list:
        return []

    def loss_mean(self) -> float:
        return float(np.mean(self.reference))


class EvalLoop:
    """Graph-free eval passes over a fixed pair set at eval_distances'
    default chunk.  The untimed warm-up pass is the reference: each timed
    pass must reproduce its distances bitwise."""

    def __init__(self, w: Workload, cfg, st: Setup):
        self.cfg = cfg
        self.encoder = st.encoder
        self.pairs = st.pairs
        self.reference = None
        self.labels = None

    def warm_up(self) -> None:
        self.reference, self.labels = harness.eval_distances(
            self.encoder, self.pairs, self.cfg)

    def pairs_per_op(self) -> int:
        return len(self.pairs)

    def timed_op(self, tracer) -> tuple:
        bad = len(self.pairs)
        t0 = time.perf_counter()
        idx = tracer.begin(spans.OP) if tracer else None
        try:
            d, _ = harness.eval_distances(self.encoder, self.pairs, self.cfg)
            bad = int(np.count_nonzero(~np.isfinite(d)
                                       | (d != self.reference)))
        except Exception:  # a failed op is counted, the loop goes on
            traceback.print_exc()
        finally:
            if tracer:
                tracer.end(idx)
        return time.perf_counter() - t0, bad

    def finish(self) -> list:
        """Eval mode normalizes with running stats, so one pair at a time
        must give the chunked distances; returns one line per bad pair."""
        d, _ = harness.eval_distances(self.encoder, self.pairs, self.cfg,
                                      chunk=1)
        gap = np.abs(d - self.reference)
        return [f"check failed: pair {i} per-pair distance is {gap[i]:.3g} "
                f"off the chunked one (tolerance {EVAL_TOL})"
                for i in np.flatnonzero(~(gap <= EVAL_TOL))]

    def loss_mean(self) -> float:
        return harness.eval_loss_value(self.reference, self.labels, self.cfg)


def measure(loop, seconds: float, min_ops: int, tracer=None) -> Phase:
    phase = Phase()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(phase.times) < min_ops):
        dt, bad = loop.timed_op(tracer)
        phase.times.append(dt)
        phase.failed += bad
        if len(phase.times) == min_ops:
            phase.peak_rss_mb = peak_rss_mb()
    return phase


# -- one run -----------------------------------------------------------------

@dataclasses.dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict           # name -> (value, unit)
    notes: list             # human-readable lines printed before the JSON
    tracer: object = None


def p50(times: list) -> float:
    return statistics.median(times)


def p90(times: list) -> float:
    return statistics.quantiles(times, n=10, method="inclusive")[8]


def run_workload(w: Workload, seed: int, seconds: float, traced: bool,
                 work_dir: str) -> Result:
    """One run of workload w; inputs and checkpoints go under work_dir."""
    free = available_mb()
    if free is not None and free < w.min_free_mb:
        raise MemoryShortage(
            f"{w.name} peaks near {w.min_free_mb} MB RSS but only {free} MB "
            f"is available; run it alone on a machine with more free memory")
    root = os.path.join(work_dir, "orl")
    ckpt = os.path.join(work_dir, "model.ckpt")
    inputs.write_orl_tree(root, seed)
    n_pairs = w.pairs_per_op * (w.episode_ops if w.kind == "train" else 1)
    ids = inputs.pair_ids(seed, 1, n_pairs)
    cfg = harness.RunConfig(dataset="att", seed=MODEL_SEED,
                            **w.model).finalize()
    cfg.validate()

    tracer = spans.Tracer() if traced else None
    setup_times = []
    st = None
    if tracer:
        tracer.install()
    try:
        for _ in range(w.setups):
            st = None  # free the previous set-up before building the next
            t0 = time.perf_counter()
            st = setup(w, cfg, root, ids, ckpt)
            setup_times.append(time.perf_counter() - t0)
    finally:
        if tracer:
            tracer.uninstall()

    checks = []
    if st.source is not None:
        if not restore_matches(st):
            checks.append("check failed: restored weights differ from the "
                          "saved encoder")
        st.source = None
    loop = (TrainLoop if w.kind == "train" else EvalLoop)(w, cfg, st)
    loop.warm_up()

    if tracer:
        plain = measure(loop, seconds / 2.0, w.min_ops)
        tracer.nodes.clear()
        tracer.install()
        try:
            timed = measure(loop, seconds / 2.0, w.min_ops, tracer)
        finally:
            tracer.uninstall()
        phases = [plain, timed]
    else:
        timed = measure(loop, seconds, w.min_ops)
        phases = [timed]
    checks += loop.finish()
    if not math.isfinite(loop.loss_mean()):
        checks.append("check failed: the reference loss is not finite")

    per_op = loop.pairs_per_op() if w.kind == "eval" else 1
    attempted = sum(len(p.times) for p in phases) * per_op
    failed = sum(p.failed for p in phases) + len(checks)
    notes = checks + [
        f"failed_op_ratio = {failed / attempted:.6g} ({failed} failed of "
        f"{attempted} attempted "
        f"{'eval pairs' if w.kind == 'eval' else 'train steps'})",
        f"samples: {' + '.join(str(len(p.times)) for p in phases)} timed "
        f"ops of {loop.pairs_per_op()} pairs"
        f"{' (untraced + traced)' if tracer else ''}, {w.setups} set-ups, "
        f"peak RSS read after {w.min_ops} timed ops"]
    n = len(timed.times)
    if n < 100:
        notes.append("p90 has fewer than ten samples beyond it: a "
                     "high-water mark, not a tail")

    if tracer:
        metrics = {k: (v, _layer_unit(k)) for k, v in {
            **spans.layer_table(tracer), **spans.setup_table(tracer),
            "trace.untraced_op_ms": p50(plain.times) * 1000.0,
            "trace.overhead_ms": (p50(timed.times) - p50(plain.times))
            * 1000.0}.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pairs_per_s": loop.pairs_per_op() * n / sum(timed.times),
            "step_ms.p50": p50(timed.times) * 1000.0,
            "step_ms.p90": p90(timed.times) * 1000.0,
            "peak_rss_mb": timed.peak_rss_mb,
            "loss_mean": loop.loss_mean(),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return Result(failed == 0, attempted, failed, metrics, notes, tracer)


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms.p50"):
        return "ms"
    if name.endswith("bytes"):
        return "B"
    return "count"
