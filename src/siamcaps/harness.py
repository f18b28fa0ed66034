"""Training/evaluation harness: run configuration, the training loop with
per-epoch metrics, evaluation histograms, margin grid search, and
deterministic SVG loss-curve plots.

The verification protocol is written once and shared by training and
evaluation:
- ``train_pairs`` draws epoch ``e``'s training pairs, ``validation_pairs``
  the run's fixed, label-balanced validation pairs of training subjects,
  and ``verify_pairs`` the test pairs, each from its own derived seed;
- ``score`` fits the decision threshold on the validation pairs and
  scores the test pairs.  The epoch loop and ``evaluate`` both pass it the
  same validation pairs, so ``eval`` of a run's last checkpoint reproduces
  its last metrics row.

``RunConfig`` is the config schema: ``coerce_value`` parses a field by its
declared type.  Every artifact goes through ``write_lines`` and is a pure
function of (config, seed) except the wall_ms column of metrics.csv.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import time
from typing import Callable, Optional, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .capsules import ACTIVATIONS
from .checkpoint import restore_checkpoint, save_checkpoint
from .data import (FaceDataset, SplitSpec, kfold, load_att, load_lfw,
                   sample_pairs, split_subjects, synth_dataset)
from .models import (METRICS, NORMALIZE_AT, ScnEncoder, StandardEncoder,
                     contrastive_loss, double_margin_loss, distance,
                     predict_match, sweep_threshold, valid_margin)
# no step here calls amsgrad_step; it stays importable by this module's
# name, where bench/spans.py times it
from .optim import (OptimState, amsgrad_step, amsgrad_update, check_layout,
                    step_rate)
from .rng import SplitMix64, derive_seed

MODELS = ("scn", "sdropcapnet", "standard")
DATASETS = ("att", "synthetic", "lfw")
LOSSES = ("contrastive", "double_margin")
METRICS_HEADER = "epoch,train_loss,test_loss,test_accuracy,wall_ms"
GRID_MARGINS = (0.2, 0.5, 1.0, 2.0)


@dataclasses.dataclass
class RunConfig:
    """Everything a run needs; unset margins/iterations follow the dataset."""

    model: str = "scn"
    dataset: str = "synthetic"
    loss: str = "contrastive"
    metric: str = "euclidean_sq"
    m: Optional[float] = None            # contrastive margin
    m_n: float = 0.2                     # double-margin matching margin
    m_p: float = 0.5                     # double-margin separating margin
    routing_iters: Optional[int] = None
    epochs: int = 100
    batch_size: int = 16
    alpha: float = 0.001
    seed: int = 0
    holdout: int = 5
    kfold_k: int = 0
    output_dir: str = "runs/latest"
    data_dir: str = ""                   # falls back to $SCN_DATA_DIR
    pairs_per_epoch: int = 2000
    eval_pairs: int = 500
    conv_channels: int = 256
    primary_types: int = 32
    primary_d: int = 8
    face_caps: int = 32
    face_d: int = 16
    embed_dim: int = 20
    input_size: int = 100
    activation: str = "tanh"
    normalize_at: str = "embedding"
    flat_lr: bool = False
    fixed_pairs: bool = False            # reuse epoch-1 pairs every epoch
    stop_below: float = 0.0              # early-stop when train loss < this
    synth_subjects: int = 12
    synth_per_subject: int = 6
    max_subjects: int = 0                # cap for the lfw loader (0 = all)

    def finalize(self) -> "RunConfig":
        """Resolve dataset-dependent defaults into concrete values."""
        out = dataclasses.replace(self)
        if out.m is None:
            out.m = 0.2 if out.dataset == "lfw" else 2.0
        if out.routing_iters is None:
            out.routing_iters = 6 if out.dataset == "lfw" else 4
        return out

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, "
                             f"got {self.model!r}")
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {DATASETS}, "
                             f"got {self.dataset!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, "
                             f"got {self.loss!r}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, "
                             f"got {self.metric!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, "
                             f"got {self.activation!r}")
        if self.normalize_at not in NORMALIZE_AT:
            raise ValueError(f"normalize_at must be one of {NORMALIZE_AT}, "
                             f"got {self.normalize_at!r}")
        if self.m is None or self.routing_iters is None:
            raise ValueError("config not finalized: margin/routing unset")
        if not valid_margin(self.m, self.metric):
            raise ValueError(f"margin {self.m} invalid for {self.metric}")
        if not 0.0 < self.m_n < self.m_p:
            raise ValueError(f"need 0 < m_n < m_p, got {self.m_n}, {self.m_p}")
        for name in ("routing_iters", "epochs", "batch_size",
                     "pairs_per_epoch", "eval_pairs", "input_size",
                     "conv_channels", "primary_types", "primary_d",
                     "face_caps", "face_d", "embed_dim", "synth_subjects",
                     "synth_per_subject"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.holdout < 0:
            raise ValueError("holdout must be >= 0")
        if self.kfold_k != 0 and self.kfold_k < 2:
            raise ValueError("kfold_k must be 0 or >= 2")
        if self.max_subjects < 0:
            raise ValueError("max_subjects must be >= 0")
        if self.stop_below < 0.0:
            raise ValueError("stop_below must be >= 0")


# field name -> bool, int, float or str; an Optional[X] field parses as X
_FIELD_TYPES = {f.name: {"bool": bool, "int": int, "float": float, "str": str}[
                    f.type.removeprefix("Optional[").removesuffix("]")]
                for f in dataclasses.fields(RunConfig)}


def coerce_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    if kind is str:
        return raw
    if kind is bool:
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"bad boolean for {key!r}: {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        what = "number" if kind is float else "integer"
        raise ValueError(f"bad {what} for {key!r}: {raw!r}") from None


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = line.partition("=")
            out[key.strip()] = coerce_value(key.strip(), raw)
    return out


def make_config(file_path: Optional[str] = None,
                overrides: Optional[dict] = None) -> RunConfig:
    """Defaults, then config file, then explicit overrides (CLI flags)."""
    values: dict = {}
    if file_path:
        values.update(parse_config_file(file_path))
    for key, val in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = val
    return dataclasses.replace(RunConfig(), **values)


def write_lines(path: str, lines) -> None:
    """Write one artifact file, each line newline-terminated (no CRLF)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))


def echo_config(cfg: RunConfig, path: str) -> None:
    """Every field but output_dir, which names the host's directory and
    not the run, so a run's config.txt reads the same wherever it ran."""
    write_lines(path, (f"{f.name} = {getattr(cfg, f.name)}"
                       for f in dataclasses.fields(RunConfig)
                       if f.name != "output_dir"))


# ---------------------------------------------------------------------------
# dataset resolution

def resolve_data_dir(cfg: RunConfig) -> str:
    root = cfg.data_dir or os.environ.get("SCN_DATA_DIR", "")
    if not root:
        raise FileNotFoundError(
            "dataset root not set: pass data_dir or set SCN_DATA_DIR")
    sub = os.path.join(root, cfg.dataset)
    return sub if os.path.isdir(sub) else root


def load_dataset(cfg: RunConfig) -> FaceDataset:
    if cfg.dataset == "synthetic":
        return synth_dataset(cfg.synth_subjects, cfg.synth_per_subject,
                             derive_seed(cfg.seed, 41), size=cfg.input_size)
    root = resolve_data_dir(cfg)
    if cfg.dataset == "att":
        return load_att(root, target=cfg.input_size)
    return load_lfw(root, target=cfg.input_size,
                    max_subjects=cfg.max_subjects or None)


def make_split(ds: FaceDataset, cfg: RunConfig) -> SplitSpec:
    if cfg.holdout > 0:
        return split_subjects(ds, cfg.holdout, cfg.seed)
    # no holdout: test on train
    return SplitSpec(ds.subjects(), ds.subjects())


def build_run_encoder(cfg: RunConfig):
    """The run's encoder: cfg.model names it, cfg's widths shape it."""
    seed = derive_seed(cfg.seed, 1)
    if cfg.model == "standard":
        return StandardEncoder(seed, embed_dim=cfg.embed_dim,
                               input_size=cfg.input_size)
    return ScnEncoder(seed, mode=cfg.model, conv_channels=cfg.conv_channels,
                      primary_types=cfg.primary_types,
                      primary_d=cfg.primary_d, face_caps=cfg.face_caps,
                      face_d=cfg.face_d, embed_dim=cfg.embed_dim,
                      routing_iters=cfg.routing_iters,
                      activation=cfg.activation, input_size=cfg.input_size,
                      normalize_at=cfg.normalize_at)


# ---------------------------------------------------------------------------
# forward/loss helpers

def _loss_of(d: Tensor, labels, cfg: RunConfig) -> Tensor:
    if cfg.loss == "contrastive":
        return contrastive_loss(d, labels, cfg.m)
    return double_margin_loss(d, labels, cfg.m_n, cfg.m_p)


def pair_distances(encoder, batch, cfg: RunConfig, training: bool,
                   rng: Optional[SplitMix64] = None) -> Tensor:
    """Tied-weight distances: both sides share one encoder pass."""
    b = len(batch)
    stacked = Tensor(np.concatenate([batch.left.data, batch.right.data]))
    emb = encoder.encode(stacked, training, rng)
    e1 = ad.slice_(emb, (slice(0, b),))
    e2 = ad.slice_(emb, (slice(b, 2 * b),))
    return distance(e1, e2, cfg.metric)


def eval_distances(encoder, pairs, cfg: RunConfig, chunk: int = 16):
    """Graph-free eval-mode distances over a pair set -> (D, labels).

    No tape is recorded, so at full size the primary capsules'
    convolution takes the Winograd forward (see layers): its distances
    differ from a taped pass's, which convolves by im2col, in the last bits
    (5e-15 on two full-size pairs; the tests allow 1e-10), and a different
    chunk changes its blocking likewise.  Every desk-scale convolution
    stays on im2col and is bitwise.

    chunk bounds the transient buffers of one encoder pass: a chunk of
    pairs runs 2*chunk images through the network at once.  At full size
    the largest buffers no longer grow with it: the primary convolution's
    Winograd forward works within layers.WINOGRAD_BYTES (64 MiB), and the
    capsule layer transforms and routes groups of 2 images on each of its
    two worker threads, whose u_hat together fits capsules.LAYER_BYTES
    (32 MiB), where the default 32 images' u_hat would be 268 MB.
    Routing reads u_hat one sample at a time there (see
    capsules.ROUTE_BYTES), so the chunk does not set routing's cache
    footprint either.  A chunk holds an even number of images, so no
    group holds just one, and the distances do not depend on the number
    of workers.
    """
    parts = []
    for lo in range(0, len(pairs), chunk):
        batch = pairs.slice(lo, min(lo + chunk, len(pairs)))
        parts.append(pair_distances(encoder, batch, cfg,
                                    training=False).data)
    return np.concatenate(parts), pairs.labels


def eval_loss_value(d: np.ndarray, labels: np.ndarray,
                    cfg: RunConfig) -> float:
    return _loss_of(Tensor(d), labels, cfg).item()


def _train_step(encoder, state, batch, cfg: RunConfig,
                rng: SplitMix64) -> float:
    """One AMSGrad step on a batch of pairs; returns its loss.

    Each parameter is updated as soon as backward has finished its
    gradient (optim.amsgrad_update), and that gradient is dropped then, so
    the step never holds the whole gradient set.  Layouts are checked and
    a non-finite loss refused before backward, so neither moves a weight,
    a moment, t or a batchnorm buffer.
    """
    # AMSGrad's moments (330 MB at full size) outlive every step, so a
    # fresh state's are made before its first forward: in the heap they
    # then lie below every step's transients, rather than above the first
    # step's freed ones with a hole below them that a later step's largest
    # buffer may miss by a few MB
    params = encoder.named_parameters()
    for name, p in params:
        state.ensure(name, p.data.shape)
        check_layout(name, p, state)
    names = {id(p): name for name, p in params}
    buffers = [(b, b.copy()) for _, b in encoder.named_buffers()]
    with ad.Graph():
        d = pair_distances(encoder, batch, cfg, training=True, rng=rng)
        loss = _loss_of(d, batch.labels, cfg)
        value = loss.item()
        if not np.isfinite(value):
            for b, before in buffers:  # the forward updated running stats
                np.copyto(b, before)
            raise FloatingPointError(
                f"non-finite training loss {value!r}; weights and optimizer "
                f"state left unchanged")
        state.t += 1
        alpha_t = step_rate(cfg.alpha, state.t, cfg.flat_lr)
        ad.backward(loss, lambda p, g: amsgrad_update(names[id(p)], p, g,
                                                       state, alpha_t))
    encoder.clamp_dropout_p()
    return value


# ---------------------------------------------------------------------------
# verification protocol: which pairs, and how they are scored

def train_pairs(ds: FaceDataset, split: SplitSpec, cfg: RunConfig,
                epoch: int):
    """Epoch ``epoch``'s pairs of train subjects; half of them match."""
    return sample_pairs(ds, sorted(split.train_subjects),
                        cfg.pairs_per_epoch, 0.5,
                        derive_seed(cfg.seed, 100, epoch))


def validation_pairs(ds: FaceDataset, split: SplitSpec, cfg: RunConfig):
    """The run's fixed threshold-fitting pairs of train subjects, a tenth as
    many as an epoch's but at least 2; half of them match, so both labels
    are always present."""
    return sample_pairs(ds, sorted(split.train_subjects),
                        max(2, cfg.pairs_per_epoch // 10), 0.5,
                        derive_seed(cfg.seed, 300))


def verify_pairs(ds: FaceDataset, split: SplitSpec, cfg: RunConfig):
    """The run's fixed pairs of test subjects; half of them match."""
    return sample_pairs(ds, sorted(split.test_subjects), cfg.eval_pairs,
                        0.5, derive_seed(cfg.seed, 200))


@dataclasses.dataclass
class EvalResult:
    loss: float                 # on the test pairs
    val_loss: float             # on the validation pairs
    accuracy: float
    threshold: float
    bin_edges: np.ndarray
    match_counts: np.ndarray
    nonmatch_counts: np.ndarray


def density_histogram(d: np.ndarray, labels: np.ndarray):
    """Separate match/non-match histograms in 50 bins over a shared
    range."""
    lo, hi = float(d.min()), float(d.max())
    if hi <= lo:
        hi = lo + 1e-12
    edges = np.linspace(lo, hi, 51)
    match_counts, _ = np.histogram(d[labels == 0], bins=edges)
    nonmatch_counts, _ = np.histogram(d[labels == 1], bins=edges)
    return edges, match_counts, nonmatch_counts


def score(encoder, val_pairs, test_pairs, cfg: RunConfig) -> EvalResult:
    """Fit the threshold on val_pairs, score test_pairs; the loss on each
    pair set."""
    d_val, y_val = eval_distances(encoder, val_pairs, cfg)
    threshold, _ = sweep_threshold(d_val, y_val)
    d_test, y_test = eval_distances(encoder, test_pairs, cfg)
    pred = predict_match(d_test, threshold)
    return EvalResult(eval_loss_value(d_test, y_test, cfg),
                      eval_loss_value(d_val, y_val, cfg),
                      float((pred == (y_test == 0)).mean()), threshold,
                      *density_histogram(d_test, y_test))


# ---------------------------------------------------------------------------
# training runs

@dataclasses.dataclass
class TrainResult:
    run_dir: str
    rows: list                  # per-epoch metric dicts
    threshold: float
    encoder: object
    optim_state: OptimState
    audit: dict

    @property
    def final_train_loss(self) -> float:
        return self.rows[-1]["train_loss"]

    @property
    def final_test_loss(self) -> float:
        return self.rows[-1]["test_loss"]

    @property
    def final_test_accuracy(self) -> float:
        return self.rows[-1]["test_accuracy"]


def _pair_subject_set(ds: FaceDataset, pairs) -> set:
    ids = set()
    for i, j in pairs.index_pairs:
        ids.add(ds.images[i][0])
        ids.add(ds.images[j][0])
    return ids


@dataclasses.dataclass
class KFoldResult:
    """A k-fold run: its folds, and the means of their last rows that
    summary.csv reports in its mean row."""
    run_dir: str
    folds: list                 # per-fold TrainResults
    final_train_loss: float
    final_test_loss: float
    final_test_accuracy: float


# called after each epoch with its metrics row plus val_loss and pairs_per_s
# (training pairs per second of the epoch's wall time), and, in a k-fold
# run, the fold
EpochHook = Optional[Callable[[dict], None]]


def _train_single(cfg: RunConfig, ds: FaceDataset, split: SplitSpec,
                  run_dir: str, on_epoch: EpochHook = None) -> TrainResult:
    # an input size too small for the encoder fails before the run
    # directory exists
    encoder = build_run_encoder(cfg)
    os.makedirs(run_dir, exist_ok=True)
    echo_config(cfg, os.path.join(run_dir, "config.txt"))

    state = OptimState()
    val_pairs = validation_pairs(ds, split, cfg)
    test_pairs = verify_pairs(ds, split, cfg)

    rows = []
    best_val = np.inf
    train_pair_subjects: set = set()
    fixed = train_pairs(ds, split, cfg, 1) if cfg.fixed_pairs else None
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.monotonic()
        pairs = (fixed if cfg.fixed_pairs
                 else train_pairs(ds, split, cfg, epoch))
        train_pair_subjects |= _pair_subject_set(ds, pairs)

        loss_sum, n_seen = 0.0, 0
        for lo in range(0, len(pairs), cfg.batch_size):
            batch = pairs.slice(lo, min(lo + cfg.batch_size, len(pairs)))
            rng = SplitMix64(derive_seed(cfg.seed, 500, epoch, lo))
            val = _train_step(encoder, state, batch, cfg, rng)
            loss_sum += val * len(batch)
            n_seen += len(batch)
        train_loss = loss_sum / n_seen
        res = score(encoder, val_pairs, test_pairs, cfg)

        wall_s = time.monotonic() - t0
        rows.append(dict(epoch=epoch, train_loss=train_loss,
                         test_loss=res.loss, test_accuracy=res.accuracy,
                         wall_ms=int(round(wall_s * 1000.0))))
        if on_epoch is not None:
            on_epoch(dict(rows[-1], val_loss=res.val_loss,
                          pairs_per_s=n_seen / max(wall_s, 1e-9)))
        if res.val_loss < best_val:
            best_val = res.val_loss
            save_checkpoint(encoder, state,
                            os.path.join(run_dir, "best.ckpt"))
        if cfg.stop_below > 0.0 and train_loss < cfg.stop_below:
            break

    save_checkpoint(encoder, state, os.path.join(run_dir, "final.ckpt"))
    write_lines(os.path.join(run_dir, "metrics.csv"), [METRICS_HEADER] + [
        f"{r['epoch']},{r['train_loss']!r},{r['test_loss']!r},"
        f"{r['test_accuracy']!r},{r['wall_ms']}" for r in rows])

    test_pair_subjects = _pair_subject_set(ds, test_pairs)
    disjoint = not (train_pair_subjects & test_pair_subjects)
    audit = dict(train_subjects=sorted(split.train_subjects),
                 test_subjects=sorted(split.test_subjects),
                 train_pair_subjects=sorted(train_pair_subjects),
                 test_pair_subjects=sorted(test_pair_subjects),
                 zero_shot_disjoint=disjoint)
    write_lines(os.path.join(run_dir, "audit.txt"), (
        f"{key}: {' '.join(str(s) for s in val)}" if isinstance(val, list)
        else f"{key}: {str(val).lower()}" for key, val in audit.items()))
    return TrainResult(run_dir, rows, res.threshold, encoder, state, audit)


def train_run(cfg: RunConfig, on_epoch: EpochHook = None
              ) -> Union[TrainResult, KFoldResult]:
    """Train one model; with kfold_k >= 2, train one model per fold and
    return the folds' means.  on_epoch, if given, sees every epoch."""
    cfg = cfg.finalize()
    cfg.validate()
    ds = load_dataset(cfg)  # missing data fails before model construction
    if cfg.kfold_k >= 2:
        return _train_kfold(cfg, ds, on_epoch)
    split = make_split(ds, cfg)
    return _train_single(cfg, ds, split, cfg.output_dir, on_epoch)


def _train_kfold(cfg: RunConfig, ds: FaceDataset,
                 on_epoch: EpochHook) -> KFoldResult:
    def fold_hook(i):
        return None if on_epoch is None else (
            lambda row: on_epoch(dict(row, fold=i)))

    results = [_train_single(cfg, ds, split,
                             os.path.join(cfg.output_dir, f"fold{i}"),
                             fold_hook(i))
               for i, split in enumerate(kfold(ds, cfg.kfold_k, cfg.seed))]
    losses = [r.final_test_loss for r in results]
    accs = [r.final_test_accuracy for r in results]
    # fold rows, then their mean, population std, minimum and maximum
    write_lines(os.path.join(cfg.output_dir, "summary.csv"),
                ["fold,test_loss,test_accuracy"]
                + [f"{i},{loss!r},{acc!r}"
                   for i, (loss, acc) in enumerate(zip(losses, accs))]
                + [f"{name},{float(fn(losses))!r},{float(fn(accs))!r}"
                   for name, fn in (("mean", np.mean), ("std", np.std),
                                    ("min", min), ("max", max))])
    return KFoldResult(cfg.output_dir, results,
                       float(np.mean([r.final_train_loss for r in results])),
                       float(np.mean(losses)), float(np.mean(accs)))


# ---------------------------------------------------------------------------
# evaluation

def evaluate(encoder, ds: FaceDataset, split: SplitSpec,
             cfg: RunConfig) -> EvalResult:
    """Score on the test pairs, validating on the run's validation pairs."""
    return score(encoder, validation_pairs(ds, split, cfg),
                 verify_pairs(ds, split, cfg), cfg)


def eval_run(checkpoint_path: str, cfg: RunConfig) -> EvalResult:
    cfg = cfg.finalize()
    cfg.validate()
    ds = load_dataset(cfg)
    split = make_split(ds, cfg)
    encoder = build_run_encoder(cfg)
    restore_checkpoint(encoder, None, checkpoint_path)
    res = evaluate(encoder, ds, split, cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_lines(os.path.join(cfg.output_dir, "eval.csv"), [
        "loss,accuracy,threshold",
        f"{res.loss!r},{res.accuracy!r},{res.threshold!r}"])
    edges = res.bin_edges
    write_lines(os.path.join(cfg.output_dir, "density.csv"), [
        "bin_lo,bin_hi,match_count,nonmatch_count"] + [
        f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(mc)},{int(nc)}"
        for i, (mc, nc) in enumerate(zip(res.match_counts,
                                         res.nonmatch_counts))])
    return res


# ---------------------------------------------------------------------------
# margin grid search

def grid_combos() -> list:
    return [(m, metric) for m in GRID_MARGINS for metric in METRICS
            if valid_margin(m, metric)]


def gridsearch_run(cfg: RunConfig) -> list:
    """Contrastive margin sweep over {0.2,0.5,1.0,2.0} x metrics."""
    cfg = cfg.finalize()
    cfg.validate()
    rows = []
    for m, metric in grid_combos():
        sub = os.path.join(cfg.output_dir,
                           f"gs_m{m:g}_{metric}".replace(".", "p"))
        sub_cfg = dataclasses.replace(cfg, loss="contrastive", m=m,
                                      metric=metric, output_dir=sub)
        res = train_run(sub_cfg)  # with kfold_k >= 2, the fold means
        rows.append(dict(margin=m, metric=metric,
                         train_loss=res.final_train_loss,
                         test_loss=res.final_test_loss,
                         test_accuracy=res.final_test_accuracy))
    write_lines(os.path.join(cfg.output_dir, "gridsearch.csv"), [
        "margin,metric,train_loss,test_loss,test_accuracy"] + [
        f"{r['margin']:g},{r['metric']},{r['train_loss']!r},"
        f"{r['test_loss']!r},{r['test_accuracy']!r}" for r in rows])
    return rows


# ---------------------------------------------------------------------------
# loss-curve SVG

def read_metrics(path: str) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(header) != METRICS_HEADER:
            raise ValueError(f"bad metrics header in {path!r}")
        rows = [dict(epoch=int(r[0]), train_loss=float(r[1]),
                     test_loss=float(r[2]), test_accuracy=float(r[3]),
                     wall_ms=int(r[4])) for r in reader if r]
    return rows


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def emit_plot(metrics_path: str, out_path: str) -> None:
    """Deterministic SVG of train/test loss vs epoch (no timestamps)."""
    rows = read_metrics(metrics_path)
    if not rows:
        raise ValueError(f"empty metrics file {metrics_path!r}")
    epochs = [r["epoch"] for r in rows]
    series = [("train", "#1f77b4", [r["train_loss"] for r in rows]),
              ("test", "#d62728", [r["test_loss"] for r in rows])]
    w, h, ml, mr, mt, mb = 640, 400, 64, 16, 16, 48
    x0, x1 = min(epochs), max(epochs)
    ys = [v for _, _, vals in series for v in vals]
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 1, x1 + 1
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def sx(e):
        return ml + (e - x0) / (x1 - x0) * (w - ml - mr)

    def sy(v):
        return mt + (1.0 - (v - y0) / (y1 - y0)) * (h - mt - mb)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
             f'height="{h}" viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" '
             f'stroke="black"/>',
             f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" '
             f'stroke="black"/>']
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4.0
        fy = y0 + (y1 - y0) * i / 4.0
        parts.append(f'<text x="{_fmt(sx(fx))}" y="{h - mb + 16}" '
                     f'font-size="11" text-anchor="middle">'
                     f'{_fmt(fx)}</text>')
        parts.append(f'<text x="{ml - 6}" y="{_fmt(sy(fy) + 4)}" '
                     f'font-size="11" text-anchor="end">{_fmt(fy)}</text>')
    parts.append(f'<text x="{(ml + w - mr) / 2:.6g}" y="{h - 10}" '
                 f'font-size="13" text-anchor="middle">epoch</text>')
    parts.append(f'<text x="14" y="{(mt + h - mb) / 2:.6g}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 14 '
                 f'{(mt + h - mb) / 2:.6g})">loss</text>')
    for li, (label, color, vals) in enumerate(series):
        pts = " ".join(f"{_fmt(sx(e))},{_fmt(sy(v))}"
                       for e, v in zip(epochs, vals))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        if len(rows) <= 50:
            for e, v in zip(epochs, vals):
                parts.append(f'<circle cx="{_fmt(sx(e))}" '
                             f'cy="{_fmt(sy(v))}" r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{w - mr - 8}" y="{mt + 16 + 16 * li}" '
                     f'font-size="12" text-anchor="end" fill="{color}">'
                     f'{label}</text>')
    parts.append("</svg>")
    write_lines(out_path, parts)
