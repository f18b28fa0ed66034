"""Training/evaluation harness: run configuration, the training loop with
per-epoch metrics, threshold selection, evaluation histograms, margin grid
search, and deterministic SVG loss-curve plots.

All emitted files are a pure function of (config, seed) except the wall_ms
column of metrics.csv.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import time
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import restore_checkpoint, save_checkpoint
from .data import (FaceDataset, SplitSpec, kfold, load_att, load_lfw,
                   sample_pairs, split_subjects, synth_dataset)
from .models import (METRICS, build_encoder, contrastive_loss,
                     double_margin_loss, distance, effective_distance,
                     predict_match, sweep_threshold, valid_margin)
from .optim import OptimState, amsgrad_step
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
    pos_ratio: float = 0.5
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
    detach_routing: bool = False
    dropout_rate: float = 0.0
    concrete_t: float = 0.1
    standard_concrete: bool = False
    flat_lr: bool = False
    fixed_pairs: bool = False            # reuse epoch-1 pairs every epoch
    stop_below: float = 0.0              # early-stop when train loss < this
    synth_subjects: int = 12
    synth_per_subject: int = 6
    max_subjects: int = 0                # cap for the lfw loader (0 = all)
    threshold_points: int = 101

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
        if not 0.0 < self.pos_ratio < 1.0:
            raise ValueError(f"pos_ratio must be in (0,1), "
                             f"got {self.pos_ratio}")
        if self.holdout < 0:
            raise ValueError("holdout must be >= 0")
        if self.kfold_k != 0 and self.kfold_k < 2:
            raise ValueError("kfold_k must be 0 or >= 2")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0,1)")
        if self.concrete_t <= 0.0:
            raise ValueError("concrete_t must be positive")
        if self.threshold_points < 2:
            raise ValueError("threshold_points must be >= 2")
        if self.stop_below < 0.0:
            raise ValueError("stop_below must be >= 0")


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_BOOL_FIELDS = {f.name for f in dataclasses.fields(RunConfig)
                if f.type == "bool"}
_FLOAT_FIELDS = {"m", "m_n", "m_p", "alpha", "pos_ratio", "dropout_rate",
                 "concrete_t", "stop_below"}
_STR_FIELDS = {"model", "dataset", "loss", "metric", "output_dir", "data_dir",
               "activation", "normalize_at"}


def coerce_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    raw = raw.strip()
    if key in _STR_FIELDS:
        return raw
    if key in _BOOL_FIELDS:
        low = raw.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ValueError(f"bad boolean for {key!r}: {raw!r}")
    try:
        if key in _FLOAT_FIELDS:
            return float(raw)
        return int(raw)
    except ValueError:
        kind = "number" if key in _FLOAT_FIELDS else "integer"
        raise ValueError(f"bad {kind} for {key!r}: {raw!r}") from None


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


def echo_config(cfg: RunConfig, path: str) -> None:
    lines = [f"{f.name} = {getattr(cfg, f.name)}"
             for f in dataclasses.fields(RunConfig)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root {root!r} does not exist")
    if cfg.dataset == "att":
        return load_att(root, target=cfg.input_size)
    return load_lfw(root, target=cfg.input_size,
                    max_subjects=cfg.max_subjects or None)


def make_split(ds: FaceDataset, cfg: RunConfig) -> SplitSpec:
    if cfg.holdout > 0:
        return split_subjects(ds, cfg.holdout, cfg.seed)
    # no holdout: test on train
    return SplitSpec(ds.subjects(), ds.subjects(), cfg.seed)


def _encoder_kwargs(cfg: RunConfig) -> dict:
    return dict(conv_channels=cfg.conv_channels,
                primary_types=cfg.primary_types, primary_d=cfg.primary_d,
                face_caps=cfg.face_caps, face_d=cfg.face_d,
                embed_dim=cfg.embed_dim, routing_iters=cfg.routing_iters,
                activation=cfg.activation, input_size=cfg.input_size,
                normalize_at=cfg.normalize_at,
                detach_routing=cfg.detach_routing,
                dropout_rate=cfg.dropout_rate, concrete_t=cfg.concrete_t,
                standard_concrete=cfg.standard_concrete)


def build_run_encoder(cfg: RunConfig):
    return build_encoder(cfg.model, derive_seed(cfg.seed, 1),
                         **_encoder_kwargs(cfg))


# ---------------------------------------------------------------------------
# forward/loss helpers

def _loss_of(d_eff: Tensor, labels, cfg: RunConfig) -> Tensor:
    if cfg.loss == "contrastive":
        return contrastive_loss(d_eff, labels, cfg.m)
    return double_margin_loss(d_eff, labels, cfg.m_n, cfg.m_p)


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

    chunk bounds the transient im2col buffers: a chunk of pairs runs
    2*chunk images through the conv stack at once.
    """
    parts = []
    for lo in range(0, len(pairs), chunk):
        batch = pairs.slice(lo, min(lo + chunk, len(pairs)))
        parts.append(pair_distances(encoder, batch, cfg,
                                    training=False).data)
    return np.concatenate(parts), pairs.labels


def eval_loss_value(d: np.ndarray, labels: np.ndarray,
                    cfg: RunConfig) -> float:
    d_eff = effective_distance(Tensor(d), cfg.metric)
    return _loss_of(d_eff, labels, cfg).item()


def accuracy_at(d: np.ndarray, labels: np.ndarray, threshold: float,
                metric: str) -> float:
    pred = predict_match(d, threshold, metric)
    return float((pred == (labels == 0)).mean())


def _train_step(encoder, state, batch, cfg: RunConfig,
                rng: SplitMix64) -> float:
    with ad.Graph():
        d = pair_distances(encoder, batch, cfg, training=True, rng=rng)
        loss = _loss_of(effective_distance(d, cfg.metric),
                        batch.labels, cfg)
        ad.backward(loss)
        amsgrad_step(encoder.named_parameters(), state, alpha=cfg.alpha,
                     flat_lr=cfg.flat_lr)
    encoder.clamp_dropout_p()
    return loss.item()


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


def _write_metrics(path: str, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in rows:
            fh.write(f"{r['epoch']},{r['train_loss']!r},{r['test_loss']!r},"
                     f"{r['test_accuracy']!r},{r['wall_ms']}\n")


def _train_single(cfg: RunConfig, ds: FaceDataset, split: SplitSpec,
                  run_dir: str) -> TrainResult:
    os.makedirs(run_dir, exist_ok=True)
    echo_config(cfg, os.path.join(run_dir, "config.txt"))

    encoder = build_run_encoder(cfg)
    state = OptimState()
    train_subjects = sorted(split.train_subjects)
    test_subjects = sorted(split.test_subjects)
    test_pairs = sample_pairs(ds, test_subjects, cfg.eval_pairs,
                              cfg.pos_ratio, derive_seed(cfg.seed, 200))

    rows = []
    best_test = np.inf
    threshold = 0.0
    train_pair_subjects: set = set()
    fixed = (sample_pairs(ds, train_subjects, cfg.pairs_per_epoch,
                          cfg.pos_ratio, derive_seed(cfg.seed, 100, 1))
             if cfg.fixed_pairs else None)

    for epoch in range(1, cfg.epochs + 1):
        t0 = time.monotonic()
        pairs = fixed if fixed is not None else sample_pairs(
            ds, train_subjects, cfg.pairs_per_epoch, cfg.pos_ratio,
            derive_seed(cfg.seed, 100, epoch))
        train_pair_subjects |= _pair_subject_set(ds, pairs)

        loss_sum, n_seen = 0.0, 0
        for lo in range(0, len(pairs), cfg.batch_size):
            batch = pairs.slice(lo, min(lo + cfg.batch_size, len(pairs)))
            rng = SplitMix64(derive_seed(cfg.seed, 500, epoch, lo))
            val = _train_step(encoder, state, batch, cfg, rng)
            loss_sum += val * len(batch)
            n_seen += len(batch)
        train_loss = loss_sum / n_seen

        n_val = max(1, len(pairs) // 10)
        d_val, y_val = eval_distances(encoder, pairs.slice(0, n_val), cfg)
        threshold, _ = sweep_threshold(d_val, y_val, cfg.metric,
                                       cfg.threshold_points)
        d_test, y_test = eval_distances(encoder, test_pairs, cfg)
        test_loss = eval_loss_value(d_test, y_test, cfg)
        test_accuracy = accuracy_at(d_test, y_test, threshold, cfg.metric)

        wall_ms = int(round((time.monotonic() - t0) * 1000.0))
        rows.append(dict(epoch=epoch, train_loss=train_loss,
                         test_loss=test_loss, test_accuracy=test_accuracy,
                         wall_ms=wall_ms))
        if test_loss < best_test:
            best_test = test_loss
            save_checkpoint(encoder, state,
                            os.path.join(run_dir, "best.ckpt"))
        if cfg.stop_below > 0.0 and train_loss < cfg.stop_below:
            break

    save_checkpoint(encoder, state, os.path.join(run_dir, "final.ckpt"))
    _write_metrics(os.path.join(run_dir, "metrics.csv"), rows)

    test_pair_subjects = _pair_subject_set(ds, test_pairs)
    disjoint = not (train_pair_subjects & test_pair_subjects)
    audit = dict(train_subjects=train_subjects, test_subjects=test_subjects,
                 train_pair_subjects=sorted(train_pair_subjects),
                 test_pair_subjects=sorted(test_pair_subjects),
                 zero_shot_disjoint=disjoint)
    with open(os.path.join(run_dir, "audit.txt"), "w",
              encoding="utf-8") as fh:
        for key, val in audit.items():
            if isinstance(val, list):
                fh.write(f"{key}: {' '.join(str(s) for s in val)}\n")
            else:
                fh.write(f"{key}: {str(val).lower()}\n")
    return TrainResult(run_dir, rows, threshold, encoder, state, audit)


def train_run(cfg: RunConfig) -> TrainResult:
    """Train one model; with kfold_k >= 2, train one model per fold."""
    cfg = cfg.finalize()
    cfg.validate()
    ds = load_dataset(cfg)  # missing data fails before model construction
    if cfg.kfold_k >= 2:
        return _train_kfold(cfg, ds)
    split = make_split(ds, cfg)
    return _train_single(cfg, ds, split, cfg.output_dir)


def _train_kfold(cfg: RunConfig, ds: FaceDataset) -> TrainResult:
    os.makedirs(cfg.output_dir, exist_ok=True)
    results = []
    for i, split in enumerate(kfold(ds, cfg.kfold_k, cfg.seed)):
        fold_dir = os.path.join(cfg.output_dir, f"fold{i}")
        results.append(_train_single(cfg, ds, split, fold_dir))
    with open(os.path.join(cfg.output_dir, "summary.csv"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write("fold,test_loss,test_accuracy\n")
        for i, res in enumerate(results):
            fh.write(f"{i},{res.final_test_loss!r},"
                     f"{res.final_test_accuracy!r}\n")
        mean_loss = float(np.mean([r.final_test_loss for r in results]))
        mean_acc = float(np.mean([r.final_test_accuracy for r in results]))
        fh.write(f"mean,{mean_loss!r},{mean_acc!r}\n")
    return results[-1]


# ---------------------------------------------------------------------------
# evaluation

@dataclasses.dataclass
class EvalResult:
    loss: float
    accuracy: float
    threshold: float
    bin_edges: np.ndarray
    match_counts: np.ndarray
    nonmatch_counts: np.ndarray


def density_histogram(d: np.ndarray, labels: np.ndarray, bins: int = 50):
    """Separate match/non-match histograms over a shared range."""
    lo, hi = float(d.min()), float(d.max())
    if hi <= lo:
        hi = lo + 1e-12
    edges = np.linspace(lo, hi, bins + 1)
    match_counts, _ = np.histogram(d[labels == 0], bins=edges)
    nonmatch_counts, _ = np.histogram(d[labels == 1], bins=edges)
    return edges, match_counts, nonmatch_counts


def overlap_coefficient(match_counts, nonmatch_counts) -> float:
    """Shared probability mass of the two histograms, in [0, 1]."""
    pm = np.asarray(match_counts, dtype=np.float64)
    pn = np.asarray(nonmatch_counts, dtype=np.float64)
    if pm.sum() == 0 or pn.sum() == 0:
        return 0.0
    return float(np.minimum(pm / pm.sum(), pn / pn.sum()).sum())


def evaluate(encoder, ds: FaceDataset, split: SplitSpec,
             cfg: RunConfig) -> EvalResult:
    train_pairs = sample_pairs(ds, sorted(split.train_subjects),
                               cfg.pairs_per_epoch, cfg.pos_ratio,
                               derive_seed(cfg.seed, 100, 1))
    n_val = max(1, len(train_pairs) // 10)
    d_val, y_val = eval_distances(encoder, train_pairs.slice(0, n_val), cfg)
    threshold, _ = sweep_threshold(d_val, y_val, cfg.metric,
                                   cfg.threshold_points)
    test_pairs = sample_pairs(ds, sorted(split.test_subjects),
                              cfg.eval_pairs, cfg.pos_ratio,
                              derive_seed(cfg.seed, 200))
    d_test, y_test = eval_distances(encoder, test_pairs, cfg)
    edges, mc, nc = density_histogram(d_test, y_test)
    return EvalResult(eval_loss_value(d_test, y_test, cfg),
                      accuracy_at(d_test, y_test, threshold, cfg.metric),
                      threshold, edges, mc, nc)


def eval_run(checkpoint_path: str, cfg: RunConfig) -> EvalResult:
    cfg = cfg.finalize()
    cfg.validate()
    ds = load_dataset(cfg)
    split = make_split(ds, cfg)
    encoder = build_run_encoder(cfg)
    restore_checkpoint(encoder, None, checkpoint_path)
    res = evaluate(encoder, ds, split, cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "eval.csv"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write("loss,accuracy,threshold\n")
        fh.write(f"{res.loss!r},{res.accuracy!r},{res.threshold!r}\n")
    with open(os.path.join(cfg.output_dir, "density.csv"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write("bin_lo,bin_hi,match_count,nonmatch_count\n")
        for i in range(len(res.match_counts)):
            fh.write(f"{float(res.bin_edges[i])!r},"
                     f"{float(res.bin_edges[i + 1])!r},"
                     f"{int(res.match_counts[i])},"
                     f"{int(res.nonmatch_counts[i])}\n")
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
    os.makedirs(cfg.output_dir, exist_ok=True)
    rows = []
    for m, metric in grid_combos():
        sub = os.path.join(cfg.output_dir,
                           f"gs_m{m:g}_{metric}".replace(".", "p"))
        sub_cfg = dataclasses.replace(cfg, loss="contrastive", m=m,
                                      metric=metric, output_dir=sub)
        res = train_run(sub_cfg)
        rows.append(dict(margin=m, metric=metric,
                         train_loss=res.final_train_loss,
                         test_loss=res.final_test_loss,
                         test_accuracy=res.final_test_accuracy))
    with open(os.path.join(cfg.output_dir, "gridsearch.csv"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write("margin,metric,train_loss,test_loss,test_accuracy\n")
        for r in rows:
            fh.write(f"{r['margin']:g},{r['metric']},{r['train_loss']!r},"
                     f"{r['test_loss']!r},{r['test_accuracy']!r}\n")
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
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
