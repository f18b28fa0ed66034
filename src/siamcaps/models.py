"""Tied-weight pair verification: capsule encoder, baseline CNN encoder,
distance measures, and the pairwise losses.

The capsule encoder maps a [N,1,S,S] grayscale batch through conv ->
batchnorm -> relu -> primary capsules -> routed face capsules -> flattened
poses -> dense -> unit-normalized embedding.  Both pair branches share
parameters; callers stack left/right images into one batch so batch
normalization sees identical statistics for both branches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .capsules import (CapsuleLayerParams, PrimaryCapsuleParams,
                       concrete_dropout_mask, primary_capsules_forward,
                       capsule_layer_forward)
from .layers import (BatchNormParams, batchnorm_forward, conv2d_forward,
                     conv2d_init, dense_forward, dense_init, dropout_mask)
from .rng import SplitMix64, derive_seed

METRICS = ("euclidean_sq", "manhattan_exp", "cosine")


def _conv_out(size: int, k: int, stride: int) -> int:
    return (size - k) // stride + 1


class ScnEncoder:
    """Capsule encoder; mode "sdropcapnet" adds a learnable concrete-dropout
    keep probability per final capsule.

    Full width is conv_channels=256, primary_types=32 (20,992 / 5,308,672 /
    10,260 parameters for conv1 / primary / fc); tests and desk-scale runs
    shrink conv_channels and primary_types through the same code path.
    """

    def __init__(self, seed: int, mode: str = "scn", conv_channels: int = 256,
                 primary_types: int = 32, primary_d: int = 8,
                 face_caps: int = 32, face_d: int = 16, embed_dim: int = 20,
                 routing_iters: int = 4, activation: str = "tanh",
                 input_size: int = 100, normalize_at: str = "embedding",
                 detach_routing: bool = False, dropout_rate: float = 0.0,
                 concrete_t: float = 0.1, standard_concrete: bool = False):
        if mode not in ("scn", "sdropcapnet"):
            raise ValueError(f"unknown encoder mode {mode!r}")
        if normalize_at not in ("embedding", "concat"):
            raise ValueError(f"normalize_at must be 'embedding' or 'concat', "
                             f"got {normalize_at!r}")
        self.mode = mode
        self.input_size = input_size
        self.routing_iters = routing_iters
        self.normalize_at = normalize_at
        self.detach_routing = detach_routing
        self.dropout_rate = dropout_rate
        self.concrete_t = concrete_t
        self.standard_concrete = standard_concrete

        s1 = _conv_out(input_size, 9, 3)
        grid = _conv_out(s1, 9, 3)
        if grid < 1:
            raise ShapeError(f"input size {input_size} too small for the "
                             f"two 9x9 stride-3 stages")
        self.n_lower = grid * grid * primary_types

        self.conv1 = conv2d_init(1, conv_channels, 9, stride=3,
                                 seed=derive_seed(seed, 1), name="conv1")
        self.bn1 = BatchNormParams(conv_channels, name="bn1")
        self.primary = PrimaryCapsuleParams(conv_channels, primary_types,
                                            primary_d, 9, 3,
                                            seed=derive_seed(seed, 2))
        self.face = CapsuleLayerParams(self.n_lower, face_caps, primary_d,
                                       face_d, activation_kind=activation,
                                       seed=derive_seed(seed, 3))
        self.fc = dense_init(face_caps * face_d, embed_dim,
                             seed=derive_seed(seed, 4), name="fc")
        self.dropout_p: Optional[Tensor] = None
        if mode == "sdropcapnet":
            self.dropout_p = ad.full([face_caps], 0.9, requires_grad=True,
                                     name="dropout_p")

    def named_parameters(self) -> list:
        out = []
        out.extend(self.conv1.named_parameters("conv1"))
        out.extend(self.bn1.named_parameters("bn1"))
        out.extend(self.primary.named_parameters("primary"))
        out.extend(self.face.named_parameters("face"))
        out.extend(self.fc.named_parameters("fc"))
        if self.dropout_p is not None:
            out.append(("dropout_p", self.dropout_p))
        return out

    def named_buffers(self) -> list:
        return self.bn1.named_buffers("bn1")

    def layer_parameter_counts(self) -> dict:
        counts = {
            "conv1": self.conv1.parameter_count(),
            "bn1": self.bn1.parameter_count(),
            "primary": self.primary.parameter_count(),
            "face": self.face.parameter_count(),
            "fc": self.fc.parameter_count(),
        }
        if self.dropout_p is not None:
            counts["dropout_p"] = self.dropout_p.size
        return counts

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())

    def clamp_dropout_p(self, lo: float = 0.01, hi: float = 0.99) -> None:
        if self.dropout_p is not None:
            np.clip(self.dropout_p.data, lo, hi, out=self.dropout_p.data)

    def encode(self, images: Tensor, training: bool,
               rng: Optional[SplitMix64] = None) -> Tensor:
        s = self.input_size
        if images.data.ndim != 4 or images.shape[1] != 1 or \
                images.shape[2] != s or images.shape[3] != s:
            raise ShapeError(f"encoder expects [N,1,{s},{s}] images, got "
                             f"{list(images.shape)}")
        n = images.shape[0]
        x = conv2d_forward(images, self.conv1)
        x = batchnorm_forward(x, self.bn1, training)
        x = ad.relu(x)
        if training and self.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("training with dropout needs an rng")
            x = ad.mul(x, dropout_mask(x.shape, self.dropout_rate,
                                       rng.spawn(1)))
        grid = primary_capsules_forward(x, self.primary)
        v = capsule_layer_forward(grid, self.face, self.routing_iters,
                                  self.detach_routing)  # [N, caps, d]
        if self.dropout_p is not None:
            caps = self.dropout_p.shape[0]
            if training:
                if rng is None:
                    raise ValueError("sdropcapnet training needs an rng")
                u = np.clip(rng.spawn(2).uniform(caps), 1e-7, 1.0 - 1e-7)
                z = concrete_dropout_mask(self.dropout_p, Tensor(u),
                                          self.concrete_t,
                                          self.standard_concrete)
            else:
                z = self.dropout_p  # deterministic eval: scale by keep prob
            v = ad.mul(v, ad.reshape(z, [1, caps, 1]))
        flat = ad.reshape(v, [n, v.shape[1] * v.shape[2]])
        if self.normalize_at == "concat":
            flat = ad.l2norm(flat, axis=1, eps=1e-18)
        out = dense_forward(flat, self.fc)
        if self.normalize_at == "embedding":
            out = ad.l2norm(out, axis=1, eps=1e-18)
        return out


class StandardEncoder:
    """Small plain-CNN comparator: two conv-bn-relu stages, flatten, dense."""

    def __init__(self, seed: int, ch1: int = 32, ch2: int = 64,
                 embed_dim: int = 20, input_size: int = 100,
                 dropout_rate: float = 0.0):
        self.input_size = input_size
        self.dropout_rate = dropout_rate
        s1 = _conv_out(input_size, 9, 3)
        s2 = _conv_out(s1, 5, 2)
        if s2 < 1:
            raise ShapeError(f"input size {input_size} too small")
        self.conv1 = conv2d_init(1, ch1, 9, stride=3,
                                 seed=derive_seed(seed, 1), name="conv1")
        self.bn1 = BatchNormParams(ch1, name="bn1")
        self.conv2 = conv2d_init(ch1, ch2, 5, stride=2,
                                 seed=derive_seed(seed, 2), name="conv2")
        self.bn2 = BatchNormParams(ch2, name="bn2")
        self.flat_dim = ch2 * s2 * s2
        self.fc = dense_init(self.flat_dim, embed_dim,
                             seed=derive_seed(seed, 3), name="fc")

    def named_parameters(self) -> list:
        out = []
        out.extend(self.conv1.named_parameters("conv1"))
        out.extend(self.bn1.named_parameters("bn1"))
        out.extend(self.conv2.named_parameters("conv2"))
        out.extend(self.bn2.named_parameters("bn2"))
        out.extend(self.fc.named_parameters("fc"))
        return out

    def named_buffers(self) -> list:
        return (self.bn1.named_buffers("bn1")
                + self.bn2.named_buffers("bn2"))

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())

    def clamp_dropout_p(self) -> None:
        pass

    def encode(self, images: Tensor, training: bool,
               rng: Optional[SplitMix64] = None) -> Tensor:
        s = self.input_size
        if images.data.ndim != 4 or images.shape[1] != 1 or \
                images.shape[2] != s or images.shape[3] != s:
            raise ShapeError(f"encoder expects [N,1,{s},{s}] images, got "
                             f"{list(images.shape)}")
        x = ad.relu(batchnorm_forward(conv2d_forward(images, self.conv1),
                                      self.bn1, training))
        if training and self.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("training with dropout needs an rng")
            x = ad.mul(x, dropout_mask(x.shape, self.dropout_rate,
                                       rng.spawn(1)))
        x = ad.relu(batchnorm_forward(conv2d_forward(x, self.conv2),
                                      self.bn2, training))
        if training and self.dropout_rate > 0.0:
            x = ad.mul(x, dropout_mask(x.shape, self.dropout_rate,
                                       rng.spawn(2)))
        flat = ad.reshape(x, [images.shape[0], self.flat_dim])
        out = dense_forward(flat, self.fc)
        return ad.l2norm(out, axis=1, eps=1e-18)


def build_encoder(kind: str, seed: int, **cfg):
    if kind == "scn":
        return ScnEncoder(seed, mode="scn", **cfg)
    if kind == "sdropcapnet":
        return ScnEncoder(seed, mode="sdropcapnet", **cfg)
    if kind == "standard":
        allowed = ("input_size", "embed_dim", "dropout_rate", "ch1", "ch2")
        return StandardEncoder(
            seed, **{k: v for k, v in cfg.items() if k in allowed})
    raise ValueError(f"unknown encoder kind {kind!r}")


# ---------------------------------------------------------------------------
# distances

def distance(a: Tensor, b: Tensor, metric: str) -> Tensor:
    """Per-pair distance [N]; manhattan_exp is a similarity in (0, 1]."""
    if a.shape != b.shape:
        raise ShapeError(f"distance: embeddings {list(a.shape)} vs "
                         f"{list(b.shape)}")
    if metric == "euclidean_sq":
        return ad.sum_(ad.square(ad.sub(a, b)), axis=1)
    if metric == "manhattan_exp":
        return ad.exp(ad.negate(ad.sum_(ad.absolute(ad.sub(a, b)), axis=1)))
    if metric == "cosine":
        dot = ad.sum_(ad.mul(a, b), axis=1)
        na = ad.sqrt(ad.add_scalar(ad.sum_(ad.square(a), axis=1), 1e-24))
        nb = ad.sqrt(ad.add_scalar(ad.sum_(ad.square(b), axis=1), 1e-24))
        return ad.add_scalar(ad.negate(ad.div(dot, ad.mul(na, nb))), 1.0)
    raise ValueError(f"unknown metric {metric!r}")


def effective_distance(d: Tensor, metric: str) -> Tensor:
    """Losses want small-for-matching; invert the manhattan similarity."""
    if metric == "manhattan_exp":
        return ad.add_scalar(ad.negate(d), 1.0)
    return d


def valid_margin(m: float, metric: str) -> bool:
    if metric == "manhattan_exp":
        return 0.0 < m <= 1.0
    return m > 0.0


# ---------------------------------------------------------------------------
# losses (labels: y=0 matching, y=1 non-matching)

def _labels(y, n: int) -> Tensor:
    arr = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=np.float64)
    if arr.shape != (n,):
        raise ShapeError(f"labels must be shape [{n}], got {list(arr.shape)}")
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError("labels must be binary 0/1")
    return Tensor(arr)


def contrastive_loss(d: Tensor, y, m: float) -> Tensor:
    """mean( (1-y)/2 * D + y/2 * max(0, m - D) )."""
    if m <= 0:
        raise ValueError(f"margin must be positive, got {m}")
    yt = _labels(y, d.shape[0])
    match_term = ad.mul(ad.add_scalar(ad.negate(yt), 1.0), d)
    push = ad.relu(ad.add_scalar(ad.negate(d), m))
    return ad.mean(ad.mul_scalar(ad.add(match_term, ad.mul(yt, push)), 0.5))


def double_margin_loss(d: Tensor, y, m_n: float = 0.2,
                       m_p: float = 0.5) -> Tensor:
    """mean( (1-y) max(0, D-m_n)^2 + y max(0, m_p-D)^2 ), 0 < m_n < m_p."""
    if not 0.0 < m_n < m_p:
        raise ValueError(f"need 0 < m_n < m_p, got m_n={m_n}, m_p={m_p}")
    yt = _labels(y, d.shape[0])
    pull = ad.square(ad.relu(ad.add_scalar(d, -m_n)))
    push = ad.square(ad.relu(ad.add_scalar(ad.negate(d), m_p)))
    return ad.mean(ad.add(ad.mul(ad.add_scalar(ad.negate(yt), 1.0), pull),
                          ad.mul(yt, push)))


# ---------------------------------------------------------------------------
# decision rule

def predict_match(d: np.ndarray, threshold: float, metric: str) -> np.ndarray:
    """Boolean match predictions; similarity metrics compare above threshold."""
    d = np.asarray(d, dtype=np.float64)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "manhattan_exp":
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold {threshold} outside [0, 1]")
        return d > threshold
    if threshold < 0.0:
        raise ValueError(f"threshold {threshold} must be >= 0")
    return d < threshold


def sweep_threshold(d: np.ndarray, y: np.ndarray, metric: str,
                    points: int = 101):
    """Exhaustive accuracy sweep over [min(D), max(D)]; first best wins."""
    d = np.asarray(d, dtype=np.float64)
    y = np.asarray(y)
    grid = np.linspace(d.min(), d.max(), points)
    best_thr, best_acc = grid[0], -1.0
    is_match = (y == 0)
    for thr in grid:
        pred = d > thr if metric == "manhattan_exp" else d < thr
        acc = float((pred == is_match).mean())
        if acc > best_acc:
            best_thr, best_acc = float(thr), acc
    return best_thr, best_acc
