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
from .layers import (BN_EPS, BatchNormParams, Conv2dParams,
                     batchnorm_forward, conv2d_forward, conv2d_init,
                     dense_forward, dense_init)
from .rng import SplitMix64, derive_seed

METRICS = ("euclidean_sq", "manhattan_exp", "cosine")
# where the capsule encoder unit-normalizes: its embedding or the flattened
# capsule poses before the dense layer
NORMALIZE_AT = ("embedding", "concat")
# temperature of the sdropcapnet concrete-dropout mask
CONCRETE_T = 0.1


def _conv_out(size: int, k: int, stride: int) -> int:
    return (size - k) // stride + 1


def _image_map(images: Tensor, size: int) -> Tensor:
    """[N,1,S,S] images viewed as the [N,S,S,1] map the layers take."""
    if images.data.ndim != 4 or images.shape[1] != 1 or \
            images.shape[2] != size or images.shape[3] != size:
        raise ShapeError(f"encoder expects [N,1,{size},{size}] images, got "
                         f"{list(images.shape)}")
    return Tensor(images.data.reshape(images.shape[0], size, size, 1))


def _conv_bn_relu(x: Tensor, conv: Conv2dParams, bn: BatchNormParams,
                  training: bool) -> Tensor:
    # conv2d_forward and batchnorm_forward are looked up in this module at
    # each call, where the benchmark's span tracer patches them.  Eval folds
    # bn into the convolution; no tape holds its output, so relu runs in place
    if training:
        return ad.relu(batchnorm_forward(conv2d_forward(x, conv), bn))
    scale = bn.gamma.data / np.sqrt(bn.running_var + BN_EPS)
    out = conv2d_forward(x, Conv2dParams(
        Tensor(conv.kernel.data * scale[:, None, None, None]),
        Tensor((conv.bias.data - bn.running_mean) * scale + bn.beta.data),
        conv.stride))
    np.maximum(out.data, 0.0, out=out.data)
    return out


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
                 input_size: int = 100, normalize_at: str = "embedding"):
        if mode not in ("scn", "sdropcapnet"):
            raise ValueError(f"unknown encoder mode {mode!r}")
        if normalize_at not in NORMALIZE_AT:
            raise ValueError(f"normalize_at must be 'embedding' or 'concat', "
                             f"got {normalize_at!r}")
        self.mode = mode
        self.input_size = input_size
        self.routing_iters = routing_iters
        self.normalize_at = normalize_at

        s1 = _conv_out(input_size, 9, 3)
        grid = _conv_out(s1, 9, 3)
        if grid < 1:
            raise ShapeError(f"input size {input_size} too small for the "
                             f"two 9x9 stride-3 stages")
        self.n_lower = grid * grid * primary_types

        self.conv1 = conv2d_init(1, conv_channels, 9, stride=3,
                                 seed=derive_seed(seed, 1))
        self.bn1 = BatchNormParams(conv_channels)
        self.primary = PrimaryCapsuleParams(conv_channels, primary_types,
                                            primary_d, 9, 3,
                                            seed=derive_seed(seed, 2))
        self.face = CapsuleLayerParams(self.n_lower, face_caps, primary_d,
                                       face_d, activation_kind=activation,
                                       seed=derive_seed(seed, 3))
        self.fc = dense_init(face_caps * face_d, embed_dim,
                             seed=derive_seed(seed, 4))
        self.dropout_p: Optional[Tensor] = None
        if mode == "sdropcapnet":
            self.dropout_p = ad.full([face_caps], 0.9, requires_grad=True)

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
        """Parameter count per layer, keyed by the first component of the
        parameter names, in named_parameters order."""
        counts: dict = {}
        for name, t in self.named_parameters():
            layer = name.split("/")[0]
            counts[layer] = counts.get(layer, 0) + t.size
        return counts

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())

    def clamp_dropout_p(self) -> None:
        """Keep the concrete-dropout keep probabilities in [0.01, 0.99]."""
        if self.dropout_p is not None:
            np.clip(self.dropout_p.data, 0.01, 0.99, out=self.dropout_p.data)

    def encode(self, images: Tensor, training: bool,
               rng: Optional[SplitMix64] = None) -> Tensor:
        n = images.shape[0]
        x = _conv_bn_relu(_image_map(images, self.input_size), self.conv1,
                          self.bn1, training)
        poses = primary_capsules_forward(x, self.primary)
        # the relu output (63 MB at 32 full-size images) is not held through
        # the transform and routing; a training tape still keeps it
        del x
        v = capsule_layer_forward(poses, self.face,
                                  self.routing_iters)  # [N, caps, d]
        if self.dropout_p is not None:
            caps = self.dropout_p.shape[0]
            p = ad.reshape(self.dropout_p, [1, caps])
            if training:
                if rng is None:
                    raise ValueError("sdropcapnet training needs an rng")
                # one mask per image, from the relaxation whose mean mask
                # is p, the eval scale below
                u = np.clip(rng.spawn(2).uniform(n * caps).reshape(n, caps),
                            1e-7, 1.0 - 1e-7)
                z = concrete_dropout_mask(p, Tensor(u), CONCRETE_T)
            else:
                z = p  # deterministic eval: scale by keep prob
            v = ad.mul(v, ad.reshape(z, [z.shape[0], caps, 1]))
        flat = ad.reshape(v, [n, v.shape[1] * v.shape[2]])
        if self.normalize_at == "concat":
            flat = ad.l2norm(flat, axis=1, eps=1e-18)
        out = dense_forward(flat, self.fc)
        if self.normalize_at == "embedding":
            out = ad.l2norm(out, axis=1, eps=1e-18)
        return out


class StandardEncoder:
    """Small plain-CNN comparator: two conv-bn-relu stages (9x9 stride 3 to
    32 channels, then 5x5 stride 2 to 64 channels), flatten, dense."""

    def __init__(self, seed: int, embed_dim: int = 20, input_size: int = 100):
        self.input_size = input_size
        s1 = _conv_out(input_size, 9, 3)
        s2 = _conv_out(s1, 5, 2)
        if s2 < 1:
            raise ShapeError(f"input size {input_size} too small")
        self.conv1 = conv2d_init(1, 32, 9, stride=3,
                                 seed=derive_seed(seed, 1))
        self.bn1 = BatchNormParams(32)
        self.conv2 = conv2d_init(32, 64, 5, stride=2,
                                 seed=derive_seed(seed, 2))
        self.bn2 = BatchNormParams(64)
        self.flat_dim = 64 * s2 * s2
        self.fc = dense_init(self.flat_dim, embed_dim,
                             seed=derive_seed(seed, 3))

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
        x = _conv_bn_relu(_image_map(images, self.input_size), self.conv1,
                          self.bn1, training)
        x = _conv_bn_relu(x, self.conv2, self.bn2, training)
        flat = ad.reshape(ad.transpose(x, (0, 3, 1, 2)),  # fc's row order
                          [images.shape[0], self.flat_dim])
        out = dense_forward(flat, self.fc)
        return ad.l2norm(out, axis=1, eps=1e-18)


# ---------------------------------------------------------------------------
# distances

def distance(a: Tensor, b: Tensor, metric: str) -> Tensor:
    """Per-pair distance [N], small for matching pairs: euclidean_sq
    ||a-b||^2 >= 0 (at most 4 for unit embeddings), cosine 1 - cos(a, b)
    in [0, 2] (it can round a few ulps below 0), manhattan_exp
    1 - exp(-||a-b||_1) in [0, 1)."""
    if a.shape != b.shape:
        raise ShapeError(f"distance: embeddings {list(a.shape)} vs "
                         f"{list(b.shape)}")
    if metric == "euclidean_sq":
        return ad.sum_(ad.square(ad.sub(a, b)), axis=1)
    if metric == "manhattan_exp":
        sim = ad.exp(ad.negate(ad.sum_(ad.absolute(ad.sub(a, b)), axis=1)))
        return ad.add_scalar(ad.negate(sim), 1.0)
    if metric == "cosine":
        dot = ad.sum_(ad.mul(a, b), axis=1)
        na = ad.sqrt(ad.add_scalar(ad.sum_(ad.square(a), axis=1), 1e-24))
        nb = ad.sqrt(ad.add_scalar(ad.sum_(ad.square(b), axis=1), 1e-24))
        return ad.add_scalar(ad.negate(ad.div(dot, ad.mul(na, nb))), 1.0)
    raise ValueError(f"unknown metric {metric!r}")


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

def predict_match(d: np.ndarray, threshold: float) -> np.ndarray:
    """The one match rule: a pair matches when its distance is below the
    threshold."""
    return np.asarray(d, dtype=np.float64) < threshold


def sweep_threshold(d: np.ndarray, y: np.ndarray):
    """The most accurate threshold for predict_match, and its accuracy.

    k distinct distances allow k + 1 decisions, one per cut: below the
    smallest (threshold = the smallest distance), between neighbours
    (threshold midway), and above the largest (the next double up). One
    sort and cumulative label counts score every cut; among equally
    accurate cuts the first, the smallest threshold, wins.
    """
    d = np.asarray(d, dtype=np.float64)
    order = np.argsort(d)
    d_sorted = d[order]
    is_match = np.asarray(y)[order] == 0
    # right[i]: pairs decided correctly when the i smallest are matches
    matches_below = np.concatenate(([0], np.cumsum(is_match)))
    nonmatches_below = np.arange(d.size + 1) - matches_below
    right = matches_below + (nonmatches_below[-1] - nonmatches_below)
    # cuts fall at either end or between two distinct distances
    cuts = np.flatnonzero(np.concatenate(
        ([True], d_sorted[1:] > d_sorted[:-1], [True])))
    best = int(cuts[np.argmax(right[cuts])])  # the first of equal maxima
    if best == 0:
        threshold = d_sorted[0]
    elif best == d.size:
        threshold = np.nextafter(d_sorted[-1], np.inf)
    else:
        lo, hi = d_sorted[best - 1], d_sorted[best]
        mid = (lo + hi) / 2
        # the mean of adjacent doubles can round onto the lower one
        threshold = mid if mid > lo else hi
    return float(threshold), float(right[best] / d.size)
