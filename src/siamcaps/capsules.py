"""Capsule primitives: squash, routing-by-agreement, capsule layers,
concrete dropout.

A capsule's output is a pose vector; routing decides how much each lower
capsule's prediction contributes to each parent by iterating softmaxed log
priors updated with prediction/output dot products.
"""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .layers import Conv2dParams, conv2d_init, conv2d_forward
from .rng import derive_seed

log = logging.getLogger(__name__)

EPS_SQ = 1e-9


def squash(s: Tensor, axis: int = -1) -> Tensor:
    """Shrink s along axis to norm ||s||^2/(1+||s||^2), direction preserved.

    Written as s * sqrt(n2 + eps^2)/(1 + n2) so the zero vector maps to zero
    exactly and the output norm matches the analytic value to ~1e-16 even at
    small norms (a naive ||s||/(||s||+eps) guard costs ~1e-10 at ||s||=0.1).
    """
    n2 = ad.sum_(ad.square(s), axis=axis, keepdims=True)
    norm = ad.sqrt(ad.add_scalar(n2, EPS_SQ * EPS_SQ))
    return ad.mul(s, ad.div(norm, ad.add_scalar(n2, 1.0)))


class RoutingState:
    """Final log priors and couplings of one routing pass.

    c_history holds the coupling array after each softmax (detached), so
    invariants like row-sums and agreement monotonicity can be audited.
    """

    def __init__(self, b: np.ndarray, c: np.ndarray, iterations: int,
                 c_history: list):
        self.b = b
        self.c = c
        self.iterations = iterations
        self.c_history = c_history


def _route_activation(kind: str, s: Tensor) -> Tensor:
    if kind == "squash":
        return squash(s, axis=-1)
    if kind == "tanh":
        return ad.tanh(s)
    raise ValueError(f"unknown activation kind {kind!r}")


def dynamic_route(u_hat: Tensor, iterations: int, activation_kind: str,
                  detach_routing: bool = False):
    """Route predictions u_hat [N, n_lower, n_upper, d] to parent capsules.

    Log priors start at zero; each iteration softmaxes them over the parent
    axis, forms the coupled sum s_j, activates it, and (except after the
    last iteration) adds the agreement dot product v_j . u_hat_ij back onto
    the priors.  Returns (v [N, n_upper, d], RoutingState).

    With detach_routing the agreement is built from detached v and u_hat,
    so the log priors and couplings stay graph constants: gradients flow
    only through the coupled sum, not through the softmax chain.
    """
    if iterations < 1:
        raise ValueError(f"routing iterations must be >= 1, got {iterations}")
    if u_hat.data.ndim != 4:
        raise ShapeError(f"u_hat must be rank 4 [N, lower, upper, d], got "
                         f"{list(u_hat.shape)}")
    n, n_lower, n_upper, d = u_hat.shape
    c_history: list[np.ndarray] = []
    u_agree = u_hat.detach() if detach_routing else u_hat
    b = ad.zeros([n, n_lower, n_upper])
    c = None
    v = None
    for it in range(iterations):
        c = ad.softmax(b, axis=2)
        c_history.append(c.data.copy())
        cc = ad.reshape(c, [n, n_lower, n_upper, 1])
        s = ad.sum_(ad.mul(cc, u_hat), axis=1)
        v = _route_activation(activation_kind, s)
        if it < iterations - 1:
            v_agree = v.detach() if detach_routing else v
            vv = ad.reshape(v_agree, [n, 1, n_upper, d])
            agree = ad.sum_(ad.mul(vv, u_agree), axis=3)
            b = ad.add(b, agree)
    return v, RoutingState(b.data, c.data, iterations, c_history)


class CapsuleGrid:
    """Lower-capsule poses [N, n_caps, d] with their spatial layout."""

    def __init__(self, poses: Tensor, grid_h: int, grid_w: int, n_types: int):
        if poses.data.ndim != 3:
            raise ShapeError(f"poses must be rank 3, got {list(poses.shape)}")
        if poses.shape[1] != grid_h * grid_w * n_types:
            raise ShapeError(
                f"pose count {poses.shape[1]} != grid "
                f"{grid_h}x{grid_w}x{n_types}")
        self.poses = poses
        self.meta = (grid_h, grid_w, n_types)

    @property
    def n_caps(self) -> int:
        return self.poses.shape[1]

    @property
    def d(self) -> int:
        return self.poses.shape[2]


class PrimaryCapsuleParams:
    """All pose dimensions of all capsule types as one convolution.

    The kernel is dim-major [d*n_types, in_ch, k, k]: output channel
    dim*n_types + type is pose dimension dim of capsule type type.  Block dim
    is drawn exactly as a standalone in_ch -> n_types conv2d_init with seed
    derive_seed(seed, dim), and the bias starts at zero.  Full width is
    256 -> 8*32 channels, 9x9 stride 3 (256*256*81 + 256 = 5,308,672
    parameters); in_ch and n_types are configurable so tests can shrink it.
    """

    def __init__(self, in_ch: int = 256, n_types: int = 32, d: int = 8,
                 ksize: int = 9, stride: int = 3, seed: int = 0):
        self.in_ch = in_ch
        self.n_types = n_types
        self.d = d
        blocks = [conv2d_init(in_ch, n_types, ksize, stride, 0,
                              derive_seed(seed, dim)).kernel.data
                  for dim in range(d)]
        self.conv = Conv2dParams(
            Tensor(np.concatenate(blocks), requires_grad=True,
                   name="primary/kernel"),
            ad.zeros([d * n_types], requires_grad=True, name="primary/bias"),
            stride)

    def parameter_count(self) -> int:
        return self.conv.parameter_count()

    def named_parameters(self, prefix: str) -> list:
        return self.conv.named_parameters(prefix)


def primary_capsules_forward(features: Tensor,
                             params: PrimaryCapsuleParams) -> CapsuleGrid:
    """One convolution, regrouped into [N, gh*gw*n_types, d] poses, squashed.

    Capsule (gh, gw, type) takes pose dimension dim from output channel
    dim*n_types + type at that grid position.
    """
    if features.data.ndim != 4:
        raise ShapeError(f"features must be rank 4, got "
                         f"{list(features.shape)}")
    if features.shape[1] != params.in_ch:
        raise ShapeError(f"primary capsules expect {params.in_ch} input "
                         f"channels, got {features.shape[1]}")
    n, t, d = features.shape[0], params.n_types, params.d
    m = conv2d_forward(features, params.conv)  # [N, d*n_types, gh, gw]
    grid_h, grid_w = m.shape[2], m.shape[3]
    m = ad.transpose(ad.reshape(m, [n, d, t, grid_h, grid_w]),
                     (0, 3, 4, 2, 1))  # [N, gh, gw, n_types, d]
    poses = squash(ad.reshape(m, [n, grid_h * grid_w * t, d]), axis=2)
    return CapsuleGrid(poses, grid_h, grid_w, t)


class CapsuleLayerParams:
    """Per-pair transformation matrices W_ij of shape [lower, upper, d_in, d_out]."""

    def __init__(self, n_lower: int, n_upper: int, d_in: int, d_out: int,
                 activation_kind: str = "tanh", seed: int = 0):
        if activation_kind not in ("squash", "tanh"):
            raise ValueError(f"unknown activation kind {activation_kind!r}")
        self.W = ad.uniform(
            [n_lower, n_upper, d_in, d_out],
            -float(np.sqrt(6.0 / (d_in + d_out))),
            float(np.sqrt(6.0 / (d_in + d_out))),
            derive_seed(seed, 3), requires_grad=True, name="face/W")
        self.activation_kind = activation_kind
        log.info("capsule layer W %s: %d parameters",
                 list(self.W.shape), self.parameter_count())

    def parameter_count(self) -> int:
        return self.W.size

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/W", self.W)]


def capsule_layer_forward(grid: CapsuleGrid, p: CapsuleLayerParams,
                          iterations: int, detach_routing: bool = False,
                          return_state: bool = False):
    """u_hat_ij = W_ij u_i for every pair, then dynamic routing."""
    n_lower, n_upper, d_in, d_out = p.W.shape
    if grid.d != d_in:
        raise ShapeError(f"capsule layer expects pose dim {d_in}, got "
                         f"{grid.d}")
    if grid.n_caps != n_lower:
        raise ShapeError(f"capsule layer expects {n_lower} lower capsules, "
                         f"got {grid.n_caps}")
    n = grid.poses.shape[0]
    # one batched GEMM over lower capsules: [L,N,i] @ [L,i,U*o] -> [L,N,U*o]
    u_t = ad.transpose(grid.poses, (1, 0, 2))
    w_t = ad.reshape(ad.transpose(p.W, (0, 2, 1, 3)),
                     [n_lower, d_in, n_upper * d_out])
    prod = ad.reshape(ad.matmul(u_t, w_t), [n_lower, n, n_upper, d_out])
    u_hat = ad.transpose(prod, (1, 0, 2, 3))
    v, state = dynamic_route(u_hat, iterations, p.activation_kind,
                             detach_routing)
    if return_state:
        return v, state
    return v


def concrete_dropout_mask(p_caps: Tensor, u: Tensor, t: float,
                          standard_concrete: bool = False) -> Tensor:
    """Continuous dropout mask from keep probabilities p_caps and noise u.

    z = sigmoid((1/t) (log p - log(1-p)) + log u - log(1-u)); the 1/t factor
    scales only the probability logit.  standard_concrete instead divides
    the whole sum of logits by t.  p_caps is learnable; u must be clamped
    strictly inside (0, 1) by the caller.
    """
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    for nm, v in (("p", p_caps.data), ("u", u.data)):
        if np.any(v <= 0.0) or np.any(v >= 1.0):
            raise ValueError(f"{nm} must lie strictly inside (0, 1)")
    logit_p = ad.sub(ad.log(p_caps), ad.log(ad.add_scalar(ad.negate(p_caps),
                                                          1.0)))
    logit_u = np.log(u.data) - np.log1p(-u.data)
    if standard_concrete:
        z = ad.mul_scalar(ad.add(logit_p, Tensor(logit_u)), 1.0 / t)
    else:
        z = ad.add(ad.mul_scalar(logit_p, 1.0 / t), Tensor(logit_u))
    return ad.sigmoid(z)
