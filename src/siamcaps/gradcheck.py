"""Finite-difference verification suite for every differentiable layer.

Each named check builds a small instance of one layer, wraps it in a scalar
objective, and compares reverse-mode gradients against central differences
using the relative-error measure from :func:`siamcaps.autodiff.grad_check`.
"""

from __future__ import annotations

from . import autodiff as ad
from .capsules import (concrete_dropout_mask, dynamic_route, squash,
                       CapsuleLayerParams, capsule_layer_forward)
from .layers import (BatchNormParams, batchnorm_forward, conv2d_init,
                     conv2d_forward, dense_init, dense_forward)
from .models import contrastive_loss, double_margin_loss, distance
from .rng import SplitMix64

THRESHOLD = 1e-4


def _rand(rng, *shape, scale=1.0):
    n = 1
    for s in shape:
        n *= s
    return ad.Tensor(rng.normal(n, sigma=scale).reshape(shape),
                     requires_grad=True)


def _check_conv(seed):
    rng = SplitMix64(seed)
    p = conv2d_init(2, 3, ksize=3, stride=2, seed=seed + 1)
    x = _rand(rng, 2, 2, 7, 7)
    x.data = x.data.transpose(0, 2, 3, 1).copy()  # the draw as [N, H, W, C]

    def f(x_, k_, b_):
        p.kernel, p.bias = k_, b_
        return ad.mean(ad.square(conv2d_forward(x_, p)))

    return ad.grad_check(f, [x, p.kernel, p.bias])


def _check_batchnorm(seed):
    rng = SplitMix64(seed)
    p = BatchNormParams(3)
    x = _rand(rng, 4, 3, 2, 2)
    x.data = x.data.transpose(0, 2, 3, 1).copy()  # the draw as [N, H, W, C]

    def f(x_, g_, b_):
        p.gamma, p.beta = g_, b_
        return ad.mean(ad.square(batchnorm_forward(x_, p)))

    return ad.grad_check(f, [x, p.gamma, p.beta])


def _check_dense(seed):
    rng = SplitMix64(seed)
    p = dense_init(5, 4, seed=seed + 1)
    x = _rand(rng, 3, 5)

    def f(x_, w_, b_):
        p.weight, p.bias = w_, b_
        return ad.mean(ad.square(ad.tanh(dense_forward(x_, p))))

    return ad.grad_check(f, [x, p.weight, p.bias])


def _check_squash(seed):
    rng = SplitMix64(seed)
    x = _rand(rng, 3, 4, 5)

    def f(x_):
        return ad.mean(ad.square(squash(x_, axis=2)))

    return ad.grad_check(f, [x])


def _check_routing(seed):
    rng = SplitMix64(seed)
    u_hat = _rand(rng, 2, 5, 3, 4)

    def f(u_):
        v, _ = dynamic_route(u_, iterations=2, activation_kind="squash")
        return ad.mean(ad.square(v))

    return ad.grad_check(f, [u_hat])


def _check_capsule_layer(seed):
    rng = SplitMix64(seed)
    w = _rand(rng, 5, 4, 3, 4, scale=0.5)  # stored [lower, d_in, upper, d_out]
    u = _rand(rng, 2, 5, 4)
    p = CapsuleLayerParams(5, 3, 4, 4, activation_kind="tanh")

    def f(u_, w_):
        p.W = w_
        return ad.mean(ad.square(capsule_layer_forward(u_, p, iterations=2)))

    return ad.grad_check(f, [u, w])


def _check_contrastive(seed):
    rng = SplitMix64(seed)
    e1 = _rand(rng, 4, 6, scale=0.5)
    e2 = _rand(rng, 4, 6, scale=0.5)
    y = ad.Tensor([0.0, 1.0, 1.0, 0.0])

    def f(a_, b_):
        d = distance(a_, b_, "euclidean_sq")
        return contrastive_loss(d, y, m=1.0)

    return ad.grad_check(f, [e1, e2])


def _check_double_margin(seed):
    rng = SplitMix64(seed)
    e1 = _rand(rng, 4, 6, scale=0.5)
    e2 = _rand(rng, 4, 6, scale=0.5)
    y = ad.Tensor([0.0, 1.0, 1.0, 0.0])

    def f(a_, b_):
        d = distance(a_, b_, "euclidean_sq")
        return double_margin_loss(d, y, m_n=0.2, m_p=0.5)

    return ad.grad_check(f, [e1, e2])


def _check_concrete_dropout(seed):
    rng = SplitMix64(seed)
    p = ad.Tensor(rng.uniform(6, lo=0.15, hi=0.85), requires_grad=True)
    u_frozen = ad.Tensor(rng.uniform(6, lo=0.05, hi=0.95))
    poses = _rand(rng, 2, 6, 3)

    def f(p_, x_):
        z = concrete_dropout_mask(p_, u_frozen, t=0.4)
        gated = ad.mul(x_, ad.reshape(z, [1, 6, 1]))
        return ad.mean(ad.square(gated))

    return ad.grad_check(f, [p, poses])


CHECKS = [
    ("conv2d", _check_conv),
    ("batchnorm", _check_batchnorm),
    ("dense", _check_dense),
    ("squash", _check_squash),
    ("dynamic_routing", _check_routing),
    ("capsule_layer_tanh", _check_capsule_layer),
    ("contrastive_loss", _check_contrastive),
    ("double_margin_loss", _check_double_margin),
    ("concrete_dropout", _check_concrete_dropout),
]


def run_suite(seed: int = 0) -> list:
    """Run every layer check; returns [(name, max_relative_error)]."""
    return [(name, fn(seed + 1000 * i)) for i, (name, fn) in enumerate(CHECKS)]


def format_report(results: list) -> str:
    lines = []
    for name, err in results:
        verdict = "ok" if err < THRESHOLD else "FAIL"
        lines.append(f"{name:<22s} max_rel_err={err:.3e}  {verdict}")
    worst = max(err for _, err in results)
    status = "PASS" if worst < THRESHOLD else "FAIL"
    lines.append(f"{'overall':<22s} worst={worst:.3e}  {status}")
    return "\n".join(lines)


def suite_passes(results: list) -> bool:
    return all(err < THRESHOLD for _, err in results)
