"""Optimizer updates against an independent scalar reference."""

import math

import numpy as np
import pytest

from siamcaps.autodiff import Tensor
from siamcaps.optim import OptimState, amsgrad_step
from siamcaps.rng import SplitMix64


class ScalarAmsgradRef:
    """Pure-python, single-weight reimplementation of the update equations."""

    def __init__(self, alpha, theta1=0.9, theta2=0.999, eps=1e-8,
                 flat_lr=False):
        self.alpha, self.t1, self.t2, self.eps = alpha, theta1, theta2, eps
        self.flat = flat_lr
        self.m = self.v = self.vh = 0.0
        self.t = 0

    def step(self, w: float, g: float) -> float:
        self.t += 1
        self.m = self.t1 * self.m + (1.0 - self.t1) * g
        self.v = self.t2 * self.v + (1.0 - self.t2) * g * g
        self.vh = max(self.vh, self.v)
        a_t = self.alpha if self.flat else self.alpha / math.sqrt(self.t)
        return w - a_t * self.m / (math.sqrt(self.vh) + self.eps)


def one_param(value) -> list:
    p = Tensor(np.atleast_1d(np.asarray(value, dtype=np.float64)).copy(),
               requires_grad=True)
    return [("w", p)]


def test_zero_gradient_leaves_params_unchanged():
    params = one_param([1.0, -2.0, 3.0])
    state = OptimState()
    for _ in range(5):
        params[0][1].grad = np.zeros(3)
        amsgrad_step(params, state, alpha=0.01)
    np.testing.assert_array_equal(params[0][1].data, [1.0, -2.0, 3.0])


def test_first_step_hand_evaluation():
    params = one_param([0.0])
    params[0][1].grad = np.array([1.0])
    amsgrad_step(params, OptimState(), alpha=0.001)
    # m=0.1, v=0.001, v_hat=0.001, alpha_1=0.001
    want = -0.001 * 0.1 / (math.sqrt(0.001) + 1e-8)
    np.testing.assert_allclose(params[0][1].data, [want], atol=1e-18)
    assert abs(want + 3.162e-3) < 1e-5


def test_quadratic_trajectory_matches_reference_1e12():
    w = 1.0
    ref = ScalarAmsgradRef(alpha=0.05)
    params = one_param([w])
    state = OptimState()
    for _ in range(100):
        g = 2.0 * params[0][1].data[0]  # f(w) = w^2
        params[0][1].grad = np.array([g])
        amsgrad_step(params, state, alpha=0.05)
        w = ref.step(w, 2.0 * w)
        assert abs(params[0][1].data[0] - w) < 1e-12
    assert abs(params[0][1].data[0]) < 1.0


def test_flat_lr_trajectory_matches_reference():
    w = -0.7
    ref = ScalarAmsgradRef(alpha=0.03, flat_lr=True)
    params = one_param([w])
    state = OptimState()
    for _ in range(50):
        g = 2.0 * params[0][1].data[0]
        params[0][1].grad = np.array([g])
        amsgrad_step(params, state, alpha=0.03, flat_lr=True)
        w = ref.step(w, 2.0 * w)
        assert abs(params[0][1].data[0] - w) < 1e-12


def test_vhat_monotone_on_random_streams():
    rng = SplitMix64(100)
    params = one_param(rng.uniform(6, -1, 1))
    state = OptimState()
    prev = np.zeros(6)
    for _ in range(200):
        params[0][1].grad = rng.normal(6, sigma=3.0)
        amsgrad_step(params, state, alpha=0.001)
        assert np.all(state.v_hat["w"] >= prev)
        assert np.all(state.v_hat["w"] >= state.v["w"])
        prev = state.v_hat["w"].copy()


def test_step_magnitude_bound():
    rng = SplitMix64(101)
    params = one_param(rng.uniform(4, -1, 1))
    state = OptimState()
    gmax = np.zeros(4)
    for step in range(100):
        g = rng.normal(4, sigma=2.0)
        gmax = np.maximum(gmax, np.abs(g))
        before = params[0][1].data.copy()
        params[0][1].grad = g
        amsgrad_step(params, state, alpha=0.01)
        delta = np.abs(params[0][1].data - before)
        a_t = 0.01 / math.sqrt(step + 1)
        bound = a_t * gmax / (np.sqrt(state.v_hat["w"]) + 1e-8)
        assert np.all(delta <= bound + 1e-15)


def test_descent_on_convex_quadratic():
    params = one_param([3.0, -2.0])
    state = OptimState()
    start = float((params[0][1].data ** 2).sum())
    for _ in range(200):
        params[0][1].grad = 2.0 * params[0][1].data
        amsgrad_step(params, state, alpha=0.05)
    assert float((params[0][1].data ** 2).sum()) < start


def test_multiple_named_params_independent_state():
    pa = Tensor(np.array([1.0]), requires_grad=True)
    pb = Tensor(np.array([1.0]), requires_grad=True)
    state = OptimState()
    pa.grad = np.array([1.0])
    pb.grad = np.array([100.0])
    amsgrad_step([("a", pa), ("b", pb)], state, alpha=0.001)
    assert state.v_hat["a"][0] != state.v_hat["b"][0]
    assert pa.data[0] != pb.data[0]


def test_validation_errors():
    params = one_param([1.0])
    params[0][1].grad = np.zeros(2)
    with pytest.raises(ValueError, match="shape"):
        amsgrad_step(params, OptimState(), alpha=0.01)
    params = one_param([1.0])
    params[0][1].grad = np.zeros(1)
    with pytest.raises(ValueError, match="theta"):
        amsgrad_step(params, OptimState(), alpha=0.01, theta1=1.0)


def test_sgd_and_amsgrad_first_step_same_sign():
    # the first AMSGrad step moves like a plain SGD step: against the gradient
    rng = SplitMix64(102)
    for g_val in rng.normal(10, sigma=2.0):
        if g_val == 0.0:
            continue
        pa = one_param([0.0])
        pa[0][1].grad = np.array([g_val])
        amsgrad_step(pa, OptimState(), alpha=0.01)
        assert np.sign(pa[0][1].data[0]) == -np.sign(g_val)


def test_skips_params_without_grad():
    p = Tensor(np.array([5.0]), requires_grad=True)
    amsgrad_step([("p", p)], OptimState(), alpha=0.1)
    assert p.data[0] == 5.0
