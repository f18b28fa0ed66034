"""Optimizer updates against an independent scalar reference."""

import math

import numpy as np
import pytest

from siamcaps.autodiff import Tensor
from siamcaps.optim import BLOCK, OptimState, amsgrad_step
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


def amsgrad_whole_array_ref(params, state, alpha, theta1=0.9, theta2=0.999,
                            eps=1e-8, flat_lr=False):
    """The update as whole-array numpy expressions, one pass per operation;
    the blocked update must match it bitwise."""
    state.t += 1
    alpha_t = alpha if flat_lr else alpha / np.sqrt(state.t)
    for name, p in params:
        g = p.grad
        if g is None:
            continue
        state.prepare([(name, p)])
        m, v, v_hat = state.m[name], state.v[name], state.v_hat[name]
        m *= theta1
        m += (1.0 - theta1) * g
        v *= theta2
        v += (1.0 - theta2) * (g * g)
        np.maximum(v_hat, v, out=v_hat)
        p.data -= alpha_t * m / (np.sqrt(v_hat) + eps)


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


@pytest.mark.parametrize("flat_lr", [False, True])
def test_blocked_update_matches_whole_array_bitwise(flat_lr):
    # sizes on both sides of a block boundary; the gradients of the
    # multi-axis parameters are transposed views, like face/W's in a real
    # step, and one parameter never gets a gradient
    rng = SplitMix64(103)
    shapes = [(1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (2 * BLOCK + 7,),
              (3, 5, 7), (129, 257), (3, BLOCK + 5)]
    names = [f"p{k}" for k in range(len(shapes))] + ["frozen"]
    init = [rng.uniform(int(np.prod(s)), -1, 1).reshape(s)
            for s in shapes + [(4,)]]
    got = [Tensor(w.copy(), requires_grad=True) for w in init]
    want = [Tensor(w.copy(), requires_grad=True) for w in init]
    data_ids = [id(t.data) for t in got]
    st_got, st_want = OptimState(), OptimState()
    for _ in range(5):
        for k, s in enumerate(shapes):
            g = rng.normal(int(np.prod(s)), sigma=2.0).reshape(s[::-1]).T
            assert (len(s) == 1) == g.flags.c_contiguous
            got[k].grad, want[k].grad = g, g.copy()
        amsgrad_step(list(zip(names, got)), st_got, alpha=0.01,
                     flat_lr=flat_lr)
        amsgrad_whole_array_ref(list(zip(names, want)), st_want, alpha=0.01,
                                flat_lr=flat_lr)
        for a, b in zip(got, want):
            assert np.array_equal(a.data, b.data)
        for name in names[:-1]:
            for d_got, d_want in ((st_got.m, st_want.m), (st_got.v, st_want.v),
                                  (st_got.v_hat, st_want.v_hat)):
                assert np.array_equal(d_got[name], d_want[name])
    assert [id(t.data) for t in got] == data_ids
    assert "frozen" not in st_got.m
    np.testing.assert_array_equal(got[-1].data, init[-1])


def test_squared_gradient_matches_whole_array_formula_bitwise():
    # g^2 is np.square per block; the reference forms g * g over the whole
    # array.  The gradients span several blocks and include signed zeros,
    # subnormals and values whose squares underflow or overflow
    n = 3 * BLOCK + 5
    rng = SplitMix64(107)
    init = rng.uniform(n, -1.0, 1.0)
    got, want = (Tensor(init.copy(), requires_grad=True) for _ in range(2))
    st_got, st_want = OptimState(), OptimState()
    for step in range(3):
        g = rng.normal(n, sigma=3.0)
        g[step::97] = [-0.0, 5e-324, 1e-170, 1e160, -2e155][step]
        got.grad, want.grad = g, g.copy()
        amsgrad_step([("w", got)], st_got, alpha=0.01)
        amsgrad_whole_array_ref([("w", want)], st_want, alpha=0.01)
        assert got.data.tobytes() == want.data.tobytes()
        for d_got, d_want in ((st_got.m, st_want.m), (st_got.v, st_want.v),
                              (st_got.v_hat, st_want.v_hat)):
            assert d_got["w"].tobytes() == d_want["w"].tobytes()


def test_non_contiguous_weights_or_moments_rejected():
    # the update writes through reshape(-1), which silently copies a
    # non-contiguous array; the step must refuse instead of losing it
    p = Tensor(np.zeros((6, 4)).T, requires_grad=True)
    p.grad = np.ones((4, 6))
    with pytest.raises(ValueError, match="'w'.*contiguous"):
        amsgrad_step([("w", p)], OptimState(), alpha=0.01)
    assert np.all(p.data == 0.0)
    for moment in ("m", "v", "v_hat"):
        q = Tensor(np.zeros((4, 6)), requires_grad=True)
        q.grad = np.ones((4, 6))
        state = OptimState()
        state.prepare([("q", q)])
        getattr(state, moment)["q"] = np.zeros((6, 4)).T
        with pytest.raises(ValueError, match="'q'.*contiguous"):
            amsgrad_step([("q", q)], state, alpha=0.01)
        assert np.all(q.data == 0.0)


def test_prepare_makes_no_moment_when_a_layout_is_bad():
    # every layout is checked before the first moment is made, so a fresh
    # parameter listed before a strided one gets none
    fresh = Tensor(np.zeros(5), requires_grad=True)
    strided = Tensor(np.zeros((6, 4)).T, requires_grad=True)
    state = OptimState()
    with pytest.raises(ValueError, match="'b'.*contiguous"):
        state.prepare([("a", fresh), ("b", strided)])
    assert state.m == state.v == state.v_hat == {}
    assert state.t == 0


@pytest.mark.parametrize("fault", ["grad shape", "strided moment"])
def test_rejected_step_changes_nothing(fault):
    # the faulty parameter comes last, after ones the step could update
    rng = SplitMix64(104)
    params = [(f"p{k}", Tensor(rng.uniform(s, -1, 1), requires_grad=True))
              for k, s in enumerate((5, BLOCK + 3, 7))]
    state = OptimState()
    for _, p in params:
        p.grad = rng.normal(p.size)
    amsgrad_step(params, state, alpha=0.01)  # moments worth keeping
    for _, p in params:
        p.grad = rng.normal(p.size)
    if fault == "grad shape":
        params[-1][1].grad = np.zeros(6)
    else:
        state.m["p2"] = np.zeros((7, 2))[:, 0]
    weights = [p.data.copy() for _, p in params]
    grads = [(p.grad, p.grad.copy()) for _, p in params]
    moments = [{k: a.copy() for k, a in d.items()}
               for d in (state.m, state.v, state.v_hat)]
    with pytest.raises(ValueError, match="'p2'"):
        amsgrad_step(params, state, alpha=0.01)
    assert state.t == 1
    for (_, p), w, (g, g_copy) in zip(params, weights, grads):
        assert np.array_equal(p.data, w)
        assert p.grad is g and p.grad.tobytes() == g_copy.tobytes()
    for d, want in zip((state.m, state.v, state.v_hat), moments):
        assert d.keys() == want.keys()
        assert all(np.array_equal(d[k], want[k]) for k in d)


def test_step_releases_every_gradient_it_applies():
    # the gradients are not held through the next forward and backward
    rng = SplitMix64(105)
    params = [(f"p{k}", Tensor(rng.uniform(s, -1, 1), requires_grad=True))
              for k, s in enumerate((5, BLOCK + 3, 7))]
    for _, p in params:
        p.grad = rng.normal(p.size)
    amsgrad_step(params, OptimState(), alpha=0.01)
    assert all(p.grad is None for _, p in params)
