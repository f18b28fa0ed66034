"""Autodiff core: forward semantics, finite-difference oracles, tape rules."""

import gc
import weakref

import numpy as np
import pytest

from siamcaps import autodiff as ad
from siamcaps.autodiff import Graph, ShapeError, Tensor, backward, grad_check
from siamcaps.rng import SplitMix64


def rnd(shape, seed, lo=-1.0, hi=1.0):
    n = int(np.prod(shape))
    return Tensor(SplitMix64(seed).uniform(n, lo, hi).reshape(shape))


# ---------------------------------------------------------------------------
# factories

def test_zeros_and_constant():
    z = ad.zeros([2, 2])
    assert np.array_equal(z.data, np.zeros((2, 2)))
    c = ad.full([3], 2.5)
    assert np.array_equal(c.data, [2.5, 2.5, 2.5])


def test_factory_validation():
    with pytest.raises(ShapeError, match="scalar must be shape"):
        ad.zeros([])
    with pytest.raises(ShapeError):
        ad.zeros([0, 3])
    with pytest.raises(ShapeError, match="scalar must be shape"):
        Tensor(np.float64(3.0))


# ---------------------------------------------------------------------------
# forward semantics of individual primitives

def test_softmax_uniform_logits():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=0)


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(a, Tensor(np.eye(2)))
    assert np.array_equal(out.data, a.data)


def test_l2norm_345_triangle():
    out = ad.l2norm(Tensor([3.0, 4.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-12)


def test_sigmoid_extremes_are_stable():
    out = ad.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
    np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.all(np.isfinite(out.data))


def test_elementwise_forward_values():
    x = Tensor([1.0, 4.0])
    np.testing.assert_allclose(ad.sqrt(x).data, [1.0, 2.0])
    np.testing.assert_allclose(ad.square(x).data, [1.0, 16.0])
    np.testing.assert_allclose(ad.absolute(Tensor([-2.0, 3.0])).data, [2., 3.])
    np.testing.assert_allclose(ad.negate(x).data, [-1.0, -4.0])
    np.testing.assert_allclose(ad.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])
    # a NaN passes through relu, so a non-finite loss can see it
    np.testing.assert_array_equal(ad.relu(Tensor([np.nan, -1.0])).data,
                                  [np.nan, 0.0])
    np.testing.assert_allclose(
        ad.div(Tensor([1.0, 9.0]), Tensor([2.0, 3.0])).data, [0.5, 3.0])


def test_reductions_axis_and_keepdims():
    x = Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
    assert ad.sum_(x).shape == (1,)
    assert ad.sum_(x).item() == x.data.sum()
    assert ad.sum_(x, axis=1).shape == (2, 4)
    assert ad.sum_(x, axis=(0, 2), keepdims=True).shape == (1, 3, 1)
    assert ad.mean(x, axis=0).shape == (3, 4)
    np.testing.assert_allclose(ad.mean(x, axis=0).data, x.data.mean(axis=0))


def test_shape_ops_forward():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    assert ad.reshape(x, [3, 2]).shape == (3, 2)
    assert ad.transpose(x, (1, 0)).shape == (3, 2)
    np.testing.assert_array_equal(ad.transpose(x, (1, 0)).data, x.data.T)
    s = ad.slice_(x, (slice(0, 1), slice(1, 3)))
    np.testing.assert_array_equal(s.data, [[1.0, 2.0]])


def test_broadcast_size_one_axes_only():
    a = Tensor(np.ones((2, 1, 3)))
    b = Tensor(np.ones((2, 4, 1)))
    assert ad.add(a, b).shape == (2, 4, 3)
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3,))))
    with pytest.raises(ShapeError, match=r"mul.*\[2, 3\].*\[2, 4\]"):
        ad.mul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 2, 3))))


# ---------------------------------------------------------------------------
# backward: analytic cases

def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Graph():
        loss = ad.sum_(ad.mul(x, x))
        backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-12)


def test_backward_tanh_at_zero():
    x = Tensor([0.0], requires_grad=True)
    with Graph():
        backward(ad.sum_(ad.tanh(x)))
    np.testing.assert_allclose(x.grad, [1.0], atol=1e-15)


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Graph():
        y = ad.mul(x, x)
        with pytest.raises(ShapeError, match="scalar"):
            backward(y)


def test_unreached_leaf_gets_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([[3.0, 4.0]], requires_grad=True)
    with Graph() as g:
        g.adopt(y)
        backward(ad.sum_(ad.square(x)))
    assert np.array_equal(y.grad, np.zeros((1, 2)))


def test_backward_is_linear():
    x = Tensor(np.array([0.3, -0.7, 1.1]), requires_grad=True)

    def run(a, b):
        with Graph():
            l1 = ad.sum_(ad.square(x))
            l2 = ad.sum_(ad.tanh(x))
            backward(ad.add(ad.mul_scalar(l1, a), ad.mul_scalar(l2, b)))
        return x.grad.copy()

    g1 = run(1.0, 0.0)
    g2 = run(0.0, 1.0)
    mixed = run(2.0, -3.0)
    np.testing.assert_allclose(mixed, 2.0 * g1 - 3.0 * g2, atol=1e-10)


def test_grad_accumulates_over_reuse():
    x = Tensor([2.0], requires_grad=True)
    with Graph():
        backward(ad.sum_(ad.add(ad.mul(x, x), x)))  # d/dx (x^2 + x) = 2x + 1
    np.testing.assert_allclose(x.grad, [5.0], atol=1e-12)


def test_backward_frees_intermediates_without_gc():
    x = Tensor([0.3, -0.7, 1.1], requires_grad=True)
    gc.disable()
    try:
        with Graph():
            h = ad.tanh(x)
            loss = ad.sum_(ad.square(h))
            ref = weakref.ref(h.data)
            del h
            assert ref() is not None  # the tape still holds it
            backward(loss)
        assert ref() is None
    finally:
        gc.enable()
    np.testing.assert_allclose(x.grad, 2 * np.tanh(x.data) * (
        1 - np.tanh(x.data) ** 2), atol=1e-12)


def test_second_backward_on_same_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Graph():
        loss = ad.sum_(ad.square(x))
        backward(loss)
        with pytest.raises(ValueError, match="consumed"):
            backward(loss)
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)


def handed_out(g):
    """An on_grad for graph g that records (leaf, gradient, the number of
    nodes left on g's tape that read the leaf) per call."""
    calls = []

    def on_grad(leaf, grad):
        readers = sum(ids.count(leaf.node_id) for _, _, ids, _ in g.nodes)
        calls.append((leaf, grad, readers))

    return calls, on_grad


def test_on_grad_sums_a_leaf_read_by_two_nodes_after_both():
    x = Tensor([0.3, -0.7], requires_grad=True)
    y = Tensor([2.0, 3.0], requires_grad=True)
    with Graph() as g:
        h = ad.add(ad.square(x), ad.tanh(x))
        loss = ad.sum_(ad.mul(h, y))
        calls, on_grad = handed_out(g)
        backward(loss, on_grad)
    # y's only reader is the last node, so y goes first, while the two
    # nodes that read x are still on the tape
    assert [leaf for leaf, _, _ in calls] == [y, x]
    assert [readers for _, _, readers in calls] == [0, 0]
    (_, gy, _), (_, gx, _) = calls
    np.testing.assert_allclose(gy, x.data ** 2 + np.tanh(x.data), atol=1e-15)
    np.testing.assert_allclose(
        gx, y.data * (2.0 * x.data + 1.0 - np.tanh(x.data) ** 2), atol=1e-15)
    assert x.grad is None and y.grad is None


def test_on_grad_gives_zeros_behind_a_node_without_cotangent():
    x = Tensor([1.0, 2.0], requires_grad=True)
    z = Tensor([[0.5, 1.5]], requires_grad=True)
    with Graph() as g:
        ad.tanh(ad.square(z))  # on the tape, but the loss never reads it
        loss = ad.sum_(ad.square(x))
        calls, on_grad = handed_out(g)
        backward(loss, on_grad)
    assert [leaf for leaf, _, _ in calls] == [x, z]
    np.testing.assert_allclose(calls[0][1], [2.0, 4.0], atol=1e-15)
    assert np.array_equal(calls[1][1], np.zeros((1, 2)))
    assert x.grad is None and z.grad is None


def test_on_grad_gives_an_unreached_leaf_zeros_at_the_end():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([[3.0, 4.0]], requires_grad=True)
    with Graph() as g:
        g.adopt(y)
        loss = ad.sum_(ad.square(x))
        calls, on_grad = handed_out(g)
        backward(loss, on_grad)
        assert g.nodes == []
    assert [leaf for leaf, _, _ in calls] == [x, y]
    assert np.array_equal(calls[1][1], np.zeros((1, 2)))
    assert x.grad is None and y.grad is None


def test_backward_drops_the_graphs_leaves():
    # a leaf points at its graph; once the graph no longer points back, a
    # dropped leaf goes by refcount alone
    x = Tensor([0.3, -0.7], requires_grad=True)
    gc.disable()
    try:
        with Graph() as g:
            backward(ad.sum_(ad.square(x)))
        assert g.leaves == [] and x.graph is g
        ref = weakref.ref(x.data)
        del x
        assert ref() is None
    finally:
        gc.enable()


def test_forward_only_outside_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = ad.mul(x, x)
    assert y.node_id is None and y.graph is None


def test_determinism_two_runs_bitwise():
    def run():
        x = Tensor(SplitMix64(99).uniform(16, -1.0, 1.0).reshape(4, 4),
                   requires_grad=True)
        with Graph():
            loss = ad.sum_(ad.square(ad.tanh(ad.matmul(x, x))))
            backward(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# finite-difference oracle, one case per primitive

def _check(f, xs, tol=1e-4):
    err = grad_check(f, xs, eps=1e-5)
    assert err < tol, f"grad error {err}"


def test_grads_elementwise_binary():
    a, b = rnd([3, 4], 1), rnd([3, 4], 2)
    _check(lambda a, b: ad.sum_(ad.mul(ad.add(a, b), ad.sub(a, b))), [a, b])
    c, d = rnd([3, 1], 3), rnd([1, 4], 4)
    _check(lambda c, d: ad.sum_(ad.square(ad.add(c, d))), [c, d])
    e, f = rnd([3], 5), rnd([3], 6, 0.5, 2.0)
    _check(lambda e, f: ad.sum_(ad.div(e, f)), [e, f])


def test_grads_matmul():
    a, b = rnd([3, 4], 7), rnd([4, 2], 8)
    _check(lambda a, b: ad.sum_(ad.square(ad.matmul(a, b))), [a, b])
    c, d = rnd([2, 1, 3, 4], 9), rnd([1, 5, 4, 2], 10)
    _check(lambda c, d: ad.sum_(ad.square(ad.matmul(c, d))), [c, d])


def test_grads_reductions():
    x = rnd([2, 3, 4], 11)
    _check(lambda x: ad.sum_(ad.square(ad.sum_(x, axis=(0, 2)))), x)
    _check(lambda x: ad.sum_(ad.square(ad.mean(x, axis=1))), x)


def test_grads_unary():
    for fn, lo, hi, seed in [
        (ad.exp, -1.0, 1.0, 13), (ad.log, 0.5, 3.0, 14),
        (ad.sqrt, 0.5, 3.0, 15), (ad.square, -1.0, 1.0, 16),
        (ad.absolute, 0.2, 1.0, 17), (ad.negate, -1.0, 1.0, 18),
        (ad.tanh, -2.0, 2.0, 19), (ad.sigmoid, -3.0, 3.0, 20),
        (ad.relu, 0.2, 1.0, 21),
    ]:
        x = rnd([6], seed, lo, hi)
        _check(lambda x, fn=fn: ad.sum_(fn(x)), x)


def test_grads_softmax_l2norm():
    x = rnd([3, 5], 22)
    _check(lambda x: ad.sum_(ad.square(ad.softmax(x, axis=1))), x)
    _check(lambda x: ad.sum_(ad.square(ad.l2norm(x, axis=1))), x)
    _check(lambda x: ad.sum_(ad.square(ad.softmax(x, axis=0))), x)


def test_grads_shape_ops():
    x = rnd([2, 6], 23)
    _check(lambda x: ad.sum_(ad.square(ad.reshape(x, [3, 4]))), x)
    y = rnd([2, 3, 4], 24)
    _check(lambda y: ad.sum_(ad.square(ad.transpose(y, (2, 0, 1)))), y)
    z = rnd([4, 5], 27)
    _check(lambda z: ad.sum_(ad.square(
        ad.slice_(z, (slice(1, 3), slice(0, 5, 2))))), z)


def test_grads_scalar_ops():
    x = rnd([4], 28)
    _check(lambda x: ad.sum_(ad.add_scalar(ad.mul_scalar(x, 1.7), -0.3)), x)


def test_grad_check_eps_validation():
    x = rnd([2], 29)
    with pytest.raises(ValueError):
        grad_check(lambda x: ad.sum_(x), x, eps=1e-2)


def test_grad_check_perturbs_non_contiguous_tensors():
    # a transposed array's reshape is a copy; the check must perturb the
    # tensor's own memory and read the same error as a C-contiguous copy
    a = np.arange(6, dtype=np.float64).reshape(3, 2) * 0.3 - 0.7

    def f(t):
        return ad.sum_(ad.square(t))

    t = Tensor(a.T)
    assert not t.data.flags.c_contiguous
    err = grad_check(f, t)
    assert err < 1e-8
    assert err == grad_check(f, Tensor(a.T.copy()))
    np.testing.assert_array_equal(t.data, a.T)
