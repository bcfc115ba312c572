"""Autograd engine tests: op semantics + gradient checks vs finite differences."""

from __future__ import annotations

import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import (
    PreparedAggregator,
    Tensor,
    addmm,
    concat,
    no_grad,
    segment_sum,
    spmm,
    spmm_affine,
    stack,
    where,
)
from repro.nn.tensor import _Node, as_tensor


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x, dtype=np.float64)
    for index in np.ndindex(*x.shape):
        plus = x.copy()
        plus[index] += eps
        minus = x.copy()
        minus[index] -= eps
        grad[index] = (fn(plus) - fn(minus)) / (2 * eps)
    return grad


def check_grad(fn_tensor, x: np.ndarray, atol: float = 1e-6) -> None:
    t = Tensor(x, requires_grad=True)
    out = fn_tensor(t)
    out.backward()
    numeric = numerical_grad(lambda arr: fn_tensor(Tensor(arr)).item(), x)
    np.testing.assert_allclose(t.grad, numeric, atol=atol, rtol=1e-5)


class TestBasicOps:
    def test_add_and_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [3.0, 3.0])

    def test_mul_grad(self):
        check_grad(lambda t: (t * t * 2.0).sum(), np.array([1.0, -2.0, 3.0]))

    def test_div_grad(self):
        check_grad(lambda t: (1.0 / (t + 5.0)).sum(), np.array([1.0, 2.0]))

    def test_pow_grad(self):
        check_grad(lambda t: (t**3).sum(), np.array([1.5, -0.5]))

    def test_rsub_and_neg(self):
        a = Tensor([2.0], requires_grad=True)
        (5.0 - a).backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_matmul_2d(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        check_grad(lambda t: (t @ Tensor(np.ones((4, 2)))).sum(), x)

    def test_matmul_vector_rhs_batched(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4))
        v = np.arange(4.0)
        check_grad(lambda t: (t @ Tensor(v)).sum(), x)

    def test_matmul_vector_rhs_grad_to_vector(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3, 4))
        check_grad(lambda t: (Tensor(a) @ t).sum(), rng.normal(size=4))

    def test_matmul_vector_lhs(self):
        rng = np.random.default_rng(3)
        matrix = Tensor(rng.normal(size=(4, 3)))
        check_grad(lambda t: (t @ matrix).sum(), rng.normal(size=4))

    def test_scalar_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_without_grad_raises(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.sum().backward()


class TestNonlinearities:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda t: t.relu().sum(),
            lambda t: t.tanh().sum(),
            lambda t: t.sigmoid().sum(),
            lambda t: t.exp().sum(),
            lambda t: t.leaky_relu(0.1).sum(),
            lambda t: t.abs().sum(),
        ],
    )
    def test_elementwise_grads(self, fn):
        x = np.array([[0.5, -1.2], [2.0, 0.3]])
        check_grad(fn, x)

    def test_log_grad(self):
        check_grad(lambda t: t.log().sum(), np.array([0.5, 1.5, 3.0]))

    def test_clip_grad_masks_outside(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
        rows = t.softmax(axis=1).numpy().sum(axis=1)
        np.testing.assert_allclose(rows, np.ones(4))

    def test_softmax_grad(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        check_grad(lambda t: (t.softmax(axis=1) * Tensor(np.arange(4.0))).sum(), x)

    def test_log_softmax_grad(self):
        x = np.random.default_rng(2).normal(size=(3, 4))
        check_grad(lambda t: (t.log_softmax(axis=1) * Tensor(np.arange(4.0))).sum(), x)

    def test_softmax_is_shift_invariant(self):
        x = np.random.default_rng(3).normal(size=(2, 3))
        a = Tensor(x).softmax(axis=1).numpy()
        b = Tensor(x + 100.0).softmax(axis=1).numpy()
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        x = np.arange(6.0).reshape(2, 3)
        check_grad(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(), x)

    def test_mean_axis(self):
        x = np.arange(6.0).reshape(2, 3)
        check_grad(lambda t: (t.mean(axis=0) ** 2).sum(), x)

    def test_max_grad_distributes_over_ties(self):
        t = Tensor([1.0, 3.0, 3.0], requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.5, 0.5])

    def test_max_axis(self):
        x = np.array([[1.0, 5.0], [7.0, 2.0]])
        check_grad(lambda t: t.max(axis=1).sum(), x)

    def test_reshape_transpose_roundtrip(self):
        x = np.arange(12.0).reshape(3, 4)
        check_grad(lambda t: (t.reshape(4, 3).T * Tensor(np.ones((3, 4)))).sum(), x)

    def test_getitem_grad(self):
        t = Tensor(np.arange(5.0), requires_grad=True)
        t[1:4].sum().backward()
        np.testing.assert_allclose(t.grad, [0, 1, 1, 1, 0])

    def test_index_select_accumulates_repeats(self):
        t = Tensor(np.eye(3), requires_grad=True)
        t.index_select([0, 0, 2]).sum().backward()
        np.testing.assert_allclose(t.grad.sum(axis=1), [6.0, 0.0, 3.0])


class TestCombinators:
    def test_concat_routes_grads(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_concat_forward_does_no_backward_bookkeeping(self, monkeypatch):
        """Slice offsets are the backward's business: a forward computes none,
        with or without a tape (inference runs 33 concats per request)."""
        calls = []
        real = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda *a, **k: calls.append(1) or real(*a, **k))
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        with no_grad():
            frozen = concat([a, b], axis=1)
        assert frozen.shape == (2, 5) and not frozen.requires_grad
        out = concat([a, b], axis=1)
        assert calls == []
        out.sum().backward()
        assert calls == [1]

    def test_stack_routes_grads(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_segment_sum_forward_and_grad(self):
        v = Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
        out = segment_sum(v, np.array([0, 1, 0, 1]), 2)
        np.testing.assert_allclose(out.numpy(), [[4.0, 6.0], [8.0, 10.0]])
        out.sum().backward()
        np.testing.assert_allclose(v.grad, np.ones((4, 2)))

    def test_where_selects_and_routes(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        out = where(np.array([True, False]), a, b)
        np.testing.assert_allclose(out.numpy(), [1.0, 20.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestGraphMechanics:
    def test_no_grad_disables_recording(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2.0
        assert not out.requires_grad

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 3).sum().backward()
        np.testing.assert_allclose(t.grad, [5.0])

    def test_detach_cuts_graph(self):
        t = Tensor([2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.numpy() is t.numpy()

    def test_diamond_graph_grad(self):
        # y = (x*2) + (x*3): both paths must contribute.
        t = Tensor([1.0], requires_grad=True)
        y = t * 2.0 + t * 3.0
        y.sum().backward()
        np.testing.assert_allclose(t.grad, [5.0])

    @staticmethod
    def shared_graph():
        """``loss = sum(h * a + 3 h)`` with ``h = a * w``: the intermediate
        ``h`` feeds two consumers and the leaf ``a`` is reached along three
        paths (through ``h`` twice, and directly)."""
        a = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([3.0, 4.0], requires_grad=True)
        h = a * w
        u = h * a
        v = h * 3.0
        s = u + v
        loss = s.sum()
        return (a, w), (h, u, v, s, loss)

    def test_only_leaves_accumulate_grad(self):
        (a, w), inner = self.shared_graph()
        inner[-1].backward()
        assert all(t._node is not None for t in inner)
        assert all(t.grad is None for t in inner)
        # d/da (a^2 w + 3 a w) = 2 a w + 3 w; d/dw = a^2 + 3 a.
        np.testing.assert_array_equal(a.grad, [15.0, 28.0])
        np.testing.assert_array_equal(w.grad, [4.0, 10.0])

    def test_second_backward_adds_to_leaf_grads(self):
        """The graph survives ``backward``; without ``zero_grad`` a second
        pass adds to the leaves (what ``influence_scores`` relies on)."""
        (a, w), inner = self.shared_graph()
        inner[-1].backward()
        first = a.grad.copy(), w.grad.copy()
        inner[-1].backward()
        np.testing.assert_array_equal(a.grad, first[0] + first[0])
        np.testing.assert_array_equal(w.grad, first[1] + first[1])
        assert all(t.grad is None for t in inner)

    def test_no_grad_stops_recording_not_leaves(self):
        """A parameter made under ``no_grad`` still requires grad (a module
        built there keeps its parameters); only ops go unrecorded."""
        with no_grad():
            t = Tensor([1.0, 2.0], requires_grad=True)
            out = t * 2.0
        assert t.requires_grad and not out.requires_grad and out._node is None
        (t * 3.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [3.0, 3.0])

    def test_as_tensor_idempotent(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t
        assert isinstance(as_tensor([1, 2]), Tensor)


def every_op_graph() -> Tensor:
    """A scalar loss over every op the tape records, each once."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((4, 3)) + 0.5, requires_grad=True)
    w = Tensor(rng.random((3, 3)), requires_grad=True)
    b = Tensor(rng.random(3), requires_grad=True)
    adj = sp.random(4, 4, density=0.5, random_state=0, format="csr")
    h = addmm(x, w, b) / (x + 2.0)
    h = (-h) * x
    h = (h**2).tanh() @ w
    h = spmm(adj, h) - spmm_affine(PreparedAggregator(adj), h, w, b)
    h = h.relu() + h.leaky_relu() + h.sigmoid() + h.exp() + (h.abs() + 1.0).log()
    h = where(h.data > 0.5, h.clip(-1.0, 1.0), h.softmax(axis=1))
    h = concat([h, h.log_softmax(axis=1)], axis=1)
    h = stack([h, h.transpose().reshape(4, 6)], axis=0).max(axis=0)
    h = segment_sum(h.index_select(np.array([0, 1, 1, 3])), np.array([0, 1, 0, 1]), 2)
    return h[0].sum()


def closure_contents(fn) -> list:
    """Everything ``fn``'s closure holds, through nested closures."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        found.append(value)
        if callable(value) and hasattr(value, "__closure__"):
            found.extend(closure_contents(value))
    return found


class TestSavedArrays:
    """The tape holds the arrays backward reads, never a ``Tensor``: an
    intermediate and its data go as soon as the model code drops it."""

    def test_no_closure_pins_a_tensor(self):
        nodes, stack_ = [], [every_op_graph()._node]
        while stack_:
            node = stack_.pop()
            if node not in nodes:
                nodes.append(node)
                stack_.extend(p for p in node.parents if isinstance(p, _Node))
        ops = {node.backward.__qualname__.removesuffix(".<locals>.backward") for node in nodes}
        assert ops == {
            "Tensor.__add__", "Tensor.__neg__", "Tensor.__mul__", "Tensor.__truediv__",
            "Tensor.__pow__", "Tensor.__matmul__", "Tensor.relu", "Tensor.leaky_relu",
            "Tensor.tanh", "Tensor.sigmoid", "Tensor.exp", "Tensor.log", "Tensor.abs",
            "Tensor.clip", "Tensor.sum", "Tensor.max", "Tensor.reshape",
            "Tensor.transpose", "Tensor._gather", "Tensor.softmax",
            "Tensor.log_softmax", "concat", "stack", "segment_sum", "addmm", "where",
            "spmm", "spmm_affine",
        }
        for node in nodes:
            held = closure_contents(node.backward)
            assert not any(isinstance(v, (Tensor, _Node)) for v in held), node.backward

    def test_dropped_intermediate_is_freed_and_gradients_stay_exact(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        product = a @ b
        freed = weakref.ref(product.data)
        y = product.tanh()
        del product
        assert freed() is None
        y.sum().backward()
        gy = np.ones((5, 3)) * (1.0 - np.tanh(a.data @ b.data) ** 2)
        np.testing.assert_array_equal(a.grad, gy @ b.data.T)
        np.testing.assert_array_equal(b.grad, a.data.T @ gy)

    @pytest.mark.parametrize("op", ["mul", "div", "matmul", "addmm", "spmm_affine"])
    def test_factor_without_grad_frees_the_other_operand(self, op):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        const = rng.random((4, 4)) + 0.5
        apply = {
            "mul": lambda h, c: h * c,
            "div": lambda h, c: h / c,
            "matmul": lambda h, c: h @ c,
            "addmm": lambda h, c: addmm(h, c, Tensor(np.zeros(4))),
            "spmm_affine": lambda h, c: spmm_affine(sp.csr_matrix(const), c, h),
        }[op]

        def run(const_takes_grad):
            a.zero_grad()
            product = a @ a
            freed = weakref.ref(product.data)
            y = apply(product, Tensor(const, requires_grad=const_takes_grad))
            del product
            gone = freed() is None
            y.sum().backward()
            return gone, a.grad

        gone, grad = run(False)
        kept, reference = run(True)
        assert gone and not kept
        np.testing.assert_array_equal(grad, reference)


@settings(max_examples=25, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=4),
        elements=st.floats(-2.0, 2.0),
    )
)
def test_property_composite_gradcheck(x):
    """Random matrices: composite expression matches numerical gradients."""

    def fn(t: Tensor):
        return ((t @ t.T).tanh().sum(axis=1).sigmoid() + 0.5).log().sum()

    check_grad(fn, x, atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.integers(2, 6).map(lambda n: (n,)),
        elements=st.floats(-30.0, 30.0),
    )
)
def test_property_softmax_simplex(x):
    probs = Tensor(x).softmax(axis=0).numpy()
    assert np.all(probs >= 0)
    assert abs(probs.sum() - 1.0) < 1e-9
