"""Reverse-mode automatic differentiation on numpy arrays.

This module is the neural-network substrate of the reproduction: the paper
trains HAG and its GNN baselines with a deep-learning framework, which is not
available offline, so we implement a small but complete autograd engine.

A :class:`Tensor` wraps a ``numpy.ndarray``; an op on it records a data-free
node whose backward keeps only the arrays it reads.  Calling
:meth:`Tensor.backward` on a scalar result propagates gradients to every
ancestor created with ``requires_grad=True``.  All ops are broadcast-aware;
gradients of broadcast operands are reduced back to the operand's shape.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "addmm",
    "no_grad",
    "is_grad_enabled",
    "row_blocks",
    "softmax",
    "stacked_matmul",
]

_GRAD_ENABLED = True
_ROW_BLOCKS: np.ndarray | None = None


class no_grad:
    """Context manager that disables graph recording (like ``torch.no_grad``)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded for autograd."""
    return _GRAD_ENABLED


class row_blocks:
    """Compute dense matmuls one row block at a time inside the context.

    BLAS kernels pick their blocking/threading strategy from the *full*
    operand shapes, so the float64 result of ``packed[s:e] @ W`` computed as
    part of one big product is not always bit-identical to the standalone
    per-block product — summation order inside a dot product may differ.
    Batched inference that promises bit-exact parity with the scalar path
    (``HAG.predict_subgraphs``) therefore packs requests row-wise and enters
    this context with the block boundaries: every 2-D matmul whose left
    operand covers exactly ``boundaries[-1]`` rows is then evaluated per
    block, which *is* the scalar computation by construction.  All other ops
    in the forward (sparse aggregation, elementwise nonlinearities, row
    softmax, stacked 3-D matmuls) are row-local already and run genuinely
    packed.

    ``boundaries`` is the cumulative row-offset array ``[0, n1, n1+n2, ...]``.
    """

    def __init__(self, boundaries: Sequence[int] | np.ndarray) -> None:
        bounds = np.asarray(boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ValueError("boundaries must be a 1-D cumulative offset array")
        if bounds[0] != 0 or np.any(np.diff(bounds) < 0):
            raise ValueError("boundaries must start at 0 and be non-decreasing")
        self.boundaries = bounds

    def __enter__(self) -> "row_blocks":
        global _ROW_BLOCKS
        self._prev = _ROW_BLOCKS
        _ROW_BLOCKS = self.boundaries
        return self

    def __exit__(self, *exc: object) -> None:
        global _ROW_BLOCKS
        _ROW_BLOCKS = self._prev


def _blocked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, sliced per active row block when that reproduces scalar bits."""
    bounds = _ROW_BLOCKS
    if (
        bounds is None
        or a.ndim != 2
        or b.ndim not in (1, 2)
        or a.shape[0] != bounds[-1]
    ):
        return a @ b
    shape = (a.shape[0], b.shape[1]) if b.ndim == 2 else (a.shape[0],)
    out = np.empty(shape, dtype=np.result_type(a, b))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        out[start:stop] = a[start:stop] @ b
    return out


def stacked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b)`` with rows on axis ``-2``, per active row block.

    The rank-polymorphic :func:`_blocked_matmul` of the tape-free forward:
    ``a`` is ``(..., N, d)`` (leading axes stack towers, not rows) and ``b``
    ``(..., d, k)``.  Batched ``matmul`` makes one BLAS call per
    leading-axis slice on the 2-D operands a per-tower ``a[t][s:e] @ b[t]``
    passes, so every slice of the result carries that product's bits.
    """
    bounds = _ROW_BLOCKS
    if bounds is None or a.shape[-2] != bounds[-1]:
        return np.matmul(a, b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.empty((*lead, a.shape[-2], b.shape[-1]), dtype=np.result_type(a, b))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        out[..., start:stop, :] = np.matmul(a[..., start:stop, :], b)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax of an ndarray along ``axis``."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _matmul_grad_a(g: np.ndarray, b: np.ndarray, a_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of ``a @ b`` with respect to ``a``: reads only ``b``."""
    if len(a_shape) == 1 and b.ndim == 1:
        return g * b
    if len(a_shape) == 1:
        # a: (k,), b: (..., k, m), out/g: (..., m)
        ga = (b * g[..., None, :]).reshape(-1, b.shape[-2], b.shape[-1])
        return ga.sum(axis=(0, 2))
    if b.ndim == 1:
        # a: (..., k), b: (k,), out/g: (...)
        return g[..., None] * b
    return _unbroadcast(g @ np.swapaxes(b, -1, -2), a_shape)


def _matmul_grad_b(g: np.ndarray, a: np.ndarray, b_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient of ``a @ b`` with respect to ``b``: reads only ``a``."""
    if a.ndim == 1 and len(b_shape) == 1:
        return g * a
    if a.ndim == 1:
        return _unbroadcast(a[:, None] * g[..., None, :], b_shape)
    if len(b_shape) == 1:
        return (a * g[..., None]).reshape(-1, a.shape[-1]).sum(axis=0)
    return _unbroadcast(np.swapaxes(a, -1, -2) @ g, b_shape)


class _Node:
    """One recorded op on the tape: its backward closure and its parents.

    ``parents[i]`` is the op's ``i``-th input as the tape sees it: that
    input's own node, the input itself when it is a leaf that requires
    grad, or ``None`` when no gradient flows to it.  ``backward(g)``
    returns one gradient per parent, in order, computed from the arrays
    the op saved — never from a :class:`Tensor` — so an output stays alive
    only while the model code holds it or a backward reads its array.  A
    product saves an operand only when the other takes a gradient, and
    returns ``None`` for a parent that takes none.
    """

    __slots__ = ("backward", "parents")

    def __init__(
        self,
        backward: Callable[[np.ndarray], list[np.ndarray | None]],
        parents: tuple["_Node | Tensor | None", ...],
    ) -> None:
        self.backward = backward
        self.parents = parents


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    An op's output records a data-free :class:`_Node` whose backward saves
    only the arrays it reads (PyTorch's saved tensors), so an intermediate
    and its data are freed as soon as the model code drops it.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` ndarray.
    requires_grad:
        Whether gradients flow to this tensor.  Only a *leaf* (a tensor no
        recorded op produced: parameters, inputs the caller creates)
        accumulates them into ``self.grad``; an op's output keeps ``None``.
        ``no_grad`` stops recording ops, not this flag.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying ndarray (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar payload as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], list[np.ndarray]],
    ) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._node = _Node(
                backward,
                tuple(
                    p._node if p._node is not None else p if p.requires_grad else None
                    for p in parents
                ),
            )
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor, adding into every leaf's ``.grad``.

        If ``grad`` is omitted the tensor must be scalar and a seed gradient
        of 1.0 is used.  Intermediate gradients live only in the pass's
        ``grads`` dict, until their node has propagated them.  The graph
        survives, so a second call adds to the leaves again.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        root = self._node
        if root is None:
            self._accumulate(grad)
            return

        # Topological order over the recorded nodes (leaves end a path).
        order: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if type(parent) is _Node and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(root): grad}
        for node in reversed(order):
            g = grads.pop(id(node))
            for parent, pg in zip(node.parents, node.backward(g)):
                if type(parent) is _Node:
                    key = id(parent)
                    grads[key] = grads[key] + pg if key in grads else pg
                elif parent is not None:
                    parent._accumulate(pg)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "Tensor | float") -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data
        a_shape, b_shape = self.shape, other.shape

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)]

        return Tensor._make(out_data, (self, other), backward)

    def __radd__(self, other: float) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [-g]

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return self.__add__(as_tensor(other).__neg__())

    def __rsub__(self, other: float) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data
        a_shape, b_shape = self.shape, other.shape
        # Each operand is saved only for the other's gradient.
        a = self.data if other.requires_grad else None
        b = other.data if self.requires_grad else None

        def backward(g: np.ndarray) -> list[np.ndarray | None]:
            return [
                None if b is None else _unbroadcast(g * b, a_shape),
                None if a is None else _unbroadcast(g * a, b_shape),
            ]

        return Tensor._make(out_data, (self, other), backward)

    def __rmul__(self, other: float) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other = as_tensor(other)
        b = other.data
        out_data = self.data / b
        a_shape, b_shape, takes_a = self.shape, other.shape, self.requires_grad
        # Only the divisor's gradient reads the dividend.
        a = self.data if other.requires_grad else None

        def backward(g: np.ndarray) -> list[np.ndarray | None]:
            return [
                _unbroadcast(g / b, a_shape) if takes_a else None,
                None if a is None else _unbroadcast(-g * a / (b**2), b_shape),
            ]

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: float) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        a = self.data
        out_data = a**exponent

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g * exponent * a ** (exponent - 1)]

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)
        out_data = _blocked_matmul(self.data, other.data)
        a_shape, b_shape = self.shape, other.shape
        # Each operand is saved only for the other's gradient.
        a = self.data if other.requires_grad else None
        b = other.data if self.requires_grad else None

        def backward(g: np.ndarray) -> list[np.ndarray | None]:
            return [
                None if b is None else _matmul_grad_a(g, b, a_shape),
                None if a is None else _matmul_grad_b(g, a, b_shape),
            ]

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g * mask]

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        """Elementwise leaky ReLU with the given negative slope."""
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data)

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g * np.where(mask, 1.0, negative_slope)]

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g * (1.0 - out_data**2)]

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (input clipped for stability)."""
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500)))

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g * out_data * (1.0 - out_data)]

        return Tensor._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        """Elementwise exponential (input clipped for stability)."""
        out_data = np.exp(np.clip(self.data, -500, 500))

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g * out_data]

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        a = self.data
        out_data = np.log(a)

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g / a]

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient sign(x))."""
        a = self.data

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g * np.sign(a)]

        return Tensor._make(np.abs(a), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient masked outside."""
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g * mask]

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when ``None``)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(g: np.ndarray) -> list[np.ndarray]:
            g = np.asarray(g)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g = np.expand_dims(g, axis=tuple(sorted(a % len(shape) for a in axes)))
            return [np.broadcast_to(g, shape).copy()]

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis`` (all axes when ``None``)."""
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; ties share the gradient equally."""
        a = self.data
        out_data = a.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> list[np.ndarray]:
            g = np.asarray(g)
            if axis is None:
                mask = a == out_data
                return [g * mask / mask.sum()]
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = a == expanded
            counts = mask.sum(axis=axis, keepdims=True)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return [g_exp * mask / counts]

        return Tensor._make(out_data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        """Return a view with the requested shape (supports ``-1``)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g.reshape(original)]

        return Tensor._make(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        """Reshape to one dimension."""
        return self.reshape(-1)

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (reversed order when none are given)."""
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_t)
        inverse = tuple(np.argsort(axes_t))

        def backward(g: np.ndarray) -> list[np.ndarray]:
            return [g.transpose(inverse)]

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def _gather(self, key) -> "Tensor":
        """``self.data[key]``; backward adds ``g`` at ``key`` into zeros."""
        shape = self.shape

        def backward(g: np.ndarray) -> list[np.ndarray]:
            full = np.zeros(shape)
            np.add.at(full, key, g)
            return [full]

        return Tensor._make(self.data[key], (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        return self._gather(key)

    def index_select(self, indices: np.ndarray) -> "Tensor":
        """Gather rows by integer index (with repeats), differentiable."""
        return self._gather(np.asarray(indices, dtype=np.int64))

    # ------------------------------------------------------------------
    # Softmax family (implemented as primitives for numerical stability)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis``."""
        out_data = softmax(self.data, axis)

        def backward(g: np.ndarray) -> list[np.ndarray]:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            return [out_data * (g - dot)]

        return Tensor._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable log-softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_z

        def backward(g: np.ndarray) -> list[np.ndarray]:
            soft = np.exp(out_data)
            return [g - soft * g.sum(axis=axis, keepdims=True)]

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value: "Tensor | np.ndarray | float | int | Sequence") -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no-op if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(g: np.ndarray) -> list[np.ndarray]:
        offsets = np.cumsum([0] + sizes)
        grads = []
        for start, stop in zip(offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(start, stop)
            grads.append(g[tuple(index)])
        return grads

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    count = len(tensors)

    def backward(g: np.ndarray) -> list[np.ndarray]:
        return [np.squeeze(s, axis=axis) for s in np.split(g, count, axis=axis)]

    return Tensor._make(out_data, tuple(tensors), backward)


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum ``values`` rows into ``num_segments`` buckets given by ``segment_ids``.

    The inverse of :meth:`Tensor.index_select`; together they implement
    sparse gather/scatter message passing (used by the GAT baseline and the
    edge-level operators).
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_shape = (num_segments,) + values.shape[1:]
    out_data = np.zeros(out_shape, dtype=np.float64)
    np.add.at(out_data, segment_ids, values.data)

    def backward(g: np.ndarray) -> list[np.ndarray]:
        return [g[segment_ids]]

    return Tensor._make(out_data, (values,), backward)


def addmm(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused ``x @ weight + bias`` as a single autograd node.

    One graph node instead of two kills the intermediate activation tensor
    and one propagation step per training step.  Bit-exact with the
    unfused pair: the forward is the same ``_blocked_matmul`` followed by
    the same broadcast add, and the unfused add's backward passes the
    incoming gradient through unchanged (``_unbroadcast`` to an identical
    shape is the identity), so the three gradients below are precisely the
    arrays the two-node graph would produce.

    Restricted to ``x.ndim >= 2`` with a 2-D ``weight`` — the shapes where
    the fused backward formulas match ``__matmul__``'s general-case branch.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.ndim < 2 or weight.ndim != 2:
        raise ValueError("addmm requires x.ndim >= 2 and a 2-D weight")
    out_data = _blocked_matmul(x.data, weight.data) + bias.data
    x_shape, w_shape, bias_shape = x.shape, weight.shape, bias.shape
    # Each factor is saved only for the other's gradient.
    a = x.data if weight.requires_grad else None
    w = weight.data if x.requires_grad else None

    def backward(g: np.ndarray) -> list[np.ndarray | None]:
        return [
            None if w is None else _matmul_grad_a(g, w, x_shape),
            None if a is None else _matmul_grad_b(g, a, w_shape),
            _unbroadcast(g, bias_shape),
        ]

    return Tensor._make(out_data, (x, weight, bias), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select between two tensors by a boolean ndarray mask."""
    a, b = as_tensor(a), as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)
    a_shape, b_shape = a.shape, b.shape

    def backward(g: np.ndarray) -> list[np.ndarray]:
        return [
            _unbroadcast(np.where(condition, g, 0.0), a_shape),
            _unbroadcast(np.where(condition, 0.0, g), b_shape),
        ]

    return Tensor._make(out_data, (a, b), backward)
