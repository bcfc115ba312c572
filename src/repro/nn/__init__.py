"""Minimal autograd + neural network substrate (numpy-only).

The paper trains its models with a deep-learning framework; this package is
the offline replacement.  It provides:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autodiff over numpy arrays;
* :mod:`~repro.nn.layers` — ``Module``/``Linear``/``MLP`` (with dropout);
* :mod:`~repro.nn.optim` — ``SGD`` and ``Adam``;
* :mod:`~repro.nn.losses` — BCE-with-logits;
* :func:`~repro.nn.sparse.spmm` — differentiable sparse @ dense products for
  GNN neighbourhood aggregation.
"""

from .init import normal, xavier_uniform, zeros
from .layers import MLP, Linear, Module, ModuleList
from .losses import bce_with_logits
from .optim import SGD, Adam
from .sparse import (
    PreparedAggregator,
    as_csr,
    csr_gather_rows,
    spmm,
    spmm_affine,
)
from .tensor import (
    Tensor,
    addmm,
    concat,
    is_grad_enabled,
    no_grad,
    row_blocks,
    segment_sum,
    stack,
    where,
)

__all__ = [
    "Tensor",
    "addmm",
    "concat",
    "stack",
    "segment_sum",
    "where",
    "no_grad",
    "is_grad_enabled",
    "row_blocks",
    "Module",
    "ModuleList",
    "Linear",
    "MLP",
    "SGD",
    "Adam",
    "bce_with_logits",
    "spmm",
    "spmm_affine",
    "PreparedAggregator",
    "as_csr",
    "csr_gather_rows",
    "xavier_uniform",
    "normal",
    "zeros",
]
