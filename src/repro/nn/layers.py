"""Composable neural-network modules on top of :mod:`repro.nn.tensor`."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from . import init
from .tensor import Tensor, addmm, is_grad_enabled

__all__ = ["Module", "Linear", "MLP", "ModuleList"]


class Module:
    """Base class providing parameter discovery and train/eval switching.

    Subclasses register parameters as ``Tensor`` attributes (or nested
    ``Module`` / ``ModuleList`` attributes); :meth:`parameters` walks the
    object graph, mirroring the familiar torch API.
    """

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> list[Tensor]:
        """All trainable tensors reachable from this module."""
        found: list[Tensor] = []
        seen: set[int] = set()
        self._collect(found, seen)
        return found

    def _collect(self, found: list[Tensor], seen: set[int]) -> None:
        if id(self) in seen:
            return
        seen.add(id(self))
        for value in self.__dict__.values():
            self._collect_value(value, found, seen)

    @staticmethod
    def _collect_value(value: object, found: list[Tensor], seen: set[int]) -> None:
        if isinstance(value, Tensor):
            if value.requires_grad and id(value) not in seen:
                seen.add(id(value))
                found.append(value)
        elif isinstance(value, Module):
            value._collect(found, seen)
        elif isinstance(value, (list, tuple)):
            for item in value:
                Module._collect_value(item, found, seen)
        elif isinstance(value, dict):
            for item in value.values():
                Module._collect_value(item, found, seen)

    def train(self) -> "Module":
        """Switch this module (and submodules) to training mode."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Switch this module (and submodules) to inference mode."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in self.__dict__.values():
            self._set_mode_value(value, training)

    @staticmethod
    def _set_mode_value(value: object, training: bool) -> None:
        if isinstance(value, Module):
            value._set_mode(training)
        elif isinstance(value, (list, tuple)):
            for item in value:
                Module._set_mode_value(item, training)
        elif isinstance(value, dict):
            for item in value.values():
                Module._set_mode_value(item, training)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat snapshot of all parameter arrays (ordered by discovery)."""
        return {f"p{i}": p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters from a ``state_dict`` snapshot."""
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} arrays but model has {len(params)} parameters"
            )
        for i, param in enumerate(params):
            array = state[f"p{i}"]
            if array.shape != param.data.shape:
                raise ValueError(f"shape mismatch for parameter {i}")
            param.data = array.copy()

    def __call__(self, *args, **kwargs):
        """Alias for :meth:`forward`."""
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        """Compute the module's output (must be overridden)."""
        raise NotImplementedError


class ModuleList(Module):
    """A list of sub-modules that participates in parameter discovery."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self.items = list(modules)

    def append(self, module: Module) -> None:
        """Add a submodule to the list."""
        self.items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]


class Linear(Module):
    """Affine layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = init.xavier_uniform((in_features, out_features), rng)
        self.bias = init.zeros((out_features,)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """Affine map of the input rows.

        Batched inputs take the fused :func:`~repro.nn.tensor.addmm` path
        (one graph node, no intermediate activation); it is bit-exact with
        the matmul-then-add pair, which remains as the 1-D fallback.
        """
        if self.bias is not None and x.ndim >= 2:
            return addmm(x, self.weight, self.bias)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Inverted dropout; identity in eval mode or when autograd is disabled."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0 or not is_grad_enabled():
            return x
        mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * Tensor(mask)


class MLP(Module):
    """Multi-layer perceptron with ReLU activations between layers.

    ``hidden`` lists the intermediate layer widths; the final Linear maps to
    ``out_features`` with no activation (logits).
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        widths = [in_features, *hidden]
        self.hidden_layers = ModuleList(
            Linear(a, b, rng) for a, b in zip(widths[:-1], widths[1:])
        )
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None
        self.head = Linear(widths[-1], out_features, rng)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.hidden_layers:
            x = layer(x).relu()
            if self.dropout is not None:
                x = self.dropout(x)
        return self.head(x)
