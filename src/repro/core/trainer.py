"""Training loop for node-classifying GNNs (HAG and the GNN baselines).

Implements the paper's optimization protocol — Adam at learning rate 5e-4 —
with class-imbalance-aware BCE, optional mini-batching over the training
nodes, early stopping on validation AUC and best-state restoration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import nn
from ..eval.metrics import roc_auc_score
from ..nn import Tensor
from ..obs.profiling import NullProfiler, TrainProfiler

__all__ = ["TrainConfig", "TrainResult", "train_node_classifier"]


@dataclass(slots=True)
class TrainConfig:
    """Hyperparameters of the training loop (paper defaults)."""

    epochs: int = 150
    lr: float = 5e-4
    weight_decay: float = 0.0
    #: ``None`` trains full-batch (one step per epoch); the paper's 256 is
    #: also supported.
    batch_size: int | None = None
    #: positive-class weight in the BCE loss; ``None`` -> n_neg / n_pos.
    pos_weight: float | None = None
    patience: int = 25
    min_epochs: int = 20
    seed: int = 0
    verbose: bool = False

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent hyperparameters."""
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 or None")
        if self.pos_weight is not None and not (
            math.isfinite(self.pos_weight) and self.pos_weight > 0
        ):
            raise ValueError(
                f"pos_weight must be None or finite and > 0, got {self.pos_weight}"
            )
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.min_epochs < 0:
            raise ValueError("min_epochs must be >= 0")

    def streams(self) -> dict[str, np.random.Generator]:
        """Named, independent rng streams, all derived from ``seed``.

        ``SeedSequence.spawn`` guarantees the streams are statistically
        independent, and keying them by *name* pins which consumer owns
        which stream: ``shuffle`` (epoch batch order), ``sample`` (weighted
        neighbour draws), ``init`` (weight initialization, for callers that
        build the model from the config).  One seed therefore drives every
        source of randomness in a training run, and consumers never share
        a stream.
        """
        children = np.random.SeedSequence(self.seed).spawn(3)
        names = ("shuffle", "sample", "init")
        return {
            name: np.random.default_rng(child)
            for name, child in zip(names, children)
        }


@dataclass(slots=True)
class TrainResult:
    """Training history and the selected model state."""

    train_losses: list[float] = field(default_factory=list)
    val_aucs: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float = float("nan")


def train_node_classifier(
    model: nn.Module,
    forward: Callable[[Tensor], Tensor],
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray | None = None,
    config: TrainConfig | None = None,
    profiler: TrainProfiler | None = None,
) -> TrainResult:
    """Train ``model`` whose ``forward(x)`` returns per-node logits.

    The graph structure is closed over by ``forward`` (each model family
    pairs features with its own aggregators), which keeps this loop agnostic
    to homogeneous/heterogeneous graph inputs.

    Parameters
    ----------
    model:
        Module owning the parameters (for optimizer and state snapshots).
    forward:
        ``x -> logits`` over all nodes; the loss is masked to ``train_idx``.
    features, labels:
        Full node feature matrix and binary labels.
    train_idx, val_idx:
        Integer node indices.  Early stopping monitors AUC on ``val_idx``
        (falls back to train loss when absent).
    profiler:
        Optional :class:`~repro.obs.profiling.TrainProfiler` recording
        per-epoch wall time and ``forward``/``backward``/``step``/
        ``validation`` stage timings.
    """
    config = config or TrainConfig()
    profiler, labels, train_idx, pos_weight = _prepare(
        config, profiler, features, labels, train_idx, val_idx
    )
    rng = np.random.default_rng(config.seed)
    optimizer = nn.Adam(
        model.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    x = Tensor(features)

    def epoch_step() -> float:
        if config.batch_size is None:
            batches = [train_idx]
        else:
            shuffled = rng.permutation(train_idx)
            batches = [
                shuffled[i : i + config.batch_size]
                for i in range(0, len(shuffled), config.batch_size)
            ]
        loss_sum = 0.0
        for batch in batches:
            optimizer.zero_grad()
            with profiler.stage("forward"):
                logits = forward(x)
                loss = nn.bce_with_logits(
                    logits.index_select(batch), labels[batch], pos_weight=pos_weight
                )
            with profiler.stage("backward"):
                loss.backward()
            with profiler.stage("step"):
                optimizer.step()
            loss_sum += loss.item() * len(batch)
            profiler.count_batch(len(batch))
        return loss_sum

    def validate() -> np.ndarray:
        return forward(x).numpy()[val_idx]

    has_val = val_idx is not None and len(val_idx) > 0
    return _run_protocol(
        model, config, profiler, labels, train_idx, val_idx, pos_weight,
        epoch_step, validate if has_val else None,
    )


def _prepare(
    config: TrainConfig,
    profiler: TrainProfiler | None,
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray | None,
) -> tuple[TrainProfiler | NullProfiler, np.ndarray, np.ndarray, float]:
    """Validate ``config`` and the inputs every loop shares, then normalize.

    Raises ``ValueError`` for non-finite features and for labels outside
    {0, 1} at ``train_idx`` / ``val_idx`` — either would train silently
    into NaN parameters or a meaningless loss.  Returns ``(profiler,
    labels, train_idx, pos_weight)`` — the positive class weight is the
    configured one, else ``n_neg / n_pos`` over the training labels (never
    below 1).
    """
    config.validate()
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    profiler = profiler if profiler is not None else NullProfiler()
    labels = np.asarray(labels, dtype=np.float64)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    for name, idx in (("train_idx", train_idx), ("val_idx", val_idx)):
        if idx is not None and not np.isin(labels[idx], (0.0, 1.0)).all():
            raise ValueError(f"labels at {name} must be 0 or 1")
    train_labels = labels[train_idx]
    n_pos = float(train_labels.sum())
    n_neg = float(len(train_labels) - n_pos)
    if config.pos_weight is not None:
        pos_weight = config.pos_weight
    elif n_pos > 0:
        pos_weight = max(1.0, n_neg / n_pos)
    else:
        pos_weight = 1.0
    return profiler, labels, train_idx, pos_weight


def _run_protocol(
    model: nn.Module,
    config: TrainConfig,
    profiler: TrainProfiler | NullProfiler,
    labels: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray | None,
    pos_weight: float,
    epoch_step: Callable[[], float],
    validate: Callable[[], np.ndarray] | None,
) -> TrainResult:
    """The one training protocol behind every public training function.

    ``epoch_step()`` trains one epoch and returns the example-weighted
    loss sum (divided by ``len(train_idx)`` here); ``validate()`` returns
    eval-mode logits at ``val_idx`` (``None`` monitors the train loss).
    Owns the per-epoch validation metric, early stopping, best-state
    restoration and :class:`TrainResult` bookkeeping.
    """
    result = TrainResult()
    best_state: dict[str, np.ndarray] | None = None
    best_metric = -np.inf
    stale = 0

    for epoch in range(config.epochs):
        with profiler.epoch(epoch):
            model.train()
            epoch_loss = epoch_step() / len(train_idx)
            result.train_losses.append(epoch_loss)
            profiler.record_loss(epoch_loss)

            if validate is not None:
                with profiler.stage("validation"):
                    model.eval()
                    with nn.no_grad():
                        scores = validate()
                    val_labels = labels[val_idx]
                    n_val_pos = int(val_labels.sum())
                    if 0 < n_val_pos < len(val_labels):
                        result.val_aucs.append(roc_auc_score(val_labels, scores))
                    # Early-stop on validation AUC when the validation set
                    # carries enough positives for the AUC to be stable; tiny
                    # validation sets saturate AUC within an epoch or two, so
                    # fall back to the (continuous) validation loss there.
                    if n_val_pos >= 20 and len(val_labels) - n_val_pos >= 20:
                        metric = result.val_aucs[-1]
                    else:
                        metric = -_weighted_bce(scores, val_labels, pos_weight)
            else:
                metric = -epoch_loss

            if config.verbose:
                print(f"epoch {epoch:3d}  loss {epoch_loss:.4f}  metric {metric:.4f}")

        if metric > best_metric + 1e-6:
            best_metric = metric
            result.best_epoch = epoch
            best_state = model.state_dict()
            stale = 0
        else:
            stale += 1
            if epoch + 1 >= config.min_epochs and stale >= config.patience:
                break

    if best_state is not None:
        model.load_state_dict(best_state)
    if result.val_aucs and result.best_epoch < len(result.val_aucs):
        result.best_val_auc = result.val_aucs[result.best_epoch]
    model.eval()
    return result


def _weighted_bce(logits: np.ndarray, labels: np.ndarray, pos_weight: float) -> float:
    """Numerically stable weighted BCE on raw numpy arrays."""
    per_example = np.maximum(logits, 0.0) - logits * labels + np.log1p(
        np.exp(-np.abs(logits))
    )
    weights = np.where(labels > 0.5, pos_weight, 1.0)
    return float((per_example * weights).sum() / weights.sum())
