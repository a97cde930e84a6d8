"""Masked-loss semi-supervised training over the layer compositions.

The loss is softmax cross-entropy averaged over the training mask; gradients
come from the reverse-mode tape in autodiff. Runs are deterministic given a
seed: fixed parameter order, no dropout, single-threaded updates. Early
stopping watches validation loss and restores the best parameters.

Per epoch the fixed cost is kept to whole-array work: Adam and SGD update
one flat vector that every parameter's value and gradient are views into,
and the train loss, its gradient, the validation loss and both accuracies
come from one per-node cross-entropy pass and one argmax over the logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .errors import EmptyMask, FieldRangeError, NonFiniteLoss
from .graph import Graph

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class SplitMasks:
    """Disjoint train/val/test node index arrays; train and test nonempty."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "val", "test"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        if self.train.size == 0 or self.test.size == 0:
            raise EmptyMask("train and test masks must be nonempty")
        all_idx = np.concatenate([self.train, self.val, self.test])
        if np.unique(all_idx).size != all_idx.size:
            raise ValueError("split masks must be pairwise disjoint")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-2
    weight_decay: float = 5e-4
    max_epochs: int = 200
    patience: int = 30
    seed: int = 0
    optimizer: str = "adam"   # "adam" | "sgd"

    def __post_init__(self):
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise FieldRangeError(f"{name} must be finite, got {value}", name)
            # lr = 0 is legal and leaves parameters untouched (useful in tests)
            if value < 0:
                raise FieldRangeError(f"{name} must be >= 0, got {value}", name)
        for name in ("max_epochs", "patience"):
            if getattr(self, name) <= 0:
                raise FieldRangeError(f"{name} must be positive, got {getattr(self, name)}", name)
        if self.optimizer not in ("adam", "sgd"):
            raise FieldRangeError(f"unknown optimizer {self.optimizer!r}; choose adam or sgd",
                                  "optimizer")


class _FlatOptimizer:
    """Optimizer state and arithmetic on one flat vector over all parameters.

    At construction every parameter's value and gradient become views into
    two flat float64 buffers, .value and .grad, in parameter order, so a step
    is a fixed number of whole-vector array operations however many
    parameters there are. Each update is the per-parameter formula applied
    elementwise, so the bits are those of a per-parameter loop. A value or
    gradient reassigned since (p.value = new array) is copied into its buffer
    before the next step, which then goes on with the views.
    """

    def __init__(self, params, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        total = sum(p.value.size for p in params)
        self.value, self.grad, self._tmp = np.empty(total), np.empty(total), np.empty(total)
        self._views = []
        end = 0
        for p in params:
            start, end = end, end + p.value.size
            self._views.append((self.value[start:end].reshape(p.value.shape),
                                self.grad[start:end].reshape(p.value.shape)))
        self._sync()

    def _sync(self):
        """Copy each value or gradient that is not its view into the buffers; views back."""
        for p, (value, grad) in zip(self.params, self._views):
            if p.value is not value:
                value[...], p.value = p.value, value
            if p.grad is not grad:
                grad[...], p.grad = p.grad, grad

    def restore(self, state: np.ndarray):
        """Set every parameter from a copy of .value taken earlier."""
        self._sync()
        self.value[...] = state

    def _decayed_grad(self) -> np.ndarray:
        """grad + weight_decay * value, written over .grad (step zeroes it after)."""
        self._sync()
        self.grad += np.multiply(self.value, self.cfg.weight_decay, out=self._tmp)
        return self.grad


class _SGD(_FlatOptimizer):
    def step(self):
        d = self._decayed_grad()
        d *= self.cfg.lr
        self.value -= d
        self.grad.fill(0.0)


class _Adam(_FlatOptimizer):
    def __init__(self, params, cfg: TrainConfig):
        super().__init__(params, cfg)
        self.m = np.zeros_like(self.value)
        self.v = np.zeros_like(self.value)
        self.t = 0

    def step(self):
        b1, b2 = ADAM_BETAS
        self.t += 1
        d, tmp = self._decayed_grad(), self._tmp
        # m = b1 m + (1 - b1) d and v = b2 v + ((1 - b2) d) d, as written
        self.m *= b1
        self.m += np.multiply(d, 1 - b1, out=tmp)
        self.v *= b2
        np.multiply(d, 1 - b2, out=tmp)
        tmp *= d
        self.v += tmp
        # value -= (lr * m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps); d's
        # buffer holds the denominator
        denom = np.divide(self.v, 1 - b2 ** self.t, out=d)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(self.m, 1 - b1 ** self.t, out=tmp)
        tmp *= self.cfg.lr
        tmp /= denom
        self.value -= tmp
        self.grad.fill(0.0)


@dataclass
class FitResult:
    history: dict[str, list] = field(default_factory=dict)
    best_epoch: int = 0


def evaluate(model, g: Graph, X: np.ndarray, labels: np.ndarray,
             mask: np.ndarray) -> float:
    """Accuracy under argmax with ties resolved toward the lowest class id."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise EmptyMask("evaluation mask is empty")
    return float(np.mean(_correct(model.forward(g, X).value,
                                  np.asarray(labels, dtype=np.int64))[mask]))


def _correct(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per node, whether the argmax class (lowest id on ties) is its label."""
    return np.argmax(logits, axis=1) == labels


def fit(model, g: Graph, X: np.ndarray, labels: np.ndarray,
        masks: SplitMasks, cfg: TrainConfig = TrainConfig()) -> FitResult:
    """Full-graph training with early stopping on validation loss.

    The parameters achieving the best validation loss are restored before
    returning. History lists carry one entry per executed epoch. Each epoch
    takes its train loss and gradient, its validation loss and both
    accuracies from one pass over the logits: one per-node cross-entropy
    (autodiff.cross_entropy_rows) and one argmax.
    """
    labels = np.asarray(labels, dtype=np.int64)
    opt = (_Adam if cfg.optimizer == "adam" else _SGD)(model.parameters(), cfg)
    val_mask = masks.val if masks.val.size else masks.train

    history = {"epoch": [], "train_loss": [], "val_loss": [],
               "train_acc": [], "val_acc": []}
    best_val = np.inf
    best_state = opt.value.copy()
    best_epoch = 0
    stale = 0
    for epoch in range(cfg.max_epochs):
        # one forward per epoch: gradient from the tape, metrics from its logits
        logits_t = model.forward(g, X)
        rows = ad.cross_entropy_rows(logits_t.value, labels)
        loss_t = ad.masked_cross_entropy(logits_t, labels, masks.train, rows)
        loss = float(loss_t.value)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss evaluated to {loss}")
        correct = _correct(logits_t.value, labels)
        Tape(loss_t).backward()
        opt.step()

        val_loss = float(np.mean(rows.nll[val_mask]))
        history["epoch"].append(epoch)
        history["train_loss"].append(loss)
        history["val_loss"].append(val_loss)
        history["train_acc"].append(float(np.mean(correct[masks.train])))
        history["val_acc"].append(float(np.mean(correct[val_mask])))

        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_state = opt.value.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    opt.restore(best_state)
    return FitResult(history=history, best_epoch=best_epoch)
