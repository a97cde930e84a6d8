"""Masked-loss semi-supervised training over the layer compositions.

The loss is softmax cross-entropy averaged over the training mask; gradients
come from the reverse-mode tape in autodiff. A run repeats bit for bit given
the same seed and inputs, the same numpy and OpenBLAS build and the same
OPENBLAS_NUM_THREADS: the parameter order is fixed and there is no dropout,
but a BLAS product may round differently on another thread count or build.
Early stopping watches validation loss and restores the best parameters.

Per epoch the fixed cost is kept to whole-array work: Adam and SGD update
one flat vector that every parameter's value and gradient are views into,
bound once when fit builds the optimizer, and the train loss, its gradient,
the validation loss and both accuracies come from one per-node
cross-entropy pass and one argmax over the logits. An epoch holds one
tape: backward consumes the graph as it walks it, so the forward values
of one epoch are freed before the next epoch's forward pass allocates its
own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .errors import BadSplitIndex, EmptyMask, FieldRangeError, NonFiniteLoss, SplitIndexOutOfRange
from .graph import Graph, int64_values

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def _split_indices(part: str, idx) -> np.ndarray:
    """idx as int64 node indices; BadSplitIndex, in read_splits' wording, when
    it is not one list or at its first value that is not an integer (a
    boolean, a fraction, NaN, None, text)."""
    idx = np.asarray(idx)
    if idx.ndim != 1:
        raise BadSplitIndex(f"{part} split must be a list of integers")
    ints, nonint = int64_values(idx)
    bad = idx[nonint | (idx.dtype == bool)]
    if bad.size:
        raise BadSplitIndex(f"{part} split index {bad.tolist()[0]!r} is not an integer")
    return ints


def _check_range(part: str, idx: np.ndarray, n: int):
    """Raise SplitIndexOutOfRange at the first index of idx outside 0..n-1."""
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise SplitIndexOutOfRange(f"{part} split index {int(bad[0])} outside 0..{n - 1}")


@dataclass(frozen=True, eq=False)
class SplitMasks:
    """Disjoint train/val/test node index arrays; train and test nonempty.

    A boolean or fractional index raises BadSplitIndex: masks are index
    lists, not boolean selections. The masks do not know the node count:
    check_range(n) bounds them, and Dataset and fit call it before any
    index is read; evaluate runs the same check on its one mask.
    """

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "val", "test"):
            object.__setattr__(self, name, _split_indices(name, getattr(self, name)))
        if self.train.size == 0 or self.test.size == 0:
            raise EmptyMask("train and test masks must be nonempty")
        all_idx = np.sort(np.concatenate([self.train, self.val, self.test]))
        if np.any(all_idx[1:] == all_idx[:-1]):
            raise ValueError("split masks must be pairwise disjoint")

    def check_range(self, n: int):
        """Raise SplitIndexOutOfRange at the first index outside 0..n-1, naming its part."""
        for part in ("train", "val", "test"):
            _check_range(part, getattr(self, part), n)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and stopping settings of a fit: finite lr and weight_decay
    >= 0, positive max_epochs and patience, a seed >= 0 and adam or sgd; a
    value out of range raises FieldRangeError naming its field."""

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
        if self.seed < 0:
            raise FieldRangeError(f"seed must be >= 0, got {self.seed}", "seed")
        if self.optimizer not in ("adam", "sgd"):
            raise FieldRangeError(f"unknown optimizer {self.optimizer!r}; choose adam or sgd",
                                  "optimizer")


class _FlatOptimizer:
    """Optimizer state and arithmetic on one flat vector over all parameters.

    At construction every parameter's value and gradient become views into
    two flat float64 buffers, .value and .grad (zeroed, so no gradient from
    before fit enters a step), in parameter order, so a step is a fixed
    number of whole-vector array operations however many parameters there
    are, each the per-parameter formula applied elementwise: the bits are
    those of a per-parameter loop. fit owns the optimizer, and backward
    adds into .grad in place, so the views stay bound for the whole fit.
    """

    def __init__(self, params, cfg: TrainConfig):
        self.cfg = cfg
        total = sum(p.value.size for p in params)
        self.value, self.grad, self._tmp = np.empty(total), np.zeros(total), np.empty(total)
        end = 0
        for p in params:
            start, end = end, end + p.value.size
            value = self.value[start:end].reshape(p.value.shape)
            value[...] = p.value
            p.value, p.grad = value, self.grad[start:end].reshape(p.value.shape)

    def restore(self, state: np.ndarray):
        """Set every parameter from a copy of .value taken earlier."""
        self.value[...] = state

    def _decayed_grad(self) -> np.ndarray:
        """grad + weight_decay * value, written over .grad (step zeroes it after)."""
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
    """Accuracy on the nodes of mask under argmax, ties resolved toward the
    lowest class id. Before the forward pass, a mask that is not integer
    indices raises BadSplitIndex, an empty one EmptyMask, and an index
    outside 0..n-1, n the number of labels, SplitIndexOutOfRange."""
    mask = _split_indices("evaluation", mask)
    if mask.size == 0:
        raise EmptyMask("evaluation mask is empty")
    labels = np.asarray(labels, dtype=np.int64)
    _check_range("evaluation", mask, len(labels))
    return float(np.mean(_correct(model.forward(g, X).value, labels)[mask]))


def _correct(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per node, whether the argmax class (lowest id on ties) is its label."""
    return np.argmax(logits, axis=1) == labels


def fit(model, g: Graph, X: np.ndarray, labels: np.ndarray,
        masks: SplitMasks, cfg: TrainConfig = TrainConfig()) -> FitResult:
    """Full-graph training with early stopping on validation loss.

    Epoch e's validation loss comes from the parameters before its step, and
    those are the ones snapshotted, so the parameters achieving the best
    validation loss, history["val_loss"][best_epoch], are restored before
    returning. History lists carry one entry per executed epoch. Each epoch
    takes its train loss and gradient, its validation loss and both
    accuracies from one pass over the logits: one per-node cross-entropy
    (autodiff.cross_entropy_rows) and one argmax. A mask index outside
    0..n-1, n the number of labels, raises SplitIndexOutOfRange before the
    first epoch.
    """
    labels = np.asarray(labels, dtype=np.int64)
    masks.check_range(len(labels))
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
        val_loss = float(np.mean(rows.nll[val_mask]))
        # the logits came from the parameters before this epoch's step
        improved = val_loss < best_val - 1e-12
        if improved:
            best_val = val_loss
            best_state = opt.value.copy()
            best_epoch = epoch
        Tape(loss_t).backward()
        opt.step()

        history["epoch"].append(epoch)
        history["train_loss"].append(loss)
        history["val_loss"].append(val_loss)
        history["train_acc"].append(float(np.mean(correct[masks.train])))
        history["val_acc"].append(float(np.mean(correct[val_mask])))

        stale = 0 if improved else stale + 1
        if stale >= cfg.patience:
            break

    opt.restore(best_state)
    return FitResult(history=history, best_epoch=best_epoch)
