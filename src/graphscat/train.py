"""Masked-loss semi-supervised training over the layer compositions.

The loss is softmax cross-entropy averaged over the training mask; gradients
come from the reverse-mode tape in autodiff. Runs are deterministic given a
seed: fixed parameter order, no dropout, single-threaded updates. Early
stopping watches validation loss and restores the best parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape
from .errors import EmptyMask, NonFiniteLoss
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
        for name, value in (("lr", self.lr), ("weight_decay", self.weight_decay)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # lr = 0 is legal and leaves parameters untouched (useful in tests)
        if self.lr < 0 or self.max_epochs <= 0 or self.patience <= 0:
            raise ValueError("lr must be >= 0; max_epochs and patience positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


class _SGD:
    def __init__(self, params, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg

    def step(self):
        for p in self.params:
            g = p.grad + self.cfg.weight_decay * p.value
            p.value = p.value - self.cfg.lr * g
            p.zero_grad()


class _Adam:
    def __init__(self, params, cfg: TrainConfig):
        self.params = params
        self.cfg = cfg
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def step(self):
        b1, b2 = ADAM_BETAS
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad + self.cfg.weight_decay * p.value
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1 ** self.t)
            vhat = self.v[i] / (1 - b2 ** self.t)
            p.value = p.value - self.cfg.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            p.zero_grad()


@dataclass
class FitResult:
    model: object
    history: dict[str, list] = field(default_factory=dict)
    best_epoch: int = 0


def evaluate(model, g: Graph, X: np.ndarray, labels: np.ndarray,
             mask: np.ndarray) -> float:
    """Accuracy under argmax with ties resolved toward the lowest class id."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise EmptyMask("evaluation mask is empty")
    return _accuracy_from_logits(model.forward(g, X).value,
                                 np.asarray(labels, dtype=np.int64), mask)


def _accuracy_from_logits(logits: np.ndarray, labels, mask) -> float:
    pred = np.argmax(logits[mask], axis=1)
    return float(np.mean(pred == labels[mask]))


def _masked_ce_numpy(logits: np.ndarray, labels, mask) -> float:
    z = logits[mask]
    zmax = np.max(z, axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.sum(np.exp(z - zmax), axis=1))
    return float(np.mean(lse - z[np.arange(z.shape[0]), labels[mask]]))


def fit(model, g: Graph, X: np.ndarray, labels: np.ndarray,
        masks: SplitMasks, cfg: TrainConfig = TrainConfig()) -> FitResult:
    """Full-graph training with early stopping on validation loss.

    The parameters achieving the best validation loss are restored before
    returning. History lists carry one entry per executed epoch.
    """
    labels = np.asarray(labels, dtype=np.int64)
    params = model.parameters()
    opt = _Adam(params, cfg) if cfg.optimizer == "adam" else _SGD(params, cfg)
    val_mask = masks.val if masks.val.size else masks.train

    history = {"epoch": [], "train_loss": [], "val_loss": [],
               "train_acc": [], "val_acc": []}
    best_val = np.inf
    best_state = [p.value.copy() for p in params]
    best_epoch = 0
    stale = 0
    for epoch in range(cfg.max_epochs):
        # one forward per epoch: gradient from the tape, metrics from its logits
        logits_t = model.forward(g, X)
        loss_t = ad.masked_cross_entropy(logits_t, labels, masks.train)
        loss = float(loss_t.value)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss evaluated to {loss}")
        Tape(loss_t).backward()
        logits = logits_t.value
        opt.step()

        val_loss = _masked_ce_numpy(logits, labels, val_mask)
        history["epoch"].append(epoch)
        history["train_loss"].append(loss)
        history["val_loss"].append(val_loss)
        history["train_acc"].append(_accuracy_from_logits(logits, labels, masks.train))
        history["val_acc"].append(_accuracy_from_logits(logits, labels, val_mask))

        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_state = [p.value.copy() for p in params]
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    for p, v in zip(params, best_state):
        p.value = v
    return FitResult(model=model, history=history, best_epoch=best_epoch)
