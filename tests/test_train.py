import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphscat.autodiff as ad
from graphscat import train
from graphscat.datasets import SBMSpec, describe, generate_sbm
from graphscat.errors import EmptyMask, NonFiniteLoss
from graphscat.models import PRESET_FIELDS, ModelSpec, build_model
from graphscat.train import SplitMasks, TrainConfig, evaluate, fit

from conftest import (
    PerParameterOptimizer,
    count_hop_builds,
    per_mask_cross_entropy,
    random_connected_graph,
)


class FixedLogitsModel:
    """Parameterless model pinning the logits, for loss/metric checks."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=np.float64)

    def parameters(self):
        return []

    def forward(self, g, X):
        return ad.constant(self.logits)


class LinearModel:
    """Plain logistic head on raw features; convex given the data."""

    def __init__(self, d_in, n_classes, rng):
        self.theta = ad.Parameter(0.01 * rng.standard_normal((d_in, n_classes)))

    def parameters(self):
        return [self.theta]

    def forward(self, g, X):
        return ad.matmul(ad.constant(X), self.theta)


def tiny_dataset(rng, n=30):
    edges, g = random_connected_graph(rng, n)
    X = rng.standard_normal((n, 4))
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]    # both classes present
    idx = rng.permutation(n)
    masks = SplitMasks(train=idx[: n // 2], val=idx[n // 2: 3 * n // 4],
                       test=idx[3 * n // 4:])
    return g, X, labels, masks


class TestForwardLoss:
    """The training loss of a forward pass: masked cross-entropy of its logits."""

    @staticmethod
    def _loss(model, g, X, labels, mask):
        return float(ad.masked_cross_entropy(model.forward(g, X), labels, mask).value)

    def test_confident_logits_give_tiny_loss(self, rng):
        g, X, labels, masks = tiny_dataset(rng)
        logits = np.full((g.n, 2), -40.0)
        logits[np.arange(g.n), labels] = 40.0
        assert self._loss(FixedLogitsModel(logits), g, X, labels, masks.train) < 1e-12

    def test_uniform_logits_give_log_c(self, rng):
        g, X, labels, masks = tiny_dataset(rng)
        loss = self._loss(FixedLogitsModel(np.zeros((g.n, 2))), g, X, labels, masks.train)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_nonfinite_loss_rejected(self, rng):
        g, X, labels, masks = tiny_dataset(rng)
        bad = np.zeros((g.n, 2))
        bad[masks.train[0], 0] = np.nan
        with pytest.raises(NonFiniteLoss):
            fit(FixedLogitsModel(bad), g, X, labels, masks, TrainConfig(max_epochs=3))

    def test_bit_identical_across_runs(self, rng):
        g, X, labels, masks = tiny_dataset(rng)
        model = build_model(ModelSpec(preset="sc-gcn"), 4, 2, seed=11)
        a = self._loss(model, g, X, labels, masks.train)
        b = self._loss(model, g, X, labels, masks.train)
        assert a == b


class TestFit:
    def test_zero_learning_rate_keeps_parameters(self, rng):
        g, X, labels, masks = tiny_dataset(rng)
        model = LinearModel(4, 2, rng)
        before = model.theta.value.copy()
        res = fit(model, g, X, labels, masks,
                  TrainConfig(lr=0.0, max_epochs=5, patience=10))
        assert np.array_equal(model.theta.value, before)
        assert len(set(res.history["train_loss"])) == 1

    def test_separable_sbm_reaches_full_train_accuracy(self):
        spec = SBMSpec(block_sizes=(40, 40), p_in=0.2, p_out=0.02,
                       noise_scale=0.5, seed=5)
        ds = generate_sbm(spec)

        # oracle: hand-rolled logistic regression on the same features hits 1.0
        X1 = np.concatenate([ds.features, np.ones((ds.graph.n, 1))], axis=1)
        y = ds.labels.astype(np.float64)
        w = np.zeros(X1.shape[1])
        for _ in range(2000):
            p = 1.0 / (1.0 + np.exp(-(X1 @ w)))
            w -= 0.5 * X1.T @ (p - y) / len(y)
        oracle_acc = np.mean((X1 @ w > 0) == (y > 0.5))
        assert oracle_acc == 1.0

        model = build_model(ModelSpec(preset="gcn-baseline"), ds.features.shape[1],
                            ds.n_classes, seed=0)
        fit(model, ds.graph, ds.features, ds.labels, ds.splits, TrainConfig(seed=0))
        train_acc = evaluate(model, ds.graph, ds.features, ds.labels, ds.splits.train)
        assert train_acc == 1.0

    @pytest.mark.parametrize("preset", ["gcn-baseline", "sc-gcn", "gsan"])
    def test_fit_never_builds_the_hop_table(self, monkeypatch, preset):
        # the n x n table is for the theory checks; training and describe do without
        built = count_hop_builds(monkeypatch)
        ds = generate_sbm(SBMSpec(block_sizes=(20, 20), p_in=0.2, p_out=0.02, seed=1))
        describe(ds)
        model = build_model(ModelSpec(preset=preset), ds.features.shape[1], ds.n_classes, seed=0)
        fit(model, ds.graph, ds.features, ds.labels, ds.splits, TrainConfig(seed=0, max_epochs=5))
        evaluate(model, ds.graph, ds.features, ds.labels, ds.splits.test)
        assert built == []

    def test_same_seed_identical_history(self, rng):
        g, X, labels, masks = tiny_dataset(rng)
        hist = []
        for _ in range(2):
            model = build_model(ModelSpec(preset="sc-gcn"), 4, 2, seed=3)
            res = fit(model, g, X, labels, masks,
                      TrainConfig(seed=3, max_epochs=12, patience=30))
            hist.append(res.history)
        assert hist[0] == hist[1]

    @pytest.mark.parametrize("preset,d_in", [
        ("gcn-baseline", 4), ("sc-gcn", 4), ("sc-gcn", 12), ("gsan", 4)])
    def test_fit_is_bit_deterministic(self, rng, preset, d_in):
        # sc-gcn at d_in 4 and gsan take the precomputed-response path, sc-gcn
        # at d_in 12 the per-epoch chains
        g, _, labels, masks = tiny_dataset(rng)
        X = rng.standard_normal((g.n, d_in))
        hidden = {"hidden": 6} if "hidden" in PRESET_FIELDS[preset] else {}
        runs = []
        for _ in range(2):
            model = build_model(ModelSpec(preset=preset, **hidden), d_in, 2, seed=5)
            res = fit(model, g, X, labels, masks,
                      TrainConfig(seed=5, max_epochs=15, patience=30))
            runs.append((res.history, [p.value.tobytes() for p in model.parameters()]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_convex_model_sgd_loss_nonincreasing(self, rng):
        g, X, labels, masks = tiny_dataset(rng, n=40)
        model = LinearModel(4, 2, rng)
        res = fit(model, g, X, labels, masks,
                  TrainConfig(optimizer="sgd", lr=0.05, weight_decay=0.0,
                              max_epochs=60, patience=60))
        losses = res.history["train_loss"]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_early_stopping_restores_best(self, rng):
        g, X, labels, masks = tiny_dataset(rng)
        model = build_model(ModelSpec(preset="gcn-baseline", hidden=8), 4, 2, seed=2)
        res = fit(model, g, X, labels, masks,
                  TrainConfig(max_epochs=80, patience=5, seed=2))
        assert res.best_epoch <= len(res.history["epoch"]) - 1


class TestEvaluate:
    def test_perfect_logits(self, rng):
        g, X, labels, masks = tiny_dataset(rng)
        logits = np.full((g.n, 2), -1.0)
        logits[np.arange(g.n), labels] = 1.0
        assert evaluate(FixedLogitsModel(logits), g, X, labels, masks.test) == 1.0

    def test_zero_logits_tie_break_to_class_zero(self, rng):
        g, X, labels, masks = tiny_dataset(rng)
        acc = evaluate(FixedLogitsModel(np.zeros((g.n, 3))), g, X, labels, masks.test)
        expected = np.mean(labels[masks.test] == 0)
        assert acc == pytest.approx(expected)

    def test_random_model_near_chance_on_balanced_labels(self):
        accs = []
        for seed in range(20):
            r = np.random.default_rng(seed)
            edges, g = random_connected_graph(r, 50)
            X = r.standard_normal((50, 6))
            labels = np.tile(np.arange(5), 10)
            model = build_model(ModelSpec(preset="gcn-baseline"), 6, 5, seed=seed)
            accs.append(evaluate(model, g, X, labels, np.arange(50)))
        assert abs(np.mean(accs) - 0.2) < 0.1

    def test_empty_mask(self, rng):
        g, X, labels, _ = tiny_dataset(rng)
        with pytest.raises(EmptyMask):
            evaluate(FixedLogitsModel(np.zeros((g.n, 2))), g, X, labels,
                     np.array([], dtype=np.int64))


class TestConfigsAndMasks:
    def test_masks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            SplitMasks(train=np.array([0, 1]), val=np.array([1]),
                       test=np.array([2]))

    def test_masks_nonempty(self):
        with pytest.raises(EmptyMask):
            SplitMasks(train=np.array([], dtype=np.int64), val=np.array([1]),
                       test=np.array([2]))

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="sgdm")
        TrainConfig(lr=0.0)   # explicitly legal

    @pytest.mark.parametrize("field", ["lr", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_train_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            TrainConfig(**{field: value})


class TestFlatOptimizer:
    """The flat-vector optimizers against the per-parameter loop, bit for bit."""

    SHAPES = [(3, 4), (1, 5), (6,), (2, 3, 2), (1, 1), (4, 1)]

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_per_parameter_loop(self, optimizer, seed):
        rng = np.random.default_rng(seed)
        values = [rng.standard_normal(shape) for shape in self.SHAPES]
        params = [ad.Parameter(v.copy()) for v in values]
        cfg = TrainConfig(lr=0.05, weight_decay=5e-3, optimizer=optimizer)
        opt = (train._Adam if optimizer == "adam" else train._SGD)(params, cfg)
        ref = PerParameterOptimizer(values, cfg)
        for step in range(60):
            grads = [rng.standard_normal(shape) for shape in self.SHAPES]
            for p, grad in zip(params, grads):
                p.grad += grad               # as autodiff.backward accumulates
            if step == 20:                   # a value reassigned between steps
                params[1].value = rng.standard_normal(self.SHAPES[1])
                ref.values[1] = params[1].value.copy()
            if step == 30:                   # and a gradient
                params[3].grad = grads[3].copy()
            opt.step()
            ref.step(grads)
            for p, want in zip(params, ref.values):
                assert p.value.tobytes() == want.tobytes()
                assert not p.grad.any()

    def test_values_are_views_of_the_flat_vector(self, rng):
        params = [ad.Parameter(rng.standard_normal(shape)) for shape in self.SHAPES]
        before = [p.value.copy() for p in params]
        opt = train._Adam(params, TrainConfig())
        assert opt.value.size == sum(int(np.prod(shape)) for shape in self.SHAPES)
        for p, want in zip(params, before):
            assert np.shares_memory(p.value, opt.value) and np.shares_memory(p.grad, opt.grad)
            assert np.array_equal(p.value, want)

    def test_fit_restores_the_best_epoch_parameters(self, rng, monkeypatch):
        # snapshots after every step; early stopping must hand back the best one
        g, X, labels, masks = tiny_dataset(rng)
        model = build_model(ModelSpec(preset="gsan", hidden=4), 4, 2, seed=2)
        snapshots = []
        step = train._Adam.__dict__["step"]

        def recorded(opt):
            step(opt)
            snapshots.append([p.value.copy() for p in opt.params])

        monkeypatch.setattr(train._Adam, "step", recorded)
        res = fit(model, g, X, labels, masks,
                  TrainConfig(lr=0.1, max_epochs=60, patience=3, seed=2))
        assert len(snapshots) == len(res.history["epoch"]) > res.best_epoch + 1
        for p, want in zip(model.parameters(), snapshots[res.best_epoch]):
            assert p.value.tobytes() == want.tobytes()
        # a later reassignment is what the next forward reads
        model.theta_res.value = np.zeros_like(model.theta_res.value)
        model.bias_res.value = np.zeros_like(model.bias_res.value)
        assert not model.forward(g, X).value.any()


class TestEpochMetrics:
    """fit's one pass over the logits against the per-mask formulas, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 40), classes=st.integers(2, 12),
           ties=st.booleans(), fortran=st.booleans(), empty_val=st.booleans())
    def test_history_matches_per_mask_formulas(self, seed, n, classes, ties, fortran,
                                               empty_val):
        rng = np.random.default_rng(seed)
        # small integers tie often (argmax takes the lowest class id); an F-ordered
        # array is what the sparse kernel returns
        logits = (rng.integers(-2, 3, size=(n, classes)).astype(np.float64) if ties
                  else 5.0 * rng.standard_normal((n, classes)))
        if fortran:
            logits = np.asfortranarray(logits)
        labels = rng.integers(0, classes, size=n)
        idx = rng.permutation(n)
        k = n // 3
        masks = SplitMasks(train=idx[:k], val=idx[k:k] if empty_val else idx[k:2 * k],
                           test=idx[2 * k:])
        res = fit(FixedLogitsModel(logits), None, None, labels, masks, TrainConfig(max_epochs=2))
        val = masks.train if empty_val else masks.val
        train_loss, _, train_acc = per_mask_cross_entropy(logits, labels, masks.train)
        val_loss, _, val_acc = per_mask_cross_entropy(logits, labels, val)
        assert res.history["train_loss"] == [train_loss] * 2
        assert res.history["val_loss"] == [val_loss] * 2
        assert res.history["train_acc"] == [train_acc] * 2
        assert res.history["val_acc"] == [val_acc] * 2

        z = ad.Parameter(logits)
        rows = ad.cross_entropy_rows(z.value, labels)
        loss = ad.masked_cross_entropy(z, labels, masks.train, rows)
        ad.backward(loss)
        _, grad, _ = per_mask_cross_entropy(logits, labels, masks.train)
        assert float(loss.value) == train_loss
        assert z.grad.tobytes() == grad.tobytes()
