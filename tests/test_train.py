import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphscat.autodiff as ad
from graphscat import train
from graphscat.datasets import Dataset, SBMSpec, describe, generate_sbm
from graphscat.errors import (BadSplitIndex, EmptyMask, FieldRangeError, NonFiniteLoss,
                              SplitIndexOutOfRange)
from graphscat.models import PRESET_FIELDS, ModelSpec, build_model
from graphscat.train import SplitMasks, TrainConfig, evaluate, fit

from conftest import (
    PerParameterOptimizer,
    assert_plan,
    count_builds,
    per_mask_cross_entropy,
    random_connected_graph,
    training_sbm,
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
        # the n x n hop table and weight matrix are for the theory checks and
        # spectral tools; training and describe do without either
        hopped = count_builds(monkeypatch, "hops")
        weighed = count_builds(monkeypatch, "dense_weights")
        ds = generate_sbm(SBMSpec(block_sizes=(20, 20), p_in=0.2, p_out=0.02, seed=1))
        describe(ds)
        model = build_model(ModelSpec(preset=preset), ds.features.shape[1], ds.n_classes, seed=0)
        fit(model, ds.graph, ds.features, ds.labels, ds.splits, TrainConfig(seed=0, max_epochs=5))
        evaluate(model, ds.graph, ds.features, ds.labels, ds.splits.test)
        assert hopped == weighed == []

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
        ("gcn-baseline", 4), ("sc-gcn", 4), ("sc-gcn", 12), ("sc-gcn", 48), ("gsan", 4),
        ("sc-gcn", ad.SWAP_MIN_CONTRACTION), ("gsan", ad.SWAP_MIN_CONTRACTION)])
    def test_fit_is_bit_deterministic(self, rng, preset, d_in):
        # sc-gcn at d_in 4 and 12 (at most its 47 stacked Theta columns) and
        # gsan at d_in 4 (at most 2 x 6) take the precomputed-response path,
        # the others the per-epoch chains; at d_in SWAP_MIN_CONTRACTION, on
        # SWAP_MIN_ROWS nodes, the first-layer X Theta runs swapped
        n = ad.SWAP_MIN_ROWS if d_in >= ad.SWAP_MIN_CONTRACTION else 30
        g, _, labels, masks = tiny_dataset(rng, n)
        X = rng.standard_normal((g.n, d_in))
        hidden = {"hidden": 6} if "hidden" in PRESET_FIELDS[preset] else {}
        runs = []
        for _ in range(2):
            model = build_model(ModelSpec(preset=preset, **hidden), d_in, 2, seed=5)
            if preset != "gcn-baseline":
                assert_plan(model, "precomputed" if (preset, d_in) in
                            {("sc-gcn", 4), ("sc-gcn", 12), ("gsan", 4)} else "per-call")
            res = fit(model, g, X, labels, masks,
                      TrainConfig(seed=5, max_epochs=15, patience=30))
            runs.append((res.history, [p.value.tobytes() for p in model.parameters()]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_fit_ignores_gradients_of_an_earlier_backward(self):
        ds = generate_sbm(SBMSpec((20, 20), p_in=0.3, p_out=0.05, seed=1))
        runs = []
        for earlier_backward in (False, True):
            model = build_model(ModelSpec(preset="gcn-baseline"), ds.features.shape[1],
                                ds.n_classes, seed=0)
            if earlier_backward:
                ad.backward(ad.masked_cross_entropy(model.forward(ds.graph, ds.features),
                                                    ds.labels, ds.splits.train))
                assert any(p.grad.any() for p in model.parameters())
            res = fit(model, ds.graph, ds.features, ds.labels, ds.splits,
                      TrainConfig(max_epochs=5, patience=30))
            runs.append((res.history, [p.value.tobytes() for p in model.parameters()]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_precomputed_sc_gcn_fit_is_bit_deterministic(self):
        # sc-gcn on the criterion-7 block model (d_in 8, at most its 47
        # stacked Theta columns) fits on its precomputed responses
        ds = training_sbm("criterion-7")
        runs = []
        for _ in range(2):
            model = assert_plan(build_model(ModelSpec(preset="sc-gcn"), ds.features.shape[1],
                                            ds.n_classes, seed=0), "precomputed")
            res = fit(model, ds.graph, ds.features, ds.labels, ds.splits, TrainConfig(seed=0))
            runs.append((res.history, [p.value.tobytes() for p in model.parameters()]))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("preset,shape", [
        ("gcn-baseline", "wide"), ("sc-gcn", "wide"), ("gsan", "wide"), ("gsan", "criterion-7"),
        ("sc-gcn", "criterion-7")],
        ids=["gcn-baseline", "sc-gcn", "gsan", "gsan-criterion-7", "sc-gcn-criterion-7"])
    def test_epochs_after_the_first_peak_no_higher(self, preset, shape):
        # traced allocations, numpy's buffers included, from one forward to the
        # next: an epoch whose backward left its tape alive would overlap it
        # with the next forward's, 200-320 KB above the first epoch on sc-gcn
        # and gsan on the wide shape; the history lists and the interpreter's
        # free lists grow by under 1 KB an epoch. On the criterion-7 shape both
        # hybrid presets take their precomputed responses, on the wide one
        # their chains
        ds = training_sbm(shape)
        for epochs in (3, 10):   # the first fit fills numpy's small-object caches
            model = build_model(ModelSpec(preset=preset), ds.features.shape[1], ds.n_classes,
                                seed=0)
            if preset != "gcn-baseline":
                assert_plan(model, "precomputed" if shape == "criterion-7" else "per-call")
            peaks = self._epoch_peaks(model, ds, TrainConfig(max_epochs=epochs, patience=epochs))
        first, *later = peaks
        assert len(later) == 9
        assert max(later) - first < 16 * 1024, [p - first for p in later]

    @staticmethod
    def _epoch_peaks(model, ds, cfg):
        """Peak traced bytes of each epoch of fit, from one forward to the next."""
        peaks, forward = [], model.forward

        def traced(g, X):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return forward(g, X)

        model.forward = traced
        tracemalloc.start()
        try:
            fit(model, ds.graph, ds.features, ds.labels, ds.splits, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return peaks[1:]   # peaks[0] is fit's set-up before the first forward

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

    @pytest.mark.parametrize("index", [-40, -1, 30, 99])
    def test_mask_index_out_of_range(self, rng, index):
        # a negative index would read a node from the end; the forward pass never runs
        g, X, labels, _ = tiny_dataset(rng)

        class NoForward(FixedLogitsModel):
            def forward(self, g, X):
                pytest.fail("forward pass ran")

        with pytest.raises(SplitIndexOutOfRange,
                           match=rf"^evaluation split index {index} outside 0\.\.29$"):
            evaluate(NoForward(np.zeros((g.n, 2))), g, X, labels, [0, index])

    @pytest.mark.parametrize("mask,message", [
        # a boolean mask read as indices scored nodes 0 and 1 only
        (np.arange(30) >= 5, "evaluation split index False is not an integer"),
        ([0, 2.5], "evaluation split index 2.5 is not an integer"),
        ([np.inf], "evaluation split index inf is not an integer"),
        ([0, None], "evaluation split index None is not an integer"),
        (["1", "a"], "evaluation split index '1' is not an integer"),
    ])
    def test_mask_of_booleans_or_fractions_rejected(self, rng, mask, message):
        g, X, labels, _ = tiny_dataset(rng)

        class NoForward(FixedLogitsModel):
            def forward(self, g, X):
                pytest.fail("forward pass ran")

        with pytest.raises(BadSplitIndex, match=f"^{re.escape(message)}$"):
            evaluate(NoForward(np.zeros((g.n, 2))), g, X, labels, mask)

    def test_integral_float_mask_is_read_as_indices(self, rng):
        g, X, labels, masks = tiny_dataset(rng)
        model = FixedLogitsModel(rng.standard_normal((g.n, 2)))
        assert (evaluate(model, g, X, labels, masks.test.astype(np.float64))
                == evaluate(model, g, X, labels, masks.test))


class TestConfigsAndMasks:
    def test_masks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            SplitMasks(train=np.array([0, 1]), val=np.array([1]),
                       test=np.array([2]))

    @settings(max_examples=50, deadline=None)
    @given(parts=st.lists(st.lists(st.integers(0, 12), max_size=6), min_size=3, max_size=3)
           .filter(lambda parts: parts[0] and parts[2]))
    def test_disjointness_against_unique_oracle(self, parts):
        # the check the sort replaced: np.unique of all indices drops a repeat
        idx = np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])
        if np.unique(idx).size != idx.size:
            with pytest.raises(ValueError, match="^split masks must be pairwise disjoint$"):
                SplitMasks(*parts)
        else:
            SplitMasks(*parts)

    @pytest.mark.parametrize("parts,message", [
        # read as indices, these trained on nodes 1 and 0 and tested on 2 and 3
        (([True, False], [], [2]), "train split index True is not an integer"),
        (([0], [], [2.7, 3.2]), "test split index 2.7 is not an integer"),
        (([0], [1.0, 1.5], [2]), "val split index 1.5 is not an integer"),
        (([0], [], [2.0, np.nan]), "test split index nan is not an integer"),
        ((3, [], [2]), "train split must be a list of integers"),
        (([0], [[1, 2]], [3]), "val split must be a list of integers"),
        (([0, None], [], [2]), "train split index None is not an integer"),
        (([0], [1.5, None], [2]), "val split index 1.5 is not an integer"),
        (([0], ["a"], [2]), "val split index 'a' is not an integer"),
        (([0], [], [2 ** 70]), "test split index 1180591620717411303424 is not an integer"),
    ])
    def test_masks_reject_non_integer_indices(self, parts, message):
        with pytest.raises(BadSplitIndex, match=f"^{re.escape(message)}$"):
            SplitMasks(*parts)

    def test_masks_take_integer_and_empty_inputs(self):
        masks = SplitMasks(train=[0.0, 1.0], val=[], test=np.array([2], dtype=np.int32))
        assert [m.tolist() for m in (masks.train, masks.val, masks.test)] == [[0, 1], [], [2]]
        assert {m.dtype for m in (masks.train, masks.val, masks.test)} == {np.dtype(np.int64)}

    def test_masks_compare_by_identity(self):
        masks, twin = (SplitMasks(train=[0], val=[1], test=[2]) for _ in range(2))
        assert masks == masks and {masks: 1}[masks] == 1 and masks != twin

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

    def test_train_config_rejects_negative_seed(self):
        with pytest.raises(FieldRangeError, match="^seed must be >= 0, got -1$") as err:
            TrainConfig(seed=-1)
        assert err.value.fields == ("seed",)
        TrainConfig(seed=0)

    @pytest.mark.parametrize("parts,message", [
        # negative indices would train on nodes n-1 and n-2
        (([-1, -2], [], [-3]), "train split index -1 outside 0..29"),
        (([0, 99], [1], [2]), "train split index 99 outside 0..29"),
        (([0], [1, 30], [2]), "val split index 30 outside 0..29"),
        (([0], [1], [2, -30]), "test split index -30 outside 0..29"),
    ])
    def test_fit_rejects_split_index_out_of_range(self, rng, monkeypatch, parts, message):
        # checked once, before the optimizer is built and the first epoch runs
        g, X, labels, _ = tiny_dataset(rng)
        monkeypatch.setattr(train, "_Adam", lambda *a: pytest.fail("optimizer built"))
        with pytest.raises(SplitIndexOutOfRange, match=f"^{re.escape(message)}$"):
            fit(LinearModel(4, 2, rng), g, X, labels, SplitMasks(*parts))

    def test_dataset_and_fit_share_the_message(self, rng):
        g, X, labels, _ = tiny_dataset(rng)
        masks = SplitMasks(train=[0, 99], val=[1], test=[2])
        with pytest.raises(SplitIndexOutOfRange) as from_fit:
            fit(LinearModel(4, 2, rng), g, X, labels, masks)
        with pytest.raises(SplitIndexOutOfRange) as from_dataset:
            Dataset("tiny", g, X, labels, masks)
        assert str(from_fit.value) == str(from_dataset.value) == (
            "train split index 99 outside 0..29")

    @pytest.mark.parametrize("field,value", [
        ("max_epochs", 2.5),     # was accepted, then failed in range()
        ("max_epochs", True),
        ("patience", 3.0),
        ("seed", np.False_),
    ])
    def test_train_config_rejects_non_integer(self, field, value):
        message = f"^{field} takes integers, got {value!r}$"
        with pytest.raises(FieldRangeError, match=message) as err:
            TrainConfig(**{field: value})
        assert err.value.fields == (field,)

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
        for _ in range(60):
            grads = [rng.standard_normal(shape) for shape in self.SHAPES]
            for p, grad in zip(params, grads):
                p.grad += grad               # as autodiff.backward accumulates
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
        # snapshots before every step, of the parameters whose logits gave the
        # epoch's val loss; early stopping must hand back the best epoch's
        g, X, labels, masks = tiny_dataset(rng)
        model = build_model(ModelSpec(preset="gsan", hidden=4), 4, 2, seed=2)
        snapshots = []
        step = train._Adam.__dict__["step"]

        def recorded(opt):
            snapshots.append([p.value.copy() for p in model.parameters()])
            step(opt)

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

    @pytest.mark.parametrize("preset", sorted(PRESET_FIELDS))
    def test_restored_parameters_give_the_best_val_loss(self, preset):
        ds = training_sbm("criterion-7")
        model = build_model(ModelSpec(preset=preset), ds.features.shape[1], ds.n_classes)
        res = fit(model, ds.graph, ds.features, ds.labels, ds.splits,
                  TrainConfig(max_epochs=60, patience=5))
        logits = model.forward(ds.graph, ds.features).value
        val_loss = float(np.mean(ad.cross_entropy_rows(logits, ds.labels).nll[ds.splits.val]))
        assert val_loss == res.history["val_loss"][res.best_epoch]


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
