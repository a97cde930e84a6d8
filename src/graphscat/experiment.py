"""Config-driven experiment runs: dataset in, metrics files out.

run_experiment writes metrics.csv (one row per epoch), summary.txt (final
test accuracy and runtime) and, for attention models, attention_ratios.csv
with one band-to-low ratio per node.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .config import ConfigError, ConfigView, parse_config
from .datasets import Dataset, SBMSpec, describe, generate_sbm, load_dataset
from .graph import write_rows
from .layers import attention_ratio
from .models import ModelSpec, build_model
from .train import FitResult, TrainConfig, evaluate, fit

# the config schema documented in the README; any other key is an error
KNOWN_KEYS = frozenset(
    ["dataset.dir", "out.dir"]
    + [f"sbm.{k}" for k in ("blocks", "p_in", "p_out", "feature_dim", "noise", "seed")]
    + [f"model.{k}" for k in ("preset", "hidden", "alpha", "q", "heads", "low_powers",
                              "low_widths", "band_widths", "band_paths")]
    + [f"train.{k}" for k in ("lr", "weight_decay", "epochs", "patience", "seed",
                              "optimizer")])


def model_spec_from_config(cfg: ConfigView, preset: str | None = None) -> ModelSpec:
    kwargs = dict(preset=preset or cfg.get_str("model.preset", "sc-gcn"))
    if cfg.has("model.hidden"):
        kwargs["hidden"] = cfg.get_int("model.hidden")
    if cfg.has("model.alpha"):
        kwargs["alpha"] = cfg.get_float("model.alpha")
    if cfg.has("model.q"):
        kwargs["q"] = cfg.get_float("model.q")
    if cfg.has("model.heads"):
        kwargs["heads"] = cfg.get_int("model.heads")
    if cfg.has("model.low_powers"):
        kwargs["low_powers"] = cfg.get_int_tuple("model.low_powers")
    if cfg.has("model.low_widths"):
        kwargs["low_widths"] = cfg.get_int_tuple("model.low_widths")
    if cfg.has("model.band_widths"):
        kwargs["band_widths"] = cfg.get_int_tuple("model.band_widths")
    if cfg.has("model.band_paths"):
        kwargs["band_paths"] = cfg.get_paths("model.band_paths")
    return ModelSpec(**kwargs)


def train_config_from_config(cfg: ConfigView, seed: int | None = None) -> TrainConfig:
    return TrainConfig(
        lr=cfg.get_float("train.lr", 1e-2),
        weight_decay=cfg.get_float("train.weight_decay", 5e-4),
        max_epochs=cfg.get_int("train.epochs", 200),
        patience=cfg.get_int("train.patience", 30),
        seed=seed if seed is not None else cfg.get_int("train.seed", 0),
        optimizer=cfg.get_str("train.optimizer", "adam"),
    )


def dataset_from_config(cfg: ConfigView) -> Dataset:
    if cfg.has("dataset.dir"):
        return load_dataset(cfg.get_str("dataset.dir"))
    if not cfg.has("sbm.blocks"):
        raise ConfigError("config must set dataset.dir or sbm.blocks")
    spec = SBMSpec(
        block_sizes=cfg.get_int_tuple("sbm.blocks"),
        p_in=cfg.get_float("sbm.p_in", 0.1),
        p_out=cfg.get_float("sbm.p_out", 0.01),
        feature_dim=cfg.get_int("sbm.feature_dim", 8),
        noise_scale=cfg.get_float("sbm.noise", 1.0),
        seed=cfg.get_int("sbm.seed", 0),
    )
    return generate_sbm(spec)


def write_metrics_csv(path, history: dict):
    cols = ["epoch", "train_loss", "val_loss", "train_acc", "val_acc"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        write_rows(fh, ",".join(["%.10g"] * len(cols)), np.column_stack([history[c] for c in cols]))


def write_attention_ratios(path, zeta: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node,zeta\n")
        write_rows(fh, "%d,%.10g", np.column_stack([np.arange(len(zeta)), zeta]))


def run_trained_model(ds: Dataset, spec: ModelSpec, tcfg: TrainConfig):
    """Train a preset on a dataset; returns (model, FitResult, test accuracy)."""
    model = build_model(spec, ds.features.shape[1], ds.n_classes, seed=tcfg.seed)
    result: FitResult = fit(model, ds.graph, ds.features, ds.labels, ds.splits, tcfg)
    acc = evaluate(model, ds.graph, ds.features, ds.labels, ds.splits.test)
    return model, result, acc


def run_experiment(config_path, out_dir=None, echo=print, preset=None, seed=None) -> dict:
    """Execute one configured run and write the metrics files.

    preset and seed, when given, override the config's model.preset and
    train.seed.
    """
    cfg = ConfigView(parse_config(config_path))
    cfg.reject_unknown_keys(KNOWN_KEYS)
    out_dir = out_dir or cfg.get_str("out.dir", "results")
    os.makedirs(out_dir, exist_ok=True)

    ds = dataset_from_config(cfg)
    echo(describe(ds))
    spec = model_spec_from_config(cfg, preset=preset)
    tcfg = train_config_from_config(cfg, seed=seed)

    start = time.perf_counter()
    model, result, acc = run_trained_model(ds, spec, tcfg)
    runtime = time.perf_counter() - start

    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), result.history)
    lines = [f"dataset: {ds.name}", f"preset: {spec.preset}",
             f"test_accuracy: {acc:.4f}", f"runtime_seconds: {runtime:.2f}",
             f"epochs_run: {len(result.history['epoch'])}",
             f"best_epoch: {result.best_epoch}"]
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    echo("\n".join(lines))

    # evaluate's forward left last_attention at the restored best parameters
    if getattr(model, "last_attention", None) is not None:
        zeta = attention_ratio(model.last_attention)
        write_attention_ratios(os.path.join(out_dir, "attention_ratios.csv"), zeta)

    return {"test_accuracy": acc, "runtime": runtime, "out_dir": out_dir,
            "preset": spec.preset}
