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


def _present(cfg: ConfigView, fields) -> dict:
    """{name: value} for each (key, name, getter) whose key the config sets."""
    return {name: getattr(cfg, getter)(key) for key, name, getter in fields if cfg.has(key)}


def model_spec_from_config(cfg: ConfigView, preset: str | None = None) -> ModelSpec:
    kwargs = _present(cfg, [("model.hidden", "hidden", "get_int"),
                            ("model.alpha", "alpha", "get_float"),
                            ("model.q", "q", "get_float"),
                            ("model.heads", "heads", "get_int"),
                            ("model.low_powers", "low_powers", "get_int_tuple"),
                            ("model.low_widths", "low_widths", "get_int_tuple"),
                            ("model.band_widths", "band_widths", "get_int_tuple"),
                            ("model.band_paths", "band_paths", "get_paths")])
    return ModelSpec(preset=preset or cfg.get_str("model.preset", "sc-gcn"), **kwargs)


def train_config_from_config(cfg: ConfigView, seed: int | None = None) -> TrainConfig:
    """TrainConfig from the train.* keys the config sets; seed overrides train.seed.

    train.seed is parsed even when seed is given, so a config file is valid
    or invalid whatever the flags.
    """
    kwargs = _present(cfg, [("train.lr", "lr", "get_float"),
                            ("train.weight_decay", "weight_decay", "get_float"),
                            ("train.epochs", "max_epochs", "get_int"),
                            ("train.patience", "patience", "get_int"),
                            ("train.optimizer", "optimizer", "get_str"),
                            ("train.seed", "seed", "get_int")])
    if seed is not None:
        kwargs["seed"] = seed
    return TrainConfig(**kwargs)


def dataset_from_config(cfg: ConfigView) -> Dataset:
    if cfg.has("dataset.dir"):
        return load_dataset(cfg.get_str("dataset.dir"))
    if not cfg.has("sbm.blocks"):
        raise ConfigError("config must set dataset.dir or sbm.blocks")
    return generate_sbm(SBMSpec(
        block_sizes=cfg.get_int_tuple("sbm.blocks"),
        p_in=cfg.get_float("sbm.p_in", 0.1),
        p_out=cfg.get_float("sbm.p_out", 0.01),
        **_present(cfg, [("sbm.feature_dim", "feature_dim", "get_int"),
                         ("sbm.noise", "noise_scale", "get_float"),
                         ("sbm.seed", "seed", "get_int")])))


def write_metrics_csv(path, history: dict):
    cols = ["epoch", "train_loss", "val_loss", "train_acc", "val_acc"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        write_rows(fh, ",".join(["%.10g"] * len(cols)), np.column_stack([history[c] for c in cols]))


def write_attention_ratios(path, zeta: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node,zeta\n")
        write_rows(fh, "%d,%.10g", np.column_stack([np.arange(len(zeta)), zeta]))


def train_model(model, ds: Dataset, tcfg: TrainConfig):
    """Fit a built model on a dataset; returns (FitResult, test accuracy)."""
    result: FitResult = fit(model, ds.graph, ds.features, ds.labels, ds.splits, tcfg)
    return result, evaluate(model, ds.graph, ds.features, ds.labels, ds.splits.test)


def run_experiment(config_path, out_dir=None, echo=print, preset=None, seed=None) -> dict:
    """Execute one configured run and write the metrics files.

    preset and seed, when given, override the config's model.preset and
    train.seed.
    """
    cfg = ConfigView(parse_config(config_path))
    cfg.reject_unknown_keys(KNOWN_KEYS)
    out_dir = out_dir or cfg.get_str("out.dir", "results")

    ds = dataset_from_config(cfg)
    echo(describe(ds))
    spec = model_spec_from_config(cfg, preset=preset)
    tcfg = train_config_from_config(cfg, seed=seed)
    start = time.perf_counter()
    model = build_model(spec, ds.features.shape[1], ds.n_classes, seed=tcfg.seed)
    # only a run whose inputs all parsed and whose model builds gets a results directory
    os.makedirs(out_dir, exist_ok=True)
    result, acc = train_model(model, ds, tcfg)
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
