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
from .errors import FieldRangeError
from .graph import write_rows
from .layers import attention_ratio
from .models import PRESET_FIELDS, PRESETS, ModelSpec, build_model
from .train import FitResult, TrainConfig, evaluate, fit

# The config schema documented in the README, one table per section: each
# key maps to the field it sets and the ConfigView getter that parses it.
# model.preset decides which MODEL_KEYS a run reads (models.PRESET_FIELDS).
PRESET_KEY, DATASET_KEY, OUT_KEY = "model.preset", "dataset.dir", "out.dir"
MODEL_KEYS = {"model.hidden": ("hidden", "get_int"), "model.alpha": ("alpha", "get_float"),
              "model.q": ("q", "get_float"), "model.heads": ("heads", "get_int"),
              "model.low_powers": ("low_powers", "get_int_tuple"),
              "model.low_widths": ("low_widths", "get_int_tuple"),
              "model.band_widths": ("band_widths", "get_int_tuple"),
              "model.band_paths": ("band_paths", "get_paths")}
TRAIN_KEYS = {"train.lr": ("lr", "get_float"), "train.weight_decay": ("weight_decay", "get_float"),
              "train.epochs": ("max_epochs", "get_int"), "train.patience": ("patience", "get_int"),
              "train.seed": ("seed", "get_int"), "train.optimizer": ("optimizer", "get_str")}
SBM_KEYS = {"sbm.blocks": ("block_sizes", "get_int_tuple"), "sbm.p_in": ("p_in", "get_float"),
            "sbm.p_out": ("p_out", "get_float"), "sbm.feature_dim": ("feature_dim", "get_int"),
            "sbm.noise": ("noise_scale", "get_float"), "sbm.seed": ("seed", "get_int")}


def _present(cfg: ConfigView, table: dict) -> dict:
    """{field: value} for each key of a schema table that the config sets."""
    return {field: getattr(cfg, getter)(key)
            for key, (field, getter) in table.items() if cfg.has(key)}


def _checked(cfg: ConfigView, table: dict, make, **kwargs):
    """make(**kwargs), where a range error on a field that a key of table sets
    becomes a ConfigError naming the key and its line."""
    try:
        return make(**kwargs)
    except FieldRangeError as exc:
        lines = {key: cfg.values[key].line for key, (field, _) in table.items()
                 if field in exc.fields and cfg.has(key)}
        if not lines:
            raise
        key = min(lines, key=lines.get)
        raise ConfigError(f"key {key!r}: {exc}", line=lines[key]) from None


def _preset(cfg: ConfigView, preset: str | None) -> str:
    """The given preset, else model.preset, else ModelSpec's; model.preset is checked anyway."""
    named = cfg.get_str(PRESET_KEY)
    if named is not None and named not in PRESETS:
        raise ConfigError(f"unknown preset {named!r}; choose from {PRESETS}",
                          line=cfg.values[PRESET_KEY].line)
    return preset or named or ModelSpec.preset


def model_spec_from_config(cfg: ConfigView, preset: str | None = None) -> ModelSpec:
    return _checked(cfg, MODEL_KEYS, ModelSpec, preset=_preset(cfg, preset),
                    **_present(cfg, MODEL_KEYS))


def _check_keys(cfg: ConfigView, preset: str, data_flags: bool):
    """Raise ConfigError at the first line whose key the run does not read."""
    unread = {key: f"is not read by preset {preset}" for key, (field, _) in MODEL_KEYS.items()
              if field not in PRESET_FIELDS[preset]}
    if data_flags:
        unread.update(dict.fromkeys([DATASET_KEY, OUT_KEY, *SBM_KEYS],
                                    "is not read beside the data-file flags"))
    elif cfg.has(DATASET_KEY):
        unread.update(dict.fromkeys(SBM_KEYS, f"is not read beside {DATASET_KEY}"))
    schema = {PRESET_KEY, DATASET_KEY, OUT_KEY, *MODEL_KEYS, *TRAIN_KEYS, *SBM_KEYS}
    for key, cv in cfg.values.items():   # parse order is line order
        why = unread.get(key, None if key in schema else "is unknown")
        if why:
            raise ConfigError(f"key {key!r} {why}", line=cv.line)


def read_run_config(path=None, preset=None, seed=None, data_flags=False):
    """(config, ModelSpec, TrainConfig) of a train run, after checking every key.

    data_flags says the data-file flags give the data. preset and seed, when
    given, override model.preset and train.seed, which are parsed anyway. No
    path reads as an empty config.
    """
    cfg = ConfigView(parse_config(path) if path else {})
    _check_keys(cfg, _preset(cfg, preset), data_flags)
    tcfg = _present(cfg, TRAIN_KEYS)
    if seed is not None:
        tcfg["seed"] = seed
    return (cfg, model_spec_from_config(cfg, preset),
            _checked(cfg, TRAIN_KEYS, TrainConfig, **tcfg))


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
    """Execute one configured run and write the metrics files; see read_run_config."""
    cfg, spec, tcfg = read_run_config(config_path, preset, seed)
    out_dir = out_dir or cfg.get_str(OUT_KEY, "results")
    sbm = _present(cfg, SBM_KEYS)
    if cfg.has(DATASET_KEY):
        ds = load_dataset(cfg.get_str(DATASET_KEY))
    elif "block_sizes" in sbm:
        ds = generate_sbm(_checked(cfg, SBM_KEYS, SBMSpec, **sbm))
    else:
        raise ConfigError("config must set dataset.dir or sbm.blocks")
    echo(describe(ds))
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
