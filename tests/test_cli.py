import argparse
import gzip
import json
from pathlib import Path

import numpy as np
import pytest

from graphscat import cli, experiment
from graphscat.cli import main
from graphscat.config import ConfigError, ConfigView, parse_config_text
from graphscat.datasets import SBMSpec, generate_sbm, load_dataset, save_dataset
from graphscat.experiment import (
    DATASET_KEY,
    MODEL_KEYS,
    OUT_KEY,
    PRESET_KEY,
    SBM_KEYS,
    TRAIN_KEYS,
    run_experiment,
)
from graphscat.graph import read_edge_list
from graphscat.layers import attention_ratio
from graphscat.models import GSAN, PRESET_FIELDS, PRESETS, ModelSpec, build_model
from graphscat.scattering import ABS, cascade
from graphscat.spectral import (
    chebyshev_filter,
    gcn_unnormalized,
    lowpass_filter,
    spectral_response,
    wavelet_filter,
)

from conftest import (
    count_eigendecompositions,
    count_kernel_calls,
    per_edge_write_edge_list,
    per_value_csv,
)


# `graphscat verify-theory` stdout: one line per fixture, then the tally
VERIFY_THEORY_STDOUT = """\
two-coloring-C4            PASS  lowpass dev 1.11e-16, band dev 0.00e+00
two-coloring-C6            PASS  lowpass dev 1.11e-16, band dev 0.00e+00
two-coloring-C8            PASS  lowpass dev 1.11e-16, band dev 0.00e+00
two-coloring-K33           PASS  lowpass dev 2.22e-16, band dev 0.00e+00
two-coloring-cube          PASS  lowpass dev 2.22e-16, band dev 0.00e+00
c6-rotation                PASS  max deviation 0.000e+00
pendant-path-hidden-leaf   PASS  max deviation 0.000e+00
pendant-path-radius-guard  PASS  guard fired: (K+L)-neighborhoods of 0 and 6 are not phi-isomorphic
pendant-path-d1            PASS  d=1 path=(0,) separation=8.333e-02 gcn=0.000e+00 onion=True
pendant-path-d2            PASS  d=2 path=(1,) separation=2.083e-02 gcn=0.000e+00 onion=True
pendant-path-d3            PASS  d=3 path=(0, 1) separation=5.208e-03 gcn=0.000e+00 onion=True
pendant-path-d5            PASS  d=5 path=(0, 2) separation=3.255e-04 gcn=0.000e+00 onion=True
barbell-bell-vs-leaves     PASS  d=4 path=(2,) separation=7.813e-04 gcn=0.000e+00 onion=True
coincidental-gadget        PASS  guard fired: coincidental correspondence at nodes [0]
pendant-path-d3-unique     PASS  d=3 path=(0, 1) separation=5.208e-03 gcn=0.000e+00 onion=True
fork-equidistant           PASS  guard fired: nearest difference node not unique: [2, 7]
square-double-path         PASS  guard fired: 2 shortest paths between 0 and 3
17/17 fixtures passed
"""


class TestConfigParsing:
    def test_basic_parse_with_comments(self):
        values = parse_config_text("# top\nmodel.preset = gsan  # inline\n\ntrain.lr=0.02\n")
        assert values["model.preset"].raw == "gsan"
        assert values["train.lr"].line == 4

    def test_missing_equals_names_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("model.preset = ok\nbroken line\n")
        assert "line 2" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("a = 1\na = 2\n")

    def test_typed_getters(self):
        view = ConfigView(parse_config_text(
            "a = 3\nb = 0.5\nc = 1,2,3\nd = 1|0,2\n"))
        assert view.get_int("a") == 3
        assert view.get_float("b") == 0.5
        assert view.get_int_tuple("c") == (1, 2, 3)
        assert view.get_paths("d") == ((1,), (0, 2))
        assert view.get_int("missing", 7) == 7

    def test_type_error_names_line(self):
        view = ConfigView(parse_config_text("x = notanint\n"))
        with pytest.raises(ConfigError) as err:
            view.get_int("x")
        assert "line 1" in str(err.value)


@pytest.fixture(scope="module")
def small_dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "sbm"
    ds = generate_sbm(SBMSpec(block_sizes=(20, 20), p_in=0.3, p_out=0.03, seed=2))
    save_dataset(ds, root)
    return root


class TestCliCommands:
    def test_gen_sbm_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["gen-sbm", "--blocks", "15,15", "--p-in", "0.3",
                   "--p-out", "0.05", "--seed", "1", "--out", str(out)])
        assert rc == 0
        for fname in ("edges.tsv", "features.csv", "labels.csv", "splits.json"):
            assert (out / fname).exists()
        assert "n=30" in capsys.readouterr().out

    def test_gen_sbm_features_match_per_value_writer(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["gen-sbm", "--blocks", "15,12", "--p-in", "0.3", "--p-out", "0.05",
                     "--feature-dim", "5", "--seed", "4", "--out", str(out)]) == 0
        ds = generate_sbm(SBMSpec(block_sizes=(15, 12), p_in=0.3, p_out=0.05,
                                  feature_dim=5, seed=4))
        want = per_value_csv(None, list(ds.features.T), [".17g"] * 5)
        assert (out / "features.csv").read_text() == want
        per_edge_write_edge_list(ds.graph, tmp_path / "edges.tsv")
        assert (out / "edges.tsv").read_bytes() == (tmp_path / "edges.tsv").read_bytes()

    @pytest.mark.parametrize("blocks", ["0,5", "5,-1"])
    def test_gen_sbm_rejects_empty_block(self, tmp_path, capsys, blocks):
        # a block without nodes would leave a class id unused, which every
        # loader rejects as non-dense
        out = tmp_path / "out"
        assert main(["gen-sbm", "--blocks", blocks, "--out", str(out)]) == 2
        assert "error: every block needs at least 1 node" in capsys.readouterr().err
        assert not out.exists()

    def test_train_with_explicit_files(self, small_dataset_dir, tmp_path, capsys):
        metrics = tmp_path / "metrics.csv"
        rc = main(["train",
                   "--graph", str(small_dataset_dir / "edges.tsv"),
                   "--features", str(small_dataset_dir / "features.csv"),
                   "--labels", str(small_dataset_dir / "labels.csv"),
                   "--splits", str(small_dataset_dir / "splits.json"),
                   "--preset", "gcn-baseline", "--seed", "0",
                   "--out", str(metrics)])
        assert rc == 0
        header = metrics.read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,train_acc,val_acc"
        assert "test_accuracy" in capsys.readouterr().out

    def test_train_files_with_config_knobs(self, small_dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("model.preset = sc-gcn\nmodel.alpha = 0.5\n"
                       "train.epochs = 5\ntrain.lr = 0.02\n")
        metrics = tmp_path / "m.csv"
        rc = main(["train", "--config", str(cfg),
                   "--graph", str(small_dataset_dir / "edges.tsv"),
                   "--features", str(small_dataset_dir / "features.csv"),
                   "--labels", str(small_dataset_dir / "labels.csv"),
                   "--splits", str(small_dataset_dir / "splits.json"),
                   "--out", str(metrics)])
        assert rc == 0
        assert len(metrics.read_text().splitlines()) == 6   # header + 5 epochs

    def test_attention_ratios_beside_extensionless_out(self, small_dataset_dir, tmp_path,
                                                      capsys):
        # the ratio file name comes from --out without its extension; a dot
        # in a directory name is not one
        cfg = tmp_path / "model.cfg"
        cfg.write_text("model.preset = gsan\nmodel.heads = 1\nmodel.hidden = 6\n"
                       "train.epochs = 3\n")
        out_dir = tmp_path / "runs.v2"
        out_dir.mkdir()
        rc = main(["train", "--config", str(cfg),
                   "--graph", str(small_dataset_dir / "edges.tsv"),
                   "--features", str(small_dataset_dir / "features.csv"),
                   "--labels", str(small_dataset_dir / "labels.csv"),
                   "--splits", str(small_dataset_dir / "splits.json"),
                   "--out", str(out_dir / "metrics")])
        assert rc == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "metrics", "metrics_attention_ratios.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.cfg", "runs.v2"]
        assert str(out_dir / "metrics_attention_ratios.csv") in capsys.readouterr().out

    @pytest.mark.parametrize("flags,want", [
        ([], ("sc-gcn", 3)),                                 # the config decides
        (["--seed", "5"], ("sc-gcn", 5)),
        (["--preset", "gcn-baseline", "--seed", "0"], ("gcn-baseline", 0)),
    ])
    @pytest.mark.parametrize("with_files", [False, True])
    def test_given_flags_override_the_config(self, small_dataset_dir, tmp_path, monkeypatch,
                                             capsys, flags, want, with_files):
        # a flag that is given wins over model.preset / train.seed; one that
        # is not given leaves the config's value, in both train modes
        seen = []

        def spy(spec, d_in, n_classes, seed=0):
            seen.append((spec.preset, seed))
            return build_model(spec, d_in, n_classes, seed=seed)

        monkeypatch.setattr(cli, "build_model", spy)
        monkeypatch.setattr(experiment, "build_model", spy)
        settings = "model.preset = sc-gcn\ntrain.seed = 3\ntrain.epochs = 2\n"
        argv = ["train", "--config", str(tmp_path / "exp.cfg")] + flags
        if with_files:
            argv += ["--out", str(tmp_path / "m.csv")]
            for flag, name in (("graph", "edges.tsv"), ("features", "features.csv"),
                               ("labels", "labels.csv"), ("splits", "splits.json")):
                argv += [f"--{flag}", str(small_dataset_dir / name)]
        else:
            settings += f"dataset.dir = {small_dataset_dir}\n"
            argv += ["--out-dir", str(tmp_path / "res")]
        (tmp_path / "exp.cfg").write_text(settings)
        assert main(argv) == 0
        assert seen == [want]

    @pytest.mark.parametrize("paths", ["-1", "1|0,-1"])
    def test_scatter_rejects_negative_scale(self, small_dataset_dir, tmp_path, capsys,
                                            monkeypatch, paths):
        # every scale is checked before the first chain runs
        calls = count_kernel_calls(monkeypatch)
        out = tmp_path / "scatter.csv"
        assert main(["scatter", "--graph", str(small_dataset_dir / "edges.tsv"),
                     "--features", str(small_dataset_dir / "features.csv"),
                     f"--paths={paths}", "--out", str(out)]) == 2
        assert "error: wavelet scale -1 must be >= 0" in capsys.readouterr().err
        assert not out.exists()
        assert calls == []

    @pytest.mark.parametrize("setting,message", [
        ("model.band_paths = -1|3", "wavelet scale -1 must be >= 0"),
        # a spec's range error names the key and its line
        pytest.param("train.lr = nan", "line 2: key 'train.lr': lr must be finite, got nan",
                     id="train.lr = nan-lr must be finite, got nan"),
        pytest.param("train.weight_decay = inf",
                     "line 2: key 'train.weight_decay': weight_decay must be finite, got inf",
                     id="train.weight_decay = inf-weight_decay must be finite, got inf"),
        pytest.param("model.preset = gsan\nmodel.heads = 0",
                     "line 3: key 'model.heads': heads must be >= 1, got 0",
                     id="model.preset = gsan\nmodel.heads = 0-attention needs at least one head"),
    ])
    def test_train_config_rejected_before_fitting(self, small_dataset_dir, tmp_path, capsys,
                                                   monkeypatch, setting, message):
        def no_fit(*args, **kwargs):
            pytest.fail("fit started")

        monkeypatch.setattr(experiment, "fit", no_fit)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset.dir = {small_dataset_dir}\n{setting}\n"
                       f"out.dir = {tmp_path / 'results'}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_train_missing_files_flagged(self, capsys):
        rc = main(["train", "--preset", "sc-gcn"])
        assert rc == 2
        assert "--graph" in capsys.readouterr().err

    def test_experiment_config_mode(self, small_dataset_dir, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out_dir = tmp_path / "results"
        cfg.write_text(
            f"dataset.dir = {small_dataset_dir}\n"
            "model.preset = gsan\n"
            "model.heads = 1\n"
            "model.hidden = 6\n"
            "train.epochs = 4\n"
            f"out.dir = {out_dir}\n")
        rc = main(["train", "--config", str(cfg)])
        assert rc == 0
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "summary.txt").exists()
        ratios = (out_dir / "attention_ratios.csv").read_text().splitlines()
        assert ratios[0] == "node,zeta"
        assert len(ratios) == 41
        zetas = np.array([float(r.split(",")[1]) for r in ratios[1:]])
        assert np.all(np.isfinite(zetas)) and np.all(zetas > 0)

    def test_malformed_config_key_reported(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("sbm.blocks = 10,10\nmodle.preset = sc-gcn\n")
        rc = main(["train", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "modle.preset" in err and "line 2" in err

    @pytest.mark.parametrize("bad_key", ["model.hiden = 32", "train.epoch = 3"])
    def test_misspelt_known_prefix_rejected(self, tmp_path, capsys, bad_key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"sbm.blocks = 10,10\nmodel.preset = sc-gcn\n{bad_key}\n")
        rc = main(["train", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert bad_key.split(" =")[0] in err and "line 3" in err

    @pytest.mark.parametrize("flags", [[], ["--seed", "3"]])
    def test_bad_train_seed_rejected_whatever_the_flags(self, small_dataset_dir, tmp_path,
                                                        capsys, flags):
        # the config's train.seed is validated even when --seed overrides it
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset.dir = {small_dataset_dir}\ntrain.epochs = 2\ntrain.seed = abc\n")
        rc = main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "res")] + flags)
        assert rc == 2
        err = capsys.readouterr().err
        assert "train.seed" in err and "line 3" in err

    @pytest.mark.parametrize("case", ["bad seed", "node id out of range", "model fails to build"])
    def test_rejected_run_leaves_no_out_dir(self, small_dataset_dir, tmp_path, capsys, case):
        data_dir = small_dataset_dir
        setting, message = "train.seed = abc", "train.seed"
        if case == "model fails to build":
            setting = "model.band_paths = -1|3"
            message = "error: wavelet scale -1 must be >= 0"
        if case == "node id out of range":
            data_dir = tmp_path / "data"
            data_dir.mkdir()
            (data_dir / "edges.tsv").write_text("0\t1\n1\t7\n")
            (data_dir / "features.csv").write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
            (data_dir / "labels.csv").write_text("0\n1\n0\n")
            (data_dir / "splits.json").write_text('{"train": [0], "val": [1], "test": [2]}')
            setting = "train.seed = 1"
            message = f"{data_dir / 'edges.tsv'}:2: node id 7 out of range for n=3"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset.dir = {data_dir}\ntrain.epochs = 2\n{setting}\n")
        out_dir = tmp_path / "res"
        assert main(["train", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("setting,line,key,message", [
        ("train.optimizer = adamw", 3, "train.optimizer",
         "unknown optimizer 'adamw'; choose adam or sgd"),
        ("sbm.p_in = 2", 3, "sbm.p_in", "p_in must lie in [0, 1], got 2.0"),
        ("model.preset = gsan\nmodel.heads = 0", 4, "model.heads", "heads must be >= 1, got 0"),
        ("train.epochs = 0", 3, "train.epochs", "max_epochs must be positive, got 0"),
        ("model.low_widths = 10,10", 3, "model.low_widths",
         "low_powers and low_widths must have equal length"),
    ])
    def test_value_error_names_key_and_line(self, tmp_path, capsys, setting, line, key,
                                            message):
        out_dir = tmp_path / "res"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"sbm.blocks = 10,10\nsbm.seed = 1\n{setting}\nout.dir = {out_dir}\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: line {line}: key {key!r}: {message}\n"
        assert not out_dir.exists()

    def test_misspelt_key_rejected_with_file_flags(self, small_dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("model.preset = sc-gcn\ntrain.epoch = 3\n")
        rc = main(["train", "--config", str(cfg),
                   "--graph", str(small_dataset_dir / "edges.tsv"),
                   "--features", str(small_dataset_dir / "features.csv"),
                   "--labels", str(small_dataset_dir / "labels.csv"),
                   "--splits", str(small_dataset_dir / "splits.json"),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        assert "train.epoch" in capsys.readouterr().err

    @pytest.mark.parametrize("index", [-1, 40])
    def test_out_of_range_split_index_with_file_flags(self, small_dataset_dir, tmp_path,
                                                       capsys, index):
        splits = json.loads((small_dataset_dir / "splits.json").read_text())
        splits["test"] = splits["test"][:-1] + [index]
        bad = tmp_path / "splits.json"
        bad.write_text(json.dumps(splits))
        rc = main(["train",
                   "--graph", str(small_dataset_dir / "edges.tsv"),
                   "--features", str(small_dataset_dir / "features.csv"),
                   "--labels", str(small_dataset_dir / "labels.csv"),
                   "--splits", str(bad), "--preset", "gcn-baseline",
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 2
        assert f"test split index {index}" in capsys.readouterr().err

    @staticmethod
    def _train_with_files(data_dir, tmp_path, **override):
        files = {"graph": data_dir / "edges.tsv", "features": data_dir / "features.csv",
                 "labels": data_dir / "labels.csv", "splits": data_dir / "splits.json"}
        files.update(override)
        argv = ["train", "--preset", "gcn-baseline", "--out", str(tmp_path / "m.csv")]
        for flag, path in files.items():
            argv += [f"--{flag}", str(path)]
        return main(argv)

    @pytest.mark.parametrize("value", [0.7, 2.9, True])
    def test_non_integer_split_index_with_file_flags(self, small_dataset_dir, tmp_path,
                                                     capsys, value):
        splits = json.loads((small_dataset_dir / "splits.json").read_text())
        splits["test"] = splits["test"][:-1] + [value]
        bad = tmp_path / "splits.json"
        bad.write_text(json.dumps(splits))
        assert self._train_with_files(small_dataset_dir, tmp_path, splits=bad) == 2
        assert "test split index" in capsys.readouterr().err

    def test_non_finite_feature_with_file_flags(self, small_dataset_dir, tmp_path, capsys):
        rows = (small_dataset_dir / "features.csv").read_text().splitlines()
        rows[3] = ",".join(["nan"] + rows[3].split(",")[1:])
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join(rows) + "\n")
        assert self._train_with_files(small_dataset_dir, tmp_path, features=bad) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_dense_class_ids_with_file_flags(self, small_dataset_dir, tmp_path, capsys):
        labels = (small_dataset_dir / "labels.csv").read_text().replace("1\n", "2\n")
        bad = tmp_path / "labels.csv"
        bad.write_text(labels)
        assert self._train_with_files(small_dataset_dir, tmp_path, labels=bad) == 2
        assert "class ids" in capsys.readouterr().err

    def test_scatter_csv(self, small_dataset_dir, tmp_path):
        out = tmp_path / "scatter.csv"
        rc = main(["scatter",
                   "--graph", str(small_dataset_dir / "edges.tsv"),
                   "--features", str(small_dataset_dir / "features.csv"),
                   "--paths", "1|0,1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("node,p1_c0")
        assert len(lines) == 41
        # 1 id column + 2 paths x 8 feature columns
        assert len(lines[1].split(",")) == 17

    def test_scatter_shares_first_layer_sweep(self, small_dataset_dir, tmp_path, monkeypatch):
        # one 2^3-step sweep gives Psi_0..Psi_3 X for every path's first
        # wavelet; (0, 1) and (1, 2) then add 2 and 4 steps; the values are
        # those of one cascade per path
        out = tmp_path / "scatter.csv"
        paths = ((1,), (2,), (3,), (0, 1), (1, 2))
        calls = count_kernel_calls(monkeypatch)
        rc = main(["scatter", "--graph", str(small_dataset_dir / "edges.tsv"),
                   "--features", str(small_dataset_dir / "features.csv"),
                   "--paths", "1|2|3|0,1|1,2", "--out", str(out)])
        assert rc == 0
        assert len(calls) == 8 + 2 + 4
        ds = load_dataset(small_dataset_dir)
        want = np.concatenate([cascade(ds.graph, p, ABS, ds.features) for p in paths], axis=1)
        rows = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
        assert rows == [[f"{x:.10g}" for x in row] for row in want]

    def test_spectra_csv_matches_gcn_response(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("".join(f"{i}\t{(i + 1) % 8}\n" for i in range(8)))
        out = tmp_path / "spectra.csv"
        rc = main(["spectra", "--graph", str(edges),
                   "--filters", "gcn;wavelet:1;lowpass:2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eigenvalue,gcn,wavelet_1,lowpass_2"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.allclose(rows[:, 1], 2.0 - rows[:, 0], atol=1e-8)

    def test_spectra_csv_bytes_and_one_eigendecomposition(self, tmp_path, monkeypatch):
        edges = tmp_path / "edges.tsv"
        edges.write_text("".join(f"{i}\t{(i + 1) % 9}\t{1 + i % 3}\n" for i in range(9))
                         + "0\t4\n2\t7\t0.25\n")
        g = read_edge_list(edges)
        filters = [gcn_unnormalized(), wavelet_filter(1), wavelet_filter(2),
                   lowpass_filter(3), chebyshev_filter([1.0, 0.5])]
        columns = [spectral_response(g, [flt]) for flt in filters]
        want = per_value_csv(["eigenvalue", "gcn", "wavelet_1", "wavelet_2", "lowpass_3", "cheb"],
                             [columns[0][0]] + [resp for _, (resp,) in columns], [".10g"] * 6)
        out = tmp_path / "spectra.csv"
        calls = count_eigendecompositions(monkeypatch)
        rc = main(["spectra", "--graph", str(edges),
                   "--filters", "gcn;wavelet:1;wavelet:2;lowpass:3;cheb:1,0.5", "--out", str(out)])
        assert rc == 0
        assert calls == [9]
        assert out.read_text() == want

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_spectra_rejects_non_finite_weight(self, tmp_path, capsys, weight):
        edges = tmp_path / "edges.tsv"
        edges.write_text(f"0\t1\n1\t2\t{weight}\n2\t0\n")
        assert main(["spectra", "--graph", str(edges)]) == 2
        assert f"error: edge (1, 2) has non-finite weight {weight}" in capsys.readouterr().err

    def test_scatter_csv_bytes_match_per_value_writer(self, small_dataset_dir, tmp_path):
        out = tmp_path / "scatter.csv"
        rc = main(["scatter", "--graph", str(small_dataset_dir / "edges.tsv"),
                   "--features", str(small_dataset_dir / "features.csv"),
                   "--paths", "1|0,1", "--out", str(out)])
        assert rc == 0
        ds = load_dataset(small_dataset_dir)
        outs = [cascade(ds.graph, p, ABS, ds.features) for p in ((1,), (0, 1))]
        header = ["node"] + [f"{tag}_c{j}" for tag in ("p1", "p0-1") for j in range(8)]
        columns = [range(ds.graph.n)] + [U[:, j] for U in outs for j in range(8)]
        assert out.read_text() == per_value_csv(header, columns, ["d"] + [".10g"] * 16)

    def test_metrics_ratios_and_labels_match_per_value_writer(self, small_dataset_dir,
                                                               tmp_path):
        nan, inf = float("nan"), float("inf")
        history = {"epoch": [0, 1, 2, 10 ** 12],
                   "train_loss": [0.5, nan, inf, -0.0],
                   "val_loss": [1 / 3, -inf, 1e-300, 2.5],
                   "train_acc": [0.0, 0.25, 1.0, 2 / 3],
                   "val_acc": [1.0, 0.125, nan, 0.1]}
        cols = list(history)
        experiment.write_metrics_csv(tmp_path / "metrics.csv", history)
        assert (tmp_path / "metrics.csv").read_text() == per_value_csv(
            cols, [history[c] for c in cols], [".10g"] * len(cols))

        zeta = np.array([0.25, np.nan, np.inf, -np.inf, 1 / 3, 12345678901.5])
        experiment.write_attention_ratios(tmp_path / "ratios.csv", zeta)
        assert (tmp_path / "ratios.csv").read_text() == per_value_csv(
            ["node", "zeta"], [range(zeta.size), zeta], ["d", ".10g"])

        ds = load_dataset(small_dataset_dir)
        assert (small_dataset_dir / "labels.csv").read_text() == per_value_csv(
            None, [[int(y) for y in ds.labels]], ["d"])

    def test_labels_parse_error_names_line(self, small_dataset_dir, tmp_path, capsys):
        labels = (small_dataset_dir / "labels.csv").read_text().splitlines()
        labels[4] = "1.5"
        bad = tmp_path / "labels.csv"
        bad.write_text("\n".join(labels) + "\n")
        assert self._train_with_files(small_dataset_dir, tmp_path, labels=bad) == 2
        assert f"error: {bad}:5: invalid literal for int()" in capsys.readouterr().err

    @pytest.mark.parametrize("filters,message", [
        (";", "--filters names no filter"),
        (" ; ", "--filters names no filter"),
        ("wavelet:-1", "wavelet scale -1 must be >= 0"),
        ("gcn;lowpass:-2", "wavelet scale -2 must be >= 0"),
    ])
    def test_spectra_rejects_bad_filter_list(self, tmp_path, capsys, filters, message):
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\n1\t2\n")
        assert main(["spectra", "--graph", str(edges), "--filters", filters]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "-inf"])
    def test_verify_theory_rejects_bad_tol(self, capsys, tol):
        assert main(["verify-theory", f"--tol={tol}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tol must be finite and positive")

    def test_verify_theory_exits_zero(self, capsys):
        rc = main(["verify-theory"])
        assert rc == 0
        assert capsys.readouterr().out == VERIFY_THEORY_STDOUT

    def test_error_exit_code(self, tmp_path, capsys):
        rc = main(["scatter", "--graph", str(tmp_path / "absent.tsv"),
                   "--features", str(tmp_path / "absent.csv"), "--paths", "1"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["scatter", "train"])
    def test_features_flag_reads_the_named_file_only(self, small_dataset_dir, tmp_path, capsys,
                                                     command):
        # a compressed sibling is not the named file
        named = tmp_path / "feats.csv"
        with gzip.open(tmp_path / "feats.csv.gz", "wt") as fh:
            fh.write((small_dataset_dir / "features.csv").read_text())
        if command == "scatter":
            rc = main(["scatter", "--graph", str(small_dataset_dir / "edges.tsv"),
                       "--features", str(named), "--paths", "1", "--out", str(tmp_path / "m.csv")])
        else:
            rc = self._train_with_files(small_dataset_dir, tmp_path, features=named)
        assert rc == 2
        assert str(named) in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()


COMMANDS = ["train", "scatter", "spectra", "verify-theory", "gen-sbm"]


def subcommands(parser):
    """Names of the subcommands a parser was built with, in order."""
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


class TestParserPerCommand:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_command_builds_only_its_subparser(self, command):
        assert subcommands(cli.build_parser(command)) == [command]

    @pytest.mark.parametrize("name", [None, "--help", "spect"])
    def test_any_other_name_builds_every_subparser(self, name):
        assert subcommands(cli.build_parser(name)) == COMMANDS

    @pytest.mark.parametrize("argv", [
        ["-h"], [], ["spect"], ["--bogus"], ["-h", "spectra"],
        *([c, "-h"] for c in COMMANDS), ["scatter"], ["gen-sbm"], ["spectra", "--graph"],
        *([c, "--bogus"] for c in COMMANDS), ["verify-theory", "extra"],
        ["verify-theory", "--tol", "x"], ["gen-sbm", "--seed", "q", "--out", "d"]])
    def test_help_and_usage_errors_read_as_with_the_full_parser(self, capsys, argv):
        # an unrecognized argument is worded by the top-level parser, whose
        # usage line lists the commands it was built with
        with pytest.raises(SystemExit) as want:
            cli.build_parser().parse_args(argv)
        want_out = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert got.value.code == want.value.code
        assert capsys.readouterr() == want_out

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "c.cfg", "--seed", "3"], ["scatter", "--graph", "g", "--features", "f",
                                                        "--paths", "1|0,1"],
        ["spectra", "--graph", "g"], ["verify-theory", "--tol", "1e-6"], ["gen-sbm", "--out", "d"]])
    def test_namespace_is_the_full_parsers(self, argv):
        assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)


class TestRunExperimentSBMMode:
    def test_attention_ratios_from_the_evaluation_forward(self, small_dataset_dir, tmp_path,
                                                          monkeypatch):
        # one forward per epoch plus the test evaluation, which runs at the
        # restored best parameters; the ratios file comes from that forward
        models_seen, forwards = [], []

        def build(*args, **kwargs):
            model = build_model(*args, **kwargs)
            models_seen.append(model)
            return model

        monkeypatch.setattr(experiment, "build_model", build)
        orig_forward = GSAN.forward
        monkeypatch.setattr(GSAN, "forward",
                            lambda self, g, X: forwards.append(1) or orig_forward(self, g, X))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset.dir = {small_dataset_dir}\nmodel.preset = gsan\n"
                       "model.heads = 2\nmodel.hidden = 6\ntrain.epochs = 6\n")
        run_experiment(cfg, out_dir=tmp_path / "res", echo=lambda *_: None)
        epochs = len((tmp_path / "res" / "metrics.csv").read_text().splitlines()) - 1
        assert epochs == 6
        assert len(forwards) == epochs + 1

        (model,) = models_seen
        ds = load_dataset(small_dataset_dir)
        model.forward(ds.graph, ds.features)
        expected = tmp_path / "expected.csv"
        experiment.write_attention_ratios(expected, attention_ratio(model.last_attention))
        assert (tmp_path / "res" / "attention_ratios.csv").read_text() == expected.read_text()


    def test_sbm_config_end_to_end(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "sbm.blocks = 15,15\n"
            "sbm.p_in = 0.3\n"
            "sbm.p_out = 0.05\n"
            "sbm.seed = 7\n"
            "model.preset = gcn-baseline\n"
            "train.epochs = 30\n")
        summary = run_experiment(cfg, out_dir=tmp_path / "res", echo=lambda *_: None)
        assert 0.0 <= summary["test_accuracy"] <= 1.0
        assert (tmp_path / "res" / "summary.txt").exists()


# a valid value for every model.* field, so only the preset can reject it
MODEL_VALUES = {"hidden": "8", "alpha": "0.3", "q": "2", "heads": "1", "low_powers": "1,2",
                "low_widths": "5,5", "band_widths": "5,5", "band_paths": "0|4"}
UNREAD = [(preset, key) for preset in PRESETS for key, (field, _) in MODEL_KEYS.items()
          if field not in PRESET_FIELDS[preset]]


class TestConfigSchema:
    """A train run rejects every config key it does not read, before fit and any output."""

    @staticmethod
    def _run(data_dir, tmp_path, monkeypatch, settings, with_files, flags=()):
        def no_fit(*args, **kwargs):
            pytest.fail("fit started")

        monkeypatch.setattr(experiment, "fit", no_fit)
        cfg = tmp_path / "exp.cfg"
        argv = ["train", "--config", str(cfg), *flags]
        if with_files:
            argv += ["--out", str(tmp_path / "out" / "m.csv")]
            for flag, name in (("graph", "edges.tsv"), ("features", "features.csv"),
                               ("labels", "labels.csv"), ("splits", "splits.json")):
                argv += [f"--{flag}", str(data_dir / name)]
        else:
            settings = f"dataset.dir = {data_dir}\n{settings}"
            argv += ["--out-dir", str(tmp_path / "out")]
        cfg.write_text(settings)
        rc = main(argv)
        assert not (tmp_path / "out").exists()
        return rc

    @pytest.mark.parametrize("preset,key", UNREAD)
    @pytest.mark.parametrize("with_files", [False, True])
    def test_model_key_the_preset_does_not_read(self, small_dataset_dir, tmp_path, monkeypatch,
                                               capsys, preset, key, with_files):
        value = MODEL_VALUES[MODEL_KEYS[key][0]]
        settings = f"model.preset = {preset}\n{key} = {value}\ntrain.epochs = 2\n"
        assert self._run(small_dataset_dir, tmp_path, monkeypatch, settings, with_files) == 2
        line = 3 if not with_files else 2        # dataset.dir comes first in config mode
        assert f"line {line}: key {key!r} is not read by preset {preset}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("with_files", [False, True])
    def test_the_preset_flag_decides_which_keys_are_read(self, small_dataset_dir, tmp_path,
                                                          monkeypatch, capsys, with_files):
        # model.q is an sc-gcn key: valid for the config's preset, not for --preset gsan
        settings = "model.preset = sc-gcn\nmodel.q = 2\n"
        assert self._run(small_dataset_dir, tmp_path, monkeypatch, settings, with_files,
                         flags=["--preset", "gsan"]) == 2
        assert "key 'model.q' is not read by preset gsan" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--preset", "gsan"]])
    def test_unknown_preset_names_its_line(self, small_dataset_dir, tmp_path, monkeypatch,
                                           capsys, flags):
        settings = "train.epochs = 2\nmodel.preset = gat\n"
        assert self._run(small_dataset_dir, tmp_path, monkeypatch, settings, False, flags) == 2
        assert "line 3: unknown preset 'gat'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["sbm.blocks = 5,5", "sbm.seed = 1"])
    def test_sbm_keys_beside_dataset_dir(self, small_dataset_dir, tmp_path, monkeypatch,
                                         capsys, key):
        assert self._run(small_dataset_dir, tmp_path, monkeypatch, f"{key}\n", False) == 2
        name = key.split(" =")[0]
        assert f"line 2: key {name!r} is not read beside dataset.dir" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("key", ["dataset.dir = /nonexistent", "sbm.blocks = 5,5",
                                     "sbm.p_in = 0.2", "out.dir = results"])
    def test_data_keys_beside_the_file_flags(self, small_dataset_dir, tmp_path, monkeypatch,
                                             capsys, key):
        settings = f"model.preset = gsan\ntrain.epochs = 2\n{key}\n"
        assert self._run(small_dataset_dir, tmp_path, monkeypatch, settings, True) == 2
        name = key.split(" =")[0]
        assert f"line 3: key {name!r} is not read beside the data-file flags" in \
            capsys.readouterr().err

    def test_first_unread_key_in_file_order(self, small_dataset_dir, tmp_path, monkeypatch,
                                            capsys):
        settings = "model.preset = gsan\nmodel.band_widths = 5\nbogus = 1\nmodel.q = abc\n"
        assert self._run(small_dataset_dir, tmp_path, monkeypatch, settings, True) == 2
        assert "line 2: key 'model.band_widths'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,with_files", [("--out-dir", True), ("--out", False)])
    def test_output_flag_the_mode_does_not_read(self, small_dataset_dir, tmp_path, monkeypatch,
                                                capsys, flag, with_files):
        # --out-dir belongs to --config alone, --out to the data-file flags
        argv = [flag, str(tmp_path / "other")]
        settings = "model.preset = gsan\ntrain.epochs = 2\n"
        assert self._run(small_dataset_dir, tmp_path, monkeypatch, settings, with_files,
                         flags=argv) == 2
        assert f"error: {flag} needs" in capsys.readouterr().err
        assert not (tmp_path / "other").exists()

    def test_model_spec_rejects_a_field_its_preset_does_not_read(self):
        with pytest.raises(ValueError, match="preset gsan does not read q"):
            ModelSpec(preset="gsan", q=2)
        settable = {p: sum(getattr(ModelSpec(preset=p), f) is not None
                           for f in MODEL_VALUES) for p in PRESETS}
        assert settable == {"gcn-baseline": 1, "sc-gcn": 6, "gsan": 4}

    def test_readme_schema_lists_the_schema_tables(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if "=" in line.split("#", 1)[0]]
        keys = [line.split("=", 1)[0].strip() for line in lines]
        assert sorted(keys) == sorted([PRESET_KEY, DATASET_KEY, OUT_KEY, *MODEL_KEYS,
                                       *TRAIN_KEYS, *SBM_KEYS])
        # each model.* line names, in brackets, the presets that read it
        for key, line in zip(keys, lines):
            if key in MODEL_KEYS:
                readers = line.split("[", 1)[1].split("]", 1)[0].split(", ")
                field = MODEL_KEYS[key][0]
                assert readers == [p for p in PRESETS if field in PRESET_FIELDS[p]], key
