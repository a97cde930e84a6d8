import gzip
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from graphscat import cli, datasets
from graphscat.datasets import (
    Dataset,
    SBMSpec,
    describe,
    generate_sbm,
    load_dataset,
    read_features,
    save_dataset,
    stratified_splits,
)
from graphscat.errors import (
    BadClassIds,
    BadSplitIndex,
    FieldRangeError,
    InfeasibleSpec,
    MissingFile,
    RowCountMismatch,
    SplitIndexOutOfRange,
)
from graphscat.theory import homophily


def edge_set(g):
    return {(u, int(v)) for u in range(g.n) for v in g.neighbors(u) if u < v}


class TestGenerateSBM:
    def test_same_seed_identical_edges(self):
        spec = SBMSpec(block_sizes=(30, 30), p_in=0.2, p_out=0.02, seed=9)
        a = generate_sbm(spec)
        b = generate_sbm(spec)
        assert edge_set(a.graph) == edge_set(b.graph)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.splits.train, b.splits.train)

    def test_high_contrast_blocks_have_high_homophily(self):
        # Monte Carlo expectation check over 10 seeds
        values = []
        for seed in range(10):
            ds = generate_sbm(SBMSpec(block_sizes=(100, 100), p_in=0.1,
                                      p_out=0.01, seed=seed))
            values.append(homophily(ds.graph, ds.labels))
        assert min(values) > 0.8

    def test_equal_probabilities_near_one_over_blocks(self):
        values = []
        for seed in range(10):
            ds = generate_sbm(SBMSpec(block_sizes=(60, 60, 60), p_in=0.08,
                                      p_out=0.08, seed=seed))
            values.append(homophily(ds.graph, ds.labels))
        assert abs(np.mean(values) - 1.0 / 3.0) < 0.05

    def test_no_isolated_nodes(self):
        for seed in range(5):
            ds = generate_sbm(SBMSpec(block_sizes=(25, 25), p_in=0.15,
                                      p_out=0.02, seed=seed))
            assert not ds.graph.has_isolated_nodes

    def test_infeasible_spec(self):
        with pytest.raises(InfeasibleSpec):
            generate_sbm(SBMSpec(block_sizes=(10, 10), p_in=0.0, p_out=0.0, seed=0))

    @pytest.mark.parametrize("blocks", [(0, 5), (5, 5, 0), (-2, 5)])
    def test_empty_block_rejected(self, blocks):
        with pytest.raises(ValueError, match="at least 1 node"):
            generate_sbm(SBMSpec(block_sizes=blocks, p_in=0.3, p_out=0.05, seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SBMSpec(block_sizes=(10,), p_in=0.1, p_out=0.1)
        with pytest.raises(ValueError):
            SBMSpec(block_sizes=(10, 10), p_in=1.5, p_out=0.1)

    @pytest.mark.parametrize("field,value,message", [
        ("feature_dim", 0, "feature_dim must be >= 1, got 0"),
        ("feature_dim", -2, "feature_dim must be >= 1, got -2"),
        ("noise_scale", float("inf"), "noise_scale must be finite and >= 0, got inf"),
        ("noise_scale", float("nan"), "noise_scale must be finite and >= 0, got nan"),
        ("noise_scale", -0.5, "noise_scale must be finite and >= 0, got -0.5"),
        ("seed", -1, "seed must be >= 0, got -1"),
        # integer fields refuse booleans and fractions; blocks (2.7, 3.9) were (2, 3)
        ("block_sizes", (2.7, 3.9), "block_sizes takes integers, got 2.7"),
        ("block_sizes", (10, True), "block_sizes takes integers, got True"),
        ("feature_dim", 8.5, "feature_dim takes integers, got 8.5"),
        ("feature_dim", np.True_, "feature_dim takes integers, got np.True_"),
        ("seed", 1.0, "seed takes integers, got 1.0"),
    ])
    def test_spec_field_out_of_range(self, field, value, message):
        with pytest.raises(FieldRangeError, match=f"^{message}$") as err:
            SBMSpec(**{"block_sizes": (10, 10), field: value})
        assert err.value.fields == (field,)
        SBMSpec(block_sizes=(10, 10), feature_dim=1, noise_scale=0.0, seed=0)

    def test_stratified_split_ratios(self):
        labels = np.repeat([0, 1], 70)
        masks = stratified_splits(labels, (5, 1, 1), np.random.default_rng(0))
        assert masks.train.size + masks.val.size + masks.test.size == 140
        for c in (0, 1):
            n_tr = np.sum(labels[masks.train] == c)
            assert n_tr == 50    # round(70 * 5/7)

    def test_stratified_split_draws_classes_in_ascending_order(self):
        # one permutation per class, drawn in ascending class order whatever
        # order the labels list them in: 3 train, 3 val and 4 test nodes each
        labels = np.random.default_rng(1).permutation(np.repeat([7, 0, 3], 10))
        masks = stratified_splits(labels, (1, 1, 1), np.random.default_rng(0))
        rng, want = np.random.default_rng(0), ([], [], [])
        for c in (0, 3, 7):
            idx = rng.permutation(np.flatnonzero(labels == c))
            for part, block in zip(want, (idx[:3], idx[3:6], idx[6:])):
                part.extend(block)
        for got, part in zip((masks.train, masks.val, masks.test), want):
            assert np.array_equal(got, np.sort(part))


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        ds = generate_sbm(SBMSpec(block_sizes=(20, 20), p_in=0.2, p_out=0.05,
                                  seed=4))
        out = tmp_path / "data"
        save_dataset(ds, out)
        back = load_dataset(out)
        assert edge_set(back.graph) == edge_set(ds.graph)
        assert np.allclose(back.graph.csr_weights, ds.graph.csr_weights)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.splits.train, ds.splits.train)
        assert np.array_equal(back.splits.val, ds.splits.val)
        assert np.array_equal(back.splits.test, ds.splits.test)

    def test_describe_mentions_counts(self):
        ds = generate_sbm(SBMSpec(block_sizes=(15, 15), p_in=0.3, p_out=0.05,
                                  seed=1))
        text = describe(ds)
        assert "n=30" in text and "classes=2" in text and "homophily=" in text


class TestLoadErrors:
    def _write_minimal(self, root):
        (root / "edges.tsv").write_text("0\t1\n1\t2\n")
        (root / "features.csv").write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        (root / "labels.csv").write_text("0\n1\n0\n")
        (root / "splits.json").write_text('{"train": [0], "val": [1], "test": [2]}')

    def test_minimal_fixture_loads(self, tmp_path):
        self._write_minimal(tmp_path)
        ds = load_dataset(tmp_path)
        assert ds.graph.n == 3 and ds.n_classes == 2

    def test_missing_labels(self, tmp_path):
        self._write_minimal(tmp_path)
        (tmp_path / "labels.csv").unlink()
        with pytest.raises(MissingFile):
            load_dataset(tmp_path)

    def test_features_read_from_the_named_file_only(self, tmp_path):
        # np.loadtxt given the path would read the compressed sibling instead
        with gzip.open(tmp_path / "feats.csv.gz", "wt") as fh:
            fh.write("1.0,2.0\n")
        with pytest.raises(FileNotFoundError) as err:
            read_features(tmp_path / "feats.csv")
        assert str(tmp_path / "feats.csv") in str(err.value)

    def test_row_count_mismatch(self, tmp_path):
        self._write_minimal(tmp_path)
        (tmp_path / "labels.csv").write_text("0\n1\n")
        with pytest.raises(RowCountMismatch):
            load_dataset(tmp_path)

    def test_out_of_range_node_id_names_its_line(self, tmp_path):
        self._write_minimal(tmp_path)
        (tmp_path / "edges.tsv").write_text("0\t1\n# more\n3\t1\n2\t5\n")
        with pytest.raises(ValueError) as err:
            load_dataset(tmp_path)
        assert str(err.value) == f"{tmp_path / 'edges.tsv'}:3: node id 3 out of range for n=3"

    def test_bad_class_ids(self, tmp_path):
        self._write_minimal(tmp_path)
        (tmp_path / "labels.csv").write_text("0\n2\n0\n")   # class 1 missing
        with pytest.raises(BadClassIds):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("labels", ["0\n2\n0\n", "-1\n0\n1\n", "1\n2\n1\n", "2\n2\n2\n",
                                        "0\n0\n0\n", "2\n1\n0\n", "1\n0\n1\n"])
    def test_class_ids_against_unique_oracle(self, tmp_path, labels):
        # the check the sort replaced: every id >= 0 and the distinct ids
        # exactly 0..max
        self._write_minimal(tmp_path)
        (tmp_path / "labels.csv").write_text(labels)
        ids = np.array(labels.split(), dtype=np.int64)
        if ids.min() < 0 or set(np.unique(ids)) != set(range(int(ids.max()) + 1)):
            with pytest.raises(BadClassIds, match="^class ids must be dense integers starting at 0$"):
                load_dataset(tmp_path)
        else:
            assert np.array_equal(load_dataset(tmp_path).labels, ids)

    @pytest.mark.parametrize("splits", [
        '{"train": [-1], "val": [1], "test": [2]}',
        '{"train": [0], "val": [1], "test": [3]}',
        '{"train": [0], "val": [7], "test": [2]}',
    ])
    def test_out_of_range_split_index(self, tmp_path, splits):
        self._write_minimal(tmp_path)
        (tmp_path / "splits.json").write_text(splits)
        with pytest.raises(SplitIndexOutOfRange):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key,splits", [
        ("train", '{"train": [0.7, 1], "val": [1], "test": [2]}'),
        ("test", '{"train": [0], "val": [1], "test": [2.9]}'),
        ("val", '{"train": [0], "val": [true], "test": [2]}'),
        ("test", '{"train": [0], "val": [1], "test": [2.0]}'),
        ("train", '{"train": 0, "val": [1], "test": [2]}'),
        ("splits.json", '[[0], [1], [2]]'),
    ])
    def test_non_integer_split_index(self, tmp_path, key, splits):
        self._write_minimal(tmp_path)
        (tmp_path / "splits.json").write_text(splits)
        with pytest.raises(BadSplitIndex, match=key):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("features", [
        "1.0,2.0\n3.0,nan\n5.0,6.0\n",
        "1.0,2.0\n3.0,4.0\n5.0,-inf\n",
        "1.0,2.0\n3.0\n5.0,6.0\n",
    ])
    def test_non_finite_or_ragged_features(self, tmp_path, features):
        self._write_minimal(tmp_path)
        (tmp_path / "features.csv").write_text(features)
        with pytest.raises(RowCountMismatch):
            load_dataset(tmp_path)


def plain_parse(path):
    """The reader without its binary copy: the parse and checks alone."""
    try:
        with open(path, encoding="utf-8") as fh:
            features = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise RowCountMismatch(f"{path}: {exc}") from None
    if features.size == 0 or not np.all(np.isfinite(features)):
        raise RowCountMismatch(f"{path} must hold rectangular finite rows")
    return features


def copy_of(path):
    return path.parent / f".{path.name}.npy"


@pytest.fixture
def parses(monkeypatch):
    """Paths the feature parser ran on, in call order."""
    seen = []
    parse = datasets._parse_features

    def spy(path, digest):
        seen.append(str(path))
        return parse(path, digest)

    monkeypatch.setattr(datasets, "_parse_features", spy)
    return seen


def bits(a):
    return a.view(np.int64)


WIDE = np.random.default_rng(3).standard_normal((40, 1433)) * 10.0 ** np.arange(-8, 8)[
    np.arange(1433) % 16]


class TestFeatureCopy:
    @pytest.mark.parametrize("text", [
        "1.0,2.0\n3.0,4.0\n5.0,6.0\n",
        "7.5\n",
        "1,2,3\n",
        "0.5\n-0.25\n1e300\n",
        "-0.0,0.0\n5e-324,-2.2250738585072014e-308\n",
        "  1.0 , 2.0\r\n3.0,4.0\r\n",
        "0.1,0.2\n0.30000000000000004,1e-5\n",
    ])
    def test_second_read_is_the_parse_bit_for_bit(self, tmp_path, parses, text):
        path = tmp_path / "features.csv"
        path.write_text(text)
        want = plain_parse(path)
        first = read_features(path)
        assert copy_of(path).is_file()
        second = read_features(path)
        assert parses == [str(path)]
        for got in (first, second):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(bits(got), bits(want))

    def test_wide_file_is_bit_for_bit(self, tmp_path, parses):
        path = tmp_path / "features.csv"
        with open(path, "w", encoding="utf-8") as fh:
            np.savetxt(fh, WIDE, fmt="%.17g", delimiter=",")
        want = plain_parse(path)
        assert np.array_equal(bits(want), bits(WIDE))
        read_features(path)
        got = read_features(path)
        assert len(parses) == 1
        assert got.shape == (40, 1433) and np.array_equal(bits(got), bits(want))

    def test_copy_sits_beside_any_file_name(self, tmp_path, monkeypatch, parses):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "feats.txt").write_text("1.0,2.0\n")
        for _ in range(2):
            assert np.array_equal(read_features("feats.txt"), [[1.0, 2.0]])
        assert parses == ["feats.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [".feats.txt.npy", "feats.txt"]

    def test_edited_digit_with_same_size_and_mtime_is_parsed_again(self, tmp_path, parses):
        path = tmp_path / "features.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        read_features(path)
        stat = path.stat()
        path.write_text("1.0,2.0\n3.0,9.0\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert path.stat().st_mtime_ns == stat.st_mtime_ns
        assert np.array_equal(read_features(path), [[1.0, 2.0], [3.0, 9.0]])
        assert np.array_equal(read_features(path), [[1.0, 2.0], [3.0, 9.0]])
        assert len(parses) == 2      # the edit was parsed once, then its copy served

    def test_file_changed_after_its_parse_is_parsed_again(self, tmp_path, monkeypatch):
        # the copy's key is the digest of the bytes its parse read, so bytes
        # written between the parse and the copy never match it
        path = tmp_path / "features.csv"
        path.write_text("1.0,2.0\n")
        parse = datasets._parse_features

        def parse_then_edit(p, digest):
            features = parse(p, digest)
            path.write_text("5.0,6.0\n")
            return features

        monkeypatch.setattr(datasets, "_parse_features", parse_then_edit)
        assert np.array_equal(read_features(path), [[1.0, 2.0]])
        monkeypatch.setattr(datasets, "_parse_features", parse)
        assert np.array_equal(read_features(path), [[5.0, 6.0]])

    @staticmethod
    def _npy(path, *arrays):
        with open(path, "wb") as fh:
            for a in arrays:
                np.save(fh, a)

    @pytest.mark.parametrize("spoil", [
        "truncated", "empty", "text", "key only", "matrix only", "npz", "pickled",
        "stale digest", "right digest, nan", "right digest, float32", "right digest, 1-d",
        "right digest, big-endian", "right digest, then an npz", "directory",
    ])
    def test_unusable_copy_is_parsed_and_rewritten(self, tmp_path, parses, spoil):
        path = tmp_path / "features.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        want = plain_parse(path)
        read_features(path)
        copy = copy_of(path)
        with open(copy, "rb") as fh:
            key = np.load(fh)
        if spoil == "truncated":
            copy.write_bytes(copy.read_bytes()[:-1])
        elif spoil == "empty":
            copy.write_bytes(b"")
        elif spoil == "text":
            copy.write_text("not an array\n")
        elif spoil == "key only":
            self._npy(copy, key)
        elif spoil == "matrix only":
            self._npy(copy, want)
        elif spoil == "npz":
            with open(copy, "wb") as fh:
                np.savez(fh, key=key, features=want)
        elif spoil == "pickled":
            self._npy(copy, np.array([key.tobytes()], dtype=object), want)
        elif spoil == "stale digest":
            self._npy(copy, np.zeros(32, np.uint8), want + 1)
        elif spoil == "right digest, nan":
            self._npy(copy, key, np.full((2, 2), np.nan))
        elif spoil == "right digest, float32":
            self._npy(copy, key, want.astype(np.float32))
        elif spoil == "right digest, 1-d":
            self._npy(copy, key, want.ravel())
        elif spoil == "right digest, big-endian":
            self._npy(copy, key, want.astype(">f8"))
        elif spoil == "right digest, then an npz":
            self._npy(copy, key)
            with open(copy, "ab") as fh:
                np.savez(fh, features=want)
        else:
            copy.unlink()
            copy.mkdir()
        got = read_features(path)
        assert np.array_equal(bits(got), bits(want))
        assert len(parses) == 2
        if spoil == "directory":
            # the copy cannot replace a directory: nothing else is left behind
            assert sorted(p.name for p in tmp_path.iterdir()) == [copy.name, path.name]
            return
        assert np.array_equal(bits(read_features(path)), bits(want))
        assert len(parses) == 2      # the rewritten copy served the third read

    def test_read_only_directory_only_costs_the_parse(self, tmp_path, monkeypatch, parses):
        data = tmp_path / "data"
        data.mkdir()
        path = data / "features.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        if os.geteuid() == 0:
            # the mode bits do not bind root: refuse the write as they would
            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied", str(data))

            monkeypatch.setattr(datasets.tempfile, "mkstemp", refuse)
        data.chmod(0o555)
        try:
            for _ in range(2):
                assert np.array_equal(read_features(path), plain_parse(path))
            assert sorted(p.name for p in data.iterdir()) == ["features.csv"]
        finally:
            data.chmod(0o755)
        assert len(parses) == 2

    def test_copy_is_as_readable_as_its_source(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("1.0,2.0\n")
        path.chmod(0o640)
        read_features(path)
        assert copy_of(path).stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("text", [
        "1.0,2.0\n3.0\n5.0,6.0\n",
        "1.0,2.0\n3.0,nan\n",
        "1.0,2.0\n3.0,4.0\n5.0,-inf\n",
        "",
        "1.0,x\n",
    ])
    def test_failed_parse_writes_no_copy(self, tmp_path, text):
        path = tmp_path / "features.csv"
        path.write_text(text)
        with pytest.raises(RowCountMismatch) as want, warnings.catch_warnings(record=True) as w1:
            warnings.simplefilter("always")
            plain_parse(path)
        with pytest.raises(RowCountMismatch) as got, warnings.catch_warnings(record=True) as w2:
            warnings.simplefilter("always")
            read_features(path)
        assert str(got.value) == str(want.value)
        assert [str(w.message) for w in w2] == [str(w.message) for w in w1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv"]

    def test_decode_error_reads_as_without_the_copy(self, tmp_path):
        # a bad byte past the first few read chunks: its reported position
        # depends on how the text layer chunks the file
        path = tmp_path / "features.csv"
        path.write_bytes(b"1.0,2.0\n" * 5000 + b"3.0,\xff\n")
        with pytest.raises(RowCountMismatch) as want:
            plain_parse(path)
        with pytest.raises(RowCountMismatch) as got:
            read_features(path)
        assert "codec can't decode" in str(want.value)
        assert str(got.value) == str(want.value)
        assert not copy_of(path).exists()

    def test_missing_file_with_a_copy_is_not_found(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("1.0,2.0\n")
        read_features(path)
        path.unlink()
        assert copy_of(path).is_file()
        with pytest.raises(FileNotFoundError) as err:
            read_features(path)
        assert str(path) in str(err.value)

    def test_load_dataset_parses_features_once(self, tmp_path, parses):
        ds = generate_sbm(SBMSpec(block_sizes=(10, 10), p_in=0.4, p_out=0.05, seed=4))
        save_dataset(ds, tmp_path / "d")
        first = load_dataset(tmp_path / "d")
        second = load_dataset(tmp_path / "d")
        assert parses == [str(tmp_path / "d" / "features.csv")]
        assert np.array_equal(bits(first.features), bits(second.features))
        assert np.array_equal(bits(second.features), bits(ds.features))

    @pytest.mark.parametrize("command", ["train", "scatter"])
    def test_cli_parses_features_once(self, tmp_path, capsys, parses, command):
        ds = generate_sbm(SBMSpec(block_sizes=(10, 10), p_in=0.4, p_out=0.05, seed=4))
        save_dataset(ds, tmp_path / "d")
        d = tmp_path / "d"
        argv = {"train": ["train", "--graph", str(d / "edges.tsv"),
                          "--features", str(d / "features.csv"),
                          "--labels", str(d / "labels.csv"),
                          "--splits", str(d / "splits.json"), "--preset", "sc-gcn"],
                "scatter": ["scatter", "--graph", str(d / "edges.tsv"),
                            "--features", str(d / "features.csv"), "--paths", "1|0,1"]}[command]
        outputs = []
        for i in range(2):
            assert cli.main(argv + ["--out", str(tmp_path / f"out{i}.csv")]) == 0
            outputs.append((tmp_path / f"out{i}.csv").read_bytes())
        assert parses == [str(d / "features.csv")]
        if command == "scatter":
            assert outputs[0] == outputs[1]

    def test_import_does_not_load_hashlib(self):
        code = "import sys, graphscat; print('hashlib' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_training_does_not_load_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma (1.3 MB of RSS, 10 ms of import); the
        # class-id, split and disjointness checks sort instead
        save_dataset(generate_sbm(SBMSpec(block_sizes=(10, 10), p_in=0.4, p_out=0.05, seed=4)),
                     tmp_path / "d")
        code = ("import sys\n"
                "from graphscat.datasets import SBMSpec, generate_sbm, load_dataset\n"
                "from graphscat.models import PRESETS, ModelSpec, build_model\n"
                "from graphscat.train import TrainConfig, evaluate, fit\n"
                "for ds in (load_dataset(sys.argv[1]),\n"
                "           generate_sbm(SBMSpec(block_sizes=(10, 12), p_in=0.4, p_out=0.05))):\n"
                "    for preset in PRESETS:\n"
                "        model = build_model(ModelSpec(preset=preset), ds.features.shape[1],\n"
                "                            ds.n_classes)\n"
                "        fit(model, ds.graph, ds.features, ds.labels, ds.splits,\n"
                "            TrainConfig(max_epochs=3))\n"
                "        evaluate(model, ds.graph, ds.features, ds.labels, ds.splits.test)\n"
                "print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "d")],
                             capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"
