import gzip

import numpy as np
import pytest

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

    def test_stratified_split_ratios(self):
        labels = np.repeat([0, 1], 70)
        masks = stratified_splits(labels, (5, 1, 1), np.random.default_rng(0))
        assert masks.train.size + masks.val.size + masks.test.size == 140
        for c in (0, 1):
            n_tr = np.sum(labels[masks.train] == c)
            assert n_tr == 50    # round(70 * 5/7)


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
