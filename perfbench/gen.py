"""Seeded input files for the benchmark workloads.

The generator is plain numpy and independent of graphscat, so a change to
the package's own SBM sampler or RNG call order cannot change what the
benchmark feeds it. Files use the package's documented text formats:
edges.tsv ("u<TAB>v", unit weights), features.csv (comma-separated %.17g
rows), labels.csv (one class id per line) and splits.json.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAX_DRAWS = 100
FEATURE_NOISE = 1.0                  # standard deviation around each block's mean
SPLIT_RATIOS = (5.0, 1.0, 1.0)       # train : val : test, per class


@dataclass(frozen=True)
class BlockModel:
    """Stochastic block model with one Gaussian feature cloud per block."""

    tag: int                      # mixed into the seed so datasets draw independently
    block_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    feature_dim: int


# criterion-7 synthetic task: 2 x 200 nodes, d = 8
SBM_GSAN = BlockModel(tag=1, block_sizes=(200, 200), p_in=0.1, p_out=0.01, feature_dim=8)
# Cora-shaped: 7 x 300 nodes, about 10k edges at homophily about 0.8, d = 1433
SBM_WIDE = BlockModel(tag=2, block_sizes=(300,) * 7, p_in=0.0255, p_out=0.00106,
                      feature_dim=1433)
# small graph for the dense spectral diagnostics: 30 nodes keep one `spectra`
# command near 0.4 s (60 nodes take 2 s), so a run times each command 55-75
# times (see README, "Why minima")
SBM_SPECTRA = BlockModel(tag=3, block_sizes=(15, 15), p_in=0.4, p_out=0.07, feature_dim=2)


def _edges(spec: BlockModel, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangular Bernoulli draws per block pair; returns (u, v) with u < v."""
    starts = np.cumsum((0,) + spec.block_sizes)
    us, vs = [], []
    for i, ni in enumerate(spec.block_sizes):
        for j in range(i, len(spec.block_sizes)):
            p = spec.p_in if i == j else spec.p_out
            draw = rng.random((ni, spec.block_sizes[j])) < p
            if i == j:
                draw = np.triu(draw, k=1)
            a, b = np.nonzero(draw)
            us.append(starts[i] + a)
            vs.append(starts[j] + b)
    return np.concatenate(us), np.concatenate(vs)


def sample(spec: BlockModel, seed: int):
    """(u, v, features, labels, splits); redraws the edges while a node is isolated."""
    rng = np.random.default_rng([seed, spec.tag])
    n = sum(spec.block_sizes)
    labels = np.repeat(np.arange(len(spec.block_sizes)), spec.block_sizes)
    for _ in range(MAX_DRAWS):
        u, v = _edges(spec, rng)
        if np.bincount(np.concatenate([u, v]), minlength=n).min() > 0:
            break
    else:
        raise RuntimeError(f"no draw without isolated nodes in {MAX_DRAWS} tries")

    B, d = len(spec.block_sizes), spec.feature_dim
    means = -np.ones((B, d))
    for b in range(B):
        means[b, (np.arange(d) * B) // d == b] = 1.0
    features = means[labels] + FEATURE_NOISE * rng.standard_normal((n, d))

    fracs = np.asarray(SPLIT_RATIOS) / sum(SPLIT_RATIOS)
    splits = {"train": [], "val": [], "test": []}
    for c in range(B):
        idx = rng.permutation(np.flatnonzero(labels == c))
        n_tr = int(round(idx.size * fracs[0]))
        n_va = int(round(idx.size * fracs[1]))
        splits["train"] += idx[:n_tr].tolist()
        splits["val"] += idx[n_tr:n_tr + n_va].tolist()
        splits["test"] += idx[n_tr + n_va:].tolist()
    splits = {k: sorted(v) for k, v in splits.items()}
    return u, v, features, labels, splits


def write_dataset(spec: BlockModel, seed: int, out_dir: Path, edges_only: bool = False):
    out_dir.mkdir(parents=True, exist_ok=True)
    u, v, features, labels, splits = sample(spec, seed)
    with open(out_dir / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{a}\t{b}\n" for a, b in zip(u.tolist(), v.tolist())))
    if edges_only:
        return
    with open(out_dir / "features.csv", "w", encoding="utf-8") as fh:
        np.savetxt(fh, features, fmt="%.17g", delimiter=",")
    with open(out_dir / "labels.csv", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{y}\n" for y in labels.tolist()))
    with open(out_dir / "splits.json", "w", encoding="utf-8") as fh:
        json.dump(splits, fh)
        fh.write("\n")


DATASETS = {
    "sbm-gsan": (("sbm", SBM_GSAN, False),),
    "wide-scgcn": (("wide", SBM_WIDE, False),),
    "theory-cli": (("sbm", SBM_GSAN, False), ("spectra", SBM_SPECTRA, True)),
}


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict[str, str]:
    """Write the workload's input directories; returns {relative path: sha256}."""
    for name, spec, edges_only in DATASETS[workload]:
        write_dataset(spec, seed, out_dir / name, edges_only=edges_only)
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[path.relative_to(out_dir).as_posix()] = h.hexdigest()
    return digests
