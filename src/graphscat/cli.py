"""Command-line surface: train, scatter, spectra, verify-theory, gen-sbm.

Every subcommand exits 0 only when all requested checks succeed; parse and
validation errors print to stderr and exit 2, failed checks exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import autodiff as ad
from .config import parse_paths
from .datasets import (
    SBMSpec,
    describe,
    generate_sbm,
    read_dataset,
    read_features,
    save_dataset,
)
from .errors import GraphScatError
from .experiment import (
    read_run_config,
    run_experiment,
    train_model,
    write_attention_ratios,
    write_metrics_csv,
)
from .fixtures import run_verify_suite
from .graph import read_edge_list, write_rows
from .layers import attention_ratio
from .models import PRESETS, build_model
from .scattering import ABS, cascade, first_wavelets
from .spectral import (
    FilterSpec,
    chebyshev_filter,
    gcn_unnormalized,
    lowpass_filter,
    spectral_response,
    wavelet_filter,
)


@contextlib.contextmanager
def _output(path):
    """File handle for path, or stdout (left open) when path is None."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _cmd_train(args) -> int:
    file_flags = ("graph", "features", "labels", "splits")
    given = [getattr(args, r) is not None for r in file_flags]
    if args.config and not any(given):
        if args.out is not None:
            raise ValueError("--out needs the data-file flags; --config alone takes --out-dir")
        run_experiment(args.config, out_dir=args.out_dir, preset=args.preset, seed=args.seed)
        return 0
    missing = [f"--{r}" for r, g_ in zip(file_flags, given) if not g_]
    if missing:
        raise ValueError(f"missing {', '.join(missing)} (or use --config alone)")
    if args.out_dir is not None:
        raise ValueError("--out-dir needs --config alone; the data-file flags take --out")
    # model.* / train.* settings come from the config, if any; data from the flags
    _, spec, tcfg = read_run_config(args.config, args.preset, args.seed, data_flags=True)
    ds = read_dataset(args.graph, args.features, args.labels, args.splits, name="cli")
    print(describe(ds))
    model = build_model(spec, ds.features.shape[1], ds.n_classes, seed=tcfg.seed)
    result, acc = train_model(model, ds, tcfg)
    out = args.out or "metrics.csv"
    write_metrics_csv(out, result.history)
    print(f"test_accuracy: {acc:.4f}")
    if getattr(model, "last_attention", None) is not None:
        zeta = attention_ratio(model.last_attention)
        ratio_path = os.path.splitext(out)[0] + "_attention_ratios.csv"
        write_attention_ratios(ratio_path, zeta)
        print(f"attention ratios written to {ratio_path}")
    return 0


def _cmd_scatter(args) -> int:
    features = read_features(args.features)
    g = read_edge_list(args.graph, n=features.shape[0])
    paths = parse_paths(args.paths)
    swept = first_wavelets(g, paths, ad.constant(features))
    outs = [cascade(g, p, ABS, features, swept) for p in paths]
    with _output(args.out) as fh:
        header = ["node"]
        for p in paths:
            tag = "p" + "-".join(map(str, p)) if p else "identity"
            header.extend(f"{tag}_c{j}" for j in range(features.shape[1]))
        fh.write(",".join(header) + "\n")
        write_rows(fh, ",".join(["%d"] + ["%.10g"] * (len(outs) * features.shape[1])),
                   np.column_stack([np.arange(g.n), *outs]))
    return 0


def _parse_filters(text: str) -> list[tuple[str, FilterSpec]]:
    filters = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        name, _, rest = item.partition(":")
        name = name.strip()
        if name == "gcn":
            filters.append(("gcn", gcn_unnormalized()))
        elif name == "wavelet":
            filters.append((f"wavelet_{int(rest)}", wavelet_filter(int(rest))))
        elif name == "lowpass":
            filters.append((f"lowpass_{int(rest)}", lowpass_filter(int(rest))))
        elif name == "cheb":
            thetas = [float(x) for x in rest.split(",")]
            filters.append(("cheb", chebyshev_filter(thetas)))
        else:
            raise ValueError(f"unknown filter {name!r}")
    if not filters:
        raise ValueError(f"--filters names no filter: {text!r}")
    return filters


def _cmd_spectra(args) -> int:
    g = read_edge_list(args.graph)
    filters = _parse_filters(args.filters)
    lam, responses = spectral_response(g, [flt for _, flt in filters])
    with _output(args.out) as fh:
        fh.write(",".join(["eigenvalue"] + [name for name, _ in filters]) + "\n")
        write_rows(fh, ",".join(["%.10g"] * (1 + len(filters))),
                   np.column_stack([lam, *responses]))
    return 0


def _cmd_verify_theory(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    results = run_verify_suite(tol=args.tol)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        failures += not r.ok
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} fixtures passed")
    return 0 if failures == 0 else 1


def _cmd_gen_sbm(args) -> int:
    spec = SBMSpec(block_sizes=tuple(int(b) for b in args.blocks.split(",")),
                   p_in=args.p_in, p_out=args.p_out,
                   feature_dim=args.feature_dim, noise_scale=args.noise,
                   seed=args.seed)
    ds = generate_sbm(spec)
    save_dataset(ds, args.out)
    print(describe(ds))
    print(f"written to {args.out}")
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The graphscat argument parser; given a command name, with that subcommand only.

    argparse pays about 0.08 ms for each subparser and 0.03 ms for each
    argument it adds, 1 ms in all, half of a small spectra call, so main builds
    only the subcommand it runs. A name that is no command (help, a typo)
    gets every subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="graphscat",
        description="Hybrid scattering graph networks: training, scattering "
                    "features, spectral diagnostics, and theory verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    if p := add("train", _cmd_train, "train a preset on a dataset"):
        p.add_argument("--config", help="experiment config file; --preset and --seed override it")
        p.add_argument("--graph", help="edges.tsv path")
        p.add_argument("--features", help="features.csv path")
        p.add_argument("--labels", help="labels.csv path")
        p.add_argument("--splits", help="splits.json path")
        p.add_argument("--preset", choices=PRESETS, default=None,
                       help="model preset (default sc-gcn, or the config's model.preset)")
        p.add_argument("--seed", type=int, default=None,
                       help="training seed (default 0, or the config's train.seed)")
        p.add_argument("--out", default=None,
                       help="metrics CSV path with the data-file flags (default metrics.csv)")
        p.add_argument("--out-dir", default=None,
                       help="output directory with --config alone "
                            "(default the config's out.dir, else results)")

    if p := add("scatter", _cmd_scatter, "emit scattering features as CSV"):
        p.add_argument("--graph", required=True)
        p.add_argument("--features", required=True)
        p.add_argument("--paths", required=True,
                       help="wavelet-scale paths, e.g. '1|2|0,1' (scales comma-separated)")
        p.add_argument("--out", default=None, help="CSV path (default stdout)")

    if p := add("spectra", _cmd_spectra, "measured per-eigenvalue filter multipliers"):
        p.add_argument("--graph", required=True)
        p.add_argument("--filters", default="gcn;wavelet:1;wavelet:2;lowpass:3",
                       help="semicolon list: gcn, wavelet:k, lowpass:K, cheb:t0,t1,...")
        p.add_argument("--out", default=None, help="CSV path (default stdout)")

    if p := add("verify-theory", _cmd_verify_theory, "run the discriminability fixture suite"):
        p.add_argument("--tol", type=float, default=1e-9)

    if p := add("gen-sbm", _cmd_gen_sbm, "generate a synthetic block-model dataset"):
        p.add_argument("--blocks", default="200,200", help="comma-separated block sizes")
        p.add_argument("--p-in", type=float, default=0.1)
        p.add_argument("--p-out", type=float, default=0.01)
        p.add_argument("--feature-dim", type=int, default=8)
        p.add_argument("--noise", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output dataset directory")

    if not sub.choices:
        return build_parser()
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args, unknown = build_parser(argv[0] if argv else None).parse_known_args(argv)
    if unknown:
        build_parser().parse_args(argv)     # exits 2; its usage line names every command
    try:
        return args.func(args)
    except GraphScatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
