"""One fresh benchmark process: set up a workload, then run its closed loop.

run.py starts this script; it is not meant to be run by hand, but it can be:

  python3 perfbench/worker.py setup --workload W --inputs DIR
  python3 perfbench/worker.py run --workload W --inputs DIR --seconds S \\
      --trace {0,1} --result FILE [--spans FILE]

``setup`` imports graphscat, loads the inputs, builds the model and prints
the monotonic clock (shared by every process on the machine) so the parent
can time set-up from process start. ``run`` sets up the same way and then
runs operations one after another, each starting when the previous ended,
until the next would not fit in the time budget. With ``--trace 1`` the
budget is split: an untraced half, then a traced half whose spans give the
per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import graphscat  # noqa: E402
from graphscat import (  # noqa: E402
    autodiff, cli, config, datasets, experiment, fixtures, graph, layers, models, scattering,
    spectral, theory, train)

import tracer as tracing  # noqa: E402

GS = SimpleNamespace(autodiff=autodiff, cli=cli, datasets=datasets, experiment=experiment,
                     fixtures=fixtures, graph=graph, layers=layers, models=models,
                     scattering=scattering, spectral=spectral, theory=theory, train=train)

MIN_TEST_ACC = 0.85            # acceptance criterion 7
GSAN_EPOCHS = 100
ATTENTION_SUM_TOL = 1e-9
SPECTRA_TOL = 1e-8
VERIFY_FIXTURES = 17
SCATTER_PATHS = "1|2|3|0,1|1,2"
SPECTRA_FILTERS = "gcn;wavelet:1;wavelet:2;lowpass:3;cheb:1,0.5"


class SbmGsan:
    """gsan preset on the criterion-7 block model, fixed epoch count, then evaluate."""

    training = True

    def __init__(self, inputs: Path):
        self.inputs = inputs

    def setup(self):
        self.ds = datasets.load_dataset(self.inputs / "sbm")
        self._build()

    def _build(self):
        return models.build_model(models.ModelSpec(preset="gsan"),
                                  self.ds.features.shape[1], self.ds.n_classes, seed=0)

    def ops(self):
        yield "fit", self.fit

    def fit(self):
        ds = self.ds
        t0 = time.perf_counter()
        model = self._build()
        # patience = epochs, so early stopping can never end the run
        cfg = train.TrainConfig(max_epochs=GSAN_EPOCHS, patience=GSAN_EPOCHS)
        result = train.fit(model, ds.graph, ds.features, ds.labels, ds.splits, cfg)
        acc = train.evaluate(model, ds.graph, ds.features, ds.labels, ds.splits.test)
        seconds = time.perf_counter() - t0
        errors = []
        if len(result.history["epoch"]) != GSAN_EPOCHS:
            errors.append(f"ran {len(result.history['epoch'])} epochs, not {GSAN_EPOCHS}")
        if not acc >= MIN_TEST_ACC:
            errors.append(f"test accuracy {acc} < {MIN_TEST_ACC}")
        for h, head in enumerate(model.last_attention.heads):
            dev = np.max(np.abs(head.alpha_low.sum(axis=0) + head.alpha_band.sum(axis=0) - 1))
            if not dev <= ATTENTION_SUM_TOL:
                errors.append(f"head {h}: attention sums deviate from 1 by {dev}")
        return seconds, errors, {"accuracy": acc}


class WideScgcn:
    """sc-gcn preset on a Cora-shaped block model through `graphscat train --config`."""

    training = True

    def __init__(self, inputs: Path, epochs: int = 101):
        self.inputs = inputs
        self.epochs = epochs
        self.cfg_path = inputs / "train.cfg"
        self.out_dir = inputs / "out"

    def setup(self):
        self.cfg_path.write_text(
            f"dataset.dir = {self.inputs / 'wide'}\n"
            "model.preset = sc-gcn\n"
            f"train.epochs = {self.epochs}\n"
            f"train.patience = {self.epochs}\n", encoding="utf-8")
        view = config.ConfigView(config.parse_config(self.cfg_path))
        ds = datasets.load_dataset(view.get_str("dataset.dir"))
        models.build_model(experiment.model_spec_from_config(view),
                           ds.features.shape[1], ds.n_classes, seed=0)

    def ops(self):
        yield "train", self.train

    def train(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["train", "--config", str(self.cfg_path),
                           "--out-dir", str(self.out_dir)])
        seconds = time.perf_counter() - t0
        if rc != 0:
            return seconds, [f"train exited {rc}"], {}
        summary = dict(line.split(": ", 1) for line in
                       (self.out_dir / "summary.txt").read_text(encoding="utf-8").splitlines())
        rows = len((self.out_dir / "metrics.csv").read_text(encoding="utf-8").splitlines()) - 1
        errors = []
        if int(summary["epochs_run"]) != self.epochs:
            errors.append(f"summary.txt epochs_run {summary['epochs_run']} != {self.epochs}")
        if rows != self.epochs:
            errors.append(f"metrics.csv has {rows} epoch rows, not {self.epochs}")
        return seconds, errors, {"accuracy": float(summary["test_accuracy"])}


class TheoryCli:
    """verify-theory, scatter and spectra through cli.main, in a fixed cycle."""

    training = False

    def __init__(self, inputs: Path):
        self.inputs = inputs
        self.out = inputs / "out.csv"

    def setup(self):
        self.n, self.d = np.loadtxt(self.inputs / "sbm" / "features.csv", delimiter=",",
                                    ndmin=2).shape
        graph.read_edge_list(self.inputs / "sbm" / "edges.tsv", n=self.n)
        graph.read_edge_list(self.inputs / "spectra" / "edges.tsv")

    def ops(self):
        yield "verify-theory", self.verify
        yield "scatter", self.scatter
        yield "spectra", self.spectra

    @staticmethod
    def _main(argv):
        """(exit code, stdout, seconds) of one in-process command."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue(), time.perf_counter() - t0

    def verify(self):
        rc, text, seconds = self._main(["verify-theory"])
        lines = text.splitlines()
        passed = sum(1 for line in lines if "  PASS  " in line)
        errors = []
        if rc != 0:
            errors.append(f"verify-theory exited {rc}")
        if passed != VERIFY_FIXTURES or lines[-1:] != [
                f"{VERIFY_FIXTURES}/{VERIFY_FIXTURES} fixtures passed"]:
            errors.append(f"{passed} of {VERIFY_FIXTURES} fixtures passed")
        return seconds, errors, {"accuracy": passed / VERIFY_FIXTURES}

    def scatter(self):
        rc, _, seconds = self._main(["scatter", "--graph", str(self.inputs / "sbm" / "edges.tsv"),
                            "--features", str(self.inputs / "sbm" / "features.csv"),
                            "--paths", SCATTER_PATHS, "--out", str(self.out)])
        if rc != 0:
            return seconds, [f"scatter exited {rc}"], {}
        table = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        want = (self.n, 1 + len(SCATTER_PATHS.split("|")) * self.d)
        errors = []
        if table.shape != want:
            errors.append(f"scatter CSV is {table.shape}, expected {want}")
        elif not np.all(np.isfinite(table)):
            errors.append("scatter CSV holds non-finite values")
        return seconds, errors, {}

    def spectra(self):
        rc, _, seconds = self._main(["spectra", "--graph", str(self.inputs / "spectra" / "edges.tsv"),
                            "--filters", SPECTRA_FILTERS, "--out", str(self.out)])
        if rc != 0:
            return seconds, [f"spectra exited {rc}"], {}
        with open(self.out, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        table = np.loadtxt(self.out, delimiter=",", skiprows=1, ndmin=2)
        lam = table[:, 0]
        p = 1.0 - lam / 2.0
        expected = {"gcn": 2.0 - lam,
                    "wavelet_1": p - p ** 2,
                    "wavelet_2": p ** 2 - p ** 4,
                    "lowpass_3": p ** 8,
                    "cheb": 1.0 + 0.5 * (2.0 * lam / lam.max() - 1.0)}
        if header != ["eigenvalue", *expected]:
            return seconds, [f"spectra header {header}"], {}
        errors = []
        for j, (name, want) in enumerate(expected.items(), start=1):
            dev = np.max(np.abs(table[:, j] - want))
            if not dev <= SPECTRA_TOL:
                errors.append(f"spectra column {name} deviates from its closed form by {dev}")
        return seconds, errors, {}


WORKLOADS = {"sbm-gsan": SbmGsan, "wide-scgcn": WideScgcn, "theory-cli": TheoryCli}


class EpochClock:
    """Stamps the clock after each optimizer step: one call per epoch, no tracing."""

    def __init__(self):
        self.stamps: list[float] = []
        self._orig = train._Adam.__dict__["step"]
        orig, stamps = self._orig, self.stamps

        def step(opt):
            orig(opt)
            stamps.append(time.perf_counter())

        train._Adam.step = step

    def close(self):
        train._Adam.step = self._orig


def run_loop(workload, seconds: float, tracer=None, first_op: int = 0):
    """Closed loop of operation cycles for about `seconds`.

    Returns (ops, cycle times, peak RSS in MB after the first cycle). The
    peak is read once so that it does not depend on how many cycles fit in
    the run: a second `train` raises the peak by about 7 % while resident
    memory stays flat.

    Each operation returns (seconds, errors, info). Its seconds cover the
    program call only, so the benchmark's own output check is not timed.
    """
    ops, cycles = [], []
    clock = EpochClock() if workload.training and tracer is None else None
    i = first_op
    try:
        while True:
            c0 = time.perf_counter()
            for kind, fn in workload.ops():
                if clock:
                    clock.stamps.clear()
                if tracer:
                    tracer.op = f"{i}:{kind}"
                t0 = time.perf_counter()
                try:
                    op_s, errors, info = fn()
                except Exception as exc:  # an operation failure is counted, not fatal
                    traceback.print_exc()
                    op_s = time.perf_counter() - t0
                    errors, info = [f"{type(exc).__name__}: {exc}"], {}
                rec = {"kind": kind, "s": op_s, "errors": errors, **info}
                if clock:
                    rec["epochs_ms"] = (np.diff(clock.stamps) * 1e3).tolist()
                for e in errors:
                    print(f"check failed [{kind}]: {e}", file=sys.stderr)
                ops.append(rec)
                i += 1
            cycles.append(time.perf_counter() - c0)
            if len(cycles) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if sum(cycles) + statistics.median(cycles) > seconds:
                return ops, cycles, peak_rss_mb
    finally:
        if clock:
            clock.close()


def blas_info() -> dict:
    """OpenBLAS build string and thread count of the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            return {"threads": int(threads()), "config": config().decode()}
    return {"threads": None, "config": None}


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    common.add_argument("--inputs", type=Path, required=True)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = ap.add_subparsers(dest="mode", required=True)
    modes.add_parser("setup", parents=[common])
    run = modes.add_parser("run", parents=[common])
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--result", type=Path, required=True)
    run.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(graphscat.__file__).resolve().parents:
        print(f"graphscat imported from {graphscat.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.inputs)

    if args.mode == "setup":
        workload.setup()
        print(repr(time.monotonic()), flush=True)
        return 0

    out = {"blas": blas_info()}
    if not args.trace:
        workload.setup()
        out["ops"], out["cycles_s"], out["peak_rss_mb"] = run_loop(workload, args.seconds)
    else:
        tr = tracing.Tracer()
        tracing.install(tr, GS)
        workload.setup()
        tr.unpatch()
        plain, plain_cycles, out["peak_rss_mb"] = run_loop(workload, args.seconds / 2)
        tracing.install(tr, GS)
        traced, traced_cycles, _ = run_loop(workload, args.seconds / 2, tracer=tr,
                                            first_op=len(plain))
        tr.unpatch()
        out["ops"] = plain + traced
        out["cycles_s"] = plain_cycles
        out["traced_cycles_s"] = traced_cycles
        # spans before the traced loop are set-up; the untraced loop has none
        layers_, counts = tracing.summarize(tr.spans, workload.training)
        layers_["trace.overhead_frac"] = (statistics.median(traced_cycles)
                                          / statistics.median(plain_cycles) - 1.0)
        out["per_layer"], out["counts"] = layers_, counts
        if args.spans:
            tr.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
