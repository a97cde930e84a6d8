"""Benchmark entry point; run from the repository root.

  python3 perfbench/run.py --workload sbm-gsan --seed 1 --seconds 35 --trace 0

Writes the workload's inputs from the seed, times set-up in several fresh
processes, runs the workload's closed loop in one more fresh process, checks
every operation's output and prints two JSON lines: a detail record
(environment, input digests, samples) and, last, the result
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the per-layer ones from a traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench-work"
BENCHMARK = ROOT / "BENCHMARK.json"
DEADLINE_S = 170.0
SETUP_PROBES = 5


class RunFailed(Exception):
    pass


def environment() -> dict:
    """Machine and code identity, so a noisy or foreign run can be told apart."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphscat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "source_sha256": digest.hexdigest(), "python": sys.version.split()[0],
            "numpy": np.__version__,
            "openblas_build": np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            .get("version")}


def _remaining(t_begin: float) -> float:
    left = DEADLINE_S - (time.monotonic() - t_begin)
    if left <= 0:
        raise RunFailed(f"over the {DEADLINE_S:.0f} s budget")
    return left


def setup_probe(workload: str, inputs: Path, t_begin: float) -> float:
    """Seconds from starting a fresh worker until its set-up finished."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(WORKER), "setup", "--workload", workload,
                           "--inputs", str(inputs)], cwd=ROOT, capture_output=True,
                          text=True, timeout=_remaining(t_begin), check=False)
    if proc.returncode != 0:
        raise RunFailed(f"set-up exited {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start


def run_worker(args, inputs: Path, result: Path, spans: Path, t_begin: float) -> dict:
    cmd = [sys.executable, str(WORKER), "run", "--workload", args.workload,
           "--inputs", str(inputs), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=_remaining(t_begin), check=False)
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


def end_to_end(workload: str, out: dict, setup_s: list[float]) -> dict[str, float]:
    """End-to-end metrics of an untraced run.

    The step time is a minimum: on a shared 2-core machine the median and
    upper percentiles measure the neighbours more than the program (see
    README). theory-cli combines its three commands by geometric mean, so
    each command weighs the same whatever its length. Times come from the
    operations whose checks passed; a kind with none (the run is then
    incorrect anyway) falls back to all of its operations. Accuracy comes
    from every operation that reports one, failed ones included, so a
    partial failure shows in its value.
    """
    ops = out["ops"]
    good = [op for op in ops if not op["errors"]]

    def timed(kind):
        return ([op for op in good if op["kind"] == kind]
                or [op for op in ops if op["kind"] == kind])

    kinds = list(dict.fromkeys(op["kind"] for op in ops))
    if workload == "theory-cli":
        step_ms = 1e3 * _geomean([min(op["s"] for op in timed(k)) for k in kinds])
    else:
        step_ms = min(t for k in kinds for op in timed(k) for t in op["epochs_ms"])
    accuracy = [op["accuracy"] for op in ops if "accuracy" in op]
    return {"setup_s": statistics.median(setup_s),
            "step_ms": step_ms,
            "accuracy": statistics.median(accuracy) if accuracy else 0.0,
            "peak_rss_mb": out["peak_rss_mb"],
            "ops_ok_frac": len(good) / len(ops)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="graphscat benchmark")
    ap.add_argument("--workload", choices=sorted(gen.DATASETS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "graphscat" / "__init__.py").is_file():
        print(f"no graphscat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_begin = time.monotonic()
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    inputs = run_dir / "inputs"
    try:
        digests = gen.make_inputs(args.workload, args.seed, inputs)
        setup_s = [] if args.trace else [setup_probe(args.workload, inputs, t_begin)
                                         for _ in range(SETUP_PROBES)]
        spans = WORK / f"spans-{args.workload}.jsonl"
        out = run_worker(args, inputs, run_dir / "result.json", spans, t_begin)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env.update(blas_threads=out["blas"]["threads"], blas_config=out["blas"]["config"])

    ops = out["ops"]
    failed = sum(1 for op in ops if op["errors"])
    values = out["per_layer"] if args.trace else end_to_end(args.workload, out, setup_s)
    catalogue = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in catalogue["per_layer" if args.trace else "end_to_end"]}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "inputs_sha256": digests,
        "setup_s": setup_s,
        "ops": [{"kind": op["kind"], "s": op["s"]} for op in ops],
        "epochs_ms": [op["epochs_ms"] for op in ops if "epochs_ms" in op],
        "cycles_s": out["cycles_s"],
        "failures": [f"{op['kind']}: {e}" for op in ops for e in op["errors"]],
    }
    if args.trace:
        detail.update(counts=out["counts"], traced_cycles_s=out["traced_cycles_s"],
                      spans_file=str(spans.relative_to(ROOT)))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
