"""Spans recorded from outside the program, around calls into its modules.

graphscat modules import names directly (``from .graph import
apply_operator``), so a function is wrapped at every name its callers
resolve: ``autodiff.apply_operator``, ``theory.apply_operator`` and so on,
each recorded under one span name. Each span holds its name, start, end,
parent span and operation id, plus an optional payload (kernel shape, tape
statistics). Spans stay in memory; ``summarize`` turns them into per-layer
figures with self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, EXTRA = range(6)

OPERATOR_KINDS = ("lazy_walk", "renorm_adjacency", "residual_diffusion", "sym_norm_adjacency")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name, extra):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, extra]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _exit(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, extra=None):
        rec = self._enter(name, extra)
        try:
            yield rec
        finally:
            self._exit(rec)

    def wrap(self, fn, name, extra=None):
        """fn recorded as a span; name and extra may be functions of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._enter(name(args) if callable(name) else name,
                                extra(args) if extra else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(rec)

        return traced

    def patch(self, owner, attr, name, extra=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(orig, name, extra))

    def unpatch(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[NAME], "start": rec[START],
                                     "end": rec[END], "parent": rec[PARENT],
                                     "op": rec[OP], "extra": rec[EXTRA]}) + "\n")


def _kernel_shape(args):
    g, X = args[0], args[1]
    return (g.n, int(g.csr_targets.size), 1 if X.ndim == 1 else int(X.shape[1]))


def kernel_cost(n: int, nnz: int, width: int) -> tuple[int, int]:
    """Computed (bytes moved, flops) of one W @ X with float64 values, int64 indices.

    Bytes: CSR offsets, targets and weights, the gathered rows X[targets] and
    the output. Flops: one multiply and one add per stored entry and column.
    """
    nbytes = 8 * (n + 1) + 16 * nnz + 8 * nnz * width + 8 * n * width
    return nbytes, 2 * nnz * width


def _dataset_bytes(args):
    import os
    d = args[0]
    return sum(os.path.getsize(os.path.join(d, f)) for f in
               ("edges.tsv", "features.csv", "labels.csv", "splits.json"))


def _tape(root, param_type):
    """Tape nodes reachable from root, parents first, plus gradient-product counts.

    A gradient product is one parent gradient returned by a node's
    vector-Jacobian product; it is useful when that parent lies on a path
    to a Parameter. Returns (nodes, products, useful products).
    """
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents if id(p) not in seen)
    on_path: dict[int, bool] = {}
    products = useful = 0
    for node in order:
        on_path[id(node)] = isinstance(node, param_type) or any(
            on_path[id(p)] for p in node.parents)
        if node._vjp is not None:
            products += len(node.parents)
            useful += sum(on_path[id(p)] for p in node.parents)
    return order, products, useful


def install(tracer: Tracer, gs) -> None:
    """Wrap the public functions of every graphscat module at their call sites.

    gs is a namespace holding the imported graphscat modules.
    """
    op_name = "graph.apply_operator.{}".format
    tr_name = "graph.apply_operator_transpose.{}".format

    def by_kind(fmt):
        return lambda args: fmt(args[1].tag)

    # one span per command, named after it: cli.verify-theory, cli.train, ...
    tracer.patch(gs.cli, "main", lambda args: f"cli.{args[0][0]}")
    tracer.patch(gs.graph, "adjacency_matvec", "graph.adjacency_matvec", _kernel_shape)
    # graph.apply_operator itself is left alone: apply_operator_transpose calls
    # it for the symmetric kinds, and that call belongs to the transpose
    for mod in (gs.autodiff, gs.theory, gs.fixtures):
        tracer.patch(mod, "apply_operator", by_kind(op_name))
    tracer.patch(gs.autodiff, "apply_operator_transpose", by_kind(tr_name))

    orig_backward = gs.autodiff.backward
    param_type = gs.autodiff.Parameter

    def backward(root):
        with tracer.span("trace.tape_scan"):
            nodes, products, useful = _tape(root, param_type)
            for node in nodes:
                if node._vjp is not None:
                    op = node._vjp.__qualname__.split(".")[0]
                    node._vjp = tracer.wrap(node._vjp, f"autodiff.{op}.vjp")
        with tracer.span("autodiff.backward", (len(nodes), products, useful)):
            return orig_backward(root)

    tracer._saved.append((gs.autodiff, "backward", orig_backward))
    gs.autodiff.backward = backward

    for mod, attr, name in (
            (gs.autodiff, "matmul", "autodiff.matmul"),
            (gs.autodiff, "masked_cross_entropy", "autodiff.masked_cross_entropy"),
            (gs.train, "fit", "train.fit"),
            (gs.experiment, "fit", "train.fit"),
            (gs.train.Tape, "backward", "train.Tape.backward"),
            (gs.train._Adam, "step", "train._Adam.step"),
            (gs.models.ScGCN, "forward", "models.forward"),
            (gs.models.GSAN, "forward", "models.forward"),
            (gs.layers, "gcn_channel", "layers.gcn_channel"),
            (gs.models, "hybrid_forward_concat", "layers.hybrid_forward_concat"),
            (gs.layers, "attention_head", "layers.attention_head"),
            (gs.models, "residual_conv", "layers.residual_conv"),
            (gs.layers, "cascade_tensor", "scattering.cascade_tensor"),
            (gs.scattering, "cascade_tensor", "scattering.cascade_tensor"),
            (gs.datasets, "read_edge_list", "graph.read_edge_list"),
            (gs.cli, "read_edge_list", "graph.read_edge_list"),
            (gs.models, "build_model", "models.build_model"),
            (gs.experiment, "build_model", "models.build_model"),
            (gs.cli, "run_experiment", "experiment.run_experiment"),
            (gs.experiment, "write_metrics_csv", "experiment.write_metrics_csv"),
            (gs.spectral, "eigendecompose", "spectral.eigendecompose"),
            (gs.spectral, "sym_normalized_laplacian", "spectral.sym_normalized_laplacian"),
            (gs.cli, "spectral_response", "spectral.spectral_response"),
            (gs.cli, "run_verify_suite", "fixtures.run_verify_suite"),
            (gs.fixtures, "run_case", "fixtures.run_case"),
            (gs.cli, "cascade", "scattering.cascade"),
            (gs.theory, "cascade", "scattering.cascade")):
        tracer.patch(mod, attr, name)
    for mod in (gs.datasets, gs.experiment):
        tracer.patch(mod, "load_dataset", "datasets.load_dataset", _dataset_bytes)


# layers timed per call; every other layer is timed per epoch (training
# workloads) or per command cycle (theory-cli)
PER_CALL = ("datasets.load_dataset", "graph.read_edge_list", "models.build_model",
            "experiment.run_experiment", "experiment.write_metrics_csv")
PER_UNIT_SELF = ("models.forward", "layers.gcn_channel", "layers.hybrid_forward_concat",
                 "layers.attention_head", "layers.residual_conv", "scattering.cascade_tensor",
                 "spectral.eigendecompose", "spectral.sym_normalized_laplacian",
                 "spectral.spectral_response", "fixtures.run_verify_suite",
                 "fixtures.run_case", "autodiff.backward", "autodiff.matmul",
                 "autodiff.matmul.vjp")
# inclusive time: the off-tape cascade is a thin call into the traced
# cascade_tensor, so its own self time would read about 0
PER_UNIT_INCLUSIVE = ("scattering.cascade", "cli.verify-theory", "cli.scatter", "cli.spectra")
TRAIN_PHASES = ("forward", "loss", "backward", "optimizer", "other")


def summarize(spans, training: bool) -> tuple[dict[str, float], dict]:
    """Per-layer figures from a finished run's spans.

    Training runs are normalized per epoch over the spans inside train.fit;
    theory-cli runs per command cycle over all operation spans. PER_CALL
    layers are averaged per call over every span, set-up included. Returns
    (metrics, counts), where counts holds the exact per-epoch or
    per-command counters.
    """
    n = len(spans)
    dur = [rec[END] - rec[START] for rec in spans]
    child = [0.0] * n
    in_fit = [False] * n
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        if p >= 0:
            child[p] += dur[i]
        in_fit[i] = rec[NAME] == "train.fit" or (p >= 0 and in_fit[p])
    self_t = [d - c for d, c in zip(dur, child)]

    def kind_of(op):
        return op.split(":", 1)[1] if ":" in op else op

    if training:
        scope = in_fit
        units = sum(1 for i, rec in enumerate(spans)
                    if in_fit[i] and rec[NAME] == "train._Adam.step")
    else:
        scope = [rec[OP] != "setup" for rec in spans]
        units = len({rec[OP] for rec in spans if kind_of(rec[OP]) == "spectra"})

    calls: dict[str, int] = {}
    selfs: dict[str, float] = {}
    incl: dict[str, float] = {}
    nbytes = flops = nodes = products = useful = 0
    for i, rec in enumerate(spans):
        if not scope[i]:
            continue
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + self_t[i]
        incl[name] = incl.get(name, 0.0) + dur[i]
        if name == "graph.adjacency_matvec":
            b, f = kernel_cost(*rec[EXTRA])
            nbytes += b
            flops += f
        elif name == "autodiff.backward":
            nodes += rec[EXTRA][0]
            products += rec[EXTRA][1]
            useful += rec[EXTRA][2]

    per = 1.0 / max(units, 1)
    m = {"graph.adjacency_matvec.calls": calls.get("graph.adjacency_matvec", 0) * per,
         "graph.adjacency_matvec.s": selfs.get("graph.adjacency_matvec", 0.0) * per,
         "graph.adjacency_matvec.bytes_computed": nbytes * per,
         "graph.adjacency_matvec.flops": flops * per,
         "graph.adjacency_matvec.ops_per_byte_computed": flops / nbytes if nbytes else 0.0,
         "autodiff.tape_nodes": nodes * per,
         "autodiff.grad_useful_ratio": useful / products if products else 0.0,
         "autodiff.vjp.s": sum(t for k, t in selfs.items() if k.endswith(".vjp")) * per,
         "spectral.eigendecompose.calls": calls.get("spectral.eigendecompose", 0) * per}
    for fn in ("apply_operator", "apply_operator_transpose"):
        for kind in OPERATOR_KINDS:
            key = f"graph.{fn}.{kind}"
            m[f"graph.{fn}.calls.{kind}"] = calls.get(key, 0) * per
            m[f"graph.{fn}.s.{kind}"] = selfs.get(key, 0.0) * per
    for name in PER_UNIT_SELF:
        m[f"{name}.s"] = selfs.get(name, 0.0) * per
    for name in PER_UNIT_INCLUSIVE:
        m[f"{name}.s"] = incl.get(name, 0.0) * per

    # epoch phases: inclusive time of fit's direct children; the rest is "other"
    phase_of = {"models.forward": "forward", "autodiff.masked_cross_entropy": "loss",
                "train.Tape.backward": "backward", "train._Adam.step": "optimizer"}
    phases = dict.fromkeys(TRAIN_PHASES, 0.0)
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        if rec[NAME] == "train.fit":
            phases["other"] += dur[i]
        elif p >= 0 and spans[p][NAME] == "train.fit" and rec[NAME] in phase_of:
            phases[phase_of[rec[NAME]]] += dur[i]
            phases["other"] -= dur[i]
        elif rec[NAME] == "trace.tape_scan" and in_fit[i]:
            phases["backward"] -= dur[i]     # tracing cost, in no phase
    for phase, t in phases.items():
        m[f"train.{phase}.s"] = t * per if training else 0.0

    per_call_n: dict[str, int] = {}
    per_call_t: dict[str, float] = {}
    load_bytes = load_time = 0.0
    for i, rec in enumerate(spans):
        if rec[NAME] in PER_CALL:
            per_call_n[rec[NAME]] = per_call_n.get(rec[NAME], 0) + 1
            per_call_t[rec[NAME]] = per_call_t.get(rec[NAME], 0.0) + self_t[i]
        if rec[NAME] == "datasets.load_dataset":
            load_bytes += rec[EXTRA]
            load_time += dur[i]
    for name in PER_CALL:
        c = per_call_n.get(name, 0)
        m[f"{name}.s"] = per_call_t[name] / c if c else 0.0
    m["datasets.load_dataset.mb_per_s"] = load_bytes / 1e6 / load_time if load_time else 0.0

    counts = {"units": units}
    if training:
        counts["per_epoch"] = {k: v * per for k, v in calls.items()
                               if k.startswith(("graph.", "spectral."))}
        counts["per_epoch"]["autodiff.tape_nodes"] = nodes * per
    else:
        by_kind: dict[str, dict[str, int]] = {}
        ops_of_kind: dict[str, set] = {}
        for i, rec in enumerate(spans):
            if not scope[i]:
                continue
            k = kind_of(rec[OP])
            ops_of_kind.setdefault(k, set()).add(rec[OP])
            if rec[NAME].startswith(("graph.", "spectral.")):
                d = by_kind.setdefault(k, {})
                d[rec[NAME]] = d.get(rec[NAME], 0) + 1
        counts["per_command"] = {k: {name: c / len(ops_of_kind[k]) for name, c in d.items()}
                                 for k, d in by_kind.items()}
    return m, counts
