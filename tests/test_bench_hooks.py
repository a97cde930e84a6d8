"""The benchmark's tracer still finds every name it wraps in the package.

perfbench/tracer.py wraps functions at the names their callers resolve, so
renaming or deleting one of them breaks traced benchmark runs; this test
installs the tracer on the live modules and takes it off again.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from graphscat import (
    autodiff,
    cli,
    config,
    datasets,
    experiment,
    fixtures,
    graph,
    layers,
    models,
    scattering,
    spectral,
    theory,
    train,
)

from conftest import random_connected_graph

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# the module namespace perfbench/worker.py hands to tracer.install
GS = SimpleNamespace(autodiff=autodiff, cli=cli, datasets=datasets, experiment=experiment,
                     fixtures=fixtures, graph=graph, layers=layers, models=models,
                     scattering=scattering, spectral=spectral, theory=theory, train=train)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_installs_and_unpatches_every_name():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, GS)
        saved = list(tracer._saved)
        for owner, attr, orig in saved:
            assert _current(owner, attr) is not orig, f"{attr} was not wrapped"
    finally:
        tracer.unpatch()
    patched = {(owner, attr) for owner, attr, _ in saved}
    for must in [(models.ScGCN, "forward"), (models.GSAN, "forward"),
                 (models, "hybrid_forward_concat"), (models, "residual_conv"),
                 (layers, "gcn_channel"), (layers, "attention_head"),
                 (layers, "cascade_tensor"), (train.Tape, "backward"),
                 (train._Adam, "step"), (train, "fit"), (autodiff, "backward")]:
        assert must in patched
    for owner, attr, orig in saved:
        assert _current(owner, attr) is orig, f"{attr} not restored"


def test_traced_forwards_record_every_layer_span(rng):
    # sc-gcn with d_in 8 above its narrowest width 6 takes the per-epoch plan;
    # the spans are named where the models call their layers
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    _, g = random_connected_graph(rng, 12)
    X = rng.standard_normal((12, 8))
    scgcn = models.build_model(models.ModelSpec(preset="sc-gcn"), 8, 2, seed=1)
    gsan = models.build_model(models.ModelSpec(preset="gsan", hidden=4), 8, 2, seed=1)
    assert scgcn.responses.get(g, X) is None
    try:
        tracing.install(tracer, GS)
        scgcn.forward(g, X)
        gsan.forward(g, X)
    finally:
        tracer.unpatch()
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names.count("models.forward") == 2
    for name in ("layers.hybrid_forward_concat", "layers.attention_head",
                 "layers.residual_conv"):
        assert name in names
    assert names.count("layers.residual_conv") == 2


def test_worker_set_up_calls_still_work(tmp_path, capsys):
    # perfbench/worker.py makes these calls outside the tracer: sbm-gsan builds
    # ModelSpec(preset="gsan"), and wide-scgcn reads its train config with
    # model_spec_from_config before running `train --config` through cli.main
    ds = datasets.generate_sbm(datasets.SBMSpec(block_sizes=(10, 12), p_in=0.4, p_out=0.05,
                                                feature_dim=3, seed=1))
    datasets.save_dataset(ds, tmp_path / "wide")
    models.build_model(models.ModelSpec(preset="gsan"), 3, ds.n_classes, seed=0)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"dataset.dir = {tmp_path / 'wide'}\nmodel.preset = sc-gcn\n"
                   "train.epochs = 3\ntrain.patience = 3\n", encoding="utf-8")
    view = config.ConfigView(config.parse_config(cfg))
    spec = experiment.model_spec_from_config(view)
    assert spec == models.ModelSpec(preset="sc-gcn")
    models.build_model(spec, 3, ds.n_classes, seed=0)
    assert cli.main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.txt").exists()
