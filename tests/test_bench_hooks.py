"""The benchmark's tracer still finds every name it wraps in the package.

perfbench/tracer.py wraps functions at the names their callers resolve, so
renaming or deleting one of them breaks traced benchmark runs; this test
installs the tracer on the live modules and takes it off again.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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

from conftest import assert_plan, random_connected_graph

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
    # d_in 48 is above sc-gcn's 47 and gsan's 8 stacked Theta columns, so
    # both take the per-call plan; the spans are named where the models call
    # their layers
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    _, g = random_connected_graph(rng, 12)
    X = rng.standard_normal((12, 48))
    scgcn = assert_plan(models.build_model(models.ModelSpec(preset="sc-gcn"), 48, 2, seed=1),
                        "per-call")
    gsan = assert_plan(models.build_model(models.ModelSpec(preset="gsan", hidden=4), 48, 2,
                                          seed=1), "per-call")
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


def test_fit_steps_through_the_hooked_adam_step(rng, monkeypatch):
    # perfbench/worker.py's EpochClock stamps each epoch by replacing
    # train._Adam.__dict__["step"], and the tracer wraps Tape.backward in its
    # class: both must be defined there, and fit must call step once per epoch
    assert "step" in train._Adam.__dict__
    assert "backward" in train.Tape.__dict__
    calls = []
    step = train._Adam.__dict__["step"]

    def counted(opt):
        calls.append(opt)
        step(opt)

    monkeypatch.setattr(train._Adam, "step", counted)
    _, g = random_connected_graph(rng, 12)
    X = rng.standard_normal((12, 3))
    labels = np.arange(12) % 2
    masks = train.SplitMasks(train=np.arange(6), val=np.arange(6, 9), test=np.arange(9, 12))
    model = models.build_model(models.ModelSpec(preset="gsan", hidden=4), 3, 2, seed=0)
    res = train.fit(model, g, X, labels, masks, train.TrainConfig(max_epochs=7, patience=7))
    assert len(res.history["epoch"]) == 7
    assert len(calls) == 7 and all(type(opt) is train._Adam for opt in calls)
