"""Self-tests of the benchmark's checkers and tracer.

Each checker must accept the program's real output and reject a deliberately
corrupted copy of it, so that no check is vacuous.  Run from the checkout
root:

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from toporeg import cli  # noqa: E402


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def cloud(tmp_path_factory):
    rng = np.random.default_rng(7)
    x = np.concatenate([c + rng.normal(size=(20, 5)) for c in rng.normal(scale=4.0, size=(3, 5))])
    path = tmp_path_factory.mktemp("cloud") / "cloud.csv"
    workloads._write_csv(path, x)
    return x, path


def _rejects(checker, *args):
    with pytest.raises(checks.CheckError):
        checker(*args)


def test_barcode_checker(cloud):
    x, path = cloud
    text = _cli("barcode", path)
    checks.check_barcode(text, x)
    payload = json.loads(text)

    perturbed = json.loads(text)
    perturbed["bars"][5]["length"] *= 1.0 + 1e-9
    _rejects(checks.check_barcode, json.dumps(perturbed), x)

    dropped = json.loads(text)
    del dropped["bars"][-1]
    _rejects(checks.check_barcode, json.dumps(dropped), x)

    # same lengths, but one bar re-attached so the endpoints close a cycle
    rewired = json.loads(text)
    first, last = payload["bars"][0], payload["bars"][-1]
    rewired["bars"][-1] = {"length": last["length"], "a": first["a"], "b": first["b"]}
    _rejects(checks.check_barcode, json.dumps(rewired), x)

    reordered = json.loads(text)
    reordered["bars"].reverse()
    _rejects(checks.check_barcode, json.dumps(reordered), x)


def test_entropy_checker(cloud):
    x, path = cloud
    text = _cli("entropy", path, "--select", "features")
    checks.check_entropy_features(text, x)
    payload = json.loads(text)
    assert payload["noise"], "the clustered cloud must have noise bars for these corruptions"

    swapped = dict(payload)
    longest_noise = max(payload["noise"])
    swapped["selected"] = sorted(payload["selected"][1:] + [longest_noise])
    swapped["noise"] = sorted(set(payload["noise"]) - {longest_noise} | {payload["selected"][0]})
    _rejects(checks.check_entropy_features, json.dumps(swapped), x)

    dropped = dict(payload, noise=payload["noise"][1:])
    _rejects(checks.check_entropy_features, json.dumps(dropped), x)

    _rejects(checks.check_entropy_features, json.dumps(dict(payload, alpha=payload["alpha"] * (1 + 1e-9))), x)
    _rejects(checks.check_entropy_features, json.dumps(dict(payload, entropy=payload["entropy"] + 1e-9)), x)


def test_anisotropy_checker(cloud):
    x, path = cloud
    text = _cli("anisotropy", path, "--k", "3", "--centered")
    checks.check_anisotropy(text, x, k=3, centered=True)
    payload = json.loads(text)
    swapped = dict(payload, **{"1": payload["2"], "2": payload["1"]})
    _rejects(checks.check_anisotropy, json.dumps(swapped), x, 3, True)
    _rejects(checks.check_anisotropy, text, x, 3, False)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    d = tmp_path_factory.mktemp("train")
    spec = workloads.TrainWorkload("selected_bars", 0)
    spec.write_inputs(d)
    (call,) = spec.calls(d)
    _cli(*call.argv)
    return spec, spec.output(d, "")


def test_train_checker(trained):
    spec, (metrics, summary) = trained
    checks.check_train(metrics, summary, spec.cfg, spec.seed, workloads.TRAIN_STEPS)
    records = [json.loads(line) for line in metrics.splitlines()]

    def rejects_records(edit, cfg=spec.cfg):
        changed = [dict(r) for r in records]
        edit(changed)
        text = "\n".join(json.dumps(r) for r in changed) + "\n"
        _rejects(checks.check_train, text, summary, cfg, spec.seed, workloads.TRAIN_STEPS)

    rejects_records(lambda rs: rs.pop(100))
    rejects_records(lambda rs: rs[10].update(total=rs[10]["total"] + 1e-6))
    rejects_records(lambda rs: rs[10].update(anisotropy_centered_1=rs[10]["anisotropy_centered_2"],
                                             anisotropy_centered_2=rs[10]["anisotropy_centered_1"]))
    rejects_records(lambda rs: rs[10].update(ce=float("nan")))
    rejects_records(lambda rs: [r.update(ent=0.0, total=r["ce"]) for r in rs])
    rejects_records(lambda rs: [r.update(val_accuracy=0.5) for r in rs])
    rejects_records(lambda rs: None, cfg=dict(spec.cfg, regime="none"))

    wrong = json.loads(summary)
    wrong["metrics"]["ce"]["mean"] *= 1.0 + 1e-9
    _rejects(checks.check_train, metrics, json.dumps(wrong), spec.cfg, spec.seed, workloads.TRAIN_STEPS)


def test_sampled_call_checkers():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(12, 4))
    d = checks.distances(x)
    bars = [(length, a, b) for length, a, b in checks.mst_of_matrix(d)]
    checks.check_barcode_call(d, bars)
    checks.check_distances_call(x, d)
    _rejects(checks.check_barcode_call, d, bars[:-1])
    _rejects(checks.check_barcode_call, d, [(bars[0][0] * 1.001, *bars[0][1:])] + bars[1:])
    bent = d.copy()
    bent[0, 1] = bent[1, 0] = d[0, 1] * (1 + 1e-9)
    _rejects(checks.check_distances_call, x, bent)

    scores = checks.anisotropy_scores(x, 3, centered=True)
    checks.check_anisotropy_call(x, 3, True, scores)
    _rejects(checks.check_anisotropy_call, x, 3, True, scores[[1, 0, 2]])


def test_probe_outcomes():
    assert not checks.probe_passes(None, "", "", ValueError("degenerate"))
    assert not checks.probe_passes(1, "", "Traceback ...\nValueError\n", None)
    assert not checks.probe_passes(0, '{"entropy": NaN}', "", None)
    assert checks.probe_passes(0, '{"n_bars": 3, "entropy": 0.0}', "", None)
    assert checks.probe_passes(3, "", "error: degenerate cloud\n", None)
    assert not checks.probe_passes(3, "", "error: one\nerror: two\n", None)


def test_tracer_counts_calls_and_restores(cloud, monkeypatch):
    x, path = cloud
    import toporeg.geometry
    import toporeg.model

    original = toporeg.geometry.pairwise_distances
    monkeypatch.delattr(toporeg.model, "adam_step")  # a removed name reports zero calls
    tracer = tracing.Tracer()
    replaced = tracer.install()
    try:
        _cli("barcode", path)
    finally:
        tracing.Tracer.uninstall(replaced)
    assert toporeg.geometry.pairwise_distances is original
    assert sys.modules["toporeg.cli"].pairwise_distances is original

    layer = tracer.per_layer(rounds=1)
    assert layer["cli.main.calls"][0] == 1
    assert layer["persistence.vr_barcode_0d.calls"][0] == 1
    assert layer["geometry.pairwise_distances.calls"][0] == 1
    assert layer["serialize.dump_json.calls"][0] == 1  # recursion folds into one span
    assert layer["model.adam_step.calls"][0] == 0
    assert layer["persistence.vr_barcode_0d.points"][0] == x.shape[0]
    assert layer["serialize.bytes_out"][0] > 0
    # self times of nested spans add up to the root span
    total = sum(value for key, (value, _) in layer.items() if key.endswith(".self_s"))
    assert total == pytest.approx(layer["cli.main.p50_us"][0] * 1e-6, rel=1e-9)
    (args, result), = tracer.samples["persistence.vr_barcode_0d"]
    checks.check_barcode_call(next(iter(args.values())), result)
