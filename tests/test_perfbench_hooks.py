"""The names perfbench's tracer and layer map hook into must exist.

perfbench/tracing.py wraps fluidhit's public functions and the
ResolventQuantities.max_neg_qinv property, and perfbench/layers.json names
the functions a traced run reports. A renamed or removed name breaks the
traced benchmark run (--trace 1) and nothing else, so it is checked here,
as are the routes the layer map pins: a traced run compares the layers it
saw called against layers.json, which test_layer_map_holds checks on
every row with one untimed pass of each workload.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import fluidhit
from fluidhit import chain_model
from fluidhit.chain_model import InitialDistribution, ResolventQuantities

from oracles import random_chain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("perfbench_tracing", "tracing.py")


def test_layer_map_names_resolve():
    tracing = _tracing()
    assert tracing.REPORTED
    for name in tracing.REPORTED:
        layer, attr = name.split(".")
        if name == "chain_model.max_neg_qinv":
            assert isinstance(vars(ResolventQuantities)["max_neg_qinv"], property)
            continue
        module = importlib.import_module(f"fluidhit.{layer}")
        assert inspect.isfunction(getattr(module, attr, None)), name


def test_tracer_records_report_spans_and_uninstalls():
    tracing = _tracing()
    tracer = tracing.Tracer()
    before = {
        (module.__name__, attr): value
        for module in tracer._modules
        for attr, value in vars(module).items()
    }
    prop = vars(ResolventQuantities)["max_neg_qinv"]
    tracer.install()
    try:
        ex = fluidhit.get_example("fig3b:3")
        fluidhit.bounds.assemble_report(ex, 10)
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"chain_model.max_neg_qinv", "chain_model.mean_jump_count", "bounds.assemble_report"} <= names
    assert vars(ResolventQuantities)["max_neg_qinv"] is prop
    for module in tracer._modules:
        for attr, value in vars(module).items():
            key = (module.__name__, attr)
            if key in before:
                assert value is before[key], key


def test_pinned_solve_linear_routes(monkeypatch):
    # layers.json has numerics.solve_linear called on the analyze and
    # simulate workloads, whose chains lie within the dense cap, and never
    # on kernels, whose hitting times come from a chain past it.
    calls = []
    original = chain_model.solve_linear

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(chain_model, "solve_linear", counted)
    fluidhit.bounds.assemble_report(fluidhit.get_example("fig3b:3"), 10)
    assert calls
    calls.clear()
    chain = random_chain(np.random.default_rng(5), 60)
    example = fluidhit.NamedExample("random60", chain, InitialDistribution.uniform(60))
    fluidhit.bounds.assemble_report(example, 10)
    assert calls
    calls.clear()
    sub = fluidhit.decompose(fluidhit.gen_fig3a(60, 2).chain)
    assert sub.n_transient == 3601
    fluidhit.expected_hitting_times(sub)
    assert not calls


@pytest.mark.parametrize("workload", ["analyze", "kernels", "simulate"])
def test_layer_map_holds(workload, tmp_path, monkeypatch):
    # One traced pass, counted as perfbench/run.py's run_traced counts it:
    # the set-up spans plus the pass's, summed per reported function and per
    # layer, then checked against every row of layers.json.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports tracing and workloads
    run = _load("perfbench_run", "run.py")
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        ops = workloads.build(workload, 1, tmp_path)
        for op in ops:
            tracer.op = op.name
            op.run()
    finally:
        tracer.uninstall()
    totals = tracer.totals(lambda op: True)
    metrics = {}
    for layer in tracing.LAYERS:
        calls = sum(count for name, (count, _) in totals.items() if name.startswith(layer + "."))
        metrics[f"{layer}.calls"] = {"value": calls, "unit": "count"}
    for name in tracing.REPORTED:
        metrics[f"{name}.calls"] = {"value": totals.get(name, [0, 0.0])[0], "unit": "count"}
    assert run.layer_map_contradictions(workload, metrics) == []
