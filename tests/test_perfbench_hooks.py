"""The names perfbench's tracer and layer map hook into must exist.

perfbench/tracing.py wraps fluidhit's public functions and the
ResolventQuantities.max_neg_qinv property, and perfbench/layers.json names
the functions a traced run reports. A renamed or removed name breaks the
traced benchmark run (--trace 1) and nothing else, so it is checked here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import fluidhit
from fluidhit.chain_model import ResolventQuantities

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
        fluidhit.bounds.assemble_report(ex.chain, ex.default_alpha, 10, name=ex.name)
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
