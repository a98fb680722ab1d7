"""perfbench/tracing.py wraps presto functions by name, so a rename or a
moved call must fail here rather than in the next traced benchmark run."""

import importlib
import io
from contextlib import redirect_stderr, redirect_stdout

from presto import cli, corpus

from _gen import perfbench


def _bindings(tracing) -> dict:
    """Every presto binding of a traced function, by module and name."""
    modules = [importlib.import_module("presto")] + [importlib.import_module(f"presto.{m}") for m in tracing.LAYERS]
    traced = {id(getattr(importlib.import_module(f"presto.{layer}"), fn)) for layer, fn in tracing.TARGETS}
    return {(module.__name__, attr): bound for module in modules
            for attr, bound in vars(module).items() if id(bound) in traced}


def test_every_traced_function_is_called_and_let_go(tmp_path):
    tracing = perfbench("tracing")
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    scenario = corpus.scenario_path
    calls = [["check-pres", scenario("addthree")], ["check-pres", scenario("cardinality")],
             ["check-fsmd", scenario("jammer")], ["simulate", scenario("racy"), "--schedules", "3"],
             ["convert", corpus.corpus_path("guard_split"), "-o", str(tmp_path / "guard_split.fsmd")]]
    tracer.attach()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes = [cli.main(argv) for argv in calls]  # cli.main is the tracer's wrapper here
    finally:
        tracer.detach()
    assert codes == [0, 0, 0, 1, 0]
    summary = tracer.summary()
    assert [f"{layer}.{fn}" for layer, fn in tracing.TARGETS if not summary[f"{layer}.{fn}.calls"] > 0] == []
    assert len(before) > len(tracing.TARGETS)  # some functions are bound in more than one module
    assert {(name, attr): vars(importlib.import_module(name))[attr] for name, attr in before} == before
