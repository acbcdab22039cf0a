"""Every binding the benchmark's tracer wraps must still be called.

perfbench/spans.py wraps each workload's bindings by module attribute, so
a refactor that moves an import would leave a layer silently at zero.  Each
workload's runner from perfbench/worker.py runs here on a miniature input
under the tracer; perfbench/ itself is only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import rck
import rck.arrowing
import rck.cli
import rck.cocritical
import rck.enumerate_graphs
from rck.arrowing import CliqueVector
from rck.constructions import hanson_toft
from rck.graphs import complete_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HT34_9 = hanson_toft(CliqueVector((3, 4)), 9)


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
worker = load("worker")


def run_corpus(tmp_path):
    path = tmp_path / "mini.g6"
    path.write_text("G?~~~{\nG?????\nGFz~~{\n")
    worker.run_corpus(rck, str(path), True)


def run_decide(_):
    worker.run_decide(rck, [("arrows", complete_graph(8)), ("is_cocritical", HT34_9)], True)


def run_extremal(_):
    worker.run_extremal(rck, [("extremal", HT34_9)], True)


def run_enumerate(_):
    rck.enumerate_graphs.graphs_up_to(5)


MINIATURES = {
    "corpus-n8": run_corpus,
    "decide-ht34": run_decide,
    "extremal-ht34": run_extremal,
    "enumerate-n8": run_enumerate,
}


@pytest.mark.parametrize("workload", sorted(spans.BINDINGS))
def test_no_wrapped_binding_is_silent(workload, monkeypatch, tmp_path):
    for module_name, attr, _ in spans.BINDINGS[workload]:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = spans.Tracer()
    tracer.wrap(workload)
    MINIATURES[workload](tmp_path)
    assert tracer.silent_bindings() == []
