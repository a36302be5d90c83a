"""The benchmark's workloads still build, run and pass their own checks.

One cheap op per workload, taken from ``benchmarks/workloads.py`` as it
stands; the benchmark files are imported, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "workload,kind",
    [("Activation", "prop2"), ("Merge", "merge2"), ("CertifyDistill", "certify-small")],
)
def test_one_cheap_op_runs_and_passes_its_check(tmp_path, monkeypatch, workload, kind):
    wl = getattr(load_workloads(monkeypatch), workload)(1, tmp_path)
    op = wl.make_op(wl.cycle.index(kind), kind)
    try:
        assert wl.check(op, wl.run(op)) == []
    finally:
        wl.release(op)
