"""The library surface that the benchmark in bench/ relies on.

bench/tracing.py wraps latref functions at every module attribute they are
looked up by, and bench/run.py calls a few entry points with keyword
arguments.  A rename or a removed keyword would only show up as a failing
`bench/run.py --trace 1` run; these tests catch it in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

from latref import BnbConfig
from latref.exact import IntMatrix
from latref.lattice import kernel_and_solution

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (mod, attr)
        for mod, attr in tracing.TRACED
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert tracing.TRACED and missing == []


def test_benchmark_call_signatures():
    ks = kernel_and_solution(IntMatrix.from_rows([(6, 10, 15)]), (7,), strategy="hnf")
    assert ks.feasible and ks.q.cols == 2
    cfg = BnbConfig(branch_priority=["mu1", "mu0"], node_limit=10)
    assert (cfg.branch_priority, cfg.node_limit) == (("mu1", "mu0"), 10)
