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
from latref.cli import emit_instance
from latref.exact import IntMatrix
from latref.lattice import kernel_and_solution
from latref.reformulate import EqualitySystem, FixedSplit, build_extended, split_basis
from latref.solver import bnb_feasibility, gen_market_split

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
    sys_ = EqualitySystem(IntMatrix.from_rows([(6, 10, 15)]), (7,))
    ks = kernel_and_solution(sys_.a, sys_.b, strategy="hnf")
    assert ks.feasible and ks.q.cols == 2
    split = split_basis(ks.q, FixedSplit(2))
    ef = build_extended(sys_, split, ks.q, ks.x0)
    assert ef.s == 2
    cfg = BnbConfig(branch_priority=["mu1", "mu0"], node_limit=10)
    assert (cfg.branch_priority, cfg.node_limit) == (("mu1", "mu0"), 10)
    assert bnb_feasibility(sys_, ef, cfg).status == "infeasible"  # x >= 0 by default
    assert emit_instance(gen_market_split(2, 1)).startswith("2 10\n")
