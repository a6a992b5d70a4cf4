"""latref benchmark: one workload per run, timed end to end or traced by layer.

    python3 bench/run.py --workload bnb-original --seed 0 --seconds 20 --trace 0

Runs from the root of a latref checkout and imports `latref` from its
`src/` directory.  A run builds the workload's inputs from --seed, computes
the reference answers with the benchmark's own oracles (untimed), then
repeats whole rounds of the same operations until --seconds have passed.
Every answer of the first round is checked against the oracles and the
properties the method guarantees; later rounds must repeat it exactly.

Times are scaled to the host's quiet speed by a calibration timed next
to every operation, because a shared host's speed can change by 1.8x
from one phase to the next (see `quiet_round_seconds`).

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`, the end-to-end metrics with
--trace 0 and the per-layer metrics with --trace 1.  Spans and results
go to bench/out/.  See bench/README.md for the workloads and metrics.
"""

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import gcd  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

WORKLOADS = ("bnb-original", "bnb-extended", "reformulate-cli")

# Market-split instances, by seed of latref's own generator, as in the
# acceptance tests.  They stay fixed so that node counts stay comparable
# between commits; the benchmark seed orders them within a round.
M2_SEEDS = (1, 2, 3, 4, 5)
M3_SEEDS = (1, 2)
ORIGINAL_M3_LIMIT = 100
DECIDE_LIMIT = 100_000
# (label, s, node limit); s = None is the full substitution branched on mu only
EXTENDED_M2 = (("ahl", None, DECIDE_LIMIT), ("ext s=1", 1, DECIDE_LIMIT),
               ("ext s=4", 4, DECIDE_LIMIT), ("ext s=8", 8, DECIDE_LIMIT))
EXTENDED_M3 = (("ahl", None, 1), ("ext s=1", 1, 10), ("ext s=9", 9, 1))
CLI_MARKET_SPLIT = ((4, 1), (5, 1))  # (m, generator seed)
PLANTED_KNAPSACKS = 8  # drawn from the benchmark seed
KNAPSACK_SOLVE_LIMIT = 30  # caps the rare planted row that takes thousands of nodes
CUWW1_ORIGINAL_LIMIT = 1500


def since_process_start() -> float:
    """Seconds since this process was started, from the kernel's record of
    its start time; falls back to the start of this script."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _SCRIPT_START


def import_latref():
    """Import latref from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import latref
    import latref.cli
    import latref.knapsack
    import latref.lattice
    import latref.reformulate
    import latref.solver

    where = Path(latref.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError("latref was imported from %s, not from %s" % (where, SRC))
    return {name: sys.modules[name] for name in (
        "latref.cli", "latref.knapsack", "latref.lattice", "latref.reformulate",
        "latref.solver")}


# ---------------------------------------------------------------------------
# operations


class Op:
    """One timed call.  ``fn`` gets the results of earlier ops of the round
    by key; ``check`` gets the same mapping after the round and returns a
    list of problems; ``nodes`` reads the branch-and-bound node count."""

    def __init__(self, key, fn, check, nodes=None):
        self.key = key
        self.fn = fn
        self.check = check
        self.nodes = nodes or (lambda result: 0)


class Workload:
    def __init__(self):
        self.ops = []
        self.oracles = []  # callables run once, untimed, before the rounds
        self.late_setup = []  # set-up steps that need the oracles' answers

    def add(self, *args, **kwargs):
        self.ops.append(Op(*args, **kwargs))


def market_split(mods, m, seed):
    return mods["latref.solver"].gen_market_split(m, seed)


def m2_instances(mods):
    return [("m2 seed %d" % s, market_split(mods, 2, s)) for s in M2_SEEDS]


def m3_instances(mods):
    return [("m3 seed %d" % s, market_split(mods, 3, s)) for s in M3_SEEDS]


def rotate(items, seed):
    """The seed also fixes the order in which a round visits the instances."""
    k = seed % len(items)
    return items[k:] + items[:k]


def system_rows(sys_):
    return [list(r) for r in sys_.a.data], list(sys_.b)


def add_truth(wl, truth, tag, sys_):
    """Register the oracle answer for a 0/1 market-split instance."""
    rows, rhs = system_rows(sys_)
    solve = oracles.binary_solution_enumerate if sys_.n <= 12 else oracles.binary_solution_mitm

    def run():
        truth[tag] = solve(rows, rhs) is not None

    wl.oracles.append(run)


def check_bnb(res, truth_feasible, limit, sys_, ef=None):
    """Problems with one BnbResult against the oracle truth."""
    rows, rhs = system_rows(sys_)
    if res.status == "node_limit":
        return [] if res.nodes == limit else ["stopped at %d nodes, limit %d" % (res.nodes, limit)]
    if res.nodes > limit:
        return ["%d nodes exceed the limit %d" % (res.nodes, limit)]
    if (res.status == "feasible") != truth_feasible:
        return ["answered %s, oracle says %s" % (
            res.status, "feasible" if truth_feasible else "infeasible")]
    if res.status != "feasible":
        return []
    errs = oracles.check_solution(rows, rhs, res.x, sys_.var_lower, sys_.var_upper)
    if ef is not None:
        errs += oracles.check_extended_point(
            [list(r) for r in ef.p.data], [list(r) for r in ef.t.data], list(ef.px0),
            res.x, res.mu)
    return errs


def build_bnb_original(mods, seed):
    solver = mods["latref.solver"]
    wl = Workload()
    truth = {}
    plan = [(tag, sys_, DECIDE_LIMIT) for tag, sys_ in m2_instances(mods)]
    plan += [(tag, sys_, ORIGINAL_M3_LIMIT) for tag, sys_ in m3_instances(mods)]
    for tag, sys_, limit in rotate(plan, seed):
        add_truth(wl, truth, tag, sys_)
        cfg = solver.BnbConfig(node_limit=limit)
        wl.add(
            "%s original" % tag,
            lambda r, sys_=sys_, cfg=cfg: solver.bnb_feasibility(sys_, None, cfg),
            lambda r, k="%s original" % tag, tag=tag, sys_=sys_, limit=limit:
                check_bnb(r[k], truth[tag], limit, sys_),
            nodes=lambda res: res.nodes,
        )
    return wl


def check_kernel(ks, sys_):
    rows, rhs = system_rows(sys_)
    errs = []
    if not ks.feasible or ks.scale_k != 1:
        errs.append("kernel_and_solution found no integer solution")
    if [oracles.dot(r, ks.x0) for r in rows] != [ks.scale_k * v for v in rhs]:
        errs.append("A x0 != scale_k b")
    if ks.q.cols != sys_.n - sys_.m:
        errs.append("kernel basis has %d columns, want %d" % (ks.q.cols, sys_.n - sys_.m))
    for col in ks.q.col_list():
        if any(oracles.dot(r, col) for r in rows):
            errs.append("kernel column outside the kernel")
            break
    return errs


def check_ef(ef, sys_, s):
    rows, rhs = system_rows(sys_)
    if ef.s != s:
        return ["formulation has s = %d, asked for %d" % (ef.s, s)]
    return oracles.check_formulation(
        rows, rhs, [list(r) for r in ef.p.data], [list(r) for r in ef.m_mat.data],
        [list(r) for r in ef.t.data], list(ef.x0), list(ef.px0), s)


def build_bnb_extended(mods, seed):
    lattice, reformulate, solver = (
        mods["latref.lattice"], mods["latref.reformulate"], mods["latref.solver"])
    wl = Workload()
    truth = {}
    plan = [(tag, sys_, EXTENDED_M2) for tag, sys_ in m2_instances(mods)]
    plan += [(tag, sys_, EXTENDED_M3) for tag, sys_ in m3_instances(mods)]
    for tag, sys_, forms in rotate(plan, seed):
        add_truth(wl, truth, tag, sys_)
        d = sys_.n - sys_.m
        ks_key = "%s kernel_and_solution" % tag
        wl.add(ks_key,
               lambda r, sys_=sys_: lattice.kernel_and_solution(sys_.a, sys_.b),
               lambda r, k=ks_key, sys_=sys_: check_kernel(r[k], sys_))
        for label, s, limit in forms:
            s = d if s is None else s
            priority = tuple("mu%d" % j for j in reversed(range(d))) if label == "ahl" else None
            ef_key = "%s %s build_extended" % (tag, label)
            bnb_key = "%s %s bnb" % (tag, label)

            def build(r, sys_=sys_, s=s, k=ks_key):
                ks = r[k]
                split = reformulate.split_basis(ks.q, reformulate.FixedSplit(s))
                return reformulate.build_extended(sys_, split, ks.q, ks.x0)

            cfg = solver.BnbConfig(branch_priority=priority, node_limit=limit)
            wl.add(ef_key, build, lambda r, k=ef_key, sys_=sys_, s=s: check_ef(r[k], sys_, s))
            wl.add(
                bnb_key,
                lambda r, sys_=sys_, cfg=cfg, k=ef_key: solver.bnb_feasibility(sys_, r[k], cfg),
                lambda r, k=bnb_key, e=ef_key, tag=tag, sys_=sys_, limit=limit:
                    check_bnb(r[k], truth[tag], limit, sys_, r[e]),
                nodes=lambda res: res.nodes,
            )
    return wl


# ---------------------------------------------------------------------------
# CLI workload


def planted_knapsack(rng, n=5):
    """Coprime positive a = (m + 1) p1 + m p2 in the shape of CUWW1 =
    12225 (-1,0,2,-1,1) + 12224 (2,1,1,6,6): m in [10^4, 1.4 10^4], p1
    entries in [-1, 2], p2 entries in [1, 6], entries of a distinct."""
    while True:
        m = rng.randint(10_000, 14_000)
        p1 = [rng.randint(-1, 2) for _ in range(n)]
        p2 = [rng.randint(1, 6) for _ in range(n)]
        a = [(m + 1) * u + m * v for u, v in zip(p1, p2)]
        if min(a) > 0 and gcd(*a) == 1 and len(set(a)) == n:
            return a


def knapsack_text(a, b):
    return "1 %d\n%s\n%d\n" % (len(a), " ".join(str(v) for v in a), b)


def cli_op(mods, argv):
    cli = mods["latref.cli"]

    def run(_results):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--json", "-"])
        return rc, out.getvalue()

    return run


def payload(result):
    rc, text = result
    return rc, (json.loads(text) if text.strip() else None)


def check_reformulate(result, a_rows, b, want_s=None, want_decomposition=False):
    rc, obj = payload(result)
    if rc != 0 or obj is None:
        return ["reformulate exited %d" % rc]
    s = obj["s"]
    errs = []
    if want_s is not None and s != want_s:
        errs.append("s = %d, asked for %d" % (s, want_s))
    errs += oracles.check_formulation(
        a_rows, b, oracles.int_matrix(obj["P"]), oracles.int_matrix(obj["M"]),
        oracles.int_matrix(obj["T"]), oracles.ints(obj["x0"]), oracles.ints(obj["px0"]), s)
    if want_decomposition:
        d = obj["decomposition"]
        if d is None:
            errs.append("no two-generator decomposition reported")
        else:
            errs += oracles.check_decomposition(
                a_rows[0], int(d["m1"]), int(d["m2"]), int(d["q1"]), int(d["q2"]),
                oracles.ints(d["p1"]), oracles.ints(d["p2"]))
    return errs


def solve_nodes(result):
    _, obj = payload(result)
    return int(obj["nodes"]) if obj else 0


def limited(result, limit):
    """(exit code, JSON) of a node-limited solve, and whether it stopped at
    the limit; a stop anywhere else than exactly at the limit is a problem."""
    rc, obj = payload(result)
    if obj is None:
        return rc, obj, True, ["solve exited %d without a report" % rc]
    if rc == 3 or obj["status"] == "node_limit":
        ok = rc == 3 and obj["status"] == "node_limit" and obj["nodes"] == limit
        return rc, obj, True, [] if ok else [
            "stopped with exit %d at %d nodes, limit %d" % (rc, obj["nodes"], limit)]
    return rc, obj, False, []


def add_knapsack(wl, mods, files, tag, a, frob, original_limit=None):
    """CLI calls on one knapsack row.  files[tag] holds the instance paths at
    b = F and b = F + 1 once the oracle has found F = frob[tag]; with
    original_limit the row is also searched in its original form at b = F."""
    names = ["reformulate ratio", "reformulate s=1", "width", "frobenius-bound",
             "frobenius-exact", "solve F", "solve F+1"]
    if original_limit is not None:
        names.append("solve F original")
    keys = {c: "%s %s" % (tag, c) for c in names}
    limit = str(KNAPSACK_SOLVE_LIMIT)

    def call(command, *extra, at="F+1"):
        def run(r):
            path = files[tag][0 if at == "F" else 1]
            tail = ["--b", str(frob[tag])] if command == "width" else []
            return cli_op(mods, [command, path] + list(extra) + tail)(r)
        return run

    def row(at):
        return [list(a)], [frob[tag] + (0 if at == "F" else 1)]

    def chk_ratio(r):
        return check_reformulate(r[keys["reformulate ratio"]], *row("F+1"))

    def chk_s1(r):
        return check_reformulate(r[keys["reformulate s=1"]], *row("F+1"), want_s=1,
                                 want_decomposition=True)

    def chk_width(r):
        rc, obj = payload(r[keys["width"]])
        if rc != 0:
            return ["width exited %d" % rc]
        raw = int(obj["floor"]) - int(obj["ceil"]) + 1
        errs = [] if raw == int(obj["width_raw"]) and obj["width"] == max(raw, 0) else [
            "width %s inconsistent with floor/ceil" % obj["width"]]
        _, solved, _, _ = limited(r[keys["solve F"]], KNAPSACK_SOLVE_LIMIT)
        if obj["width"] == 0 and (solved is None or solved["status"] != "infeasible"):
            errs.append("width 0 at F but solve did not prove infeasibility")
        return errs

    def chk_bound(r):
        rc, obj = payload(r[keys["frobenius-bound"]])
        if rc != 0:
            return ["frobenius-bound exited %d" % rc]
        if obj["assumptions_ok"] and oracles.parse_rational(obj["bound"]) > frob[tag]:
            return ["bound %s exceeds F = %d" % (obj["bound"], frob[tag])]
        return []

    def chk_exact(r):
        rc, obj = payload(r[keys["frobenius-exact"]])
        if rc != 0:
            return ["frobenius-exact exited %d" % rc]
        if int(obj["frobenius"]) != frob[tag]:
            return ["F = %s, round robin says %d" % (obj["frobenius"], frob[tag])]
        if tuple(a) == oracles.CUWW1 and frob[tag] != oracles.CUWW1_FROBENIUS:
            return ["CUWW1 F = %d, published %d" % (frob[tag], oracles.CUWW1_FROBENIUS)]
        return []

    def chk_solve_f(r):
        rc, obj, stopped, errs = limited(r[keys["solve F"]], KNAPSACK_SOLVE_LIMIT)
        if stopped:
            return errs
        if rc != 2 or obj["status"] != "infeasible":
            return ["solve at F exited %d (%s), want 2" % (rc, obj["status"])]
        return []

    def chk_solve_f1(r):
        rc, obj, stopped, errs = limited(r[keys["solve F+1"]], KNAPSACK_SOLVE_LIMIT)
        if stopped:
            return errs
        if rc != 0 or obj["status"] != "feasible":
            return ["solve at F+1 exited %d (%s), want 0" % (rc, obj["status"])]
        rows, rhs = row("F+1")
        x, mu = oracles.ints(obj["x"]), oracles.ints(obj["mu"])
        errs = oracles.check_solution(rows, rhs, x)
        _, ref = payload(r[keys["reformulate s=1"]])
        if ref is None:
            return errs + ["no formulation to check mu against"]
        return errs + oracles.check_extended_point(
            oracles.int_matrix(ref["P"]), oracles.int_matrix(ref["T"]),
            oracles.ints(ref["px0"]), x, mu)

    def chk_original(r):
        rc, obj, stopped, errs = limited(r[keys["solve F original"]], original_limit)
        if not stopped and (rc != 2 or obj["status"] != "infeasible"):
            errs = ["original solve at F exited %d (%s)" % (rc, obj["status"])]
        return errs

    ext = ("--formulation", "ext", "--s", "1", "--node-limit", limit)
    wl.add(keys["reformulate ratio"], call("reformulate", "--ratio", "100"), chk_ratio)
    wl.add(keys["reformulate s=1"], call("reformulate", "--s", "1"), chk_s1)
    wl.add(keys["width"], call("width"), chk_width)
    wl.add(keys["frobenius-bound"], call("frobenius-bound"), chk_bound)
    wl.add(keys["frobenius-exact"], call("frobenius-exact"), chk_exact)
    wl.add(keys["solve F"], call("solve", *ext, at="F"), chk_solve_f, nodes=solve_nodes)
    wl.add(keys["solve F+1"], call("solve", *ext), chk_solve_f1, nodes=solve_nodes)
    if original_limit is not None:
        wl.add(keys["solve F original"],
               call("solve", "--formulation", "orig", "--node-limit", str(original_limit),
                    at="F"),
               chk_original, nodes=solve_nodes)


def build_reformulate_cli(mods, seed):
    cli = mods["latref.cli"]
    wl = Workload()
    OUT.mkdir(exist_ok=True)
    stem = "reformulate-cli-seed%d" % seed
    rng = random.Random(seed)
    knapsacks = [("cuww1", list(oracles.CUWW1))]
    knapsacks += [("planted %d" % i, planted_knapsack(rng)) for i in range(PLANTED_KNAPSACKS)]
    files, frob = {}, {}

    def oracle(tag, a):
        def run():
            frob[tag] = oracles.frobenius_round_robin(a)
        return run

    def write_files():
        """Instance files at b = F and b = F + 1, once F is known."""
        for i, (tag, a) in enumerate(knapsacks):
            paths = []
            for at, b in (("F", frob[tag]), ("F1", frob[tag] + 1)):
                path = OUT / ("%s-k%d-%s.txt" % (stem, i, at))
                path.write_text(knapsack_text(a, b))
                paths.append(str(path))
            files[tag] = tuple(paths)

    groups = []
    for tag, a in knapsacks:
        wl.oracles.append(oracle(tag, a))
        sub = Workload()
        add_knapsack(sub, mods, files, tag, a, frob,
                     CUWW1_ORIGINAL_LIMIT if tag == "cuww1" else None)
        groups.append(sub.ops)
    for m, gen_seed in CLI_MARKET_SPLIT:
        sys_ = market_split(mods, m, gen_seed)
        path = OUT / ("%s-m%d.txt" % (stem, m))
        path.write_text(cli.emit_instance(sys_))
        rows, rhs = system_rows(sys_)
        sub = Workload()
        for label, extra, want_s in (("ratio", ["--ratio", "100"], None), ("s=1", ["--s", "1"], 1)):
            key = "m%d reformulate %s" % (m, label)
            sub.add(key, cli_op(mods, ["reformulate", str(path)] + extra),
                    lambda r, k=key, rows=rows, rhs=rhs, want_s=want_s:
                        check_reformulate(r[k], rows, rhs, want_s))
        groups.append(sub.ops)
    for ops in rotate(groups, seed):
        wl.ops += ops
    wl.late_setup.append(write_files)
    return wl


BUILDERS = {
    "bnb-original": build_bnb_original,
    "bnb-extended": build_bnb_extended,
    "reformulate-cli": build_reformulate_cli,
}


# ---------------------------------------------------------------------------
# running


CALIBRATION_N = 12
# calibration_seconds() on an otherwise idle 2-vCPU Intel Xeon VM, Python 3.11
QUIET_CALIBRATION_S = 0.00268


def calibration_seconds():
    """Time of a fixed piece of exact rational work that does not use latref:
    Gaussian elimination on the 12 x 12 matrix I + Hilbert in Fractions."""
    n = CALIBRATION_N
    t0 = time.perf_counter()
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return time.perf_counter() - t0


def run_round(wl):
    """One pass over the ops: (seconds per op key, calibration seconds
    around each op, results, errors)."""
    results, errors, seconds, cal = {}, {}, {}, {}
    before = calibration_seconds()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            results[op.key] = op.fn(results)
        except Exception as exc:  # a crash is a failed operation, not a stop
            t1 = time.perf_counter()
            errors[op.key] = ["raised %s: %s" % (type(exc).__name__, exc)]
        else:
            t1 = time.perf_counter()
        seconds[op.key] = t1 - t0
        after = calibration_seconds()
        cal[op.key] = (before + after) / 2
        before = after
    return seconds, cal, results, errors


def quiet_round_seconds(op_s, op_c):
    """One round's time at the machine's quiet speed: each op's seconds are
    divided by the calibration time measured around it, the median over the
    rounds is taken per op, and the sum is scaled by the calibration's
    quiet time."""
    return QUIET_CALIBRATION_S * sum(
        statistics.median(t / c for t, c in zip(op_s[key], op_c[key])) for key in op_s)


def check_round(wl, results, errors, reference):
    """Problems per op key: oracle checks on the first round, exact
    repetition of the first round's answers afterwards."""
    problems = dict(errors)
    for op in wl.ops:
        if op.key in problems:
            continue
        if reference is None:
            try:
                errs = op.check(results)
            except Exception as exc:
                errs = ["check raised %s: %s" % (type(exc).__name__, exc)]
        else:
            errs = [] if results[op.key] == reference.get(op.key) else [
                "answer differs from the first round"]
        if errs:
            problems[op.key] = errs
    return problems


def nodes_in(wl, results):
    return sum(op.nodes(results[op.key]) for op in wl.ops if op.key in results)


LAYER_TIMES = (
    "lattice.kernel_and_solution", "lattice.lll_reduce", "lattice.hnf", "lattice.kernel_basis",
    "reformulate.detect_decomposition", "reformulate.build_extended",
    "reformulate.dual_kernel", "reformulate.split_basis", "reformulate.solve_multipliers",
    "knapsack.frobenius_exact", "knapsack.integer_width", "knapsack.frobenius_lower_bound",
    "solver.bnb_feasibility", "cli.main", "cli.parse_instance",
)


def strategy_seconds(mods, inputs, strategy):
    """Untraced time of kernel_and_solution with one strategy over every
    distinct (A, b) the traced rounds saw, each solved once."""
    lattice = mods["latref.lattice"]
    total = 0.0
    for a, b in inputs:
        t0 = time.perf_counter()
        ks = lattice.kernel_and_solution(a, b, strategy=strategy)
        total += time.perf_counter() - t0
        if [oracles.dot(r, ks.x0) for r in a.data] != [ks.scale_k * v for v in b]:
            raise ArithmeticError("%s strategy returned a wrong particular solution" % strategy)
    return total


def layer_metrics(tracer, rounds, mods):
    st = tracer.self_times()
    out = {}
    for name in LAYER_TIMES:
        out[name + ".self_s"] = (st.get(name, 0.0) / rounds, "s")
    inputs = list(tracer.kernel_inputs.values())
    out["lattice.kernel_and_solution.hnf_strategy_s"] = (
        strategy_seconds(mods, inputs, "hnf"), "s")
    out["lattice.kernel_and_solution.embedding_strategy_s"] = (
        strategy_seconds(mods, inputs, "embedding"), "s")
    out["lattice.kernel_basis.max_bits"] = (
        max(tracer.note_values("lattice.kernel_basis", "max_bits"), default=0), "bits")
    frob_s = st.get("knapsack.frobenius_exact", 0.0)
    states = sum(tracer.note_values("knapsack.frobenius_exact", "states"))
    out["knapsack.frobenius_exact.states_per_s"] = (states / frob_s if frob_s else 0.0, "1/s")
    bnb_s = st.get("solver.bnb_feasibility", 0.0)
    nodes = sum(tracer.note_values("solver.bnb_feasibility", "nodes"))
    out["solver.bnb_feasibility.nodes_per_s"] = (nodes / bnb_s if bnb_s else 0.0, "1/s")
    out["solver.bnb_feasibility.s_per_node"] = (bnb_s / nodes if nodes else 0.0, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        mods = import_latref()
    except ImportError as exc:
        print("error: cannot import latref from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2

    # set-up: imports so far plus the workload's inputs; the oracles' own
    # time is taken back out.  Like total_s it is scaled to quiet speed, by
    # calibrations taken right after it.
    OUT.mkdir(exist_ok=True)
    wl = BUILDERS[args.workload](mods, args.seed)
    setup_wall = since_process_start()
    setup_cal = statistics.median(calibration_seconds() for _ in range(5))
    t0 = time.perf_counter()
    for oracle in wl.oracles:
        oracle()
    oracle_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for step in wl.late_setup:
        step()
    setup_wall += time.perf_counter() - t0
    setup_s = setup_wall * QUIET_CALIBRATION_S / setup_cal
    print("setup %.4f s (wall %.4f s, calibration %.5f s), oracles %.4f s, %d ops per round"
          % (setup_s, setup_wall, setup_cal, oracle_s, len(wl.ops)), file=sys.stderr)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mods)
    round_s, op_s, op_c, problems, reference, nodes, failed = [], {}, {}, {}, None, None, 0
    started = time.perf_counter()
    try:
        while not round_s or time.perf_counter() - started < args.seconds:
            seconds, cal, results, errors = run_round(wl)
            round_s.append(sum(seconds.values()))
            for key, sec in seconds.items():
                op_s.setdefault(key, []).append(sec)
                op_c.setdefault(key, []).append(cal[key])
            bad = check_round(wl, results, errors, reference)
            failed += len(bad)
            for key, errs in bad.items():
                problems.setdefault(key, []).extend(errs)
            if reference is None:
                reference, nodes = results, nodes_in(wl, results)
    finally:
        if tracer is not None:
            tracer.uninstall()

    rounds = len(round_s)
    attempted = rounds * len(wl.ops)
    for key, errs in sorted(problems.items()):
        print("FAILED %s: %s" % (key, "; ".join(sorted(set(errs)))), file=sys.stderr)
    print("rounds %d, round seconds %s, nodes per round %d"
          % (rounds, " ".join("%.4f" % s for s in round_s), nodes or 0), file=sys.stderr)
    total_s = quiet_round_seconds(op_s, op_c)
    print("total_s %.4f (quiet-speed seconds), calibration median %.5f s"
          % (total_s, statistics.median(c for v in op_c.values() for c in v)), file=sys.stderr)

    if tracer is None:
        metrics = {
            "total_s": (total_s, "s"),
            "setup_s": (setup_s, "s"),
            "bnb_nodes": (nodes, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, rounds, mods)
        tracer.dump(OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed)))
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(report)
    (OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        line + "\n")
    print(line)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
