"""Command line front end: instance files in, reports out.

Instance format, bit-exact:

    # comments run to end of line, blank lines are skipped
    m n
    <m rows of n integers>          row data of A
    <m integers>                    right-hand side b
    bounds L U                      optional, uniform bounds; or `binary`

Exit codes: 0 answered, 1 usage or parse error, 2 the system has no
integer solution, 3 a resource limit stopped the run, 4 internal
consistency failure (a certificate or integrality check did not hold).  JSON output writes
integers longer than 15 digits as decimal strings so consumers that read
doubles cannot silently lose precision; matrices are always emitted as
arrays of decimal strings.
"""

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .exact import DimensionError, DomainError, IntMatrix, RankError
from .knapsack import (
    FrobeniusUndefinedError,
    ResourceLimitError,
    ValidationError,
    frobenius_exact,
    frobenius_lower_bound,
    integer_width,
    width_bounds,
)
from .lattice import kernel_and_solution
from .reformulate import (
    EqualitySystem,
    FixedSplit,
    IntegerInfeasibleError,
    RatioSplit,
    build_extended,
    detect_decomposition,
    split_basis,
)
from .solver import BnbConfig, bnb_feasibility, compare_formulations, gen_market_split

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        where = "line %d, column %d: " % (line, column) if line > 0 else ""
        super().__init__(where + message)
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# instance I/O


def _tokens(text: str):
    """Logical lines as (lineno, [(column, token), ...]), comments stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]
        if toks:
            yield lineno, toks


def _int_token(lineno: int, col: int, tok: str) -> int:
    if re.fullmatch(r"[+-]?\d+", tok):
        return int(tok)
    raise ParseError(lineno, col, "expected an integer, got %r" % tok)


def parse_instance(text: str) -> EqualitySystem:
    lines = list(_tokens(text))
    pos = 0

    def take(expect: int, what: str) -> Tuple[int, List[int]]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(last, 1, "unexpected end of file, expected %s" % what)
        lineno, toks = lines[pos]
        pos += 1
        if len(toks) != expect:
            raise ParseError(
                lineno,
                toks[0][0],
                "expected %d integers for %s, got %d tokens" % (expect, what, len(toks)),
            )
        return lineno, [_int_token(lineno, c, t) for c, t in toks]

    lineno, header = take(2, "the header `m n`")
    m, n = header
    if m < 1 or n < 1:
        raise ParseError(lineno, 1, "header needs m >= 1 and n >= 1")
    rows = [take(n, "row %d of A" % (i + 1))[1] for i in range(m)]
    _, b = take(m, "the right-hand side")

    lower = upper = None
    if pos < len(lines):
        lineno, toks = lines[pos]
        pos += 1
        key = toks[0][1]
        if key == "binary":
            if len(toks) != 1:
                raise ParseError(lineno, toks[1][0], "`binary` takes no arguments")
            lower, upper = (0,) * n, (1,) * n
        elif key == "bounds":
            if len(toks) != 3:
                raise ParseError(lineno, toks[0][0], "`bounds` takes exactly L and U")
            lo = _int_token(lineno, toks[1][0], toks[1][1])
            hi = _int_token(lineno, toks[2][0], toks[2][1])
            lower, upper = (lo,) * n, (hi,) * n
        else:
            raise ParseError(lineno, toks[0][0], "expected `bounds`, `binary` or end of file")
    if pos < len(lines):
        lineno, toks = lines[pos]
        raise ParseError(lineno, toks[0][0], "unexpected trailing content")

    try:
        return EqualitySystem(
            IntMatrix.from_rows(rows), tuple(b), var_lower=lower, var_upper=upper
        )
    except (DomainError, DimensionError, RankError) as exc:
        raise ParseError(lineno, 1, str(exc))


def emit_instance(sys_: EqualitySystem) -> str:
    out = ["%d %d" % (sys_.m, sys_.n)]
    for row in sys_.a.data:
        out.append(" ".join(str(v) for v in row))
    out.append(" ".join(str(v) for v in sys_.b))
    lo, hi = sys_.var_lower, sys_.var_upper
    if lo is not None or hi is not None:
        if lo is None or hi is None or len(set(lo)) != 1 or len(set(hi)) != 1:
            raise DomainError("only uniform bounds have a file representation")
        if (lo[0], hi[0]) == (0, 1):
            out.append("binary")
        else:
            out.append("bounds %d %d" % (lo[0], hi[0]))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON emission

_JSON_INT_LIMIT = 10**15


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return x if abs(x) < _JSON_INT_LIMIT else str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
            x.numerator,
            x.denominator,
        )
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    raise TypeError("cannot serialize %r" % (x,))


def _matrix_json(m: IntMatrix) -> List[List[str]]:
    return [[str(v) for v in row] for row in m.data]


def _write_json(obj, dest: Optional[str]) -> bool:
    """Returns True when JSON went to stdout (suppressing the text report)."""
    if dest is None:
        return False
    payload = json.dumps(_jsonable(obj), indent=2, sort_keys=True)
    if dest == "-":
        print(payload)
        return True
    with open(dest, "w") as fh:
        fh.write(payload + "\n")
    return False


# ---------------------------------------------------------------------------
# shared plumbing


def _read_system(path: str) -> EqualitySystem:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(0, 0, "cannot read %s: %s" % (path, exc.strerror))
    return parse_instance(text)


def _fmt_matrix(m: IntMatrix, indent: str = "  ") -> str:
    if m.rows == 0 or m.cols == 0:
        return indent + "(empty %dx%d)" % (m.rows, m.cols)
    widths = [max(len(str(m.data[i][j])) for i in range(m.rows)) for j in range(m.cols)]
    return "\n".join(
        indent + " ".join(str(v).rjust(w) for v, w in zip(row, widths))
        for row in m.data
    )


def _knapsack_row(sys_: EqualitySystem) -> None:
    if sys_.m != 1:
        raise ParseError(0, 0, "this command needs a single-row instance (m = 1)")


def _split_policy(args) -> object:
    if args.s is not None:
        return FixedSplit(args.s)
    return RatioSplit(args.ratio) if args.ratio is not None else RatioSplit()


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for integer
    infeasibility, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


# ---------------------------------------------------------------------------
# commands


def _policy_name(policy) -> str:
    if isinstance(policy, FixedSplit):
        return "fixed_s(%d)" % policy.s
    return "ratio(%s)" % policy.rho


def _cmd_reformulate(args) -> int:
    sys_ = _read_system(args.file)
    policy = _split_policy(args)
    det = detect_decomposition(sys_, policy)
    ef = det.formulation
    obj = {
        "m": sys_.m,
        "n": sys_.n,
        "policy": _policy_name(policy),
        "s": ef.s,
        "P": _matrix_json(ef.p),
        "M": _matrix_json(ef.m_mat),
        "T": _matrix_json(ef.t),
        "x0": list(ef.x0),
        "px0": list(ef.px0),
        "decomposition": None,
    }
    if det.decomposition is not None:
        d = det.decomposition
        obj["decomposition"] = {
            "m1": d.m1,
            "m2": d.m2,
            "q1": d.q1,
            "q2": d.q2,
            "p1": list(d.p1),
            "p2": list(d.p2),
        }
    if _write_json(obj, args.json):
        return EXIT_OK
    print("s = %d" % ef.s)
    print("P =")
    print(_fmt_matrix(ef.p))
    print("M =")
    print(_fmt_matrix(ef.m_mat))
    print("T =")
    print(_fmt_matrix(ef.t))
    print("x0 =", " ".join(str(v) for v in ef.x0))
    if det.decomposition is not None:
        d = det.decomposition
        print("decomposition: M1 = %d, M2 = %d, q1 = %d, q2 = %d" % (d.m1, d.m2, d.q1, d.q2))
        print("  p1 =", " ".join(str(v) for v in d.p1))
        print("  p2 =", " ".join(str(v) for v in d.p2))
    elif det.decomposition_error is not None:
        print("decomposition: none (%s)" % det.decomposition_error)
    return EXIT_OK


def _decompose_single_row(args):
    sys_ = _read_system(args.file)
    _knapsack_row(sys_)
    det = detect_decomposition(sys_, FixedSplit(1))
    if det.decomposition is None:
        raise ValidationError(det.decomposition_error or "no decomposition found")
    return sys_, det.decomposition


def _cmd_width(args) -> int:
    sys_, d = _decompose_single_row(args)
    wa = width_bounds(d)
    wv = integer_width(d, args.b)
    obj = {
        "j": wa.j,
        "k": wa.k,
        "zbar": args.b * wa.zbar,
        "zlower": args.b * wa.zlower,
        "floor": wv.floor_part,
        "ceil": wv.ceil_part,
        "width_raw": wv.raw,
        "width": wv.clamped,
    }
    if _write_json(obj, args.json):
        return EXIT_OK
    print("j = %d, k = %d" % (wa.j, wa.k))
    print("mu upper = %s" % (args.b * wa.zbar))
    print("mu lower = %s" % (args.b * wa.zlower))
    print("width raw = %d (floor %d - ceil %d + 1)" % (wv.raw, wv.floor_part, wv.ceil_part))
    print("width = %d" % wv.clamped)
    return EXIT_OK


def _cmd_frobenius_bound(args) -> int:
    sys_, d = _decompose_single_row(args)
    fb = frobenius_lower_bound(d)
    obj = {
        "case": fb.case_tag,
        "assumptions_ok": fb.assumptions_ok,
        "failed_assumptions": list(fb.failed_assumptions),
        "bound": fb.value,
        "bound_floor": fb.value_floor,
    }
    if _write_json(obj, args.json):
        return EXIT_OK
    if fb.assumptions_ok:
        print("bound = %s (floor %d), case %s" % (fb.value, fb.value_floor, fb.case_tag))
    else:
        print("no bound: failed assumptions %s, case %s"
              % (", ".join(fb.failed_assumptions), fb.case_tag))
    return EXIT_OK


def _cmd_frobenius_exact(args) -> int:
    sys_ = _read_system(args.file)
    _knapsack_row(sys_)
    value = frobenius_exact(sys_.a.row(0))
    if _write_json({"frobenius": value}, args.json):
        return EXIT_OK
    print(value)
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.s is not None and args.formulation != "ext":
        raise ParseError(0, 0, "--s needs --formulation ext")
    sys_ = _read_system(args.file)
    cfg = BnbConfig(node_limit=args.node_limit)
    if args.formulation == "orig":
        res = bnb_feasibility(sys_, None, cfg)
    else:
        ks = kernel_and_solution(sys_.a, sys_.b)
        if not ks.feasible:
            raise IntegerInfeasibleError(ks.scale_k, ks.x0)
        d = sys_.n - sys_.m
        s = d if args.formulation == "ahl" else (args.s if args.s is not None else 1)
        ef = build_extended(sys_, split_basis(ks.q, FixedSplit(s)), ks.q, ks.x0)
        res = bnb_feasibility(sys_, ef, cfg)
    obj = {
        "status": res.status,
        "nodes": res.nodes,
        "proof_depth": res.proof_depth,
        "x": None if res.x is None else list(res.x),
        "mu": None if res.mu is None else list(res.mu),
    }
    wrote = _write_json(obj, args.json)
    if not wrote:
        print("status = %s, nodes = %d, proof depth = %d"
              % (res.status, res.nodes, res.proof_depth))
        if res.x is not None:
            print("x =", " ".join(str(v) for v in res.x))
        if res.mu is not None and res.mu:
            print("mu =", " ".join(str(v) for v in res.mu))
    if res.status == "node_limit":
        return EXIT_RESOURCE
    return EXIT_OK if res.status == "feasible" else EXIT_INFEASIBLE


def _cmd_gen_market_split(args) -> int:
    sys_ = gen_market_split(args.m, args.seed)
    text = emit_instance(sys_)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_compare(args) -> int:
    sys_ = _read_system(args.file)
    try:
        s_values = [int(tok) for tok in args.s_list.split(",") if tok]
    except ValueError:
        raise ParseError(0, 0, "--s expects a comma-separated list of integers") from None
    table = compare_formulations(sys_, s_values, BnbConfig(node_limit=args.node_limit))
    if not _write_json(table.to_json_obj(), args.json):
        print(table.to_text())
    if any(r.status == "node_limit" for r in table.rows):
        return EXIT_RESOURCE
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="latref", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("reformulate", _cmd_reformulate, help="reduce a system to P x = P x0 + T mu")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--s", type=int, help="fixed number of long columns")
    g.add_argument("--ratio", type=int, help="norm-ratio threshold for the split")
    p.add_argument("--json", metavar="PATH", help="write JSON to PATH, or - for stdout")

    p = add("width", _cmd_width, help="integer width of a single-row instance at b")
    p.add_argument("file")
    p.add_argument("--b", type=int, required=True, help="right-hand side to test")
    p.add_argument("--json", metavar="PATH")

    p = add("frobenius-bound", _cmd_frobenius_bound,
            help="closed-form Frobenius lower bound from the decomposition")
    p.add_argument("file")
    p.add_argument("--json", metavar="PATH")

    p = add("frobenius-exact", _cmd_frobenius_exact,
            help="exact Frobenius number by dynamic programming")
    p.add_argument("file")
    p.add_argument("--json", metavar="PATH")

    p = add("solve", _cmd_solve, help="integer feasibility by branch and bound")
    p.add_argument("file")
    p.add_argument("--formulation", choices=("orig", "ahl", "ext"), default="orig")
    p.add_argument("--s", type=int, help="long columns for --formulation ext")
    p.add_argument("--node-limit", type=int, default=1_000_000, dest="node_limit")
    p.add_argument("--json", metavar="PATH")

    p = add("gen-market-split", _cmd_gen_market_split,
            help="write a random market split instance")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", metavar="FILE")

    p = add("compare", _cmd_compare,
            help="node counts for original, substituted and extended runs")
    p.add_argument("file")
    p.add_argument("--s", default="1", dest="s_list",
                   help="comma-separated list of s values (default 1)")
    p.add_argument("--node-limit", type=int, default=1_000_000, dest="node_limit")
    p.add_argument("--json", metavar="PATH")

    return parser


# built by the first main call and reused by every later one; argparse reads
# COLUMNS when it formats a message, not when the parser is built
_PARSER: Optional[_Parser] = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except IntegerInfeasibleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResourceLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except (ValidationError, FrobeniusUndefinedError, DomainError, DimensionError,
            RankError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # failed certificate checks and IntegralityError: a bug, not an answer
        print("error: internal consistency failure: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
