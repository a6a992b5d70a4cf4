"""Span tracing of latref's public functions, from outside the package.

Each traced function is replaced, at every module attribute its callers
look it up by, with a wrapper that records a span (name, start, end,
parent).  Spans stay in memory until the run ends; ``self_times`` turns
them into per-function self time (span minus the spans it caused), and
``dump`` writes them out.  No latref source file is touched: ``uninstall``
puts the original functions back.
"""

import functools
import json
import time

# (module that looks the function up, attribute name).  The span is named
# after the module that defines the function, so `latref.reformulate.hnf`
# and `latref.lattice.hnf` both count as `lattice.hnf`.
TRACED = (
    ("latref.lattice", "kernel_and_solution"),
    ("latref.reformulate", "kernel_and_solution"),
    ("latref.solver", "kernel_and_solution"),
    ("latref.cli", "kernel_and_solution"),
    ("latref.lattice", "lll_reduce"),
    ("latref.reformulate", "lll_reduce"),
    ("latref.lattice", "hnf"),
    ("latref.reformulate", "hnf"),
    ("latref.knapsack", "hnf"),
    ("latref.reformulate", "kernel_basis"),
    ("latref.reformulate", "detect_decomposition"),
    ("latref.cli", "detect_decomposition"),
    ("latref.reformulate", "build_extended"),
    ("latref.solver", "build_extended"),
    ("latref.cli", "build_extended"),
    ("latref.reformulate", "dual_kernel"),
    ("latref.reformulate", "split_basis"),
    ("latref.solver", "split_basis"),
    ("latref.cli", "split_basis"),
    ("latref.reformulate", "solve_multipliers"),
    ("latref.cli", "frobenius_exact"),
    ("latref.cli", "integer_width"),
    ("latref.cli", "frobenius_lower_bound"),
    ("latref.solver", "bnb_feasibility"),
    ("latref.cli", "bnb_feasibility"),
    ("latref.cli", "main"),
    ("latref.cli", "parse_instance"),
)


def _max_bits(matrix) -> int:
    return max((abs(v).bit_length() for row in matrix.data for v in row), default=0)


class Tracer:
    """Collects spans as (name, start, end, parent index) plus per-span notes."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.notes = {}  # span index -> dict of counts recorded at the boundary
        self._stack = []
        self._saved = []
        self.kernel_inputs = {}  # distinct (A, b) given to kernel_and_solution

    # -- installation ------------------------------------------------------

    def install(self, modules):
        """Wrap every TRACED attribute; ``modules`` maps names to modules."""
        for mod_name, attr in TRACED:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn):
        name = "%s.%s" % (fn.__module__.split(".")[-1], fn.__name__)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self._note(idx, name, args, out)
            return out

        return traced

    def _note(self, idx, name, args, out):
        if name == "lattice.kernel_basis":
            self.notes[idx] = {"max_bits": _max_bits(out)}
        elif name == "solver.bnb_feasibility":
            self.notes[idx] = {"nodes": out.nodes}
        elif name == "knapsack.frobenius_exact":
            self.notes[idx] = {"states": min(args[0])}
        elif name == "lattice.kernel_and_solution":
            self.kernel_inputs.setdefault((args[0].data, tuple(args[1])), (args[0], args[1]))

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """name -> seconds spent in that function's spans minus their children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def note_values(self, name, key):
        return [self.notes[i][key] for i, sp in enumerate(self.spans)
                if sp[0] == name and i in self.notes]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "notes": {str(k): v for k, v in self.notes.items()},
                },
                fh,
            )
