"""Per-layer tracing of liesymp from outside the library.

`Tracer.install()` replaces the public functions of each liesymp module with
timing wrappers. A module-level function is replaced in every liesymp module
namespace that imported it, so calls through `from .x import f` are seen
too; `Matrix`, `Subspace` and `LieAlgebra` methods are replaced on the class.
Each call opens a span on one stack; a span's self time is its duration
minus the time of the spans nested in it. Spans are kept in memory and
written out by `write_spans` when the run ends.

Some metrics group several functions under one name: `linalg.subspace`
(span, contains, intersect, complement), `catalog.extension` (the product
and character extensions), `serialization.load` and `serialization.dump`.

Matrix products are also inspected: `linalg.matmul.products` sums n*m*k
over calls, `linalg.matmul.nonzero_share` is the share of those scalar
products whose two factors are both nonzero, and `linalg.max_bits` is the
largest numerator or denominator bit length entering matmul, rref or det.
Inspection time is excluded from every span's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (metric name, module, attribute path inside the module)
TARGETS = (
    ("linalg.matmul", "linalg", "Matrix.__matmul__"),
    ("linalg.apply", "linalg", "Matrix.apply"),
    ("linalg.rref", "linalg", "Matrix.rref"),
    ("linalg.det", "linalg", "Matrix.det"),
    ("linalg.inverse", "linalg", "Matrix.inverse"),
    ("linalg.subspace", "linalg", "Subspace.span"),
    ("linalg.subspace", "linalg", "Subspace.contains"),
    ("linalg.subspace", "linalg", "Subspace.intersect"),
    ("linalg.subspace", "linalg", "complement"),
    ("lie.validate", "lie", "validate"),
    ("lie.bracket_vec", "lie", "LieAlgebra.bracket_vec"),
    ("symp.build_triple", "symp", "build_triple"),
    ("nijenhuis.nijenhuis_tensor", "nijenhuis", "nijenhuis_tensor"),
    ("nijenhuis.classify", "nijenhuis", "classify"),
    ("nijenhuis.norm_sq", "nijenhuis", "norm_sq"),
    ("nijenhuis.check_tensor_identities", "nijenhuis",
     "check_tensor_identities"),
    ("connections.levi_civita", "connections", "levi_civita"),
    ("connections.chern_connection", "connections", "chern_connection"),
    ("connections.curvature_summary", "connections", "curvature_summary"),
    ("connections.nabla_j_checks", "connections", "nabla_j_checks"),
    ("connections.covariant_derivative_n", "connections",
     "covariant_derivative_n"),
    ("nspace.nullity", "nspace", "nullity"),
    ("nspace.contains_tensor", "nspace", "contains_tensor"),
    ("twistor.build_twistor_model", "twistor", "build_twistor_model"),
    ("twistor.positivity_report", "twistor", "positivity_report"),
    ("twistor.twistor_nijenhuis", "twistor", "twistor_nijenhuis"),
    ("catalog.builtin", "catalog", "builtin"),
    ("catalog.build_rank_example", "catalog", "build_rank_example"),
    ("catalog.extension", "catalog", "product_extension"),
    ("catalog.extension", "catalog", "character_extension"),
    ("serialization.load", "serialization", "load_json_file"),
    ("serialization.load", "serialization", "algebra_from_dict"),
    ("serialization.load", "serialization", "triple_from_dict"),
    ("serialization.dump", "serialization", "triple_to_dict"),
    ("serialization.dump", "serialization", "pretty_json"),
    ("serialization.triple_hash", "serialization", "triple_hash"),
    ("report.build_report", "report", "build_report"),
    ("report.golden_rows", "report", "golden_rows"),
    ("cli.main", "cli", "main"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# (metric name, unit) of every number `Tracer.metrics` returns
COUNTERS = (("linalg.matmul.products", "count"),
            ("linalg.matmul.nonzero_share", "ratio"),
            ("linalg.max_bits", "bits"),
            ("nspace.constraint_rows", "count"))
METRICS = tuple(m for name in SPAN_NAMES
                for m in ((f"{name}.calls", "count"),
                          (f"{name}.self_s", "s"))) + COUNTERS


def _bits(entries) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for row in entries for x in row), default=0)


class Tracer:
    def __init__(self):
        self.request = -1          # index of the command being run
        self.spans = []            # [name, request, parent span, start, end]
        self._stack = [[0.0, 0.0, -1]]   # [start, child time, span index]
        self.stats = {name: [0, 0.0] for name in SPAN_NAMES}
        self.products = 0
        self.nonzero_products = 0
        self.max_bits = 0
        self.constraint_rows = 0
        self.missing = []          # targets not found in the library

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn, inspect=None):
        stats, stack, spans = self.stats[name], self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inspect is not None:
                t0 = clock()
                inspect(args)
                stack[-1][1] += clock() - t0
            sid = len(spans)
            start = clock()
            spans.append([name, self.request, stack[-1][2], start, start])
            frame = [start, 0.0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid][4] = end
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[1]
                stack[-1][1] += dur
        return traced

    def _inspect_matmul(self, args):
        a, b = args[0], args[1]
        if not hasattr(b, "entries") or a.ncols != b.nrows:
            return
        col_nz = [sum(1 for x in col if x) for col in zip(*a.entries)]
        row_nz = [sum(1 for x in row if x) for row in b.entries]
        self.products += a.nrows * a.ncols * b.ncols
        self.nonzero_products += sum(c * r for c, r in zip(col_nz, row_nz))
        self.max_bits = max(self.max_bits, _bits(a.entries), _bits(b.entries))

    def _inspect_entries(self, args):
        self.max_bits = max(self.max_bits, _bits(args[0].entries))

    def _count_rows(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for row in fn(*args, **kwargs):
                self.constraint_rows += 1
                yield row
        return counted

    def install(self) -> None:
        """Wrap every target; liesymp must already be imported."""
        from liesymp import nspace

        inspectors = {"linalg.matmul": self._inspect_matmul,
                      "linalg.rref": self._inspect_entries,
                      "linalg.det": self._inspect_entries}
        modules = [m for key, m in sys.modules.items()
                   if key == "liesymp" or key.startswith("liesymp.")]
        replaced = {}
        for name, mod, path in TARGETS:
            owner = sys.modules.get(f"liesymp.{mod}")
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                # a later version of the library may drop a function; its
                # metrics then read 0 and the run names it
                self.missing.append(f"{mod}.{path}")
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(name, fn, inspectors.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, staticmethod(wrapped)
                        if isinstance(raw, staticmethod) else wrapped)
            else:
                replaced[fn] = wrapped
        rows = getattr(nspace, "build_constraint_rows", None)
        if rows is None:
            self.missing.append("nspace.build_constraint_rows")
        else:
            replaced[rows] = self._count_rows(rows)
        for m in modules:
            for key, val in list(vars(m).items()):
                if callable(val) and val in replaced:
                    setattr(m, key, replaced[val])

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["linalg.matmul.products"] = self.products
        out["linalg.matmul.nonzero_share"] = (
            self.nonzero_products / self.products if self.products else 0.0)
        out["linalg.max_bits"] = self.max_bits
        out["nspace.constraint_rows"] = self.constraint_rows
        return out

    def write_spans(self, path: str, commands: list[str]) -> None:
        """One JSON object: command keys, then spans as
        [name, command index, parent span index, start_s, end_s]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"commands": commands, "spans": self.spans}, fh,
                      separators=(",", ":"))
