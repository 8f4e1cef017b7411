"""Spans around the calls into each module, for the traced rounds.

A traced round rebinds public names of the package to wrappers that record a
span per call: ``[name, start, end, parent span, operation id, count]``.
Names are rebound both on the package (the benchmark's own calls) and in the
sibling modules that import them (``extshuffle.zeta.ext_shuffle`` and the
like), so a call from one module into another opens a child span and the
caller's self time excludes it.  No function body changes.  Spans stay in
memory and are written out once the round ends.
"""

from __future__ import annotations

import json
from time import perf_counter

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_id = 0
        self.distinct_terms: set = set()
        self.level_terms = 0
        self.paused = False

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, result)
            return result

        return traced

    def self_times(self) -> list:
        """Duration of each span minus the time its child spans cover."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def write(self, path):
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": rec[NAME], "start": rec[START], "end": rec[END],
                         "parent": rec[PARENT], "op": rec[OP], "count": rec[COUNT]}
                    )
                )
                fh.write("\n")


def _length(args, result):
    return len(result)


PUBLIC = (
    "ext_shuffle", "ext_shuffle_lin", "stuffle",
    "symbol_product",
    "fraction_product", "evaluate", "evaluation_panel",
    "is_convergent",
    "zeta", "zeta_truncated", "zeta_of_lincomb", "verify_homomorphism",
    "double_shuffle_relation", "enumerate_relations", "convergent_compositions",
    "op_I", "op_J",
    "parse_composition", "parse_symbol", "parse_fraction", "parse_assignment",
)


def instrument(tracer: Tracer) -> None:
    """Rebind the package's public names, wherever a module holds them, to
    wrappers that record a span named ``<module>.<function>``."""
    import sys

    import extshuffle

    def lincomb_terms(args, result):
        comps = [comp for comp, _ in args[0].items()]
        tracer.distinct_terms.update(comps)
        return len(comps)

    def zeta_cutoff(args, result):
        # the sweep runs once to the final cutoff, updating every level
        tracer.level_terms += len(args[0]) * result.cutoff
        return result.cutoff

    counts = {
        "ext_shuffle": _length,
        "symbol_product": _length,
        "zeta": zeta_cutoff,
        "zeta_of_lincomb": lincomb_terms,
    }
    modules = [extshuffle] + [
        module for name, module in sys.modules.items() if name.startswith("extshuffle.")
    ]
    for attr in PUBLIC:
        original = getattr(extshuffle, attr)
        layer = original.__module__.rsplit(".", 1)[-1]
        wrapper = tracer.wrap(f"{layer}.{attr}", original, counts.get(attr))
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    lincomb = extshuffle.LinComb
    for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        setattr(lincomb, attr, tracer.wrap(f"algebra.LinComb.{attr}", getattr(lincomb, attr)))
