"""Per-layer tracing from outside the package.

``Tracer`` wraps each listed fusionring function in every fusionring
module namespace that binds it, so calls through
``from .x import f`` bindings and lazy in-function imports are seen too.
Each call becomes a span (name, start, end, parent, request, outcome) kept
in memory; ``layer_metrics`` derives calls, inclusive time, self time and
the search ratios from the spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable

# The layers are the package's modules; these are their public entry points.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("run",),
    "ringfile": ("parse_ring", "ring_to_document"),
    "ring": ("verify_axioms", "find_isomorphism", "closure"),
    "numerics": ("fp_dimensions", "type_signature"),
    "groups": ("central_extensions_by_z2", "subgroups", "identify_group", "quotient_group"),
    "structure": ("invertibles", "adjoint_subring", "universal_grading", "all_subrings",
                  "nilpotency", "faithful_simples"),
    "catalog": ("enumerate_extensions", "generalized_ty", "yl_extension", "deligne_product"),
    "classify": ("classify", "verify_claims", "find_ising_subring_unchecked"),
}

# A count taken from the return value, for the ratios.
OUTCOMES: dict[str, Callable[[Any], int]] = {
    "ring.find_isomorphism": lambda r: int(r is not None),
    "catalog.generalized_ty": lambda r: int(r is not None),
    "groups.central_extensions_by_z2": len,
    "catalog.enumerate_extensions": len,
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# span fields
NAME, START, END, PARENT, REQUEST, OUTCOME = range(6)


class Tracer:
    """Records spans for the listed functions between activate and deactivate."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: int | None = None   # execution id stamped on new spans
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []   # module, attr, original, wrapper
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "fusionring" or name.startswith("fusionring."))]
        for name in FUNCTIONS:
            mod_name, fn_name = name.split(".")
            original = getattr(importlib.import_module(f"fusionring.{mod_name}"), fn_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def activate(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def deactivate(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    span[OUTCOME] = outcome(result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        return traced


def layer_metrics(spans: list[list], weight: dict[int, float], requests: int,
                  traced_seconds: float) -> dict[str, float]:
    """Calls, inclusive seconds and self seconds per function for one pass, plus the ratios.

    A request that ran traced k times stamps its spans with k execution ids,
    each of ``weight`` 1/k, so every figure is the mean over its executions
    summed over the ``requests`` of one pass, whose traced time is
    ``traced_seconds``.

    Inclusive time counts only the outermost span of a function, so a
    function re-entering itself is not counted twice. Self time is a span's
    duration minus the durations of its direct child spans.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    stats = {name: [0, 0.0, 0.0, 0] for name in FUNCTIONS}   # calls, s, self_s, outcomes
    enum_root = [-1] * len(spans)   # nearest enclosing enumerate_extensions span
    candidates = 0
    for idx, span in enumerate(spans):
        name, parent = span[NAME], span[PARENT]
        w = weight[span[REQUEST]]
        dur = span[END] - span[START]
        entry = stats[name]
        entry[0] += w
        entry[2] += w * (dur - child[idx])
        entry[3] += w * (span[OUTCOME] or 0)
        outermost, up = True, parent
        while up >= 0:
            if spans[up][NAME] == name:
                outermost = False
                break
            up = spans[up][PARENT]
        if outermost:
            entry[1] += w * dur
        enum_root[idx] = idx if name == "catalog.enumerate_extensions" else (
            enum_root[parent] if parent >= 0 else -1)
        if enum_root[idx] >= 0 and name in ("catalog.generalized_ty",
                                             "groups.central_extensions_by_z2"):
            candidates += w * (span[OUTCOME] or 0)

    out: dict[str, float] = {}
    for name, (calls, incl, self_s, _) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = incl
        out[f"{name}.self_s"] = self_s

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    iso, gty, enum = (stats[n] for n in ("ring.find_isomorphism", "catalog.generalized_ty",
                                         "catalog.enumerate_extensions"))
    out["ring.find_isomorphism.hit_ratio"] = ratio(iso[3], iso[0])
    out["ring.find_isomorphism.pass_share"] = ratio(iso[1], traced_seconds)
    out["catalog.generalized_ty.yield_ratio"] = ratio(gty[3], gty[0])
    out["catalog.enumerate_extensions.kept_ratio"] = ratio(enum[3], candidates)
    out["classify.classify.per_request"] = ratio(stats["classify.classify"][0], requests)
    return out


def layer_unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith((".s", ".self_s")):
        return "s"
    return "ratio"
