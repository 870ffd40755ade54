"""Per-layer spans recorded from outside the library.

``install`` replaces the public functions listed in ``SPANS`` with wrappers,
in every ``coheyting`` module namespace that holds them and on the classes
that own the methods.  The library source is untouched.

A wrapper opens a span on entry and closes it on exit.  Spans are not
stored one by one: each closes into its function's totals (calls,
inclusive seconds, seconds covered by child spans) and adds its duration
to the parent span's child time, so hot leaves such as ``algebra.diff``
cost a few list updates per call.  Self time is inclusive time minus child
time.  A call to a function whose span is already the innermost open one
is folded into it, so recursion (``eval_term``, ``dualize``) counts once
at its outermost call.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# (layer, span name, owner, attribute): the owner is a module or class path
# relative to the package; "generator" spans stay open only while the
# generator computes its next item.
SPANS = [
    ("posets", "enumerate_posets", "posets", "enumerate_posets"),
    ("posets", "canonical_form", "posets", "canonical_form"),
    ("posets", "all_downsets", "posets.Poset", "all_downsets"),
    ("posets", "antichains", "posets.Poset", "antichains"),
    ("posets", "down_closure", "posets.Poset", "down_closure"),
    ("algebra", "elements", "algebra.Algebra", "elements"),
    ("algebra", "element", "algebra.Algebra", "element"),
    ("algebra", "diff", "algebra.Element", "__sub__"),
    ("algebra", "quotient_by", "algebra.Algebra", "quotient_by"),
    ("algebra", "make_morphism", "algebra", "make_morphism"),
    ("algebra", "apply", "algebra.Morphism", "apply"),
    ("algebra", "subalgebra_generated", "algebra.Algebra", "subalgebra_generated"),
    ("terms", "parse_term", "terms", "parse_term"),
    ("terms", "parse_formula", "terms", "parse_formula"),
    ("terms", "eval_term", "terms", "eval_term"),
    ("terms", "dualize", "terms", "dualize"),
    ("kripke", "universal_frame", "kripke", "universal_frame"),
    ("kripke", "free_quotient", "kripke", "free_quotient"),
    ("kripke", "truth_set", "kripke", "truth_set"),
    ("kripke", "d_equivalent", "kripke", "d_equivalent"),
    ("kripke", "enumerate_reduced_models", "kripke", "enumerate_reduced_models"),
    ("kripke", "model_code", "kripke", "model_code"),
    ("metric", "make_tower", "metric", "make_tower"),
    ("metric", "lift", "metric.Tower", "lift"),
    ("metric", "distance", "metric", "distance"),
    ("metric", "ball", "metric", "ball"),
    ("search", "fmp_search", "search", "fmp_search"),
    ("search", "eval_formula", "terms", "eval_formula"),
    ("cli", "main", "cli", "main"),
]
GENERATORS = {"enumerate_posets", "enumerate_reduced_models"}

# suites checkers are spanned one by one as suites.check.<name>
CHECKERS = [
    "quotient-fini", "s2-identities", "delta-triangle", "ultrametric",
    "codim-join", "duality-roundtrip", "slice",
]


def span_names() -> list[str]:
    names = [f"{layer}.{name}" for layer, name, _, _ in SPANS]
    return names + [f"suites.check.{name}" for name in CHECKERS]


class Tracer:
    """Span totals plus the counters the per-layer metrics need."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # name -> [calls, inclusive seconds, child seconds]
        self.totals: dict[str, list] = {name: [0, 0.0, 0.0] for name in span_names()}
        # open spans as [totals entry, child seconds]; the root never closes
        self._stack: list[list] = [[None, 0.0]]
        self.counts = {
            "enumerate.candidates": 0,
            "elements.materialized": 0,
            "universal_frame.nodes": 0,
            "free_quotient.calls": 0,
            "free_quotient.hits": 0,
            "kripke.caps_hit": 0,
            "fmp_search.witnesses": 0,
            "cli.nonzero_rc": 0,
        }
        self._free_seen: set[int] = set()
        self._classes_seen: set[int] = set()

    # -- span wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        entry = self.totals[name]
        stack = self._stack
        clock = self.clock

        def spanned(*args, **kwargs):
            if stack[-1][0] is entry:
                return fn(*args, **kwargs)
            frame = [entry, 0.0]
            stack.append(frame)
            out = error = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[1]
                stack[-1][1] += elapsed
                if after is not None:
                    after(out, error)

        spanned.__wrapped__ = fn
        return spanned

    def _wrap_generator(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        entry = self.totals[name]
        stack = self._stack
        clock = self.clock

        def resume(gen):
            while True:
                frame = [entry, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    entry[1] += elapsed
                    entry[2] += frame[1]
                    stack[-1][1] += elapsed
                if after is not None:
                    after(item, None)
                yield item

        def spanned(*args, **kwargs):
            entry[0] += 1
            return resume(fn(*args, **kwargs))

        spanned.__wrapped__ = fn
        return spanned

    # -- counters fed from span results ------------------------------------------

    def _after(self, name: str) -> Callable | None:
        counts = self.counts
        sizecap = sys.modules["coheyting.errors"].SizeCap

        def kripke_cap(exc) -> None:
            if isinstance(exc, sizecap) and not getattr(exc, "_perfbench_counted", False):
                exc._perfbench_counted = True
                counts["kripke.caps_hit"] += 1

        if name == "posets.enumerate_posets":
            # warm calls yield the cached classes again: count each once
            def after(out, exc):
                self._classes_seen.add(id(out))
        elif name == "posets.canonical_form":
            def after(out, exc):
                if self._stack[-1][0] is self.totals["posets.enumerate_posets"]:
                    counts["enumerate.candidates"] += 1
        elif name == "algebra.elements":
            def after(out, exc):
                if exc is None:
                    counts["elements.materialized"] += len(out)
        elif name == "kripke.universal_frame":
            def after(out, exc):
                if exc is None:
                    counts["universal_frame.nodes"] += out.model.frame.n
                else:
                    census = getattr(exc, "census", None)
                    counts["universal_frame.nodes"] += sum(census or ())
                    kripke_cap(exc)
        elif name == "kripke.free_quotient":
            def after(out, exc):
                if exc is None:
                    counts["free_quotient.calls"] += 1
                    if id(out) in self._free_seen:
                        counts["free_quotient.hits"] += 1
                    self._free_seen.add(id(out))
                else:
                    kripke_cap(exc)
        elif name.startswith("kripke."):
            def after(out, exc):
                if exc is not None:
                    kripke_cap(exc)
        elif name == "search.fmp_search":
            def after(out, exc):
                if out is not None:
                    counts["fmp_search.witnesses"] += 1
        elif name == "cli.main":
            def after(out, exc):
                if exc is not None or out != 0:
                    counts["cli.nonzero_rc"] += 1
        else:
            after = None
        return after

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every spanned function wherever the package refers to it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "coheyting" or key.startswith("coheyting.")
        ]
        for layer, name, owner_path, attr in SPANS:
            full = f"{layer}.{name}"
            module_name, _, class_name = owner_path.partition(".")
            owner = sys.modules[f"coheyting.{module_name}"]
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            make = self._wrap_generator if name in GENERATORS else self._wrap
            wrapper = make(full, original, self._after(full))
            if class_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        checkers = sys.modules["coheyting.suites"].CHECKERS
        for name in CHECKERS:
            checkers[name] = self._wrap(f"suites.check.{name}", checkers[name], None)

    # -- report -----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, inclusive, child) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = max(inclusive - child, 0.0)
        c = self.counts
        eval_calls, eval_inclusive, _ = self.totals["search.eval_formula"]
        fmp_calls = self.totals["search.fmp_search"][0]
        out["posets.enumerate.kept_ratio"] = _ratio(len(self._classes_seen), c["enumerate.candidates"])
        out["algebra.elements.materialized"] = c["elements.materialized"]
        out["kripke.universal_frame.nodes"] = c["universal_frame.nodes"]
        out["kripke.free_quotient.hit_ratio"] = _ratio(c["free_quotient.hits"], c["free_quotient.calls"])
        out["kripke.caps_hit"] = c["kripke.caps_hit"]
        out["search.eval_formula.per_s"] = _ratio(eval_calls, eval_inclusive)
        out["search.witness_ratio"] = _ratio(c["fmp_search.witnesses"], fmp_calls)
        out["cli.nonzero_rc"] = c["cli.nonzero_rc"]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
