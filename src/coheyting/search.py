"""Bounded satisfiability search for formulas over downset algebras.

A conjunction of atoms ``t = 0`` / ``t != 0`` holds in some algebra iff it
holds in a small one, so enumerating posets by isomorphism class and
sweeping variable assignments is a complete procedure below the caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .algebra import Algebra, Element
from .posets import (
    MAX_CLOSURE,
    Poset,
    enumerate_posets,
    parse_point_list,
    parse_poset_text,
    poset_to_text,
)
from .errors import SignatureMismatch
from .terms import SWEEP_CHUNK, Chunk, Formula, eval_formula, first_satisfying, pack_sweep


@dataclass(frozen=True)
class Witness:
    """Satisfying poset and assignment, with a replay certificate."""

    poset: Poset
    assignment: dict[str, Element]
    replayed: bool

    def describe(self) -> str:
        lines = ["witness poset:"]
        lines.append(poset_to_text(self.poset).rstrip("\n"))
        for name in sorted(self.assignment):
            lines.append(f"assignment: {name}={self.assignment[name]}")
        lines.append(f"replay: {'ok' if self.replayed else 'FAILED'}")
        return "\n".join(lines)


def _replay(formula: Formula, poset: Poset, assignment: dict[str, Element]) -> bool:
    """Round-trip the witness through text and re-evaluate from scratch."""
    fresh, _ = parse_poset_text(poset_to_text(poset))
    algebra = Algebra(fresh)
    env = {
        name: algebra.element(parse_point_list(str(elem), fresh))
        for name, elem in assignment.items()
    }
    return eval_formula(formula, algebra, env)


class _Plans:
    """The kept chunks of ``fmp_search``'s sweeps, a plan per
    ``(max_points, variables, max_assignments)``: a prefix of the sweep
    over every poset of up to ``max_points`` points, which depends on no
    formula.  A chunk of ``width`` blocks holds ``width * (variables +
    max_points + 1)`` blocks of packed values; at most
    ``posets.MAX_CLOSURE`` of them are kept across all plans, and a chunk
    past that is built, swept and dropped."""

    def __init__(self) -> None:
        self.plans: dict[tuple[int, int, int], list[Chunk]] = {}
        self.complete: set[tuple[int, int, int]] = set()
        self.blocks = 0

    def sweep(self, max_points: int, nvars: int, limit: int) -> Iterator[Chunk]:
        """The plan's chunks in order: the kept ones, then the rest packed
        as the sweep reads them, each kept while the bound allows."""
        key = (max_points, nvars, limit)
        kept = self.plans.get(key, [])
        yield from kept
        if key in self.complete:
            return
        last = kept[-1] if kept else None
        # widths start at an eighth of the largest and double: a search
        # that finds its witness early packs little, a refutation few chunks
        start, width = (last.stop, 2 * last.width) if last else ((0, 0), SWEEP_CHUNK // 8)
        posets = islice(enumerate_posets(max_points), start[0], None)
        cases = ((p, p.downsets()) for p in posets)
        # a chunk is kept only right after the last kept one: not past a
        # dropped one, nor after a sweep that ran meanwhile grew the plan
        keep, end = True, len(kept)
        for chunk in pack_sweep(cases, nvars, limit, max_points, width, start):
            cost = chunk.width * (nvars + max_points + 1)
            keep = keep and len(kept) == end and self.blocks + cost <= MAX_CLOSURE
            if keep:
                self.plans[key] = kept
                kept.append(chunk)
                self.blocks += cost
                end += 1
            yield chunk
        if keep and kept:
            self.complete.add(key)


_PLANS = _Plans()


def fmp_search(
    formula: Formula,
    max_points: int,
    max_assignments: int,
) -> Witness | None:
    """First witness in the deterministic enumeration order, or None.

    Posets come in ``enumerate_posets`` order; on each, the assignments of
    the sorted variables are tried in ``itertools.product`` order over its
    downsets in ``set_key`` order, at most ``max_assignments`` of them.
    The atoms' postfix codes go through ``first_satisfying`` over one
    stream of every poset's assignments, packed ``max_points`` bits per
    assignment in chunks of at most ``SWEEP_CHUNK``; a chunk may straddle
    posets.  The chunks depend only on ``max_points``, the number of
    variables and ``max_assignments``, and are kept for the process, at
    most ``posets.MAX_CLOSURE`` packed blocks in all.  Only the witness
    becomes ``Element`` values, and it is replayed from text.
    """
    if any(t.has_impl for t, _ in formula.atoms):
        raise SignatureMismatch("implication cannot be evaluated here")
    names = sorted(formula.variables())
    atoms = [(t.code, eq) for t, eq in formula.atoms]
    chunks = _PLANS.sweep(max_points, len(names), max_assignments)
    found = first_satisfying(atoms, chunks, names)
    if found is None:
        return None
    (poset, _), combo = found
    algebra = Algebra(poset)
    env = {nm: algebra.element(m) for nm, m in zip(names, combo)}
    return Witness(poset, env, _replay(formula, poset, env))
