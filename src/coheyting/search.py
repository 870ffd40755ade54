"""Bounded satisfiability search for formulas over downset algebras.

A conjunction of atoms ``t = 0`` / ``t != 0`` holds in some algebra iff it
holds in a small one, so enumerating posets by isomorphism class and
sweeping variable assignments is a complete procedure below the caps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, Element
from .posets import Poset, enumerate_posets, parse_point_list, parse_poset_text, poset_to_text
from .errors import SignatureMismatch
from .terms import Formula, eval_formula, first_assignment


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


def fmp_search(
    formula: Formula,
    max_points: int,
    max_assignments: int,
) -> Witness | None:
    """First witness in the deterministic enumeration order, or None.

    Posets come in ``enumerate_posets`` order; on each, the assignments of
    the sorted variables are tried in ``itertools.product`` order over its
    downsets in ``set_key`` order, at most ``max_assignments`` of them.
    The atoms' postfix codes are swept packed by ``first_assignment``
    in chunks of bounded size; only the witness becomes ``Element``
    values, and it is replayed from text.
    """
    if any(t.has_impl for t, _ in formula.atoms):
        raise SignatureMismatch("implication cannot be evaluated here")
    names = sorted(formula.variables())
    atoms = [(t.code, eq) for t, eq in formula.atoms]
    for poset in enumerate_posets(max_points):
        masks = poset.downsets()
        combo = first_assignment(atoms, poset, masks, names, max_assignments)
        if combo is not None:
            algebra = Algebra(poset)
            env = {nm: algebra.element(m) for nm, m in zip(names, combo)}
            return Witness(poset, env, _replay(formula, poset, env))
    return None
