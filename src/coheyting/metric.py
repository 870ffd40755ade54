"""Ultrametric geometry of downset algebras and truncated completions.

The distance between two elements is 2^(-k) where k is the codimension of
their symmetric difference (0 when that codimension is infinite, which at
finite scale happens exactly at equality).

Completions are represented by truncated towers: level d is the quotient
by the codimension >= d ideal, levels are tied by the canonical
projections, and points of the completion are coherent families of
components.  Everything a tower reports is exact up to its truncation
depth; distances that fall below 2^(-depth) are reported as bounds, never
as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .algebra import Algebra, Element, Infinite, Morphism
from .errors import (
    CoheytingError,
    FrameMismatch,
    IncoherentFamily,
    LimitsDiffer,
    NotCauchyAtDepth,
    NotMonotone,
    NotSqueezed,
    OwnerMismatch,
)
from .kripke import MAX_FRAME_NODES, free_quotient


_ZERO = Fraction(0)
_half_power = lru_cache(maxsize=1024)(lambda k: Fraction(1, 2 ** k))


def distance(a: Element, b: Element) -> Fraction:
    """2 to the minus codimension of the symmetric difference, one kept
    ``Fraction`` per codimension (``_half_power``; fractions are immutable)."""
    c = a.owner.codim(a ^ b)
    return _ZERO if isinstance(c, Infinite) else _half_power(c)


def ball(x: Element, d: int) -> tuple[Element, ...]:
    """Elements within 2^(-d): symmetric difference of codimension >= d.

    codim(s) >= d iff every point of s has corank >= d iff s is inside
    epsilon(d), and codim(bottom) = +inf.  So y is in the ball iff it
    agrees with x off epsilon(d): the fibre of the quotient by epsilon(d),
    the interval from x - epsilon(d) to x | epsilon(d).  The ball filters
    the algebra's kept ``elements``, in their ``set_key`` order, and makes
    no new element.
    """
    algebra = x.owner
    off = algebra.spec.full & ~algebra.epsilon(d).pts
    fixed = x.pts & off
    return tuple(y for y in algebra.elements() if y.pts & off == fixed)


def dense_skeleton(algebra: Algebra) -> tuple[Element, ...]:
    """Subalgebra generated by the irreducibles; the join and meet routes
    must agree, and at finite scale they exhaust the algebra."""
    via_join = algebra.subalgebra_generated(algebra.join_irreducibles())
    via_meet = algebra.subalgebra_generated(algebra.meet_irreducibles())
    if via_join != via_meet:
        raise CoheytingError(
            "join- and meet-irreducible generation disagree"
        )
    return via_join


# ---------------------------------------------------------------------------
# towers

@dataclass(frozen=True, eq=False)
class Tower:
    """Quotient tower A_0 <- A_1 <- ... <- A_D.

    ``maps[d]`` sends level d+1 onto level d.  Level 0 is always the
    one-point algebra, so every family agrees there.
    """

    levels: tuple[Algebra, ...]
    maps: tuple[Morphism, ...]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def lift(self, a: Element) -> "CoherentFamily":
        """Family whose top component is a; lower components are images."""
        if a.owner is not self.levels[-1]:
            raise OwnerMismatch("lift starts from the top level of the tower")
        components = [a]
        for d in range(self.depth - 1, -1, -1):
            components.append(self.maps[d].apply(components[-1]))
        components.reverse()
        return CoherentFamily(self, tuple(components))

    def epsilon_family(self, d: int) -> "CoherentFamily":
        return self.lift(self.levels[-1].epsilon(d))

    def bottom_family(self) -> "CoherentFamily":
        return self.lift(self.levels[-1].bottom())

    def top_family(self) -> "CoherentFamily":
        return self.lift(self.levels[-1].top())


@dataclass(frozen=True)
class CoherentFamily:
    """One component per tower level, each projecting onto the previous.
    Families compare by tower identity and components, owned by the levels."""

    tower: Tower
    components: tuple[Element, ...]

    def __post_init__(self):
        if len(self.components) != self.tower.depth + 1:
            raise IncoherentFamily("one component per level required")
        for d, comp in enumerate(self.components):
            if comp.owner is not self.tower.levels[d]:
                raise OwnerMismatch(f"component {d} belongs to the wrong level")
        for d in range(self.tower.depth):
            image = self.tower.maps[d].apply(self.components[d + 1])
            if image.pts != self.components[d].pts:
                raise IncoherentFamily(
                    f"component {d + 1} does not project onto component {d}"
                )

    def componentwise_leq(self, other: "CoherentFamily") -> bool:
        _same_tower(self, other)
        return all(a <= b for a, b in zip(self.components, other.components))

    def __str__(self) -> str:
        return " ; ".join(str(c) for c in self.components)


def _same_tower(f: CoherentFamily, g: CoherentFamily) -> None:
    if f.tower is not g.tower:
        raise OwnerMismatch("families live on different towers")


def make_tower(
    source: Union[Algebra, int], depth: int, max_nodes: int = MAX_FRAME_NODES
) -> Tower:
    """Tower of the quotients of ``source`` by its codimension >= d
    generators: ``source`` is a finite algebra, or an int n for the free
    algebra ``free_quotient(n, depth, max_nodes).algebra``.  Level ``depth`` is the
    source itself when its epsilon(depth) is bottom, as for every free
    source; each level below is cut from the one above, and the cut is the
    tower map.  Universal frames are construction prefixes, so free levels
    keep the names and order of the ``free_quotient(n, d)`` spectra."""
    if depth < 0:
        raise FrameMismatch("tower depth must be >= 0")
    if isinstance(source, int):
        source = free_quotient(source, depth, max_nodes).algebra
    top = source.epsilon(depth)
    level = source if top.is_bottom() else source.quotient_by(top)[0]
    # a cut by epsilon(d+1) leaves the up-set of points of corank <= d,
    # whose coranks it keeps: cut again by its own epsilon(d), it gives
    # source's quotient by epsilon(d)
    levels, maps = (level,), ()
    for d in reversed(range(depth)):
        level, proj = level.quotient_by(level.epsilon(d))
        levels, maps = (level,) + levels, (proj,) + maps
    tower = Tower(levels=levels, maps=maps)
    _audit_tower(tower)
    return tower


def _audit_tower(tower: Tower) -> None:
    for d, phi in enumerate(tower.maps):
        if phi.kernel() != phi.src.epsilon(d):
            raise CoheytingError(
                f"tower map {d} kernel differs from the codim >= {d} generator"
            )
    for d, level in enumerate(tower.levels):
        if not level.dim_algebra() < d:
            raise CoheytingError(f"tower level {d} has dimension >= {d}")


# ---------------------------------------------------------------------------
# distances and isolation on families

@dataclass(frozen=True)
class FamilyDistance:
    """Exact dyadic value, or an upper bound when the truncation cannot
    separate the two families."""

    value: Fraction
    truncated: bool

    def __str__(self) -> str:
        if self.truncated:
            return f"<= {self.value}"
        return str(self.value)


def family_distance(f: CoherentFamily, g: CoherentFamily) -> FamilyDistance:
    """2 to the minus the deepest level where the families agree."""
    _same_tower(f, g)
    agree = -1
    for d in range(f.tower.depth + 1):
        if f.components[d].pts == g.components[d].pts:
            agree = d
        else:
            break
    # level 0 is the one-point algebra, families always agree there
    return FamilyDistance(_half_power(agree), truncated=agree == f.tower.depth)


def is_isolated(f: CoherentFamily) -> bool:
    """True when some nonzero epsilon family fits below f within the
    truncation; such families are algebra elements, not new limit points."""
    tower = f.tower
    bottom = tower.bottom_family()
    for d in range(tower.depth + 1):
        eps = tower.epsilon_family(d)
        if eps == bottom:
            continue
        if eps.componentwise_leq(f):
            return True
    return False


# ---------------------------------------------------------------------------
# limits

def cauchy_limit(seq: Sequence[CoherentFamily]) -> CoherentFamily:
    """Limit of a sequence that stabilizes visibly at every level.

    Stability at a level must be witnessed inside the sequence: the final
    two entries agree there (a single-entry sequence is its own limit).
    """
    if not seq:
        raise NotCauchyAtDepth(0)
    for f in seq[1:]:
        _same_tower(seq[0], f)
    if len(seq) == 1:
        return seq[0]
    last, prev = seq[-1], seq[-2]
    for d in range(last.tower.depth + 1):
        if last.components[d].pts != prev.components[d].pts:
            raise NotCauchyAtDepth(d)
    return last


def squeeze_limit(
    lower: Sequence[CoherentFamily],
    middle: Sequence[CoherentFamily],
    upper: Sequence[CoherentFamily],
) -> CoherentFamily:
    """Limit of ``middle`` squeezed between two sequences with a common
    limit.  The vanishing witness (upper_n - limit) | (lower_n - limit) is
    computed and must itself converge to bottom."""
    if not (len(lower) == len(middle) == len(upper)):
        raise NotSqueezed("the three sequences must have equal length")
    for lo, mid, hi in zip(lower, middle, upper):
        if not (lo.componentwise_leq(mid) and mid.componentwise_leq(hi)):
            raise NotSqueezed("ordering lower <= middle <= upper fails")
    limit_low = cauchy_limit(lower)
    limit_high = cauchy_limit(upper)
    if limit_low != limit_high:
        raise LimitsDiffer("outer sequences have different limits")
    limit = limit_low
    tower = limit.tower
    witnesses = []
    for lo, hi in zip(lower, upper):
        comps = tuple(
            (h - l_comp) | (lo_c - l_comp)
            for h, lo_c, l_comp in zip(
                hi.components, lo.components, limit.components
            )
        )
        witnesses.append(CoherentFamily(tower, comps))
    if cauchy_limit(witnesses) != tower.bottom_family():
        raise NotSqueezed("squeeze witness does not vanish")
    mid_limit = cauchy_limit(middle)
    if mid_limit != limit:
        raise LimitsDiffer("middle sequence escapes the squeeze")
    return limit


def monotone_limit(seq: Sequence[CoherentFamily]) -> CoherentFamily:
    """Eventual value of a monotone sequence; finite levels force
    stabilization at the final entry."""
    if not seq:
        raise NotMonotone("empty sequence")
    for f in seq[1:]:
        _same_tower(seq[0], f)
    increasing = all(
        seq[i].componentwise_leq(seq[i + 1]) for i in range(len(seq) - 1)
    )
    decreasing = all(
        seq[i + 1].componentwise_leq(seq[i]) for i in range(len(seq) - 1)
    )
    if not (increasing or decreasing):
        raise NotMonotone("sequence is not monotone componentwise")
    return seq[-1]


def precompactness_census(
    n: int, depth: int, max_nodes: int = MAX_FRAME_NODES
) -> list[int]:
    """Sizes of the free quotient levels 0..depth: each level is a finite
    algebra, so every ball of the truncated completion meets finitely many
    classes."""
    if depth < 0:
        raise FrameMismatch("tower depth must be >= 0")
    return [free_quotient(n, d, max_nodes).algebra.size() for d in range(depth + 1)]
