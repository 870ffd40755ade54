"""Downset lattices of finite posets, with the difference operation.

Every finite distributive lattice is the lattice of downsets of a finite
poset (its spectrum); on downsets the difference a - b, the least c with
a <= b | c, is the down closure of the set difference.  This module keeps
the spectrum explicit and implements the order, the difference calculus,
the dimension and codimension filtration, quotients, morphisms (as dual
maps between spectra) and the irreducible-element machinery on top of it.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from functools import total_ordering
from itertools import repeat
from typing import Iterable, Sequence, Union

from .errors import (
    EmptyElement,
    FormatError,
    InfiniteArithmetic,
    NotADownset,
    NotMonotone,
    NotOpen,
    OwnerMismatch,
)
from .posets import PointSet, Poset, _compress, _memo, _runs, bits, close, mask_of, set_key


@total_ordering
class Infinite:
    """Signed infinity used for codim(bottom) and dim(bottom).

    Comparisons against ints work; arithmetic is deliberately an error, an
    infinite codimension is a distinguished value and not a large number.
    """

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "+inf" if self.sign > 0 else "-inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinite) and other.sign == self.sign

    def __hash__(self) -> int:
        return hash(("Infinite", self.sign))

    def __lt__(self, other):
        if isinstance(other, Infinite):
            return self.sign < other.sign
        if isinstance(other, int):
            return self.sign < 0
        return NotImplemented

    def _no_arith(self, *_args):
        raise InfiniteArithmetic("arithmetic with an infinite (co)dimension")

    __add__ = __radd__ = __sub__ = __rsub__ = _no_arith
    __mul__ = __rmul__ = __neg__ = _no_arith


PLUS_INFINITY = Infinite(1)
MINUS_INFINITY = Infinite(-1)

Codim = Union[int, Infinite]


def _layers(levels: Sequence[int]) -> tuple[PointSet, ...]:
    """``out[k]``: the points of level >= k, for k = 0 .. max(levels) + 1."""
    out = [0] * (max(levels, default=-1) + 2)
    for i, level in enumerate(levels):
        out[level] |= 1 << i
    for k in range(len(out) - 2, -1, -1):
        out[k] |= out[k + 1]
    return tuple(out)


@dataclass(frozen=True, slots=True, init=False)
class Element:
    """A downset of the owner's spectrum, stored as a point bitmask."""

    owner: "Algebra"
    pts: PointSet

    def __init__(self, owner: "Algebra", pts: PointSet) -> None:
        # the slots' own setters: the frozen __setattr__ refuses, and the
        # generated __init__ pays a slower object.__setattr__ per field
        _set_owner(self, owner)
        _set_pts(self, pts)

    def _foreign(self, other) -> bool:
        """True (so NotImplemented) for a non-element; OwnerMismatch for another algebra's."""
        if isinstance(other, Element) and other.owner is not self.owner:
            raise OwnerMismatch("elements belong to different algebras")
        return not isinstance(other, Element)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pts == other.pts and self.owner is other.owner

    def __le__(self, other: "Element") -> bool:
        if (type(other) is not Element or other.owner is not self.owner) and self._foreign(other):
            return NotImplemented
        return self.pts & other.pts == self.pts

    def __ge__(self, other: "Element") -> bool:
        return other.__le__(self)

    def __or__(self, other: "Element") -> "Element":
        if (type(other) is not Element or other.owner is not self.owner) and self._foreign(other):
            return NotImplemented
        return Element(self.owner, self.pts | other.pts)

    def __and__(self, other: "Element") -> "Element":
        if (type(other) is not Element or other.owner is not self.owner) and self._foreign(other):
            return NotImplemented
        return Element(self.owner, self.pts & other.pts)

    def __sub__(self, other: "Element") -> "Element":
        """Difference: least c with self <= other | c."""
        if (type(other) is not Element or other.owner is not self.owner) and self._foreign(other):
            return NotImplemented
        return Element(self.owner, self.owner.spec.down_closure(self.pts & ~other.pts))

    def __xor__(self, other: "Element") -> "Element":
        """Symmetric difference (self - other) | (other - self), as the one
        closure of ``self.pts ^ other.pts``: down closure distributes over
        union, and the two set differences make up the xor."""
        if (type(other) is not Element or other.owner is not self.owner) and self._foreign(other):
            return NotImplemented
        return Element(self.owner, self.owner.spec.down_closure(self.pts ^ other.pts))

    def is_bottom(self) -> bool:
        return self.pts == 0

    def points(self) -> tuple[str, ...]:
        return tuple(self.owner.spec.names[i] for i in bits(self.pts))

    def sort_key(self) -> tuple:
        return set_key(self.pts)

    def __str__(self) -> str:
        return self.owner.spec.format_points(self.pts)

    def __repr__(self) -> str:
        return f"Element({self})"


_set_owner, _set_pts = Element.owner.__set__, Element.pts.__set__
_FORMS = "an Element, an int point mask, or an iterable of point names and int indices"


@dataclass(frozen=True, eq=False)
class Algebra:
    """The lattice of downsets of ``spec`` under union, intersection and
    difference.  Elements carry their owner; algebras compare by identity.
    """

    spec: Poset

    def element(self, pts: PointSet | Element | Iterable) -> Element:
        """``pts`` as an element: an element of this algebra, an ``int`` point
        mask, or an iterable of point names and ``int`` indices.  A ``str``,
        ``bytes`` or ``bool`` mask, any other mask that is not iterable, a
        ``bytes`` or ``bool`` point and an unknown name raise FormatError; a
        foreign element OwnerMismatch."""
        if isinstance(pts, Element):
            if pts.owner is not self:
                raise OwnerMismatch("element belongs to a different algebra")
            return pts
        if isinstance(pts, (str, bytes, bool)):
            raise FormatError(f"an element is {_FORMS}, not {pts!r}")
        if isinstance(pts, int):
            mask = pts
        else:
            try:
                pts = iter(pts)
            except TypeError:
                raise FormatError(f"an element is {_FORMS}, not {pts!r}") from None
            mask = 0
            for p in pts:
                if isinstance(p, (bytes, bool)):
                    raise FormatError(f"an element is {_FORMS}, not {p!r}")
                i = p if isinstance(p, int) else self.spec.index(p)
                # before the shift: a negative count raises ValueError, and
                # a huge one would build a huge int
                if not 0 <= i < self.spec.n:
                    raise NotADownset("point mask out of range")
                mask |= 1 << i
        if mask < 0 or mask > self.spec.full:
            raise NotADownset("point mask out of range")
        if not self.spec.is_downset(mask):
            raise NotADownset(
                f"{self.spec.format_points(mask)} is not down-closed"
            )
        return Element(self, mask)

    def bottom(self) -> Element:
        return Element(self, 0)

    def top(self) -> Element:
        return Element(self, self.spec.full)

    def size(self) -> int:
        return self.spec.count_downsets()

    def elements(self) -> tuple[Element, ...]:
        """Every element in ``set_key`` order, as one tuple kept for the
        life of the algebra.  Built once, on first use, from
        ``spec.downsets()``, which raises SizeCap past ``MAX_CLOSURE``
        downsets; a build that raised keeps nothing.

        The elements are made in three C-level passes, with no Python
        frame per element: ``object.__new__`` for all of them, then the
        ``owner`` and ``pts`` slot setters that ``Element.__init__`` calls.

        The build pauses the cyclic garbage collector, because every
        element it makes is kept: for the 265,454 elements of ``F(2,2)`` the
        collector otherwise ran 378 passes during the build and freed 21
        objects.  When nothing is frozen (``gc.get_freeze_count() == 0``),
        ``gc.freeze(); gc.unfreeze()`` then moves every tracked object,
        the new tuple among them, into the oldest generation, so no young
        pass walks the kept elements; with a caller's objects frozen it is
        skipped, since ``unfreeze`` would thaw them.  This moves only the
        collector's schedule: no answer depends on it.  The collector's
        state on entry is restored, also when the build raises."""
        found = self.__dict__.get("_elements")
        if found is None:
            masks = self.spec.downsets()
            enabled = gc.isenabled()
            gc.disable()
            try:
                found = tuple(map(object.__new__, repeat(Element, len(masks))))
                deque(map(_set_owner, found, repeat(self)), 0)
                deque(map(_set_pts, found, masks), 0)
                if gc.get_freeze_count() == 0:
                    gc.freeze()
                    gc.unfreeze()
            finally:
                if enabled:
                    gc.enable()
            self.__dict__["_elements"] = found
        return found

    # -- order and difference ------------------------------------------------

    def strongly_below(self, b: Element, a: Element) -> bool:
        """True iff b <= a and a - b = a (b carries no weight inside a)."""
        b = self.element(b)
        a = self.element(a)
        return b <= a and (a - b).pts == a.pts

    # -- dimension and codimension --------------------------------------------

    @_memo
    def _corank_layers(self) -> tuple[PointSet, ...]:
        return _layers(self.spec.coranks)

    @_memo
    def _rank_layers(self) -> tuple[PointSet, ...]:
        return _layers(self.spec.ranks)

    def codim(self, a: Element) -> Codim:
        """Least corank of a point of a; +inf for bottom.  The first k with a
        point of a outside the corank >= k + 1 layer (built once per algebra)."""
        if type(a) is not Element or a.owner is not self:
            a = self.element(a)
        if a.pts == 0:
            return PLUS_INFINITY
        layers, k = self._corank_layers, 0
        while a.pts & ~layers[k + 1] == 0:
            k += 1
        return k

    def dim_elt(self, a: Element) -> Codim:
        """Greatest rank of a point of a; -inf for bottom.  The last k such
        that a meets the rank >= k layer (built once per algebra)."""
        if type(a) is not Element or a.owner is not self:
            a = self.element(a)
        if a.pts == 0:
            return MINUS_INFINITY
        layers = self._rank_layers
        k = len(layers) - 2
        while a.pts & layers[k] == 0:
            k -= 1
        return k

    def dim_algebra(self) -> Codim:
        return self.dim_elt(self.top())

    def epsilon(self, d: int) -> Element:
        """Generator of the ideal of elements of codimension >= d: the
        corank >= d layer, so top for d <= 0 and bottom past every corank."""
        layers = self._corank_layers
        return Element(self, layers[min(max(d, 0), len(layers) - 1)])

    # -- spectrum-level views --------------------------------------------------

    def minimal_primes(self, a: Element) -> PointSet:
        """Points of a that are maximal in the spectrum order.

        These index the inclusion-minimal prime filters containing a.
        """
        a = self.element(a)
        if a.pts == 0:
            raise EmptyElement("bottom has no minimal primes")
        return self.spec.maximal_points(a.pts)

    def join_irreducibles(self) -> tuple[Element, ...]:
        """Fresh elements over the masks ``spec`` keeps in ``set_key`` order."""
        # from a list: tuple() over a generator grows a tuple and then
        # shrinks it, and the discarded sizes stay on the free lists
        return tuple([Element(self, m) for m in self.spec._irreducible_masks[0]])

    def meet_irreducibles(self) -> tuple[Element, ...]:
        """Fresh elements over the masks ``spec`` keeps in ``set_key`` order."""
        return tuple([Element(self, m) for m in self.spec._irreducible_masks[1]])

    def jsupp(self, a: Element) -> tuple[Element, ...]:
        """Maximal join irreducibles below a; joins back to a.  ``down[p]``
        is one of them iff it lies in a and holds a maximal point of a."""
        a = self.element(a)
        top = self.spec.maximal_points(a.pts)
        masks = self.spec._irreducible_masks[0]
        return tuple([Element(self, m) for m in masks if m & top and m & ~a.pts == 0])

    def msupp(self, a: Element) -> tuple[Element, ...]:
        """Minimal meet irreducibles above a; meets back to a.  ``full &
        ~up[p]`` is one iff it holds a and misses a minimal point off a."""
        a = self.element(a)
        low = self.spec.minimal_points(self.spec.full & ~a.pts)
        masks = self.spec._irreducible_masks[1]
        return tuple([Element(self, m) for m in masks if low & ~m and a.pts & ~m == 0])

    def conj_up(self, x: Element) -> Element:
        """Join of every element not above x."""
        x = self.element(x)
        inter = self.spec.full
        for p in bits(x.pts):
            inter &= self.spec.up[p]
        return Element(self, self.spec.full & ~inter)

    def conj_down(self, x: Element) -> Element:
        """Meet of every element not below x."""
        x = self.element(x)
        out = self.spec.full
        for q in bits(self.spec.minimal_points(self.spec.full & ~x.pts)):
            out &= self.spec.down[q]
        return Element(self, out)

    # -- quotients and generation ----------------------------------------------

    def quotient_by(self, e: Element) -> tuple["Algebra", "Morphism"]:
        """Quotient by the principal ideal on e: downsets of spec minus e."""
        keep = self.spec.full & ~self.element(e).pts
        quotient = Algebra(self.spec.induced(keep))
        # the dual map includes the up-set keep: monotone and open as built
        return quotient, Morphism(self, quotient, tuple(bits(keep)))

    def subalgebra_generated(self, gens: Sequence[Element]) -> tuple[Element, ...]:
        """Closure of gens (plus bounds) under join, meet and difference."""
        spec = self.spec
        seeds = [0, spec.full] + [self.element(g).pts for g in gens]
        closed = close(seeds, lambda a, b: spec.down_closure(a & ~b))
        return tuple(Element(self, m) for m in closed)


@dataclass(frozen=True, eq=False)
class Morphism:
    """Algebra morphism presented by its dual map between spectra.

    ``dualmap[q]`` is the source spectrum point under the dst spectrum
    point q; the element map is preimage.  Monotonicity plus openness
    (principal up-sets map onto principal up-sets) make the element map
    preserve join, meet, bottom, top and difference.
    """

    src: Algebra
    dst: Algebra
    dualmap: tuple[int, ...]

    def apply(self, a: Element) -> Element:
        """Preimage under the dual map: bit q of the image is bit
        ``dualmap[q]`` of a, moved one run at a time over the dual map's
        runs (``posets._runs``, as in ``Poset.induced``; kept per morphism).
        Any ``a`` but an element of ``src`` goes through ``src.element``."""
        if type(a) is not Element or a.owner is not self.src:
            a = self.src.element(a)
        return Element(self.dst, _compress(self._dual_runs, a.pts))

    @_memo
    def _dual_runs(self) -> tuple[tuple[int, int, int], ...]:
        return _runs(self.dualmap)

    def kernel(self) -> Element:
        """Largest source element sent to bottom, the kernel generator; cached."""
        return self._kernel

    @_memo
    def _kernel(self) -> Element:
        spec, image = self.src.spec, mask_of(self.dualmap)
        gen = mask_of(p for p in range(spec.n) if spec.down[p] & image == 0)
        return Element(self.src, gen)

    def dual_injective(self) -> bool:
        return len(set(self.dualmap)) == len(self.dualmap)

    def compose(self, earlier: "Morphism") -> "Morphism":
        """self after earlier: earlier.src -> self.dst."""
        if earlier.dst is not self.src:
            raise OwnerMismatch("morphisms do not compose")
        # a composite of monotone open dual maps is monotone and open
        dm = tuple(earlier.dualmap[q] for q in self.dualmap)
        return Morphism(earlier.src, self.dst, dm)


@dataclass(frozen=True)
class DimPreservationReport:
    d: int
    image: Element
    target: Element
    contained: bool
    equal: bool
    dual_injective: bool

    @property
    def ok(self) -> bool:
        return self.contained and (self.equal or not self.dual_injective)


def make_morphism(src: Algebra, dst: Algebra, dualmap: Sequence[int]) -> Morphism:
    """Build a morphism from a dual map that comes from outside the library,
    checking that it is total, monotone and open.  The library's own
    quotient, composite, identity and projection maps are inclusions of
    up-sets, or composites of them, and are built as ``Morphism`` directly."""
    dm = tuple(dualmap)
    if len(dm) != dst.spec.n or any(not 0 <= p < src.spec.n for p in dm):
        raise NotMonotone("dual map is not a total map into the source spectrum")
    for lo, hi in dst.spec.covers:
        if not src.spec.leq(dm[lo], dm[hi]):
            raise NotMonotone(
                f"dual map inverts {dst.spec.names[lo]} <= {dst.spec.names[hi]}"
            )
    for q in range(dst.spec.n):
        image = mask_of(dm[r] for r in bits(dst.spec.up[q]))
        if image != src.spec.up[dm[q]]:
            raise NotOpen(
                f"dual map does not carry the up-set of {dst.spec.names[q]}"
                " onto a principal up-set"
            )
    return Morphism(src, dst, dm)


def identity_morphism(a: Algebra) -> Morphism:
    return Morphism(a, a, tuple(range(a.spec.n)))


def fiber_min(phi: Morphism, a: Element) -> Element:
    """Least source element with the same image as a (quotient maps): a -
    kernel, the closure of a's points off the kernel; a is read as by apply."""
    if type(a) is not Element or a.owner is not phi.src:
        a = phi.src.element(a)
    return Element(phi.src, phi.src.spec.down_closure(a.pts & ~phi._kernel.pts))


def fiber_max(phi: Morphism, a: Element) -> Element:
    """Greatest source element with the same image as a (quotient maps):
    a | kernel, one union of point masks; a is read as by apply."""
    if type(a) is not Element or a.owner is not phi.src:
        a = phi.src.element(a)
    return Element(phi.src, a.pts | phi._kernel.pts)


def check_dL_preserved(phi: Morphism, d: int) -> DimPreservationReport:
    """Report whether phi carries the codim >= d generator into (or onto)
    its counterpart downstream."""
    image = phi.apply(phi.src.epsilon(d))
    target = phi.dst.epsilon(d)
    return DimPreservationReport(
        d=d,
        image=image,
        target=target,
        contained=image <= target,
        equal=image.pts == target.pts,
        dual_injective=phi.dual_injective(),
    )
