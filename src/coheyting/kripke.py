"""Kripke models over finite frames, universal frames and free quotients.

Frames are posets whose accessibility runs downward: classical points are
minimal, forcing at a point quantifies over the points below it, and truth
sets of implication-signature terms are downsets of the frame.

The spectrum of the downset algebra attached to a model is the order dual
of the frame.  The two directions are wrapped in ``frame_to_spec`` and
``spec_to_frame`` so that no other code flips orders by hand.

Universal frames are built layer by layer: layer 1 holds one classical
point per color, and a point of layer k+1 is a pair (color, antichain of
lower points meeting layer k) whose color is contained in the colors of
all its covers, properly when there is a single cover.  The downset
algebra of the dual of the d-layer universal frame on n colors is the
n-generated free algebra cut at codimension d.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .algebra import Algebra, Element, Morphism
from .errors import (
    FrameMismatch,
    NotMonotone,
    SignatureMismatch,
    SizeCap,
    UnboundVariable,
)
from . import posets
from .posets import (
    PointSet,
    Poset,
    _from_masks,
    _memo,
    _refine,
    bits,
    canonical_form,
    close,
    mask_of,
    poset_to_text,
)
from .terms import Term, Var, run_program

log = logging.getLogger(__name__)
MAX_FRAME_NODES = 20000  # default universal frame size cap
MAX_GENERATION_CHECK = 600  # generated-subalgebra completeness audit


def frame_to_spec(frame: Poset) -> Poset:
    """Spectrum of the downset algebra attached to a frame."""
    return frame.dual()


def spec_to_frame(spec: Poset) -> Poset:
    """Frame whose truth sets mirror downsets of a spectrum."""
    return spec.dual()


@dataclass(frozen=True, eq=False)
class KripkeModel:
    """Finite model: frame plus a persistent valuation.

    ``colors[p]`` is the variable bitmask holding at point p; persistence
    means lower (more classical) points hold at least the variables of the
    points above them.
    """

    frame: Poset
    vars: tuple[str, ...]
    colors: tuple[int, ...]

    @_memo
    def columns(self) -> tuple[PointSet, ...]:
        """``columns[i]``: the points whose colour holds variable i, the
        truth set of ``vars[i]``; computed on first use and kept."""
        return tuple(
            mask_of(p for p, c in enumerate(self.colors) if c >> i & 1)
            for i in range(len(self.vars))
        )

    def color_set(self, p: int) -> frozenset[str]:
        return frozenset(
            self.vars[i] for i in range(len(self.vars)) if self.colors[p] >> i & 1
        )

    def color_map(self) -> dict[str, frozenset[str]]:
        return {self.frame.names[p]: self.color_set(p) for p in range(self.frame.n)}

    def to_text(self) -> str:
        return poset_to_text(self.frame, self.color_map())


def make_model(
    frame: Poset,
    vars: Sequence[str],
    colors: Mapping[str, frozenset[str]] | Sequence[int],
) -> KripkeModel:
    """Validate persistence and build a model.

    ``colors`` maps point names to variable sets, or gives one bitmask per
    point directly.
    """
    var_list = tuple(vars)
    var_index = {v: i for i, v in enumerate(var_list)}
    if isinstance(colors, Mapping):
        masks = []
        for nm in frame.names:
            mask = 0
            for v in colors.get(nm, frozenset()):
                if v not in var_index:
                    raise UnboundVariable(f"color variable {v!r} not declared")
                mask |= 1 << var_index[v]
            masks.append(mask)
    else:
        masks = list(colors)
        if len(masks) != frame.n:
            raise FrameMismatch(f"{len(masks)} colours for {frame.n} points")
        if any(m >> len(var_list) for m in masks):
            raise UnboundVariable(f"a colour holds a variable past {len(var_list)}")
    for lo, hi in frame.covers:
        if masks[lo] | masks[hi] != masks[lo]:
            raise NotMonotone(
                f"valuation not persistent across {frame.names[lo]} <="
                f" {frame.names[hi]}"
            )
    return KripkeModel(frame, var_list, tuple(masks))


# ---------------------------------------------------------------------------
# forcing

def truth_set(model: KripkeModel, t: Term) -> PointSet:
    """Points forcing an implication-signature term; always a frame downset."""
    if t.has_diff:
        raise SignatureMismatch("forcing evaluates implication-signature terms")
    return run_program(t.code, dict(zip(model.vars, model.columns)), model.frame)


def forces(model: KripkeModel, point: int | str, t: Term) -> bool:
    p = point if isinstance(point, int) else model.frame.index(point)
    return bool(truth_set(model, t) >> p & 1)


def globally_true(model: KripkeModel, t: Term) -> bool:
    return truth_set(model, t) == model.frame.full


# ---------------------------------------------------------------------------
# bisimulation

def _theory_classes(model: KripkeModel) -> list[list[int]]:
    """The points in classes of the same theory, each class in ascending
    order and the classes ordered by smallest member: ``_refine`` splits
    the colour classes, colours in sorted order, by the set of cell
    offsets met going down (reflexively)."""
    by_color: dict[int, list[int]] = {}
    for p, c in enumerate(model.colors):
        by_color.setdefault(c, []).append(p)
    down = model.frame.down
    cells = _refine(
        [by_color[c] for c in sorted(by_color)],
        lambda p, get: mask_of(map(get, bits(down[p]))),
    )
    return sorted(cells)


def bisim_reduce(model: KripkeModel) -> tuple[KripkeModel, tuple[int, ...]]:
    """Quotient by theory equivalence; returns the reduced model and the
    point-to-class map.

    Class c is represented by its smallest member and lies above the
    classes met below that point.  Any member would do: bisimilar points
    meet the same classes going down.  The order has no cycle: two classes
    each below the other meet the same classes going down and, by
    persistence, have the same colour, so refinement never split them."""
    frame = model.frame
    cells = _theory_classes(model)
    cls = [0] * frame.n
    for c, cell in enumerate(cells):
        for p in cell:
            cls[p] = c
    rep = [cell[0] for cell in cells]
    down = [mask_of(cls[q] for q in bits(frame.down[p])) for p in rep]
    up = [0] * len(rep)
    for c, below in enumerate(down):
        for b in bits(below):
            up[b] |= 1 << c
    reduced = make_model(
        _from_masks([frame.names[p] for p in rep], down, up),
        model.vars,
        [model.colors[p] for p in rep],
    )
    return reduced, tuple(cls)


def is_reduced(model: KripkeModel) -> bool:
    return len(_theory_classes(model)) == model.frame.n


def model_code(model: KripkeModel) -> str:
    """Canonical code equal exactly for isomorphic models."""
    labels = [model.color_set(p) for p in range(model.frame.n)]
    return canonical_form(model.frame, labels)


# ---------------------------------------------------------------------------
# duality with algebras

def model_of_algebra(
    algebra: Algebra, gens: Sequence[Element], var_names: Sequence[str] | None = None
) -> KripkeModel:
    """Canonical model on the dual of the spectrum: a point's color lists
    the generators it avoids."""
    if var_names is None:
        var_names = tuple(f"x{i + 1}" for i in range(len(gens)))
    if len(var_names) != len(gens):
        raise FrameMismatch("one variable name per generator required")
    frame = spec_to_frame(algebra.spec)
    colors = [0] * frame.n
    for i, g in enumerate(gens):
        for p in bits(frame.full & ~algebra.element(g).pts):
            colors[p] |= 1 << i
    return make_model(frame, tuple(var_names), colors)


def algebra_of_model(model: KripkeModel) -> tuple[PointSet, ...]:
    """Definable truth sets: closure of the variable truth sets under
    union, intersection and implication.  Returned as frame downsets."""
    frame = model.frame
    full = frame.full
    gens = [truth_set(model, Var(v)) for v in model.vars]

    def implies(a: PointSet, b: PointSet) -> PointSet:
        return full & ~frame.up_closure(a & ~b)

    return tuple(close([0, full] + gens, implies))


# ---------------------------------------------------------------------------
# universal frames

@dataclass(frozen=True, eq=False)
class UniversalFrame:
    n: int
    d: int
    model: KripkeModel
    layers: tuple[tuple[int, ...], ...]

    @property
    def census(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.layers)


def _layer_walk(
    n: int,
    colors: list[int],
    down: list[int],
    up: list[int],
    layers: list[tuple[int, ...]],
    max_nodes: int,
) -> tuple[list[int], list[int]]:
    """The layer over a lower frame: each new point's colour and its mask
    over the lower frame, in ``universal_frame``'s order.

    The antichains that meet the newest layer are walked size by size in
    ``set_key`` order, as ``antichain_stream`` lists them, but only from
    the newest points and the lower points not below all of them: no other
    point shares an antichain with a newest one.  A child is kept only if
    it, or its extension mask, meets the newest layer, so a pruned subtree
    holds nothing the layer uses.  Each kept antichain carries its colour
    meet, down union and extension mask in parallel int lists, which the
    garbage collector, unlike tuples, does not track.  SizeCap,
    with the census, past ``posets.MAX_ANTICHAINS`` kept antichains or
    ``max_nodes`` points; the walk's lists are emptied first, so a caught
    SizeCap's traceback holds nothing of them.
    """
    cap, count = posets.MAX_ANTICHAINS, 0
    room = max_nodes - len(colors)
    newest = mask_of(layers[-1])
    below_all = -1
    for q in layers[-1]:
        below_all &= down[q]
    start = newest | (1 << len(colors)) - 1 & ~below_all
    incomparable = {p: start & ~(down[p] | up[p]) for p in bits(start)}
    new_colors: list[int] = []
    new_below: list[int] = []
    level, meets, unions, rests = [0], [(1 << n) - 1], [0], [start]
    single = True
    try:
        while level:
            bigger, big_meets, big_unions, big_rests = [], [], [], []
            for chosen, meet, union, rest in zip(level, meets, unions, rests):
                while rest:
                    low = rest & -rest
                    rest ^= low
                    p = low.bit_length() - 1
                    cur, cur_rest = chosen | low, rest & incomparable[p]
                    if not (cur | cur_rest) & newest:
                        continue
                    count += 1
                    if count > cap:
                        raise SizeCap(
                            f"universal frame layer walk past {cap} antichains",
                            census=tuple(len(layer) for layer in layers),
                        )
                    cur_meet, cur_union = meet & colors[p], union | down[p]
                    if cur_rest:
                        bigger.append(cur)
                        big_meets.append(cur_meet)
                        big_unions.append(cur_union)
                        big_rests.append(cur_rest)
                    if not cur & newest:
                        continue
                    # over a single cover, a colour must lose some variable
                    for c in range(cur_meet if single else cur_meet + 1):
                        if c & cur_meet != c:
                            continue
                        if len(new_colors) >= room:
                            raise SizeCap(
                                f"universal frame exceeds {max_nodes} nodes",
                                census=tuple(len(layer) for layer in layers)
                                + (len(new_colors),),
                            )
                        new_colors.append(c)
                        new_below.append(cur_union)
            level, meets, unions, rests = bigger, big_meets, big_unions, big_rests
            single = False
    except SizeCap:
        for held in (level, meets, unions, rests, bigger, big_meets, big_unions,
                     big_rests, new_colors, new_below):
            held.clear()
        raise
    return new_colors, new_below


def universal_frame(n: int, d: int, max_nodes: int = MAX_FRAME_NODES) -> UniversalFrame:
    """Layered universal frame on n proposition letters and d layers.

    One step builds every layer: a point lies over an antichain, its colour
    inside every colour of the antichain.  Layer 1 lies over the empty
    antichain, each later layer over the antichains that meet the one
    below, ordered by (antichain size, antichain indices, color mask).
    SizeCap, with the census of the layers built, is raised past
    ``max_nodes`` points (or, at d = 0, variables) and past
    ``posets.MAX_ANTICHAINS`` antichains visited by one layer's walk
    (``_layer_walk``), which visits only antichains that meet the newest
    layer or can still be extended to meet it.  A layer is collected as
    each point's colour and its mask over the lower frame; the node-wide
    down and up masks are built only once the whole layer fits, so a capped
    build holds only small ints, and a caught SizeCap holds none of them.
    """
    if n < 0 or d < 0:
        raise FrameMismatch("need n >= 0 and d >= 0")
    # layer 1 holds 2**n points; n >= bit_length(cap) is 2**n > cap
    if d >= 1 and n >= max_nodes.bit_length():
        raise SizeCap(f"universal frame exceeds {max_nodes} nodes", census=())
    # at d = 0 the frame is empty, but its model still names n variables
    if n > max_nodes:
        raise SizeCap(
            f"universal frame names {n} variables, over the"
            f" {max_nodes}-node cap",
            census=(),
        )
    vars = tuple(f"x{i + 1}" for i in range(n))
    colors: list[int] = []
    down: list[int] = []
    up: list[int] = []
    layers: list[tuple[int, ...]] = []
    for _layer in range(d):
        if layers:
            new_colors, new_below = _layer_walk(n, colors, down, up, layers, max_nodes)
        else:
            # layer 1, one point per colour over the empty antichain, fits:
            # the check above keeps its 2**n points within max_nodes
            new_colors, new_below = list(range(1 << n)), [0] * (1 << n)
        if not new_colors:
            break
        # grow the up masks by the newest layer only: a transpose of the
        # whole lower frame per layer would cost O(layers * n**2); the frame
        # takes them as they are, with no final transpose
        new_layer = range(len(colors), len(colors) + len(new_colors))
        colors += new_colors
        for idx, below in zip(new_layer, new_below):
            down.append(below | 1 << idx)
            up.append(1 << idx)
            for w in bits(below):
                up[w] |= 1 << idx
        layers.append(tuple(new_layer))
    frame = _from_masks([f"u{i}" for i in range(len(colors))], down, up)
    model = make_model(frame, vars, colors)
    return UniversalFrame(n=n, d=d, model=model, layers=tuple(layers))


# ---------------------------------------------------------------------------
# free quotients

@dataclass(frozen=True, eq=False)
class FreeQuotient:
    """Downset algebra of the dual universal frame, with its generators.

    ``complete`` records the generated-subalgebra audit: True when the
    generators were verified to generate everything, None when the algebra
    was too large to audit (over ``MAX_GENERATION_CHECK`` elements).
    """

    n: int
    d: int
    frame: UniversalFrame
    algebra: Algebra
    gens: tuple[Element, ...]
    complete: bool | None


def free_quotient(n: int, d: int, max_nodes: int = MAX_FRAME_NODES) -> FreeQuotient:
    """Cached so repeated stages share one algebra object per (n, d,
    max_nodes): a call with the default and one that passes
    ``MAX_FRAME_NODES`` get the same object."""
    return _free_quotient(n, d, max_nodes)


@lru_cache(maxsize=None)
def _universal_frame(n: int, d: int, max_nodes: int) -> UniversalFrame:
    """The frame that ``free_quotient`` and ``d_equivalent`` share, one per
    ``(n, d, max_nodes)`` for the life of the process."""
    return universal_frame(n, d, max_nodes)


@lru_cache(maxsize=None)
def _free_quotient(n: int, d: int, max_nodes: int) -> FreeQuotient:
    uf = _universal_frame(n, d, max_nodes)
    algebra = Algebra(frame_to_spec(uf.model.frame))
    full = uf.model.frame.full
    gens = [algebra.element(full & ~column) for column in uf.model.columns]
    complete: bool | None = None
    size = algebra.size()
    if size <= MAX_GENERATION_CHECK:
        generated = algebra.subalgebra_generated(gens)
        complete = len(generated) == size
        if not complete:
            log.warning(
                "free quotient (%d, %d): generators span %d of %d elements",
                n, d, len(generated), size,
            )
    return FreeQuotient(
        n=n, d=d, frame=uf, algebra=algebra, gens=tuple(gens), complete=complete
    )


def free_epsilon(n: int, d: int, e: int, max_nodes: int = MAX_FRAME_NODES) -> Element:
    """Codimension >= e generator inside the (n, d) free quotient."""
    return free_quotient(n, d, max_nodes).algebra.epsilon(e)


def projection(n: int, d: int, max_nodes: int = MAX_FRAME_NODES) -> Morphism:
    """Canonical map from the (n, d+1) free quotient onto the (n, d) one.

    The d-layer universal frame is a construction prefix of the d+1-layer
    one, a downset with the same down masks and colours, so the dual map is
    the index inclusion of an up-set of the spectrum: monotone and open.
    """
    src = free_quotient(n, d + 1, max_nodes)
    dst = free_quotient(n, d, max_nodes)
    k = dst.algebra.spec.n
    if (
        src.frame.model.frame.down[:k] != dst.frame.model.frame.down
        or src.frame.model.colors[:k] != dst.frame.model.colors
    ):
        raise FrameMismatch("universal frame layers are not nested")
    return Morphism(src.algebra, dst.algebra, tuple(range(k)))


def d_equivalent(
    t1: Term, t2: Term, n: int, d: int, max_nodes: int = MAX_FRAME_NODES
) -> bool:
    """True when the two implication-signature terms cannot be told apart
    at codimension depth d: their duals agree on the free generators.

    The dual of a term at the generators is the complement of its truth set
    on the universal frame, so the truth sets are compared instead, on the
    frame ``free_quotient`` reads, kept once per ``(n, d, max_nodes)``;
    no algebra is built."""
    if n < 0 or d < 0:
        raise FrameMismatch("need n >= 0 and d >= 0")
    if t1.has_diff or t2.has_diff:
        raise SignatureMismatch("depth equivalence compares implication terms")
    names = tuple(sorted(t1.variables() | t2.variables()))
    if len(names) > n:
        raise UnboundVariable(
            f"terms use {len(names)} variables but only {n} generators exist"
        )
    # sorted name i stands for generator i, read off colour column i
    uf = _universal_frame(n, d, max_nodes).model
    values = dict(zip(names, uf.columns))
    frame = uf.frame
    return run_program(t1.code, values, frame) == run_program(t2.code, values, frame)


def enumerate_reduced_models(
    n: int, d: int, max_points: int | None = None, max_nodes: int = MAX_FRAME_NODES
) -> Iterator[KripkeModel]:
    """All reduced models of depth at most d on n letters, up to
    isomorphism: the nonempty downsets of the universal frame, as induced
    submodels in ``set_key`` order, one model per downset.

    No two are isomorphic.  Distinct points of the universal model have
    distinct theories, and an isomorphism between two of its downsets is
    a bisimulation, which maps each point to one with the same theory:
    the point itself.  So isomorphic downsets are equal (N. Bezhanishvili,
    PhD thesis, Amsterdam 2006, ch. 3).

    The universal frame is built under ``max_nodes``.  With
    ``max_points`` the downsets come from ``Poset.downsets_upto``, which
    builds and keeps only those of at most ``max_points`` points, and
    ``posets.MAX_CLOSURE`` bounds how many; without it they come from the
    full list ``Poset.downsets``, which the same limit bounds."""
    uf = universal_frame(n, d, max_nodes)
    frame = uf.model.frame
    if max_points is None:
        found = frame.downsets()
    else:
        found = frame.downsets_upto(max_points)
    for ds in found:
        if ds:
            colors = [uf.model.colors[p] for p in bits(ds)]
            yield make_model(frame.induced(ds), uf.model.vars, colors)
