"""Ultrametric structure, quotient towers, coherent families and limits.

Distances on the fixtures were computed by hand from the codimension of
the symmetric difference.  The tower examples pin the one-generator free
tower truncated at depth 2, whose level sizes are 1, 4 and 8.
"""

import random
from fractions import Fraction

import pytest

from coheyting.algebra import Algebra
from coheyting.errors import (
    CoheytingError,
    FrameMismatch,
    IncoherentFamily,
    LimitsDiffer,
    NotCauchyAtDepth,
    NotMonotone,
    NotSqueezed,
    OwnerMismatch,
)
from coheyting.fixtures import load_fixture
from coheyting.kripke import MAX_FRAME_NODES, free_quotient, projection
from coheyting.metric import (
    CoherentFamily,
    ball,
    cauchy_limit,
    dense_skeleton,
    distance,
    family_distance,
    is_isolated,
    make_tower,
    monotone_limit,
    precompactness_census,
    squeeze_limit,
)
from coheyting.posets import enumerate_posets, set_key


@pytest.fixture(scope="module")
def chain():
    poset, _ = load_fixture("c2")
    return Algebra(poset)


@pytest.fixture(scope="module")
def free_tower():
    return make_tower(1, 2)


def glyphs(tower):
    """The recurring elements of the (1, 2) free quotient, lifted."""
    top = tower.levels[-1].top()
    g = free_quotient(1, 2).gens[0]
    eps1 = tower.levels[-1].epsilon(1)
    return {
        "top": tower.lift(top),
        "g": tower.lift(g),
        "g-eps": tower.lift(g - eps1),
        "bottom": tower.bottom_family(),
    }


def test_distance_values_on_chain(chain):
    top = chain.top()
    mid = chain.element({"p0"})
    bottom = chain.bottom()
    assert distance(top, top) == 0
    assert distance(top, mid) == 1
    assert distance(top, bottom) == 1
    assert distance(mid, bottom) == Fraction(1, 2)
    assert distance(bottom, mid) == Fraction(1, 2)


def test_balls_on_chain(chain):
    top = chain.top()
    bottom = chain.bottom()
    assert ball(bottom, 1) == (bottom, chain.element({"p0"}))
    assert ball(top, 2) == (top,)
    assert len(ball(top, 0)) == 3


def test_ball_matches_definitional_filter():
    for poset in enumerate_posets(5):
        algebra = Algebra(poset)
        elems = algebra.elements()
        for x in elems:
            for d in range(poset.height() + 2):
                expected = tuple(
                    y for y in elems if algebra.codim(x ^ y) >= d
                )
                assert ball(x, d) == expected


def test_ball_is_the_fibre_interval():
    """ball(x, d) lists the downsets y with x - eps(d) <= y <= x | eps(d),
    the fibre of the quotient by eps(d), in set_key order: every centre
    of F(1,4) and 50 seeded centres of F(2,2), for d = 0..3."""
    rng = random.Random(11)
    for n, depth, picks in ((1, 4, None), (2, 2, 50)):
        algebra = free_quotient(n, depth).algebra
        spec, elems = algebra.spec, algebra.elements()
        every = sorted(spec.all_downsets(), key=set_key)
        centres = elems if picks is None else rng.sample(elems, picks)
        intervals = {}
        for x in centres:
            for d in range(4):
                e = algebra.epsilon(d)
                lo, hi = (x - e).pts, (x | e).pts
                if (lo, hi) not in intervals:
                    intervals[lo, hi] = [y for y in every if y & lo == lo and y | hi == hi]
                assert [y.pts for y in ball(x, d)] == intervals[lo, hi]


def test_dense_skeleton_exhausts_fixtures():
    for name in ("a2", "c2", "v3"):
        poset, _ = load_fixture(name)
        algebra = Algebra(poset)
        assert len(dense_skeleton(algebra)) == algebra.size()


def test_finite_tower_shape():
    poset, _ = load_fixture("v3")
    v3 = Algebra(poset)
    tower = make_tower(v3, 2)
    assert [level.size() for level in tower.levels] == [1, 4, 5]
    assert tower.depth == 2
    top_family = tower.top_family()
    assert [str(c) for c in top_family.components] == [
        "{}",
        "{p1,p2}",
        "{p0,p1,p2}",
    ]
    a = tower.levels[-1].element({"p0"})
    assert family_distance(tower.lift(a), tower.bottom_family()).value == Fraction(
        1, 2
    )
    with pytest.raises(FrameMismatch):
        make_tower(v3, -1)


@pytest.mark.parametrize("n, depth", [(0, 3), (1, 4), (2, 2), (3, 1)])
def test_free_tower_is_cut_from_its_top_algebra(n, depth):
    # universal frames are construction prefixes: the levels cut from
    # F(n, depth) are the free quotients F(n, d) point for point, and the
    # cuts are the projections between them
    tower = make_tower(n, depth)
    assert tower.levels[-1] is free_quotient(n, depth).algebra
    for d, level in enumerate(tower.levels):
        spec = free_quotient(n, d).algebra.spec
        assert (level.spec.names, level.spec.covers, level.spec.down) == (
            spec.names, spec.covers, spec.down
        )
    assert [phi.dualmap for phi in tower.maps] == [
        projection(n, d).dualmap for d in range(depth)
    ]
    assert [level.size() for level in tower.levels] == precompactness_census(n, depth)


def test_one_cached_free_algebra_per_stage():
    # tower lift binds the generators of one call and lifts through the
    # tower of another: both must reach the same cached stage
    assert free_quotient(2, 2) is free_quotient(2, 2, MAX_FRAME_NODES)
    assert make_tower(2, 2, MAX_FRAME_NODES).levels[-1] is free_quotient(2, 2).algebra


def test_finite_tower_top_is_the_source():
    # v3 has height 1: epsilon(3) is bottom, so level 3 is v3 itself
    poset, _ = load_fixture("v3")
    v3 = Algebra(poset)
    tower = make_tower(v3, 3)
    assert tower.levels[-1] is v3
    assert [level.size() for level in tower.levels] == [1, 4, 5, 5]
    for a in v3.elements():
        assert tower.lift(a).components[-1] is a


_EPSILON, _QUOTIENT_BY = Algebra.epsilon, Algebra.quotient_by


@pytest.mark.parametrize(
    "attr, mutant, depth, error",
    [
        ("quotient_by", lambda self, e: _QUOTIENT_BY(self, self.bottom()), 2,
         "tower map 0 kernel differs from the codim >= 0 generator"),
        ("epsilon", lambda self, d: self.bottom() if d == 1 else _EPSILON(self, d), 1,
         "tower level 1 has dimension >= 1"),
    ],
)
def test_tower_audit_negative_controls(monkeypatch, attr, mutant, depth, error):
    # a cut that removes nothing leaves a kernel of bottom; a top epsilon
    # of bottom keeps v3, of dimension 1, as level 1
    poset, _ = load_fixture("v3")
    make_tower(Algebra(poset), depth)
    monkeypatch.setattr(Algebra, attr, mutant)
    with pytest.raises(CoheytingError) as info:
        make_tower(Algebra(poset), depth)
    assert str(info.value) == error


def test_free_tower_levels_and_lift(free_tower):
    assert [level.size() for level in free_tower.levels] == [1, 4, 8]
    fam = glyphs(free_tower)
    assert [str(c) for c in fam["g"].components] == [
        "{}",
        "{u0}",
        "{u0,u2,u3}",
    ]
    with pytest.raises(OwnerMismatch):
        free_tower.lift(free_quotient(1, 1).algebra.top())


def test_family_validation(free_tower):
    fam = glyphs(free_tower)
    g = fam["g"]
    with pytest.raises(IncoherentFamily):
        CoherentFamily(free_tower, g.components[:2])
    broken = (
        g.components[0],
        free_tower.levels[1].bottom(),
        g.components[2],
    )
    with pytest.raises(IncoherentFamily):
        CoherentFamily(free_tower, broken)
    misplaced = (g.components[0], g.components[2], g.components[2])
    with pytest.raises(OwnerMismatch):
        CoherentFamily(free_tower, misplaced)


def test_family_distance_values(free_tower):
    fam = glyphs(free_tower)
    d = family_distance(fam["g"], fam["g-eps"])
    assert d.value == Fraction(1, 2)
    assert not d.truncated
    assert str(d) == "1/2"
    same = family_distance(fam["g"], free_tower.lift(free_quotient(1, 2).gens[0]))
    assert same.value == Fraction(1, 4)
    assert same.truncated
    assert str(same) == "<= 1/4"
    wide = family_distance(fam["g"], fam["bottom"])
    assert wide.value == 1
    assert not wide.truncated


def test_family_distance_requires_one_tower(free_tower):
    other = make_tower(1, 2)
    fam = glyphs(free_tower)
    with pytest.raises(OwnerMismatch):
        family_distance(fam["g"], other.bottom_family())


def test_isolation(free_tower):
    fam = glyphs(free_tower)
    assert is_isolated(fam["g"])
    assert is_isolated(fam["top"])
    assert not is_isolated(fam["bottom"])


def test_cauchy_limit_convention(free_tower):
    fam = glyphs(free_tower)
    seq = [fam["bottom"], fam["g-eps"], fam["g"], fam["g"]]
    assert cauchy_limit(seq) == fam["g"]
    assert cauchy_limit([fam["g"]]) == fam["g"]
    with pytest.raises(NotCauchyAtDepth) as err:
        cauchy_limit([fam["g"], fam["g-eps"]])
    assert err.value.depth == 2
    with pytest.raises(NotCauchyAtDepth) as err:
        cauchy_limit([fam["top"], fam["bottom"]])
    assert err.value.depth == 1
    with pytest.raises(NotCauchyAtDepth):
        cauchy_limit([])
    other = make_tower(1, 2)
    with pytest.raises(OwnerMismatch):
        cauchy_limit([fam["g"], other.top_family()])


def test_squeeze_recovers_the_middle(free_tower):
    fam = glyphs(free_tower)
    lower = [fam["bottom"], fam["g-eps"], fam["g"], fam["g"]]
    middle = [fam["g"], fam["g"], fam["g"], fam["g"]]
    upper = [fam["top"], fam["g"], fam["g"], fam["g"]]
    assert squeeze_limit(lower, middle, upper) == fam["g"]


def test_squeeze_rejections(free_tower):
    fam = glyphs(free_tower)
    with pytest.raises(NotSqueezed):
        squeeze_limit([fam["g"]], [fam["bottom"]], [fam["top"]])
    with pytest.raises(NotSqueezed):
        squeeze_limit([fam["bottom"]], [fam["g"]], [fam["top"], fam["top"]])
    with pytest.raises(LimitsDiffer):
        squeeze_limit(
            [fam["bottom"], fam["bottom"]],
            [fam["bottom"], fam["bottom"]],
            [fam["top"], fam["top"]],
        )
    # a non-stabilizing outer sequence surfaces as a cauchy failure
    with pytest.raises(NotCauchyAtDepth):
        squeeze_limit(
            [fam["bottom"], fam["bottom"]],
            [fam["bottom"], fam["g"]],
            [fam["top"], fam["g"]],
        )


def test_monotone_limit(free_tower):
    fam = glyphs(free_tower)
    up = [fam["bottom"], fam["g-eps"], fam["g"]]
    assert monotone_limit(up) == fam["g"]
    down = [fam["top"], fam["g"]]
    assert monotone_limit(down) == fam["g"]
    top_minus_g = free_tower.lift(
        free_tower.levels[-1].top() - free_quotient(1, 2).gens[0]
    )
    with pytest.raises(NotMonotone):
        monotone_limit([fam["g"], top_minus_g])
    with pytest.raises(NotMonotone):
        monotone_limit([])


def test_precompactness_censuses():
    assert precompactness_census(1, 2) == [1, 4, 8]
    assert precompactness_census(0, 3) == [1, 2, 2, 2]
    assert precompactness_census(2, 1) == [1, 16]


def test_distance_is_the_power_of_the_codimension():
    """distance against 2 ** -codim(a ^ b), with codim and ^ from the
    points: equal in value and type, 0 exactly when a == b."""
    from coheyting.posets import bits

    for poset in enumerate_posets(5):
        algebra = Algebra(poset)
        elems = algebra.elements()
        for a in elems:
            for b in elems:
                sym = poset.down_closure(a.pts & ~b.pts) | poset.down_closure(b.pts & ~a.pts)
                want = (
                    Fraction(1, 2 ** min(poset.coranks[i] for i in bits(sym)))
                    if sym
                    else Fraction(0)
                )
                got = distance(a, b)
                assert type(got) is Fraction and got == want, (poset, a, b)
