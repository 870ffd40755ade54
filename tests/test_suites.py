"""The law-checking suites themselves, their shrinker and replay path.

A deliberately broken checker is planted to prove the shrinker reduces
counterexamples to a minimal carrier and that replay reproduces them from
the text payload alone.
"""

import collections
import dataclasses
import functools
import hashlib
import itertools
import operator
import random
import types
from fractions import Fraction

import pytest

from coheyting import suites
from coheyting.algebra import Algebra, Element, Morphism, fiber_max, fiber_min
from coheyting.fixtures import load_fixture
from coheyting.metric import Tower
from coheyting.posets import bits, build_poset, enumerate_posets, mask_of, poset_to_text
from coheyting.suites import (
    CASES,
    CHECKERS,
    Failure,
    SuiteContext,
    _fail,
    replay_failure,
    run_suites,
    suite_names,
)

QUICK = SuiteContext(seed=7, budget=40, max_points=4)


def test_suite_names_inventory():
    names = suite_names()
    assert len(names) == 20
    assert sorted(CHECKERS) == sorted(CASES) == names
    assert names == sorted(names)
    for expected in (
        "s2-identities",
        "ultrametric",
        "dim-rank",
        "quotient-fini",
        "duality-roundtrip",
        "tower-coherence",
    ):
        assert expected in names


@pytest.mark.parametrize("name", suite_names())
def test_each_suite_passes(name):
    (report,) = run_suites([name], QUICK)
    assert report.ok, report.describe()
    assert report.cases > 0
    assert report.suite == name
    assert "ok" in report.describe()


# Call count and sha256 prefix of every checker's case stream under QUICK:
# refactoring the suite runner must leave each stream unchanged.
QUICK_STREAMS = {
    "bisim-truth": (40, "8de1cfca5a39dae3"),
    "codim-join": (40, "1d0ea9a815b41ba7"),
    "counting-bounds": (1, "a355232debd28c54"),
    "delta-triangle": (40, "b0882ae2e00a20b0"),
    "dim-quotient": (77, "92143562af490ed9"),
    "dim-rank": (40, "0859f97ddaa688bd"),
    "duality-roundtrip": (40, "50df9d05d5854642"),
    "epsilon-chain": (24, "f7c4a26b0bf3f0e2"),
    "eval-morphism": (40, "ff2762aa725fde5a"),
    "irr-supports": (24, "f7c4a26b0bf3f0e2"),
    "join-irr-strong": (24, "f7c4a26b0bf3f0e2"),
    "mf-identity": (40, "40493ded34d74d75"),
    "morphism-metrics": (40, "4798716cb8f4aad5"),
    "persistence": (40, "b118590f0a46df5c"),
    "quotient-fini": (77, "92143562af490ed9"),
    "s2-identities": (40, "7d4e3016238559ff"),
    "slice": (47, "4d1eb5a3a3760b68"),
    "term-lipschitz": (40, "e4396ac9c6122e29"),
    "tower-coherence": (1, "a355232debd28c54"),
    "ultrametric": (40, "115be08234d561a2"),
}


@pytest.mark.parametrize("name", sorted(QUICK_STREAMS))
def test_case_stream_pinned(name):
    digest = hashlib.sha256()
    calls = 0
    original = CHECKERS[name]

    def recorder(algebra, e, extra):
        nonlocal calls
        calls += 1
        case = (
            poset_to_text(algebra.spec),
            sorted((k, v.pts) for k, v in e.items()),
            sorted(extra.items()),
        )
        digest.update(repr(case).encode())
        return original(algebra, e, extra)

    CHECKERS[name] = recorder
    try:
        run_suites([name], QUICK)
    finally:
        CHECKERS[name] = original
    assert (calls, digest.hexdigest()[:16]) == QUICK_STREAMS[name]


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"], QUICK)


def test_run_all_defaults_to_every_suite():
    reports = run_suites(None, QUICK)
    assert [r.suite for r in reports] == suite_names()
    assert all(r.ok for r in reports)


def planted_checker(algebra, e, extra):
    if not e["a"].is_bottom():
        return "a must be empty"
    return None


def test_shrinker_minimizes_planted_failure():
    CHECKERS["planted"] = planted_checker
    try:
        chain = build_poset(
            ["q0", "q1", "q2"], [("q0", "q1"), ("q1", "q2")]
        )
        failure = _fail(
            "planted", "a must be empty", chain, {"a": chain.full}, {}
        )
        assert failure.suite == "planted"
        assert failure.law == "a must be empty"
        # one carrier point and a single-point mask survive
        assert failure.poset_text.strip() == "points: q0"
        assert failure.masks == {"a": "{q0}"}
        assert replay_failure(failure)
        passing = Failure(
            suite="planted",
            law="a must be empty",
            poset_text=failure.poset_text,
            masks={"a": "{}"},
            extra={},
        )
        assert not replay_failure(passing)
    finally:
        del CHECKERS["planted"]


def planted_two_point_checker(algebra, e, extra):
    if algebra.spec.n >= 2 and not e["a"].is_bottom():
        return "a must be empty on two points"
    return None


def test_shrinker_peels_masks_once_no_point_drops():
    # no carrier point can go, so only peeling a and b shrinks this failure
    CHECKERS["planted"] = planted_two_point_checker
    try:
        chain = build_poset(
            ["q0", "q1", "q2"], [("q0", "q1"), ("q1", "q2")]
        )
        failure = _fail(
            "planted", "a must be empty on two points", chain,
            {"a": chain.full, "b": chain.full}, {},
        )
        assert failure.poset_text == "points: q0 q1\ncovers: q0<q1\n"
        assert failure.masks == {"a": "{q0}", "b": "{}"}
        assert replay_failure(failure)
    finally:
        del CHECKERS["planted"]


def _drop_first_kept_point(quotient_by):
    """A quotient whose projection forgets the first point it should keep."""
    def broken(self, e):
        quotient, proj = quotient_by(self, e)
        kept = proj.dualmap[1:]
        smaller = Algebra(self.spec.induced(mask_of(kept)))
        return quotient, Morphism(self, smaller, kept)
    return broken


def _keep_last_eps_point(quotient_by):
    """A quotient that also keeps the last point of e: a finer kernel."""
    def broken(self, e):
        quotient, proj = quotient_by(self, e)
        kept = sorted({*proj.dualmap, max(bits(e.pts))})
        finer = Algebra(self.spec.induced(mask_of(kept)))
        return quotient, Morphism(self, finer, tuple(kept))
    return broken


@pytest.mark.parametrize(
    "target, attr, mutant, law",
    [
        (suites, "fiber_min", lambda phi, a: a,
         "fiber_min is the least fiber element"),
        (suites, "fiber_max", lambda phi, a: a,
         "fiber_max is the greatest fiber element"),
        (suites, "fiber_min", lambda phi, a: phi.src.bottom(),
         "fiber_min is the least fiber element"),
        (suites, "fiber_max", lambda phi, a: phi.src.top(),
         "fiber_max is the greatest fiber element"),
        (Algebra, "quotient_by", _drop_first_kept_point(Algebra.quotient_by),
         "pi(a) = pi(b) iff a ^ b <= epsilon(d)"),
        (Algebra, "quotient_by", _keep_last_eps_point(Algebra.quotient_by),
         "pi(a) = pi(b) iff a ^ b <= epsilon(d)"),
    ],
)
def test_quotient_checker_negative_controls(monkeypatch, target, attr, mutant, law):
    # v3 is p0 < p1, p0 < p2: epsilon(1) = {p0} and the fiber of bottom
    # is {}, {p0}
    poset, _ = load_fixture("v3")
    check = CHECKERS["quotient-fini"]
    assert check(Algebra(poset), {}, {"d": "1"}) is None
    monkeypatch.setattr(target, attr, mutant)
    assert check(Algebra(poset), {}, {"d": "1"}) == law


def _quadratic_check_quotient(algebra, e, extra):
    """quotient-fini as it was before the one-pass pair law: every pair of
    elements, two down closures a pair."""
    d = int(extra["d"])
    eps = algebra.epsilon(d)
    quotient, proj = algebra.quotient_by(eps)
    elems = algebra.elements()
    image_of = {a.pts: proj.apply(a).pts for a in elems}
    meet, join = {}, {}
    for m, image in image_of.items():
        meet[image] = meet.get(image, m) & m
        join[image] = join.get(image, m) | m
    for a in elems:
        image = image_of[a.pts]
        lo = fiber_min(proj, a).pts
        hi = fiber_max(proj, a).pts
        if image_of.get(lo) != image or lo & meet[image] != lo:
            return "fiber_min is the least fiber element"
        if image_of.get(hi) != image or hi | join[image] != hi:
            return "fiber_max is the greatest fiber element"
    down, eps_pts = algebra.spec.down_closure, eps.pts
    for (a, image), (b, other) in itertools.combinations(image_of.items(), 2):
        s = down(a & ~b) | down(b & ~a)
        if (image == other) != (s & eps_pts == s):
            return "pi(a) = pi(b) iff a ^ b <= epsilon(d)"
    qj = set(quotient.join_irreducibles())
    lifted = {proj.apply(j) for j in algebra.join_irreducibles() if not j <= eps}
    if qj != lifted:
        return "join irreducibles not below epsilon(d) biject with quotient's"
    survivors = [j for j in algebra.join_irreducibles() if not j <= eps]
    if len(survivors) != len(lifted):
        return "projection is injective on surviving join irreducibles"
    qm = set(quotient.meet_irreducibles())
    lifted_m = {proj.apply(m) for m in algebra.meet_irreducibles() if eps <= m}
    if qm != lifted_m:
        return "meet irreducibles above epsilon(d) biject with quotient's"
    return None


def _outcome(check, algebra, d):
    try:
        return check(algebra, {}, {"d": str(d)})
    except Exception as exc:
        return type(exc).__name__, str(exc)


_EPSILON, _QUOTIENT_BY = Algebra.epsilon, Algebra.quotient_by


def _quotient_mutants(seed):
    """(name, epsilon, quotient_by) replacements; each draws from its own
    Random(seed) per call, so both checkers of a case see the same mutant."""
    epsilon, quotient_by = _EPSILON, _QUOTIENT_BY

    def flip_point(self, d):
        eps = epsilon(self, d)
        p = random.Random(seed).randrange(self.spec.n)
        return Element(self, eps.pts ^ 1 << p)

    def random_mask(self, d):
        return Element(self, random.Random(seed).randrange(self.spec.full + 1))

    def by_downset(pick):
        # a true quotient by a downset picked from the mask e, which need
        # not be one: the pair law then reads a mask that is no downset
        def broken(self, e):
            inside = [x.pts for x in self.elements()]
            return quotient_by(self, Element(self, pick(e.pts, inside)))
        return broken

    def largest_inside(m, inside):
        return functools.reduce(operator.or_, (x for x in inside if x & ~m == 0))

    def least_above(m, inside):
        return min((x for x in inside if m & ~x == 0), key=int.bit_count)

    def rebuilt(choose):
        def broken(self, e):
            quotient, proj = quotient_by(self, e)
            kept = choose(random.Random(seed), e, list(proj.dualmap))
            if kept is None:
                return quotient, proj
            sub = Algebra(self.spec.induced(mask_of(kept)))
            return quotient, Morphism(self, sub, tuple(sorted(kept)))
        return broken

    def drop_kept(rng, e, kept):
        if kept:
            del kept[rng.randrange(len(kept))]
            return kept
        return None

    def add_eps_point(rng, e, kept):
        return [*kept, rng.choice(list(bits(e.pts)))] if e.pts else None

    def random_dualmap(self, e):
        quotient, proj = quotient_by(self, e)
        rng = random.Random(seed)
        dualmap = [rng.randrange(self.spec.n) for _ in proj.dualmap]
        return quotient, Morphism(self, quotient, tuple(dualmap))

    return [
        ("unmutated", epsilon, quotient_by),
        ("epsilon flips a point", flip_point, quotient_by),
        ("epsilon is a random mask", random_mask, quotient_by),
        ("random mask, quotient by its largest downset", random_mask,
         by_downset(largest_inside)),
        ("random mask, quotient by its down closure", random_mask,
         by_downset(least_above)),
        ("quotient drops a kept point", epsilon, rebuilt(drop_kept)),
        ("quotient keeps a point of epsilon", epsilon, rebuilt(add_eps_point)),
        ("quotient has a random dual map", epsilon, random_dualmap),
    ]


def test_quotient_checker_matches_quadratic_reference(monkeypatch):
    # every poset of up to 5 points at every d, unmutated and under mutants
    # of epsilon and quotient_by: the one-pass pair law returns what the
    # loop over all pairs returned
    check = CHECKERS["quotient-fini"]
    seeds = random.Random(20)
    mismatches, verdicts = [], collections.Counter()
    for poset in enumerate_posets(5):
        for d in range(poset.height() + 2):
            for name, epsilon, quotient_by in _quotient_mutants(seeds.random()):
                monkeypatch.setattr(Algebra, "epsilon", epsilon)
                monkeypatch.setattr(Algebra, "quotient_by", quotient_by)
                want = _outcome(_quadratic_check_quotient, Algebra(poset), d)
                got = _outcome(check, Algebra(poset), d)
                verdicts[name, want] += 1
                if got != want:
                    mismatches.append((poset_to_text(poset), d, name, want, got))
    assert mismatches == []
    assert sum(verdicts.values()) > 2500
    assert verdicts["unmutated", None] > 300
    # the pair law decides cases, also where epsilon is not a downset
    pair_law = "pi(a) = pi(b) iff a ^ b <= epsilon(d)"
    assert sum(n for (_, law), n in verdicts.items() if law == pair_law) > 500
    assert verdicts["random mask, quotient by its down closure", pair_law] > 150
    # and passes it there when the quotient is by the largest downset inside
    assert verdicts["random mask, quotient by its largest downset", (
        "meet irreducibles above epsilon(d) biject with quotient's"
    )] > 150


def _not_open(self, e):
    """The true quotient, but its first kept point is sent to p0, the least
    point of v3: still monotone, no longer open."""
    quotient, proj = _QUOTIENT_BY(self, e)
    return quotient, Morphism(self, quotient, (0,) + proj.dualmap[1:])


def _constant_dualmap(self, e):
    """No cut, and every point is sent to the last one."""
    return self, Morphism(self, self, (self.spec.n - 1,) * self.spec.n)


def _into_chain(self, e):
    """An injective dual map from the chain q0 < q1 onto p1 and p2 of v3."""
    chain = Algebra(build_poset(["q0", "q1"], [("q0", "q1")]))
    return chain, Morphism(self, chain, (1, 2))


def _to_top(self, a):
    return self.dst.top()


def _cut_nothing(self, e):
    return _QUOTIENT_BY(self, self.bottom())


@pytest.mark.parametrize(
    "suite, target, attr, mutant, masks, extra, law",
    [
        ("dim-quotient", Morphism, "apply", _to_top, {}, {"d": "1"},
         "image of epsilon(d) lands in target epsilon(d)"),
        ("dim-quotient", Algebra, "quotient_by", _constant_dualmap, {}, {"d": "1"},
         "quotient map carries epsilon(d) onto target epsilon(d)"),
        ("dim-quotient", Algebra, "quotient_by", _cut_nothing, {}, {"d": "1"},
         "dim of quotient by epsilon(d) below d"),
        ("eval-morphism", Algebra, "quotient_by", _not_open, {"u_x": 0b111, "u_y": 0b001},
         {"d": "1", "term": "x \\ y"}, "quotient maps commute with term evaluation"),
        ("morphism-metrics", Algebra, "quotient_by", _not_open, {"a": 0, "b": 0b001},
         {"d": "1"}, "quotient maps are nonexpansive"),
        ("morphism-metrics", Morphism, "apply", _to_top, {"a": 0b111, "b": 0b111},
         {"d": "1"}, "quotient maps send epsilon(k) into epsilon(k)"),
        ("morphism-metrics", Algebra, "quotient_by", _into_chain, {"a": 0b111, "b": 0b111},
         {"d": "1"}, "point-surjective quotients carry epsilon(k) onto epsilon(k)"),
    ],
)
def test_morphism_checker_negative_controls(
    monkeypatch, suite, target, attr, mutant, masks, extra, law
):
    # the library builds quotient maps unchecked, so these laws are what
    # catch a wrong one: each fires under its mutant on v3 at d = 1
    poset, _ = load_fixture("v3")
    algebra = Algebra(poset)
    e = {name: algebra.element(m) for name, m in masks.items()}
    check = CHECKERS[suite]
    assert check(algebra, e, extra) is None
    monkeypatch.setattr(target, attr, mutant)
    assert check(algebra, e, extra) == law


def _cubic_irreducibles(algebra, elems):
    top = algebra.top()
    join_irr = {
        a for a in elems
        if not a.is_bottom()
        and not any((y | z) == a and y != a and z != a for y in elems for z in elems)
    }
    meet_irr = {
        a for a in elems
        if a != top
        and not any((y & z) == a and y != a and z != a for y in elems for z in elems)
    }
    return join_irr, meet_irr


_JOIN_IRR, _MEET_IRR = Algebra.join_irreducibles, Algebra.meet_irreducibles


def test_irreducible_sets_match_cubic_definition():
    for poset in enumerate_posets(5):
        algebra = Algebra(poset)
        elems = algebra.elements()
        assert suites._irreducible_sets(algebra, elems) == _cubic_irreducibles(
            algebra, elems
        )


@pytest.mark.parametrize(
    "attr, mutant, law",
    [
        ("join_irreducibles", lambda self: _JOIN_IRR(self)[1:],
         "join irreducibles match the definitional set"),
        ("join_irreducibles", lambda self: (self.top(), *_JOIN_IRR(self)),
         "join irreducibles match the definitional set"),
        ("meet_irreducibles", lambda self: (self.top(), *_MEET_IRR(self)),
         "meet irreducibles match the definitional set"),
    ],
)
def test_irr_supports_catches_wrong_irreducibles(monkeypatch, attr, mutant, law):
    # v3 is p0 < p1, p0 < p2: its top {p0, p1, p2} = {p0, p1} | {p0, p2}
    # is join reducible, and no top is meet irreducible
    poset, _ = load_fixture("v3")
    check = CHECKERS["irr-supports"]
    assert check(Algebra(poset), {}, {}) is None
    monkeypatch.setattr(Algebra, attr, mutant)
    assert check(Algebra(poset), {}, {}) == law


def test_failure_describe_format():
    failure = Failure(
        suite="demo",
        law="x = y",
        poset_text="points: p0\n",
        masks={"x": "{p0}", "y": "{}"},
        extra={"note": "hand built"},
    )
    text = failure.describe()
    assert "[demo] law violated: x = y" in text
    assert "points: p0" in text
    assert "x = {p0}" in text
    assert "note: hand built" in text


_UNIVERSAL_FRAME, _REDUCED_MODELS = suites.universal_frame, suites.enumerate_reduced_models
_MAKE_TOWER = suites.make_tower


def _layers_changed(change):
    """Universal frames whose layers are rewritten by ``change``."""
    def broken(n, d, *args):
        frame = _UNIVERSAL_FRAME(n, d, *args)
        return dataclasses.replace(frame, layers=change(frame.layers))
    return broken


def _models_one_deeper(n, d, *args):
    return _REDUCED_MODELS(n, d + 1, *args)


def _models_twice(n, d, *args):
    return (m for m in _REDUCED_MODELS(n, d, *args) for _ in range(2))


def _lift_to_tops(self, a):
    """Every component below the top is its level's top."""
    return types.SimpleNamespace(
        components=(*(level.top() for level in self.levels[:-1]), a)
    )


def _maps_onto_point_zero(source, depth, *args):
    """The true levels, but every tower map sends each point to point 0."""
    tower = _MAKE_TOWER(source, depth, *args)
    maps = tuple(Morphism(m.src, m.dst, (0,) * m.dst.spec.n) for m in tower.maps)
    return Tower(levels=tower.levels, maps=maps)


def _distance_by_size(a, b):
    """Shrinks with the carrier, so images in a smaller level move apart."""
    return Fraction(0) if a == b else Fraction(1, 2 ** a.owner.spec.n)


@pytest.mark.parametrize(
    "suite, target, attr, mutant, law",
    [
        ("counting-bounds", suites, "universal_frame",
         _layers_changed(lambda layers: (layers[0][1:], *layers[1:])),
         "layer 1 of the (0,1) universal frame has 2^n points"),
        ("counting-bounds", suites, "universal_frame",
         _layers_changed(lambda layers: (layers[0], *(l * 4 for l in layers[1:]))),
         "layer 2 of the (1,2) universal frame exceeds 2^n * nu"),
        ("counting-bounds", suites, "enumerate_reduced_models", _models_one_deeper,
         "a height-1 reduced model over 1 letters has more than 2^n points"),
        ("counting-bounds", suites, "enumerate_reduced_models", _models_twice,
         "height-1 reduced model count differs from nonempty universal downsets"),
        ("tower-coherence", Tower, "lift", _lift_to_tops,
         "lifted families are coherent under the tower maps"),
        ("tower-coherence", suites, "make_tower", _maps_onto_point_zero,
         "epsilon families restrict levelwise to epsilon(d)"),
        ("tower-coherence", suites, "distance", _distance_by_size,
         "tower maps are nonexpansive"),
    ],
)
def test_carrier_less_suite_negative_controls(monkeypatch, suite, target, attr, mutant, law):
    # each law fires under its mutant as one failure on the empty poset,
    # which replays while the mutant is in place and passes once it is gone
    monkeypatch.setattr(target, attr, mutant)
    (report,) = run_suites([suite], QUICK)
    (failure,) = report.failures
    assert (failure.law, failure.poset_text, failure.masks) == (law, "points: \n", {})
    assert replay_failure(failure)
    monkeypatch.undo()
    assert not replay_failure(failure)
