"""The law-checking suites themselves, their shrinker and replay path.

A deliberately broken checker is planted to prove the shrinker reduces
counterexamples to a minimal carrier and that replay reproduces them from
the text payload alone.
"""

import hashlib

import pytest

from coheyting import suites
from coheyting.algebra import Algebra, make_morphism
from coheyting.fixtures import load_fixture
from coheyting.posets import build_poset, mask_of, poset_to_text
from coheyting.suites import (
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
        return quotient, make_morphism(self, smaller, kept, validate=False)
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
