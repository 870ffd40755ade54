"""Acceptance battery: ten pinned criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the checklist.
Every check is exact; there are no tolerances to tune.  Each test
collects violations into ``bad`` and prints its verdict before
asserting, so a red run still shows the full scorecard.
"""

from __future__ import annotations

import random
import time

import pytest

from coheyting.algebra import Algebra, check_dL_preserved
from coheyting.fixtures import FIXTURE_NAMES, load_fixture
from coheyting.kripke import (
    algebra_of_model,
    enumerate_reduced_models,
    free_quotient,
    universal_frame,
)
from coheyting.metric import cauchy_limit, distance, make_tower
from coheyting.posets import enumerate_posets
from coheyting.search import fmp_search
from coheyting.suites import CHECKERS, chain_routes, prime_routes, random_term
from coheyting.terms import parse_formula, print_term


def _verdict(number: int, label: str, ok: bool) -> bool:
    print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def _pool(max_points: int):
    out = []
    for poset in enumerate_posets(max_points):
        algebra = Algebra(poset)
        out.append((poset, algebra, algebra.elements()))
    return out


@pytest.fixture(scope="module")
def pool6():
    return _pool(6)


@pytest.fixture(scope="module")
def pool7():
    return _pool(7)


@pytest.fixture(scope="module")
def fixture_algebras():
    out = []
    for name in FIXTURE_NAMES:
        poset, _ = load_fixture(name)
        out.append((name, Algebra(poset)))
    return out


# ---------------------------------------------------------------------------
# 1. level sizes of the free towers, two independent routes


EXPECTED_FREE_SIZES = {(0, 1): 2, (0, 2): 2, (1, 1): 4, (1, 2): 8, (2, 1): 16}


def test_criterion_01_free_sizes():
    bad = []
    for (n, d), size in sorted(EXPECTED_FREE_SIZES.items()):
        fq = free_quotient(n, d)
        by_downsets = fq.algebra.size()
        by_closure = len(algebra_of_model(fq.frame.model))
        if not (by_downsets == by_closure == size):
            bad.append((n, d, by_downsets, by_closure))
        if fq.complete is not True:
            bad.append((n, d, "generators do not span"))
    assert _verdict(1, "free level sizes by two routes", not bad), bad


# ---------------------------------------------------------------------------
# 2. dimension and codimension by three routes, exhaustively


def test_criterion_02_dimension_three_routes(pool6):
    bad = []
    checked = 0
    for poset, algebra, elems in pool6:
        chain_codim, chain_dim = chain_routes(algebra, elems)
        prime_codim, prime_dim = prime_routes(algebra, elems)
        for a in elems:
            if a.is_bottom():
                # chain and filter routes are for nonbottom; pin the signs
                if str(algebra.codim(a)) != "+inf":
                    bad.append((poset, "codim bottom"))
                if str(algebra.dim_elt(a)) != "-inf":
                    bad.append((poset, "dim bottom"))
                continue
            checked += 1
            c = algebra.codim(a)
            if not (c == chain_codim(a.pts) == prime_codim(a.pts)):
                bad.append((poset, str(a), "codim"))
            m = algebra.dim_elt(a)
            if not (m == chain_dim(a.pts) == prime_dim(a.pts)):
                bad.append((poset, str(a), "dim"))
    # 6377 downsets across the pool, 405 of them bottoms
    assert checked == 5972
    assert _verdict(2, "dim and codim by three routes", not bad), bad[:3]


# ---------------------------------------------------------------------------
# 3. the slice equation detects dimension, exhaustively on small algebras


def test_criterion_03_slice_equation(pool7):
    small = [(p, alg) for p, alg, elems in pool7 if len(elems) <= 8]
    bad = []
    for poset, algebra in small:
        for d in range(4):
            law = CHECKERS["slice"](algebra, {}, {"d": str(d)})
            if law is not None:
                bad.append((poset, d, law))
    assert len(small) == 35
    assert _verdict(3, "slice equation vs dimension", not bad), bad[:3]


# ---------------------------------------------------------------------------
# 4. 10,000 randomized identity cases


def test_criterion_04_identity_battery(pool7):
    rng = random.Random(411)
    plans = (
        ("s2-identities", ("a", "b", "c")),
        ("delta-triangle", ("a", "b", "c")),
        ("ultrametric", ("a", "b", "c")),
        ("codim-join", ("a", "b")),
    )
    bad = []
    cases = 0
    for name, keys in plans:
        checker = CHECKERS[name]
        for _ in range(2500):
            poset, algebra, elems = pool7[rng.randrange(len(pool7))]
            e = {k: elems[rng.randrange(len(elems))] for k in keys}
            cases += 1
            law = checker(algebra, e, {})
            if law is not None:
                bad.append((name, poset, law))
    assert cases == 10000
    assert _verdict(4, "identities, triangle, ultrametric, join law", not bad), bad[:3]


# ---------------------------------------------------------------------------
# 5. 1,000 duality round trips


def test_criterion_05_duality_round_trip(pool7):
    rng = random.Random(511)
    checker = CHECKERS["duality-roundtrip"]
    bad = []
    for _ in range(1000):
        poset, algebra, elems = pool7[rng.randrange(len(pool7))]
        term = random_term(rng, ["x1", "x2"], 3, "diff")
        e = {
            f"g_{n}": elems[rng.randrange(len(elems))]
            for n in sorted(term.variables())
        }
        law = checker(algebra, e, {"term": print_term(term)})
        if law is not None:
            bad.append((poset, print_term(term), law))
    assert _verdict(5, "dual-term forcing mirrors evaluation", not bad), bad[:3]


# ---------------------------------------------------------------------------
# 6. quotient fibers and irreducible bijections, exhaustively


def test_criterion_06_quotient_structure(pool6, fixture_algebras):
    checker = CHECKERS["quotient-fini"]
    bad = []
    domains = [(name, algebra) for name, algebra in fixture_algebras]
    domains += [(f"class{i}", algebra) for i, (_, algebra, _) in enumerate(pool6)]
    for label, algebra in domains:
        for d in range(algebra.spec.height() + 2):
            law = checker(algebra, {}, {"d": str(d)})
            if law is not None:
                bad.append((label, d, law))
    assert _verdict(6, "quotient fibers and irreducible bijections", not bad), bad[:3]


# ---------------------------------------------------------------------------
# 7. every projection and tower map contracts and preserves epsilon


def test_criterion_07_morphism_metrics(fixture_algebras):
    morphisms = []
    for name, algebra in fixture_algebras:
        h = algebra.spec.height()
        for d in range(h + 2):
            _, proj = algebra.quotient_by(algebra.epsilon(d))
            morphisms.append((f"{name}/eps{d}", proj, h))
        tower = make_tower(algebra, h + 1)
        for d, phi in enumerate(tower.maps):
            morphisms.append((f"{name}/tower{d}", phi, h))
    free = make_tower(1, 3)
    for d, phi in enumerate(free.maps):
        morphisms.append((f"free1/tower{d}", phi, 3))

    bad = []
    for label, phi, h in morphisms:
        src = phi.src.elements()
        images = {a.pts: phi.apply(a) for a in src}
        for a in src:
            for b in src:
                if distance(images[a.pts], images[b.pts]) > distance(a, b):
                    bad.append((label, "expansion", str(a), str(b)))
        for k in range(h + 2):
            report = check_dL_preserved(phi, k)
            if not report.contained:
                bad.append((label, k, "containment"))
            if phi.dual_injective() and not report.equal:
                bad.append((label, k, "onto"))
    assert _verdict(7, "morphisms contract and preserve epsilon", not bad), bad[:3]


# ---------------------------------------------------------------------------
# 8. the one-generator tower at depth 3: coherence and Cauchy recovery


def test_criterion_08_tower_completion():
    tower = make_tower(1, 3)
    top = tower.levels[-1]
    g = free_quotient(1, 3).gens[0]
    bad = []
    for x in top.elements():
        fam = tower.lift(x)
        if fam.components[-1] != x:
            bad.append(("lift top", str(x)))
        for d, phi in enumerate(tower.maps):
            if phi.apply(fam.components[d + 1]) != fam.components[d]:
                bad.append(("square", d, str(x)))
    for d in range(tower.depth + 2):
        ef = tower.epsilon_family(d)
        for k, level in enumerate(tower.levels):
            if ef.components[k] != level.epsilon(d):
                bad.append(("epsilon family", d, k))
    seq = [tower.lift(g | top.epsilon(k)) for k in range(tower.depth + 2)]
    if seq[0] == seq[-1]:
        bad.append(("perturbation is trivial",))
    if cauchy_limit(seq) != tower.lift(g):
        bad.append(("cauchy recovery",))
    assert _verdict(8, "tower coherence and Cauchy recovery", not bad), bad[:3]


# ---------------------------------------------------------------------------
# 9. census bounds for reduced models


def test_criterion_09_counting_bounds():
    bad = []
    for n in range(3):
        for d in range(3):
            census = universal_frame(n, d).census
            if d >= 1 and census[0] != 2**n:
                bad.append((n, d, "first layer"))
            for j in range(1, len(census)):
                nu = universal_frame(n, j).model.frame.count_downsets() - 1
                if census[j] > 2**n * nu:
                    bad.append((n, d, j, "layer bound"))
        for model in enumerate_reduced_models(n, 1):
            if model.frame.n > 2**n:
                bad.append((n, "depth-1 model size"))
    assert _verdict(9, "reduced model counting bounds", not bad), bad


# ---------------------------------------------------------------------------
# 10. finite witness search under a wall clock


def test_criterion_10_fmp_search():
    bad = []
    t0 = time.perf_counter()
    witness = fmp_search(parse_formula("x & (1 \\ x) != 0"), 3, 100)
    sat_seconds = time.perf_counter() - t0
    if witness is None or witness.poset.n > 2 or not witness.replayed:
        bad.append(("witness", witness))
    t0 = time.perf_counter()
    refuted = fmp_search(parse_formula("x \\ x != 0"), 5, 1000)
    unsat_seconds = time.perf_counter() - t0
    if refuted is not None:
        bad.append(("refutation", refuted.describe()))
    if sat_seconds >= 10.0 or unsat_seconds >= 10.0:
        bad.append(("runtime", sat_seconds, unsat_seconds))
    assert _verdict(10, "finite witness search", not bad), bad
