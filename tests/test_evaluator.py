"""The term evaluator, ``run_program``, against an independent reference:
on one assignment, on many packed into one value (block j against the
run on assignment j alone), through the assignment sweep
``first_assignment``, on deep terms, and through fmp_search and the
slice checker.

The reference rebuilds each order from its cover pairs alone and recurses
on term structure: difference down-closes ``a & ~b`` and implication
quantifies over the points below, so it shares no code with
``run_program``, ``down_closure`` or ``up_closure``.
"""

import itertools
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coheyting import kripke
from coheyting import search as search_module
from coheyting import terms as terms_module
from coheyting.algebra import Algebra
from coheyting.cli import main
from coheyting.errors import SignatureMismatch, SizeCap
from coheyting.kripke import d_equivalent, make_model, truth_set, universal_frame
from coheyting.posets import MAX_CLOSURE, build_poset, enumerate_posets, poset_to_text
from coheyting.search import fmp_search
from coheyting.suites import CHECKERS
from coheyting.terms import (
    ONE,
    SWEEP_CHUNK,
    ZERO,
    Diff,
    Formula,
    Impl,
    Join,
    Meet,
    Var,
    dualize,
    eval_term,
    first_assignment,
    first_satisfying,
    pack_sweep,
    parse_formula,
    parse_term,
    print_term,
    run_program,
    slice_term,
)

POSETS = list(enumerate_posets(5))
NAMES = ("a", "b", "c")


class Reference:
    """Reflexive below-sets from cover pairs, and recursive evaluation."""

    def __init__(self, poset):
        self.n = poset.n
        self.full = (1 << poset.n) - 1
        lower = [[] for _ in range(poset.n)]
        for lo, hi in poset.covers:
            lower[hi].append(lo)
        self.below = []
        for p in range(poset.n):
            seen, todo = {p}, [p]
            while todo:
                for q in lower[todo.pop()]:
                    if q not in seen:
                        seen.add(q)
                        todo.append(q)
            self.below.append(seen)

    def eval(self, t, env):
        if t.op == "zero":
            return 0
        if t.op == "one":
            return self.full
        if t.op == "var":
            return env[t.name]
        a = self.eval(t.args[0], env)
        b = self.eval(t.args[1], env)
        if t.op == "join":
            return a | b
        if t.op == "meet":
            return a & b
        if t.op == "diff":
            lost = a & ~b
            return sum(
                1 << p for p in range(self.n)
                if any(lost >> q & 1 and p in self.below[q] for q in range(self.n))
            )
        return sum(
            1 << p for p in range(self.n)
            if all(not a >> q & 1 or b >> q & 1 for q in self.below[p])
        )


def terms(binary, names, depth):
    leaves = st.sampled_from([ZERO, ONE] + [Var(n) for n in names])
    if depth == 0:
        return leaves
    sub = terms(binary, names, depth - 1)
    ops = st.sampled_from([Join, Meet, binary])
    return st.one_of(leaves, st.builds(lambda op, a, b: op(a, b), ops, sub, sub))


def downsets(data, poset):
    pool = poset.all_downsets()
    return {n: data.draw(st.sampled_from(pool)) for n in NAMES}


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(POSETS), terms(Diff, NAMES, 4))
def test_eval_term_matches_reference(data, poset, t):
    env = downsets(data, poset)
    algebra = Algebra(poset)
    value = eval_term(t, algebra, {n: algebra.element(m) for n, m in env.items()})
    assert value.pts == Reference(poset).eval(t, env)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(POSETS), terms(Impl, NAMES, 4))
def test_truth_set_matches_reference(data, poset, t):
    env = downsets(data, poset)
    colors = [
        sum(1 << i for i, n in enumerate(NAMES) if env[n] >> p & 1)
        for p in range(poset.n)
    ]
    model = make_model(poset, NAMES, colors)
    assert truth_set(model, t) == Reference(poset).eval(t, env)


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]),
)
def test_d_equivalent_matches_reference_truth_sets(data, nd):
    n, d = nd
    names = [f"x{i + 1}" for i in range(n)]
    t1 = data.draw(terms(Impl, names, 4))
    t2 = data.draw(terms(Impl, names, 4))
    model = universal_frame(n, d).model
    ref = Reference(model.frame)
    # d_equivalent binds the sorted variables to the generators in order
    used = sorted(t1.variables() | t2.variables())
    env = {
        nm: sum(1 << p for p, c in enumerate(model.colors) if c >> i & 1)
        for i, nm in enumerate(used)
    }
    assert d_equivalent(t1, t2, n, d) == (ref.eval(t1, env) == ref.eval(t2, env))


@pytest.mark.parametrize("n, d", [(1, 3), (2, 1), (2, 2), (3, 1)])
def test_d_equivalent_matches_truth_sets_on_the_universal_model(n, d):
    # d_equivalent binds the sorted variables to the generators in order:
    # the model keeps the first len(used) colour bits under those names
    rng = random.Random(n * 10 + d)
    model = universal_frame(n, d).model
    names = [f"x{i + 1}" for i in range(n)]
    for _ in range(60):
        t1, t2 = (random_term(rng, names, 3, Impl) for _ in range(2))
        used = sorted(t1.variables() | t2.variables())
        low = (1 << len(used)) - 1
        renamed = make_model(model.frame, used, [c & low for c in model.colors])
        same = truth_set(renamed, t1) == truth_set(renamed, t2)
        assert d_equivalent(t1, t2, n, d) == same, (print_term(t1), print_term(t2))


def test_d_equivalent_builds_no_free_quotient():
    # a node cap no other test uses, so the stage is cold either way
    t1, t2 = parse_term("x1 -> x2"), parse_term("(x3 -> x1) -> x2")
    before = kripke._free_quotient.cache_info()
    assert not d_equivalent(t1, t2, 3, 1, max_nodes=19_997)
    after = kripke._free_quotient.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


# perfbench/workloads.py NON_LAWS with x, y; the witnesses are the ones
# the recursive Element evaluator found
NON_LAW_WITNESSES = [
    ("x & (1 \\ x) != 0", "points: p0 p1\ncovers: p0<p1\n", {"x": "{p0}"}),
    ("x \\ (1 \\ (1 \\ x)) != 0", "points: p0 p1\ncovers: p0<p1\n", {"x": "{p0}"}),
    (
        "(x \\ y) & (y \\ x) != 0",
        "points: p0 p1 p2\ncovers: p0<p1 p0<p2\n",
        {"x": "{p0,p1}", "y": "{p0,p2}"},
    ),
    (
        "(x & y) \\ (x \\ (x \\ y)) != 0",
        "points: p0 p1\ncovers: p0<p1\n",
        {"x": "{p0,p1}", "y": "{p0}"},
    ),
    (
        "((1 \\ x) & (1 \\ y)) \\ (1 \\ (x | y)) != 0",
        "points: p0 p1 p2\ncovers: p0<p1 p0<p2\n",
        {"x": "{p0,p1}", "y": "{p0,p2}"},
    ),
    (
        "(x \\ y) & y != 0",
        "points: p0 p1\ncovers: p0<p1\n",
        {"x": "{p0,p1}", "y": "{p0}"},
    ),
    (
        "x \\ (x \\ y) != 0 && y \\ x != 0",
        "points: p0 p1\ncovers: p0<p1\n",
        {"x": "{p0}", "y": "{p0,p1}"},
    ),
    (
        "(x | y) \\ (x & y) != 0 && (x \\ y) & (y \\ x) = 0",
        "points: p0\n",
        {"x": "{}", "y": "{p0}"},
    ),
    (
        "(1 \\ x) & (1 \\ (1 \\ x)) != 0",
        "points: p0 p1 p2\ncovers: p0<p1 p0<p2\n",
        {"x": "{p0,p1}"},
    ),
    (
        "x & (y \\ x) != 0",
        "points: p0 p1\ncovers: p0<p1\n",
        {"x": "{p0}", "y": "{p0,p1}"},
    ),
]


@pytest.mark.parametrize("src, poset_text, assignment", NON_LAW_WITNESSES)
def test_fmp_search_witnesses_pinned(src, poset_text, assignment):
    witness = fmp_search(parse_formula(src), 5, 300)
    assert poset_to_text(witness.poset) == poset_text
    assert {n: str(v) for n, v in witness.assignment.items()} == assignment
    assert witness.replayed


# ---------------------------------------------------------------------------
# packed values and the assignment sweep


def random_term(rng, names, depth, binary=Diff):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([ZERO, ONE] + [Var(n) for n in names] * 2)
    op = rng.choice([Join, Meet, binary, binary])
    return op(*(random_term(rng, names, depth - 1, binary) for _ in range(2)))


@pytest.fixture(scope="module")
def sweep_cases():
    """Seeded formulas of 1-3 atoms over 0-3 variables on every poset of at
    most 4 points, with the index and tuple of the first assignment of
    ``itertools.product`` order that satisfies them under the reference."""
    cases = []
    for index, poset in enumerate(enumerate_posets(4)):
        rng = random.Random(index)
        ref, masks = Reference(poset), poset.all_downsets()
        for nvars in range(4):
            names = list(NAMES[:nvars])
            for _ in range(3):
                atoms = [
                    (random_term(rng, names, 3), rng.random() < 0.5)
                    for _ in range(rng.randint(1, 3))
                ]
                first = (None, None)
                for k, combo in enumerate(itertools.product(masks, repeat=nvars)):
                    env = dict(zip(names, combo))
                    if all((ref.eval(t, env) == 0) == eq for t, eq in atoms):
                        first = (k, combo)
                        break
                codes = [(t.code, eq) for t, eq in atoms]
                cases.append((poset, masks, codes, names, first))
    return cases


@pytest.mark.parametrize("width", [5, 64, SWEEP_CHUNK])
def test_first_assignment_matches_reference(sweep_cases, width, monkeypatch):
    # narrow chunks put chunk boundaries, and periods longer than a chunk,
    # inside the small sweeps
    monkeypatch.setattr(terms_module, "SWEEP_CHUNK", width)
    found = 0
    for poset, masks, atoms, names, (k, combo) in sweep_cases:
        total = len(masks) ** len(names)
        for limit in (0, 1, width - 1, width, width + 1, 3 * width + 5, total + 1, None):
            expect = combo if k is not None and (limit is None or k < limit) else None
            got = first_assignment(atoms, poset, masks, names, limit)
            assert got == expect, (poset, atoms, limit)
        found += k is not None
    assert len(sweep_cases) == 24 * 12 and 0 < found < len(sweep_cases)


@pytest.fixture(scope="module")
def multi_cases():
    """Every poset of at most 4 points as one sequence of cases, the empty
    order among them, with pinned formulas whose witnesses lie in later
    cases or nowhere, and seeded ones of 1-3 atoms over 0-3 variables.
    Each formula comes with the index of the first satisfying assignment
    of each case under the reference, or None."""
    cases = [(p, p.all_downsets()) for p in enumerate_posets(4)]
    empty = build_poset([])
    # the second case of the third chunk of 0-variable sweeps from width 1
    cases.insert(4, (empty, empty.all_downsets()))
    refs = [Reference(order) for order, _ in cases]
    pinned = ["1 = 0", "1 != 0", "x \\ x != 0", f"{slice_term(3)} != 0"]
    pinned += [src for src, _, _ in NON_LAW_WITNESSES[:3]]
    atom_lists = [list(parse_formula(src).atoms) for src in pinned]
    rng = random.Random(2024)
    for nvars in range(4):
        for _ in range(3):
            atom_lists.append([
                (random_term(rng, NAMES[:nvars], 3), rng.random() < 0.5)
                for _ in range(rng.randint(1, 3))
            ])
    formulas = []
    for atoms in atom_lists:
        names = sorted(Formula(tuple(atoms)).variables())
        firsts = []
        for ref, (_, masks) in zip(refs, cases):
            first = None
            for k, combo in enumerate(itertools.product(masks, repeat=len(names))):
                env = dict(zip(names, combo))
                if all((ref.eval(t, env) == 0) == eq for t, eq in atoms):
                    first = k
                    break
            firsts.append(first)
        formulas.append(([(t.code, eq) for t, eq in atoms], names, firsts))
    return cases, formulas


@pytest.mark.parametrize("width", [5, 64, SWEEP_CHUNK])
def test_multi_case_sweep_matches_reference(multi_cases, width, monkeypatch):
    # one stream of 4-bit blocks over all the cases: chunks straddle cases,
    # and the first satisfying one is found as the reference finds it,
    # case by case in itertools.product order
    monkeypatch.setattr(terms_module, "SWEEP_CHUNK", width)
    cases, formulas = multi_cases
    found_in = set()
    for atoms, names, firsts in formulas:
        for limit in (1, 2, width + 1, 300, None):
            expect = None
            for case, k in zip(cases, firsts):
                if k is not None and (limit is None or k < limit):
                    masks = case[1]
                    expect = (case, tuple(itertools.product(masks, repeat=len(names)))[k])
                    found_in.add(cases.index(case))
                    break
            chunks = pack_sweep(cases, len(names), limit, 4, 1)
            got = first_satisfying(atoms, chunks, names)
            assert got == expect, (atoms, names, limit)
            assert got is None or got[0] is expect[0]
    # witnesses lie past the first case, and some formulas have none
    assert max(found_in) > 3 and any(all(k is None for k in f[2]) for f in formulas)


def test_first_assignment_rejects_implication():
    chain = build_poset(["p0", "p1"], [("p0", "p1")])
    code = parse_term("x -> 0").code
    with pytest.raises(SignatureMismatch):
        first_assignment([(code, True)], chain, chain.all_downsets(), ["x"])


@pytest.mark.parametrize(
    "src, names, expect",
    [("1 = 0", [], ()), ("x \\ x != 0", ["x"], None), ("x = 0", ["x"], (0,))],
)
def test_first_assignment_on_the_empty_order(src, names, expect):
    empty = build_poset([])
    atoms = [(t.code, eq) for t, eq in parse_formula(src).atoms]
    assert first_assignment(atoms, empty, empty.all_downsets(), names) == expect


@pytest.mark.parametrize("width", [1, 2, 5, 64])
def test_packed_blocks_match_single_runs(width):
    # block j of a packed run is the run on assignment j alone; difference
    # and implication close one point column at a time when width > 1
    rng = random.Random(width)
    for poset in enumerate_posets(4):
        n, pool = poset.n, poset.all_downsets()
        rep = sum(1 << j * n for j in range(width))
        for binary in (Diff, Impl):
            for _ in range(4):
                code = random_term(rng, NAMES, 3, binary).code
                envs = [{v: rng.choice(pool) for v in NAMES} for _ in range(width)]
                packed = {v: sum(e[v] << j * n for j, e in enumerate(envs)) for v in NAMES}
                value = run_program(code, packed, poset, rep)
                for j, env in enumerate(envs):
                    assert value >> j * n & poset.full == run_program(code, env, poset)


def scalar_slice_vanishes(spec, d):
    """The former route: every assignment through ``run_program``."""
    t = slice_term(d + 1)
    names = sorted(t.variables())
    return not any(
        run_program(t.code, dict(zip(names, combo)), spec)
        for combo in itertools.product(spec.all_downsets(), repeat=len(names))
    )


def test_slice_checker_matches_scalar_route():
    small = [p for p in enumerate_posets(7) if p.count_downsets() <= 8]
    assert len(small) == 35
    for poset in small:
        algebra = Algebra(poset)
        for d in range(5):
            holds = (algebra.dim_algebra() <= d) == scalar_slice_vanishes(poset, d)
            assert (CHECKERS["slice"](algebra, {}, {"d": str(d)}) is None) == holds


# the negated s2 law (a | b) \\ c = (a \\ c) | (b \\ c) over x, y, z
S2_LAW = (
    "(((x | y) \\ z) \\ ((x \\ z) | (y \\ z)))"
    " | (((x \\ z) | (y \\ z)) \\ ((x | y) \\ z)) != 0"
)


def test_sweep_memory_is_bounded():
    formula = parse_formula(S2_LAW)
    list(enumerate_posets(4))  # the enumeration memoizes its classes
    tracemalloc.start()
    try:
        assert fmp_search(formula, 4, 10**12) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


# the s2 laws of the search benchmark over a, b, c: negated, each is
# searched under a plain renaming and under every substitution of one
# variable by a binary term in it and another variable
S2_LAWS = [
    ("a", "(a \\ b) | (a & b)", "="),
    ("(a | b) \\ c", "(a \\ c) | (b \\ c)", "="),
    ("a \\ (b | c)", "(a \\ b) \\ c", "="),
    ("a \\ (a \\ b)", "(a & b) \\ (a \\ b)", "="),
    ("a \\ ((a \\ b) & b)", "a", "="),
    ("a \\ (a \\ b)", "b", "<="),
]


def s2_law_instances():
    out = []
    for lhs, rhs, rel in S2_LAWS:
        used = sorted(set(re.findall(r"\b[abc]\b", lhs + rhs)))
        names = dict(zip(used, ("x", "y", "z")))
        substitutions = [names]
        for target in used:
            for op in ("|", "&", "\\"):
                for partner in used:
                    if partner != target:
                        subst = dict(names)
                        subst[target] = f"({names[target]} {op} {names[partner]})"
                        substitutions.append(subst)
        for subst in substitutions:
            left, right = (
                re.sub(r"\b[abc]\b", lambda m: subst[m.group()], text)
                for text in (lhs, rhs)
            )
            if rel == "<=":
                out.append(f"({left}) \\ ({right}) != 0")
            else:
                out.append(f"(({left}) \\ ({right})) | (({right}) \\ ({left})) != 0")
    return out


def per_poset_search(formula, max_points, limit):
    """The former route: one ``first_assignment`` sweep per poset."""
    names = sorted(formula.variables())
    atoms = [(t.code, eq) for t, eq in formula.atoms]
    for poset in enumerate_posets(max_points):
        combo = first_assignment(atoms, poset, poset.downsets(), names, limit)
        if combo is not None:
            return poset, dict(zip(names, combo))
    return None


@pytest.mark.parametrize("max_points", [4, 5])
def test_fmp_search_matches_a_per_poset_loop(max_points):
    laws = s2_law_instances()
    assert len(laws) == 66
    non_laws = [src for src, _, _ in NON_LAW_WITNESSES]
    for src in laws + non_laws:
        formula = parse_formula(src)
        witness = fmp_search(formula, max_points, 300)
        expect = per_poset_search(formula, max_points, 300)
        assert (witness is None) == (src in laws) == (expect is None), src
        if witness is not None:
            assert witness.poset == expect[0], src
            assert {n: e.pts for n, e in witness.assignment.items()} == expect[1]
            assert witness.replayed


def test_plan_memo_is_bounded(monkeypatch):
    # 182,120 assignments of 3 + 5 + 1 packed blocks each: past the bound
    # of the kept plans, which keep a prefix of them and nothing more
    plans = search_module._Plans()
    monkeypatch.setattr(search_module, "_PLANS", plans)
    formula = parse_formula(S2_LAW)
    list(enumerate_posets(5))
    assert fmp_search(formula, 5, 10**12) is None
    kept = plans.blocks
    assert MAX_CLOSURE - SWEEP_CHUNK * 9 < kept <= MAX_CLOSURE and not plans.complete
    tracemalloc.start()
    try:
        assert fmp_search(formula, 5, 10**12) is None
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plans.blocks == kept
    assert retained < 32 * 1024, retained
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("bound, kept", [(0, 0), (4096, 1), (30_000, 3), (80_000, 4), (111_824, 6)])
def test_kept_chunks_are_a_prefix_of_the_sweep(bound, kept, monkeypatch):
    # the sweep (4 points, 3 variables, no limit) has chunks of 512, 1,024,
    # 2,048, 4,096, 4,096 and 2,202 assignments, 8 packed blocks each; at
    # 80,000 the fifth is dropped, and the last, which would fit, is too
    formula = parse_formula(S2_LAW)
    full = search_module._Plans()
    monkeypatch.setattr(search_module, "_PLANS", full)
    assert fmp_search(formula, 4, 10**12) is None
    plans = search_module._Plans()
    monkeypatch.setattr(search_module, "_PLANS", plans)
    monkeypatch.setattr(search_module, "MAX_CLOSURE", bound)
    for _ in range(2):
        assert fmp_search(formula, 4, 10**12) is None
    key = (4, 3, 2**12)  # the limit clipped to 4 points' most assignments
    chunks = plans.plans.get(key, [])
    assert [(c.width, c.stop) for c in chunks] == [
        (c.width, c.stop) for c in full.plans[key][:kept]
    ]
    assert plans.blocks == sum(c.width for c in chunks) * 8 <= bound
    assert plans.complete == ({key} if kept == 6 else set())


def test_a_plan_goes_on_where_an_early_witness_stopped(monkeypatch):
    # a witness in the first chunk of (5 points, 3 variables, 300) keeps
    # that chunk alone; a refutation then packs the rest from its end, and
    # the plan is the one a refutation on its own builds
    formula = parse_formula(S2_LAW)
    full = search_module._Plans()
    monkeypatch.setattr(search_module, "_PLANS", full)
    assert fmp_search(formula, 5, 300) is None
    plans = search_module._Plans()
    monkeypatch.setattr(search_module, "_PLANS", plans)
    early = fmp_search(parse_formula("(x \\ y) & (y \\ z) != 0"), 5, 300)
    assert early is not None and len(plans.plans[(5, 3, 300)]) == 1
    assert fmp_search(formula, 5, 300) is None

    def layout(chunks):
        return [(c.width, c.stop, [(case[0], k, r) for case, k, r in c.runs]) for c in chunks]

    assert layout(plans.plans[(5, 3, 300)]) == layout(full.plans[(5, 3, 300)])
    assert plans.complete == full.complete == {(5, 3, 300)}


def test_limits_past_every_poset_share_one_plan(monkeypatch):
    # x \ x != 0 has no witness; at 4 points its one variable has at most
    # 2**4 values, so every limit from 16 up sweeps the same 172 assignments
    plans = search_module._Plans()
    monkeypatch.setattr(search_module, "_PLANS", plans)
    formula = parse_formula("x \\ x != 0")
    for limit in (4096, 10**6, 10**12):
        assert fmp_search(formula, 4, limit) is None
        assert plans.blocks == 1032 and list(plans.plans) == [(4, 1, 16)]
    assert plans.complete == {(4, 1, 16)}
    witness = parse_formula("x != 0 && x \\ y = 0")
    found = [fmp_search(witness, 4, limit).describe() for limit in (256, 4096, 10**12)]
    assert found[0] == found[1] == found[2] and list(plans.plans)[1:] == [(4, 2, 256)]


def test_fmp_search_past_the_enumeration_cap_does_no_work(monkeypatch):
    plans = search_module._Plans()
    monkeypatch.setattr(search_module, "_PLANS", plans)
    with pytest.raises(SizeCap):
        fmp_search(parse_formula("x \\ x != 0"), 8, 300)
    assert plans.plans == {} and plans.blocks == 0


DEPTH = 3000


def test_deep_terms_need_no_recursion_limit():
    chain = build_poset(["p0", "p1"], [("p0", "p1")])
    algebra = Algebra(chain)
    x, y = Var("x"), Var("y")
    diff, meet = x, x
    for _ in range(DEPTH):
        diff = Diff(diff, y)
        meet = Meet(meet, y)
    assert diff.variables() == meet.variables() == {"x", "y"}
    env = {"x": algebra.top(), "y": algebra.element(1)}
    assert str(eval_term(diff, algebra, env)) == "{p0,p1}"
    assert str(eval_term(meet, algebra, env)) == "{p0}"
    # x holds at p0 and p1, y at p0 only: x -> y holds at p0 only, and
    # each further "-> y" flips between that and the whole frame
    model = make_model(chain, ("x", "y"), [0b11, 0b01])
    impl = x
    for _ in range(DEPTH):
        impl = Impl(impl, y)
    assert impl.variables() == {"x", "y"}
    assert truth_set(model, impl) == 0b11
    assert truth_set(model, Impl(impl, y)) == 0b01


def test_cli_evaluates_a_deep_difference(capsys, tmp_path):
    path = tmp_path / "chain.poset"
    path.write_text("points: a b\ncovers: a<b\n")
    src = " \\ ".join(["x"] * (DEPTH + 1))
    code = main(["terms", "eval", src, str(path), "--let", "x={a}"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out.strip() == "{}"


def _deep_inputs():
    # source text and the term it must parse to: DEPTH parentheses around
    # x, a right-nested '->' chain and a left-nested '\\' chain
    x = Var("x")
    impl, diff = x, x
    for _ in range(DEPTH):
        impl = Impl(x, impl)
        diff = Diff(diff, x)
    return {
        "parens": ("(" * DEPTH + "x" + ")" * DEPTH, x),
        "impl": (" -> ".join(["x"] * (DEPTH + 1)), impl),
        "diff": (" \\ ".join(["x"] * (DEPTH + 1)), diff),
    }


DEEP = _deep_inputs()


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_parse_print_dualize(shape):
    src, expected = DEEP[shape]
    t = parse_term(src)
    assert t == expected
    assert parse_term(print_term(t)) == t
    assert dualize(dualize(t)) == t


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_deep_terms_hash_compare_and_print(shape):
    src, expected = DEEP[shape]
    t, dual = parse_term(src), dualize(expected)
    assert hash(t) == hash(expected) and t == expected
    assert repr(t) == f"Term(code={t.code!r}, has_diff={t.has_diff}, has_impl={t.has_impl})"
    assert str(t) == print_term(expected) and str(dual) == print_term(dual)
    assert hash(Formula(((t, True), (dual, False)))) == hash(
        Formula(((expected, True), (dualize(t), False)))
    )


# operators in each chain of the linear-time test
CHAIN = 60_000


def test_long_chains_parse_and_dualize_in_linear_time():
    # a left-nested '\\' chain, a '->' chain over distinct variables and a
    # right-nested parenthesized '|' chain; copying the code at every
    # operator would be quadratic, tens of seconds at this length
    sources = [
        " \\ ".join(["x"] * (CHAIN + 1)),
        " -> ".join(f"x{i}" for i in range(CHAIN + 1)),
        "x | (" * CHAIN + "x" + ")" * CHAIN,
    ]
    start = time.perf_counter()
    for src in sources:
        t = parse_term(src)
        assert len(dualize(t).code) == len(t.code) == 2 * CHAIN + 1
    assert time.perf_counter() - start < 5


IMPL_CHAIN, DIFF_CHAIN = DEEP["impl"][0], DEEP["diff"][0]


@pytest.mark.parametrize(
    "argv, out",
    [
        (["terms", "parse", DEEP["parens"][0]], "x"),
        # the dual of a left-nested difference chain is the '->' chain
        (["terms", "dual", DIFF_CHAIN], IMPL_CHAIN),
        (["kripke", "force", "{model}", "*", IMPL_CHAIN], "true"),
        (["equiv", "1", "1", IMPL_CHAIN, "1"], "equivalent"),
    ],
    ids=["parse", "dual", "force", "equiv"],
)
def test_cli_handles_deep_terms(argv, out, capsys, tmp_path):
    path = tmp_path / "model.poset"
    path.write_text("points: w0 w1\ncovers: w0<w1\ncolors: w0:{x} w1:{}\n")
    code = main([str(path) if a == "{model}" else a for a in argv])
    printed, err = capsys.readouterr()
    assert code == 0, err
    assert printed.strip() == out
