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
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coheyting import terms as terms_module
from coheyting.algebra import Algebra
from coheyting.cli import main
from coheyting.errors import SignatureMismatch
from coheyting.kripke import d_equivalent, make_model, truth_set, universal_frame
from coheyting.posets import build_poset, enumerate_posets, poset_to_text
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
