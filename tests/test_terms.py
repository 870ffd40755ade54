"""Term grammar, printing, dualization and evaluation.

Precedence and associativity are pinned by exact parse shapes and by
printed strings; the printer is checked to be a right inverse of the
parser on randomly generated terms.  The outcome of every short token
string, a printed term or an error with its position, is pinned by digest.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coheyting.algebra import Algebra
from coheyting.errors import (
    CoheytingError,
    SignatureMismatch,
    TermSyntaxError,
    UnboundVariable,
)
from coheyting.fixtures import load_fixture
from coheyting.kripke import make_model, truth_set
from coheyting.posets import build_poset
from coheyting.suites import random_term
from coheyting.terms import (
    Diff,
    Impl,
    Join,
    Meet,
    ONE,
    Term,
    Var,
    ZERO,
    dualize,
    eval_formula,
    eval_term,
    parse_formula,
    parse_term,
    print_term,
    slice_term,
)


def test_precedence_layers():
    assert parse_term("a | b & c") == Join(Var("a"), Meet(Var("b"), Var("c")))
    assert parse_term("a & b | c") == Join(Meet(Var("a"), Var("b")), Var("c"))
    assert parse_term("a | b \\ c") == Diff(Join(Var("a"), Var("b")), Var("c"))
    assert parse_term("a -> b | c") == Impl(Var("a"), Join(Var("b"), Var("c")))


def test_difference_associates_left():
    assert parse_term("a \\ b \\ c") == Diff(Diff(Var("a"), Var("b")), Var("c"))


def test_implication_associates_right():
    assert parse_term("a -> b -> c") == Impl(Var("a"), Impl(Var("b"), Var("c")))


def test_mixed_connectives_at_top_level_rejected():
    with pytest.raises(TermSyntaxError):
        parse_term("a \\ b -> c")
    with pytest.raises(SignatureMismatch):
        parse_term("(a \\ b) -> c")


def test_signatures_never_mix_even_nested():
    with pytest.raises(SignatureMismatch):
        parse_term("a -> b \\ c")
    with pytest.raises(SignatureMismatch):
        parse_term("a -> (b \\ c)")


def test_constants_and_idents():
    assert parse_term("0") == ZERO
    assert parse_term("1") == ONE
    assert parse_term("x_12") == Var("x_12")


def test_syntax_errors_carry_positions():
    with pytest.raises(TermSyntaxError) as err:
        parse_term("a | ")
    assert err.value.position == 4
    with pytest.raises(TermSyntaxError) as err:
        parse_term("a ? b")
    assert err.value.position == 2
    with pytest.raises(TermSyntaxError) as err:
        parse_term("a b")
    assert err.value.position == 2
    with pytest.raises(TermSyntaxError):
        parse_term("(a | b")


def test_printer_uses_minimal_parentheses():
    cases = {
        "a | b & c": "a | b & c",
        "(a | b) & c": "(a | b) & c",
        "a \\ b \\ c": "a \\ b \\ c",
        "a \\ (b \\ c)": "a \\ (b \\ c)",
        "a -> b -> c": "a -> b -> c",
        "(a -> b) -> c": "(a -> b) -> c",
        "(a & b) | c": "a & b | c",
    }
    for src, printed in cases.items():
        assert print_term(parse_term(src)) == printed


def test_slice_term_shapes():
    assert print_term(slice_term(0)) == "1"
    assert print_term(slice_term(1)) == "(1 \\ x1) & x1"
    assert print_term(slice_term(2)) == "((1 \\ x1) & x1 \\ x2) & x2"
    assert slice_term(3).variables() == {"x1", "x2", "x3"}


def test_dualize_involution_and_shape():
    t = parse_term("(a \\ b) | 0 & c")
    d = dualize(t)
    assert d == parse_term("(b -> a) & (1 | c)")
    assert dualize(d) == t
    assert dualize(parse_term("a \\ b")) == parse_term("b -> a")


def test_signature_flags():
    assert parse_term("a | b").signature == "lattice"
    assert parse_term("a \\ b").signature == "difference"
    assert parse_term("a -> b").signature == "implication"
    with pytest.raises(SignatureMismatch):
        Diff(Impl(Var("a"), Var("b")), Var("c"))


def test_eval_on_three_point_chain():
    poset, _ = load_fixture("c2")
    algebra = Algebra(poset)
    top = algebra.top()
    p0 = algebra.element({"p0"})
    env = {"a": top, "b": p0}
    assert eval_term(parse_term("a \\ b"), algebra, env) == top
    assert eval_term(parse_term("b \\ a"), algebra, env).is_bottom()
    assert eval_term(parse_term("a & b"), algebra, env) == p0
    assert eval_term(parse_term("1 \\ 0"), algebra, {}) == top


def test_eval_rejects_implication_and_unbound():
    poset, _ = load_fixture("a2")
    algebra = Algebra(poset)
    with pytest.raises(SignatureMismatch):
        eval_term(parse_term("a -> b"), algebra, {"a": algebra.top()})
    with pytest.raises(UnboundVariable):
        eval_term(parse_term("a | b"), algebra, {"a": algebra.top()})


def test_formula_parse_eval_and_str():
    f = parse_formula("x \\ y = 0 && x != 0")
    assert len(f.atoms) == 2
    assert f.variables() == {"x", "y"}
    assert str(f) == "x \\ y = 0 && x != 0"
    poset, _ = load_fixture("c2")
    algebra = Algebra(poset)
    top = algebra.top()
    p0 = algebra.element({"p0"})
    assert eval_formula(f, algebra, {"x": p0, "y": top})
    assert not eval_formula(f, algebra, {"x": top, "y": p0})
    assert not eval_formula(f, algebra, {"x": algebra.bottom(), "y": top})


def test_formula_errors():
    with pytest.raises(TermSyntaxError):
        parse_formula("x = 1")
    with pytest.raises(TermSyntaxError):
        parse_formula("x")
    with pytest.raises(TermSyntaxError):
        parse_formula("x = 0 y != 0")


def _outcome(parse, src):
    try:
        return f"ok {parse(src)}"
    except CoheytingError as exc:
        return f"{type(exc).__name__} {exc}"


@pytest.mark.parametrize(
    "alphabet, lengths, expected",
    [
        (
            ("a", "b", "0", "1", "|", "&", "\\", "->", "(", ")", "=", "!=", "&&"),
            range(5),
            (61882, "d48983188a101f0e"),
        ),
        (("a", "&", "|", "\\", "->", "(", ")"), [5], (33614, "a78d890d2cfac05c")),
    ],
)
def test_parse_outcomes_pinned(alphabet, lengths, expected):
    # every token string up to the given lengths, through both parsers: the
    # printed result, or the error class and message (with its position)
    digest = hashlib.sha256()
    count = 0
    for k in lengths:
        for toks in itertools.product(alphabet, repeat=k):
            src = " ".join(toks)
            for parse in (parse_term, parse_formula):
                digest.update((_outcome(parse, src) + "\n").encode())
                count += 1
    assert (count, digest.hexdigest()[:16]) == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["diff", "impl", "lattice"]))
def test_print_parse_round_trip(seed, kind):
    rng = random.Random(seed)
    t = random_term(rng, ("a", "b", "c"), depth=4, kind=kind)
    assert parse_term(print_term(t)) == t


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["diff", "impl", "lattice"]))
def test_variables_are_the_strings_of_the_code(seed, kind):
    rng = random.Random(seed)
    t = random_term(rng, ("a", "b", "c"), depth=4, kind=kind)
    assert t.variables() == frozenset(c for c in t.code if type(c) is str)


def test_constant_terms_have_no_variables():
    for src in ("0", "1", "0 | 1 & 0", "1 \\ 0 \\ 1", "(0 -> 1) -> 0"):
        assert parse_term(src).variables() == frozenset()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_dualize_is_involution_on_random_terms(seed):
    rng = random.Random(seed)
    t = random_term(rng, ("a", "b"), depth=4, kind="diff")
    assert dualize(dualize(t)) == t


_BUILD = {"join": Join, "meet": Meet, "diff": Diff, "impl": Impl}


def rebuild(t):
    """The term again from its tree view alone, through the constructors."""
    if t.op == "var":
        return Var(t.name)
    if not t.args:
        return ZERO if t.op == "zero" else ONE
    a, b = t.args
    return _BUILD[t.op](rebuild(a), rebuild(b))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["diff", "impl", "lattice"]))
def test_tree_view_rebuilds_the_term(seed, kind):
    rng = random.Random(seed)
    t = random_term(rng, ("a", "b", "c"), depth=4, kind=kind)
    again = rebuild(t)
    assert again == t and (again.has_diff, again.has_impl) == (t.has_diff, t.has_impl)


def test_tree_view_of_leaves_and_operators():
    for leaf, op in ((ZERO, "zero"), (ONE, "one"), (Var("x"), "var")):
        assert (leaf.op, leaf.args) == (op, ())
    assert Var("x").name == "x" and ZERO.name is None
    t = parse_term("(a -> b) & c")
    assert (t.op, t.name, t.args) == ("meet", None, (parse_term("a -> b"), Var("c")))
    assert t.args[0].has_impl and not t.args[1].has_impl


def test_term_flags_come_from_its_code():
    # a Term built from a bare code carries its signature, so the guards
    # on it hold; a mixed code is refused
    diff = Term(parse_term("x \\ y").code)
    assert (diff.has_diff, diff.has_impl, diff.signature) == (True, False, "difference")
    assert Term(parse_term("x -> y").code).signature == "implication"
    assert dualize(diff).signature == "implication"
    model = make_model(build_poset(["a"]), ("x", "y"), [0])
    with pytest.raises(SignatureMismatch):
        truth_set(model, diff)
    with pytest.raises(SignatureMismatch):
        Term(("x", "y", -5, "z", -6))
