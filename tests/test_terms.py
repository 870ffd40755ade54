"""Term grammar, printing, dualization and evaluation.

Precedence and associativity are pinned by exact parse shapes and by
printed strings; the printer is checked to be a right inverse of the
parser on randomly generated terms.  The outcome of every short token
string, a printed term or an error with its position, is pinned by digest,
and the parsers are compared with a character-at-a-time reference on
random sources and on one long source.
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
    Formula,
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
from coheyting.terms import _DIFF, _IMPL, _JOIN, _MEET, _ONE, _ZERO


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


# ---------------------------------------------------------------------------
# the parser as it was before the compiled token pattern: one character at a
# time, each token with its kind and position; kept as the reference


def _ref_tokenize(src):
    toks = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if src.startswith("&&", i):
            toks.append(("&&", "&&", i))
            i += 2
        elif src.startswith("->", i):
            toks.append(("->", "->", i))
            i += 2
        elif src.startswith("!=", i):
            toks.append(("!=", "!=", i))
            i += 2
        elif c in {"|", "&", "\\", "(", ")", "=", "0", "1"}:
            toks.append((c, c, i))
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("ident", src[i:j], i))
            i = j
        else:
            raise TermSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


def _ref_term(toks, i):
    code = []
    outer = []
    imps, diff, join, meet = 0, False, False, False
    while True:
        kind, text, pos = toks[i]
        i += 1
        if kind == "(":
            outer.append((imps, diff, join, meet))
            imps, diff, join, meet = 0, False, False, False
            continue
        if kind not in ("ident", "0", "1"):
            raise TermSyntaxError(f"unexpected token {text or 'end of input'!r}", pos)
        code.append(text if kind == "ident" else _ZERO if kind == "0" else _ONE)
        while True:
            if meet:
                code.append(_MEET)
            kind, text, pos = toks[i]
            meet = kind == "&"
            if meet:
                break
            if join:
                code.append(_JOIN)
            join = kind == "|"
            if join:
                break
            if diff:
                code.append(_DIFF)
                if kind == "\\":
                    break
            elif kind == "\\":
                diff = True
                break
            elif kind == "->":
                imps += 1
                break
            code += [_IMPL] * imps
            if not outer:
                return Term(tuple(code)), i
            if kind != ")":
                raise TermSyntaxError(f"expected ')', found {text!r}", pos)
            i += 1
            imps, diff, join, meet = outer.pop()
        i += 1


def ref_parse_term(src):
    toks = _ref_tokenize(src)
    t, i = _ref_term(toks, 0)
    kind, text, pos = toks[i]
    if kind != "end":
        raise TermSyntaxError(f"trailing input {text!r}", pos)
    return t


def ref_parse_formula(src):
    toks = _ref_tokenize(src)
    i = 0
    atoms = []
    while True:
        t, i = _ref_term(toks, i)
        kind, text, pos = toks[i]
        if kind == "=":
            eq = True
        elif kind == "!=":
            eq = False
        else:
            raise TermSyntaxError(f"expected '=' or '!=', found {text!r}", pos)
        kind, text, pos = toks[i + 1]
        if kind != "0":
            raise TermSyntaxError(f"atoms compare against 0, found {text!r}", pos)
        atoms.append((t, eq))
        kind, text, pos = toks[i + 2]
        i += 3
        if kind == "&&":
            continue
        if kind == "end":
            break
        raise TermSyntaxError(f"trailing input {text!r}", pos)
    return Formula(tuple(atoms))


def _full_outcome(parse, src):
    """The code or atoms parsed, or the error class, message and position."""
    try:
        out = parse(src)
    except CoheytingError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)
    return "ok", out.code if isinstance(out, Term) else [(t.code, eq) for t, eq in out.atoms]


# every operator, a lone "-", "!" and ">", the digits and "_", letters and
# non-decimal numerics beyond ASCII, Unicode spaces and a stray "$"
PIECES = (
    "&&", "->", "!=", "|", "&", "\\", "(", ")", "=", "-", "!", ">",
    *"0123456789", "_", "a", "b", "x1", "é", "Ω", "ǅ", "²", "½", "٣",
    " ", "\t", "\n", "\xa0", "\u2003", "$",
)


def _random_source(rng):
    if rng.random() < 0.5:
        return "".join(rng.choice(PIECES) for _ in range(rng.randrange(12)))
    # a printed term or formula with a few pieces inserted, dropped or swapped
    terms = [print_term(random_term(rng, ["a", "b", "é1", "_Ω"], 3, kind))
             for kind in rng.sample(["diff", "impl", "lattice"], 2)]
    src = rng.choice([terms[0], f"{terms[0]} = 0 && {terms[1]} != 0"])
    for _ in range(rng.randrange(3)):
        k = rng.randrange(len(src) + 1)
        src = src[:k] + rng.choice(["", rng.choice(PIECES)]) + src[k + rng.randrange(2):]
    return src


@pytest.mark.parametrize("seed", range(4))
def test_parsers_match_the_character_loop_reference(seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(5000):
        src = _random_source(rng)
        for parse, ref in ((parse_term, ref_parse_term), (parse_formula, ref_parse_formula)):
            got = _full_outcome(parse, src)
            assert got == _full_outcome(ref, src), src
            kinds.add(got[0])
    assert kinds >= {"ok", "TermSyntaxError"}


def _long_source():
    # about 100,000 characters of multi-character identifiers and runs of
    # whitespace, and the code it parses to
    parts, code = [], []
    for i in range(2400):
        parts.append(f"(alpha_{i}  |\t\tbeta{i} \\\n gamma{i})")
        code += [f"alpha_{i}", f"beta{i}", _JOIN, f"gamma{i}", _DIFF] + [_MEET] * (i > 0)
    return parts, tuple(code)


def test_long_sources_report_faults_at_the_reference_positions():
    parts, code = _long_source()
    src = " &   ".join(parts)
    assert len(src) > 95_000
    assert parse_term(src).code == code
    formula = " && ".join(f"{p} = 0" for p in parts[-50:])
    assert len(parse_formula(formula).atoms) == 50
    end = src.rindex("gamma")
    cut = src.rindex("&")
    bad = [
        (parse_term, src[:end] + "$" + src[end:], end, "unexpected character '$'"),
        (parse_term, src[:end] + "²" + src[end:], end, "unexpected character '²'"),
        (parse_term, src[:cut] + ")" + src[cut:], cut, "trailing input ')'"),
    ]
    gap = formula.rindex("= 0 &&")
    bad.append((parse_formula, formula[:gap] + formula[gap + 3:], gap + 1,
                "expected '=' or '!=', found '&&'"))
    for parse, faulty, pos, message in bad:
        with pytest.raises(TermSyntaxError) as err:
            parse(faulty)
        assert (err.value.position, str(err.value)) == (pos, f"{message} (at position {pos})")
        ref = ref_parse_term if parse is parse_term else ref_parse_formula
        assert _full_outcome(parse, faulty) == _full_outcome(ref, faulty)
