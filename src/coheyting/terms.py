"""Term language over bounded lattices with difference or implication.

Grammar: ``|`` join, ``&`` meet, ``\\`` difference, ``->`` implication;
``&`` binds tighter than ``|``, which binds tighter than ``\\`` and ``->``.
``\\`` associates left, ``->`` associates right.  A term may use difference
or implication but never both; the two signatures are dual to each other
under the involution that swaps 0 with 1 and join with meet.

Formulas are conjunctions of atoms ``term = 0`` and ``term != 0`` joined
by ``&&``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .algebra import Algebra, Element
from .errors import SignatureMismatch, TermSyntaxError, UnboundVariable
from .posets import PointSet, Poset

# Opcodes of Term.program; a code i >= 0 pushes variable i.
_OPCODE = {"zero": -1, "one": -2, "join": -3, "meet": -4, "diff": -5, "impl": -6}
_ZERO, _ONE, _JOIN, _MEET, _DIFF, _IMPL = _OPCODE.values()


@dataclass(frozen=True)
class Term:
    op: str                       # one of: zero one var join meet diff impl
    name: str | None = None
    args: tuple["Term", ...] = ()
    has_diff: bool = field(default=False, compare=False)
    has_impl: bool = field(default=False, compare=False)

    def variables(self) -> frozenset[str]:
        return frozenset(self.program[1])

    @cached_property
    def program(self) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """Postfix code for ``run_program`` and the variables in first-use
        order; code ``i >= 0`` pushes variable i.  Built with an explicit
        stack, so term depth needs no recursion limit."""
        code: list[int] = []
        names: list[str] = []
        todo: list = [self]
        while todo:
            node = todo.pop()
            if isinstance(node, int):
                code.append(node)
            elif node.op == "var":
                if node.name not in names:
                    names.append(node.name)
                code.append(names.index(node.name))
            else:
                todo += (_OPCODE[node.op], *reversed(node.args))
        return tuple(code), tuple(names)

    @property
    def signature(self) -> str:
        if self.has_diff:
            return "difference"
        if self.has_impl:
            return "implication"
        return "lattice"

    def __str__(self) -> str:
        return print_term(self)


ZERO = Term("zero")
ONE = Term("one")


def Var(name: str) -> Term:
    return Term("var", name=name)


def _binary(op: str, a: Term, b: Term) -> Term:
    has_diff = a.has_diff or b.has_diff or op == "diff"
    has_impl = a.has_impl or b.has_impl or op == "impl"
    if has_diff and has_impl:
        raise SignatureMismatch(
            "a term may use difference or implication, not both"
        )
    return Term(op, args=(a, b), has_diff=has_diff, has_impl=has_impl)


def Join(a: Term, b: Term) -> Term:
    return _binary("join", a, b)


def Meet(a: Term, b: Term) -> Term:
    return _binary("meet", a, b)


def Diff(a: Term, b: Term) -> Term:
    return _binary("diff", a, b)


def Impl(a: Term, b: Term) -> Term:
    return _binary("impl", a, b)


# ---------------------------------------------------------------------------
# tokenizer / parser

_SIMPLE = {"|", "&", "\\", "(", ")", "=", "0", "1"}


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Tokens: (kind, text, position)."""
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
        elif c in _SIMPLE:
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


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.pos]

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise TermSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def term(self) -> Term:
        left = self.join_level()
        kind = self.peek()[0]
        if kind == "\\":
            while self.peek()[0] == "\\":
                self.take()
                left = Diff(left, self.join_level())
            return left
        if kind == "->":
            self.take()
            return Impl(left, self.term())
        return left

    def join_level(self) -> Term:
        left = self.meet_level()
        while self.peek()[0] == "|":
            self.take()
            left = Join(left, self.meet_level())
        return left

    def meet_level(self) -> Term:
        left = self.atom()
        while self.peek()[0] == "&":
            self.take()
            left = Meet(left, self.atom())
        return left

    def atom(self) -> Term:
        kind, text, pos = self.take()
        if kind == "0":
            return ZERO
        if kind == "1":
            return ONE
        if kind == "ident":
            return Var(text)
        if kind == "(":
            inner = self.term()
            self.take(")")
            return inner
        raise TermSyntaxError(f"unexpected token {text or 'end of input'!r}", pos)


def parse_term(src: str) -> Term:
    p = _Parser(src)
    t = p.term()
    kind, text, pos = p.peek()
    if kind != "end":
        raise TermSyntaxError(f"trailing input {text!r}", pos)
    return t


_PREC = {"diff": 1, "impl": 1, "join": 2, "meet": 3}


def _needs_parens(child: Term, parent_op: str, side: str) -> bool:
    if child.op not in _PREC:
        return False
    cp, pp = _PREC[child.op], _PREC[parent_op]
    if cp != pp:
        return cp < pp
    # equal precedence: keep the shape the parser would rebuild
    if parent_op == "impl":
        return side == "left"
    return side == "right"


def print_term(t: Term) -> str:
    """Minimal-parenthesis rendering; reparses to an equal term."""
    if t.op == "zero":
        return "0"
    if t.op == "one":
        return "1"
    if t.op == "var":
        return t.name  # type: ignore[return-value]
    sym = {"join": "|", "meet": "&", "diff": "\\", "impl": "->"}[t.op]
    parts = []
    for side, child in zip(("left", "right"), t.args):
        text = print_term(child)
        if _needs_parens(child, t.op, side):
            text = f"({text})"
        parts.append(text)
    return f"{parts[0]} {sym} {parts[1]}"


# ---------------------------------------------------------------------------
# dualization and evaluation

def dualize(t: Term) -> Term:
    """Swap 0 with 1 and join with meet; difference becomes the reversed
    implication and back.  An involution."""
    if t.op == "zero":
        return ONE
    if t.op == "one":
        return ZERO
    if t.op == "var":
        return t
    a, b = t.args
    if t.op == "join":
        return Meet(dualize(a), dualize(b))
    if t.op == "meet":
        return Join(dualize(a), dualize(b))
    if t.op == "diff":
        return Impl(dualize(b), dualize(a))
    return Diff(dualize(b), dualize(a))


def run_program(code: Sequence[int], values: Sequence[PointSet], order: Poset) -> PointSet:
    """Value of a compiled term (``Term.program``) over point masks of
    ``order``, with variable i bound to ``values[i]``.  Difference is
    ``down(a & ~b)``; implication is forcing on a frame, the points with
    nothing of ``a & ~b`` below them."""
    stack: list[PointSet] = []
    push, pop = stack.append, stack.pop
    for c in code:
        if c >= 0:
            push(values[c])
        elif c == _DIFF:
            b = pop()
            stack[-1] = order.down_closure(stack[-1] & ~b)
        elif c == _JOIN:
            push(pop() | pop())
        elif c == _MEET:
            push(pop() & pop())
        elif c == _IMPL:
            b = pop()
            stack[-1] = order.full & ~order.up_closure(stack[-1] & ~b)
        else:
            push(0 if c == _ZERO else order.full)
    return stack[-1]


def eval_term(t: Term, algebra: Algebra, env: Mapping[str, Element]) -> Element:
    """Evaluate a difference-signature term in an algebra."""
    if t.has_impl:
        raise SignatureMismatch("implication cannot be evaluated here")
    code, names = t.program
    values = []
    for name in names:
        if name not in env:
            raise UnboundVariable(f"variable {name!r} has no value")
        values.append(algebra.element(env[name]).pts)
    return Element(algebra, run_program(code, values, algebra.spec))


def slice_term(k: int) -> Term:
    """k-th slice term over x1..xk: start at 1, then repeatedly take
    (previous \\ x_next) & x_next.  Vanishing of slice k+1 everywhere is
    equivalent to dimension at most k."""
    t = ONE
    for i in range(1, k + 1):
        x = Var(f"x{i}")
        t = Meet(Diff(t, x), x)
    return t


# ---------------------------------------------------------------------------
# formulas

@dataclass(frozen=True)
class Formula:
    """Conjunction of atoms (term, equals_zero)."""

    atoms: tuple[tuple[Term, bool], ...]

    def variables(self) -> frozenset[str]:
        return frozenset().union(*(t.variables() for t, _ in self.atoms))

    def __str__(self) -> str:
        return " && ".join(
            f"{print_term(t)} {'=' if eq else '!='} 0" for t, eq in self.atoms
        )


def parse_formula(src: str) -> Formula:
    p = _Parser(src)
    atoms = []
    while True:
        t = p.term()
        kind, text, pos = p.take()
        if kind == "=":
            eq = True
        elif kind == "!=":
            eq = False
        else:
            raise TermSyntaxError(f"expected '=' or '!=', found {text!r}", pos)
        kind, text, pos = p.take()
        if kind != "0":
            raise TermSyntaxError(f"atoms compare against 0, found {text!r}", pos)
        atoms.append((t, eq))
        kind, text, pos = p.peek()
        if kind == "&&":
            p.take()
            continue
        if kind == "end":
            break
        raise TermSyntaxError(f"trailing input {text!r}", pos)
    return Formula(tuple(atoms))


def eval_formula(
    f: Formula, algebra: Algebra, env: Mapping[str, Element]
) -> bool:
    for t, eq in f.atoms:
        value = eval_term(t, algebra, env)
        if value.is_bottom() != eq:
            return False
    return True


def iter_terms(t: Term) -> Iterator[Term]:
    yield t
    for a in t.args:
        yield from iter_terms(a)
