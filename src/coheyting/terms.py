"""Term language over bounded lattices with difference or implication.

Grammar: ``|`` join, ``&`` meet, ``\\`` difference, ``->`` implication;
``&`` binds tighter than ``|``, which binds tighter than ``\\`` and ``->``.
``\\`` associates left, ``->`` associates right.  A term may use difference
or implication but never both; the two signatures are dual to each other
under the involution that swaps 0 with 1 and join with meet.

The source is split into token texts by one compiled pattern, and the
parser reads those texts alone; a token's position is found only when an
error is raised.  A term is stored as its postfix code alone, emitted by
the parser as it reads.  The printer, ``dualize`` and the one evaluator,
``run_program``, walk that tuple once, so no reader recurses and term
depth needs no recursion limit.  The evaluator takes one assignment, or
many packed into one int for the assignment sweep, which runs over a
stream of orders, each block of the int over its own.

Formulas are conjunctions of atoms ``term = 0`` and ``term != 0`` joined
by ``&&``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .algebra import Algebra, Element
from .errors import SignatureMismatch, TermSyntaxError, UnboundVariable
from .posets import PointSet, Poset

# opcode -> (name, symbol, precedence) in Term.code, where a string pushes
# the variable of that name; constants and variables bind tightest
_OPS = {-1: ("zero", "0", 4), -2: ("one", "1", 4), -3: ("join", "|", 2),
        -4: ("meet", "&", 3), -5: ("diff", "\\", 1), -6: ("impl", "->", 1)}
_ZERO, _ONE, _JOIN, _MEET, _DIFF, _IMPL = _OPS
_BINARY = {_JOIN, _MEET, _DIFF, _IMPL}


@dataclass(frozen=True)
class Term:
    """A term as its postfix code: a string pushes that variable, and an
    opcode pushes 0 or 1 or combines the top two values.  ``==`` and
    ``hash`` are those of the tuple; ``op``, ``name`` and ``args`` are a
    read-only tree view derived from the code per call, the signature flags once."""

    code: tuple[int | str, ...]
    has_diff: bool = field(init=False, compare=False)
    has_impl: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        has_diff, has_impl = _DIFF in self.code, _IMPL in self.code
        if has_diff and has_impl:
            raise SignatureMismatch("a term may use difference or implication, not both")
        # not via __dict__, which would give every term a dict object of its own
        object.__setattr__(self, "has_diff", has_diff)
        object.__setattr__(self, "has_impl", has_impl)

    def variables(self) -> frozenset[str]:
        # every non-variable entry of the code is an opcode of _OPS
        return frozenset(self.code).difference(_OPS)

    @property
    def op(self) -> str:
        """One of: zero one var join meet diff impl."""
        c = self.code[-1]
        return "var" if type(c) is str else _OPS[c][0]

    @property
    def name(self) -> str | None:
        return self.code[-1] if self.op == "var" else None

    @property
    def args(self) -> tuple[Term, ...]:
        """The two operands of a binary term, () for a leaf.  The right one
        is the shortest run before the operator that leaves one value."""
        code = self.code
        if code[-1] not in _BINARY:
            return ()
        i, owed = len(code) - 1, 1
        while owed:
            i -= 1
            owed += 1 if code[i] in _BINARY else -1
        return Term(code[:i]), Term(code[i:-1])

    @property
    def signature(self) -> str:
        if self.has_diff:
            return "difference"
        if self.has_impl:
            return "implication"
        return "lattice"

    def __str__(self) -> str:
        return print_term(self)


ZERO = Term((_ZERO,))
ONE = Term((_ONE,))


def Var(name: str) -> Term:
    return Term((name,))


def Join(a: Term, b: Term) -> Term:
    return Term(a.code + b.code + (_JOIN,))


def Meet(a: Term, b: Term) -> Term:
    return Term(a.code + b.code + (_MEET,))


def Diff(a: Term, b: Term) -> Term:
    return Term(a.code + b.code + (_DIFF,))


def Impl(a: Term, b: Term) -> Term:
    return Term(a.code + b.code + (_IMPL,))


# ---------------------------------------------------------------------------
# tokenizer / parser

# A token is an operator, a run of word characters (``str.isalnum`` or
# "_"), or any other character that is not whitespace (``str.isspace``).
# The operators are tried first, so no other token equals one of them.
_TOKEN = re.compile(r"&&|->|!=|[|&\\()=01]|\w+|\S")
_OPERATORS = frozenset(("&&", "->", "!=", "|", "&", "\\", "(", ")", "=", "0", "1"))
_CONSTANTS = {"0": _ZERO, "1": _ONE}
_NOT_ATOMS = _OPERATORS.difference(_CONSTANTS).union(("",))


def _tokens(src: str) -> list[str]:
    """The token texts of ``src`` and the end sentinel ``""``.  A token that
    is no operator must be an identifier, which starts with a letter or
    "_": that is checked once per distinct text, and the first bad token
    is looked for only when there is one."""
    toks = _TOKEN.findall(src)
    bad = [t for t in set(toks).difference(_OPERATORS)
           if not (t[0].isalpha() or t[0] == "_")]
    if bad:
        m = next(m for m in _TOKEN.finditer(src) if m.group() in bad)
        raise TermSyntaxError(f"unexpected character {m.group()[0]!r}", m.start())
    toks.append("")
    return toks


def _error(src: str, k: int, message: str) -> TermSyntaxError:
    """``message`` at the start of token ``k`` of ``src``, ``len(src)`` for
    the sentinel: positions are found only once an error is raised."""
    m = next(islice(_TOKEN.finditer(src), k, None), None)
    return TermSyntaxError(message, len(src) if m is None else m.start())


def _term(src: str, toks: list[str], i: int) -> tuple[Term, int]:
    """Parse one term from token text ``i`` of ``toks``, the token texts of
    ``src``; return it and the next index.  The texts are compared with the
    operators, which no identifier equals, and ``src`` is read again only
    to find an error's position.

    ``term := join ('\\' join)* | join '->' term``, ``join := meet ('|'
    meet)*``, ``meet := atom ('&' atom)*``, ``atom := 0 | 1 | ident | '('
    term ')'``.  Code is emitted as the tokens are read, each operator
    after its right operand.  Pending operators are three flags and a
    count of ``->`` per open term, kept on an explicit stack, so nesting
    needs no recursion limit; mixed signatures are checked at the end."""
    code: list[int | str] = []
    outer = []  # (imps, diff, join, meet) of each open parenthesis
    imps, diff, join, meet = 0, False, False, False
    while True:
        text = toks[i]
        i += 1
        if text == "(":
            outer.append((imps, diff, join, meet))
            imps, diff, join, meet = 0, False, False, False
            continue
        if text in _NOT_ATOMS:
            raise _error(src, i - 1, f"unexpected token {text or 'end of input'!r}")
        code.append(_CONSTANTS.get(text, text))
        while True:  # close what the finished atom completes until an operator follows
            if meet:
                code.append(_MEET)
            text = toks[i]
            meet = text == "&"
            if meet:
                break
            if join:
                code.append(_JOIN)
            join = text == "|"
            if join:
                break
            if diff:
                code.append(_DIFF)
                if text == "\\":
                    break
            elif text == "\\":
                diff = True
                break
            elif text == "->":
                imps += 1
                break
            code += [_IMPL] * imps
            if not outer:
                return Term(tuple(code)), i
            if text != ")":
                raise _error(src, i, f"expected ')', found {text!r}")
            i += 1
            imps, diff, join, meet = outer.pop()
        i += 1


def parse_term(src: str) -> Term:
    toks = _tokens(src)
    t, i = _term(src, toks, 0)
    if toks[i]:
        raise _error(src, i, f"trailing input {toks[i]!r}")
    return t


def print_term(t: Term) -> str:
    """Minimal-parenthesis rendering; reparses to an equal term.  At equal
    precedence the left operand of ``->`` and the right operand of the other
    operators are parenthesized, the shape the parser rebuilds."""
    stack: list[tuple[str, int]] = []
    for c in t.code:
        text, prec = (c, 4) if type(c) is str else _OPS[c][1:]
        if prec < 4:
            b, bp = stack.pop()
            a, ap = stack.pop()
            if ap < prec or ap == prec and c == _IMPL:
                a = f"({a})"
            if bp < prec or bp == prec and c != _IMPL:
                b = f"({b})"
            text = f"{a} {text} {b}"
        stack.append((text, prec))
    return stack[0][0]


# ---------------------------------------------------------------------------
# dualization and evaluation

# opcode -> (dual opcode, whether its operands swap)
_DUAL = {_JOIN: (_MEET, False), _MEET: (_JOIN, False), _DIFF: (_IMPL, True),
         _IMPL: (_DIFF, True)}


def dualize(t: Term) -> Term:
    """Swap 0 with 1 and join with meet; difference becomes the reversed
    implication and back.  An involution.  Built as ``(left, right,
    opcode)`` nodes, then flattened into code with an explicit stack."""
    stack: list = []
    for c in t.code:
        if c in _DUAL:
            op, swap = _DUAL[c]
            b = stack.pop()
            stack[-1] = (b, stack[-1], op) if swap else (stack[-1], b, op)
        else:
            stack.append(_ONE if c == _ZERO else _ZERO if c == _ONE else c)
    code: list[int | str] = []
    todo = stack  # the root alone
    while todo:
        node = todo.pop()
        if type(node) is tuple:
            todo += (node[2], node[1], node[0])
        else:
            code.append(node)
    return Term(tuple(code))


class Blocks(NamedTuple):
    """Orders side by side, one ``n``-bit block each: ``rep`` has bit 0 of
    every block set, ``full`` holds each block's own full mask, and
    ``down[p]`` and ``up[p]`` the points strictly below and above p in
    each block's own order (none where it has no point p).  ``up`` is
    None in the chunks of an assignment sweep, which has no implication."""

    n: int
    rep: int
    full: int
    down: Sequence[int]
    up: Sequence[int] | None


def run_program(code: Sequence[int | str], values: Mapping[str, PointSet],
                order: Poset | Blocks, rep: int = 1) -> PointSet:
    """Value of the postfix code of a term (``Term.code``) over point masks
    of ``order``, with each variable bound to ``values[name]``; a variable
    missing from ``values`` raises ``UnboundVariable``.  Difference is
    ``down(a & ~b)``; implication is forcing on a frame, the points with
    nothing of ``a & ~b`` below them.

    Over a ``Poset`` and the default ``rep = 1`` a value is a plain mask
    (``eval_term``, ``truth_set``, ``d_equivalent``), closed with
    ``down_closure``/``up_closure``.  Over ``Blocks`` a value packs one
    mask per block, each over its block's own order; a ``Poset`` with
    ``rep`` > 1 is taken as ``rep``'s blocks all over that order.  Join
    and meet are one ``|`` or ``&``; difference and implication close ``s
    = a & ~b`` one point column at a time from ``out = s``: ``out |= (s
    >> p & rep) * ones & column[p]``, with ``ones`` one block of 1 bits
    and ``column`` the blocks' ``down`` or ``up``."""
    if rep != 1:
        order = Blocks(order.n, rep, order.full * rep,
                       [(d ^ 1 << p) * rep for p, d in enumerate(order.down)],
                       [(u ^ 1 << p) * rep for p, u in enumerate(order.up)])
    packed = type(order) is Blocks
    if packed:
        rep, ones = order.rep, (1 << order.n) - 1
    full = order.full
    stack: list[PointSet] = []
    push, pop = stack.append, stack.pop
    for c in code:
        if type(c) is str:
            if c not in values:
                raise UnboundVariable(f"variable {c!r} has no value")
            push(values[c])
        elif c == _JOIN:
            push(pop() | pop())
        elif c == _MEET:
            push(pop() & pop())
        elif c == _DIFF or c == _IMPL:
            b = pop()
            s = stack[-1] & ~b
            if packed:
                out = s
                for p, column in enumerate(order.down if c == _DIFF else order.up):
                    if column:
                        out |= (s >> p & rep) * ones & column
            else:
                out = order.down_closure(s) if c == _DIFF else order.up_closure(s)
            stack[-1] = out if c == _DIFF else full & ~out
        else:
            push(0 if c == _ZERO else full)
    return stack[-1]


# Assignments per chunk of an assignment sweep: every packed value has at
# most this many blocks, whatever the limit, so memory stays bounded.
SWEEP_CHUNK = 4096

Case = tuple[Poset, Sequence[PointSet]]


class Chunk(NamedTuple):
    """``width`` consecutive blocks of an assignment sweep: the packed value
    of each variable in turn over ``blocks``, and the ``runs`` ``(case,
    first assignment, blocks)`` it is made of.  The sweep goes on at
    assignment ``stop[1]`` of case ``stop[0]``."""

    columns: tuple[int, ...]
    blocks: Blocks
    runs: tuple[tuple[Case, int, int], ...]
    width: int
    stop: tuple[int, int]


def _packed(masks: Sequence[PointSet], w: int, rep: int, block: int, offset: int,
            width: int) -> int:
    """One variable's packed value over the assignments ``offset`` to
    ``offset + width - 1``: block j, ``w`` bits wide, holds
    ``masks[(offset + j) // block % len(masks)]``.  ``rep`` has bit 0 of
    each of the ``width`` blocks set, so a run of ``r`` equal blocks is
    the mask times ``rep`` shifted down to ``r`` bits.  A period of
    ``len(masks) * block`` assignments that fits in the chunk is laid down
    once and repeated by doubling; a longer one is laid down in place."""
    m = len(masks)
    period = m * block
    start = offset - offset % period if period <= width else offset
    stop = start + period if period <= width else offset + width
    out, j = 0, start
    while j < stop:
        end = min(stop, (j // block + 1) * block)
        run = rep >> (width - end + j) * w  # end - j blocks
        out |= masks[j // block % m] * run << (j - start) * w
        j = end
    if period <= width:
        have, times = 1, (offset - start + width) // period + 1
        while have < times:
            out |= out << have * period * w
            have *= 2
        out >>= (offset - start) * w
    return out & ((1 << width * w) - 1)


def pack_sweep(
    cases: Iterable[Case],
    nvars: int,
    limit: int | None,
    w: int,
    width: int,
    start: tuple[int, int] = (0, 0),
) -> Iterator[Chunk]:
    """The assignment sweep over ``cases`` as packed chunks, built as they
    are read.  A case ``(order, masks)`` gives the first ``limit`` (all
    when None) tuples of ``itertools.product(masks, repeat=nvars)``, one
    ``w``-bit block each, ``w`` at least the largest ``order.n`` and 1;
    the cases follow one another, so a chunk may straddle several.  The
    sweep starts at assignment ``start[1]`` of the first case read, which
    is case ``start[0]``.  Chunk widths go ``width``, then double up to
    ``SWEEP_CHUNK``."""
    cases = iter(cases)
    i, k = start

    def count(case: Case) -> int:
        total = len(case[1]) ** nvars
        return total if limit is None else min(total, limit)

    case = next(cases, None)
    total = 0 if case is None else count(case)
    while case is not None:
        width = min(width, SWEEP_CHUNK)
        rep = ((1 << width * w) - 1) // ((1 << w) - 1)
        columns, full, down, runs, at = [0] * nvars, 0, [0] * w, [], 0
        while at < width:
            if k >= total:  # the case is done: the next one is read only now
                case = next(cases, None)
                if case is None:
                    break
                i, k, total = i + 1, 0, count(case)
                continue
            order, masks = case
            r = min(total - k, width - at)
            run, shift = rep >> (width - r) * w, at * w
            for v in range(nvars):
                block = len(masks) ** (nvars - 1 - v)
                columns[v] |= _packed(masks, w, run, block, k, r) << shift
            full |= order.full * run << shift
            for p, d in enumerate(order.down):
                down[p] |= (d ^ 1 << p) * run << shift
            runs.append((case, k, r))
            at, k = at + r, k + r
        if at:
            blocks = Blocks(w, rep >> (width - at) * w, full, down, None)
            yield Chunk(tuple(columns), blocks, tuple(runs), at, (i, k))
        width *= 2


def first_satisfying(
    atoms: Sequence[tuple[Sequence[int | str], bool]],
    chunks: Iterable[Chunk],
    names: Sequence[str],
) -> tuple[Case, tuple[PointSet, ...]] | None:
    """The first case and assignment of ``names`` in the sweep ``chunks``
    under which every atom ``(code, eq)`` holds: the ``Term.code`` of a
    difference-signature term is 0 exactly when ``eq``.  None when there
    is none.  Each chunk goes through ``run_program`` once per atom; an
    atom's blocks are OR-folded onto their bit 0, and the first satisfying
    assignment is the lowest bit left."""
    if any(_IMPL in code for code, _ in atoms):
        raise SignatureMismatch("implication cannot be evaluated here")
    nvars = len(names)
    for chunk in chunks:
        blocks = chunk.blocks
        values, sat = dict(zip(names, chunk.columns)), blocks.rep
        for code, eq in atoms:
            value = hit = run_program(code, values, blocks)
            for p in range(1, blocks.n):
                hit |= value >> p
            sat &= ~hit if eq else hit
            if not sat:
                break
        if sat:
            j = ((sat & -sat).bit_length() - 1) // blocks.n
            for case, k, r in chunk.runs:
                if j < r:
                    masks = case[1]
                    m = len(masks)
                    return case, tuple(
                        masks[(k + j) // m ** (nvars - 1 - v) % m] for v in range(nvars)
                    )
                j -= r
    return None


def first_assignment(
    atoms: Sequence[tuple[Sequence[int | str], bool]],
    order: Poset,
    masks: Sequence[PointSet],
    names: Sequence[str],
    limit: int | None = None,
) -> tuple[PointSet, ...] | None:
    """First assignment of ``itertools.product(masks, repeat=len(names))``
    to ``names``, among its first ``limit`` (all when None), under which
    every atom holds over ``order``; None when no such assignment.  The
    one-case sweep of ``first_satisfying``, with ``w = max(n, 1)`` bits a
    block so that a 0-point order still has one bit per block, in chunks
    of ``SWEEP_CHUNK`` from the first: on the slice checks of the ``laws``
    benchmark that is faster than starting small.  It serves the slice
    checker."""
    chunks = pack_sweep([(order, masks)], len(names), limit, max(order.n, 1), SWEEP_CHUNK)
    found = first_satisfying(atoms, chunks, names)
    return None if found is None else found[1]


def eval_term(t: Term, algebra: Algebra, env: Mapping[str, Element]) -> Element:
    """Evaluate a difference-signature term in an algebra."""
    if t.has_impl:
        raise SignatureMismatch("implication cannot be evaluated here")
    used = t.variables()
    values = {name: algebra.element(e).pts for name, e in env.items() if name in used}
    return Element(algebra, run_program(t.code, values, algebra.spec))


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
    toks = _tokens(src)
    i = 0
    atoms = []
    while True:
        t, i = _term(src, toks, i)
        if toks[i] not in ("=", "!="):
            raise _error(src, i, f"expected '=' or '!=', found {toks[i]!r}")
        if toks[i + 1] != "0":
            raise _error(src, i + 1, f"atoms compare against 0, found {toks[i + 1]!r}")
        atoms.append((t, toks[i] == "="))
        i += 3
        if toks[i - 1] == "&&":
            continue
        if not toks[i - 1]:
            break
        raise _error(src, i - 1, f"trailing input {toks[i - 1]!r}")
    return Formula(tuple(atoms))


def eval_formula(
    f: Formula, algebra: Algebra, env: Mapping[str, Element]
) -> bool:
    for t, eq in f.atoms:
        value = eval_term(t, algebra, env)
        if value.is_bottom() != eq:
            return False
    return True

