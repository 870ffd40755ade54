"""Law-checking suites with counterexample shrinking.

Each suite checks one family of laws and is declared once, where its
checker is defined: ``@_suite(name, cases)`` puts the checker into
``CHECKERS`` and its case stream into ``CASES``, and one runner serves
them all.  A case is an algebra, whose ``spec`` is the carrier poset,
with named downset masks and extra strings, so failures carry a text
payload that replays without any live objects.

Three helpers make the case streams.  ``_random`` draws ``budget`` cases
from the pool, in the order its docstring states; ``_exhaustive`` walks
the pool; ``_once`` yields one case on the empty poset, for laws with no
per-case carrier.  The pool holds one entry per poset isomorphism class
up to ``max_points``, with its algebra and its elements.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .algebra import Algebra, Element, check_dL_preserved, fiber_max, fiber_min
from .fixtures import load_fixture
from .kripke import (
    KripkeModel,
    bisim_reduce,
    enumerate_reduced_models,
    frame_to_spec,
    globally_true,
    is_reduced,
    make_model,
    model_of_algebra,
    truth_set,
    universal_frame,
)
from .metric import distance, make_tower
from .posets import (
    Poset,
    bits,
    build_poset,
    enumerate_posets,
    mask_of,
    parse_point_list,
    parse_poset_text,
    poset_to_text,
)
from .terms import (
    ONE,
    ZERO,
    Diff,
    Impl,
    Join,
    Meet,
    Term,
    Var,
    dualize,
    eval_term,
    first_assignment,
    parse_term,
    print_term,
    slice_term,
)


@dataclass(frozen=True)
class Failure:
    """One shrunk counterexample with a self-contained replay payload."""

    suite: str
    law: str
    poset_text: str
    masks: dict[str, str]
    extra: dict[str, str]

    def describe(self) -> str:
        parts = [f"[{self.suite}] law violated: {self.law}"]
        if self.poset_text:
            parts.append(self.poset_text.rstrip("\n"))
        for name in sorted(self.masks):
            parts.append(f"  {name} = {self.masks[name]}")
        for key in sorted(self.extra):
            parts.append(f"  {key}: {self.extra[key]}")
        return "\n".join(parts)


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    cases: int
    failures: tuple[Failure, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        head = f"{self.suite}: {status} ({self.cases} cases, {self.seconds:.2f}s)"
        if self.ok:
            return head
        return "\n".join([head] + [f.describe() for f in self.failures])


@dataclass
class SuiteContext:
    """One run's seed, random-case budget and largest enumerated poset.
    Size limits are not settings here: the enumerations run under the
    ``posets`` module constants and ``kripke.MAX_FRAME_NODES``."""

    seed: int = 0
    budget: int = 300
    max_points: int = 5


# A case checker sees the rebuilt algebra, the named downsets, and the extra
# payload; it returns the name of the first violated law, or None.
Checker = Callable[[Algebra, "dict[str, Element]", "dict[str, str]"], "str | None"]
# A case is the algebra, the named downset masks and the extra payload.
Case = tuple[Algebra, dict[str, int], dict[str, str]]
Cases = Callable[[SuiteContext], Iterator[Case]]

CHECKERS: dict[str, Checker] = {}
CASES: dict[str, Cases] = {}


def _suite(name: str, cases: Cases):
    def register(fn: Checker) -> Checker:
        CHECKERS[name] = fn
        CASES[name] = cases
        return fn

    return register


_POOLS: dict[int, list[tuple[Poset, Algebra, tuple[Element, ...]]]] = {}


def _pool(ctx: SuiteContext) -> list[tuple[Poset, Algebra, tuple[Element, ...]]]:
    key = ctx.max_points
    if key not in _POOLS:
        entries = []
        for poset in enumerate_posets(ctx.max_points):
            algebra = Algebra(poset)
            entries.append((poset, algebra, algebra.elements()))
        _POOLS[key] = entries
    return _POOLS[key]


def _random(offset: int, draw: str | tuple[str, int, str], degree: bool = False) -> Cases:
    """``budget`` cases drawn from ``random.Random(seed + offset)``.

    Each case draws, in this order: the pool index; then either one
    element per letter of ``draw`` (masks ``a``, ``b``, ...) or, for a
    draw ``(kind, k, prefixes)``, a ``random_term`` of that kind over
    ``x1..xk`` followed by one element per variable (sorted) and per
    prefix (masks ``u_x1``, ``v_x1``, ...); and last, when ``degree`` is
    set, ``d = randrange(height + 2)``.
    """

    def cases(ctx: SuiteContext) -> Iterator[Case]:
        rng = random.Random(ctx.seed + offset)
        pool = _pool(ctx)
        for _ in range(ctx.budget):
            poset, algebra, elems = pool[rng.randrange(len(pool))]
            extra: dict[str, str] = {}
            if isinstance(draw, str):
                masks = {k: elems[rng.randrange(len(elems))].pts for k in draw}
            else:
                kind, k, prefixes = draw
                term = random_term(rng, [f"x{i + 1}" for i in range(k)], 3, kind)
                masks = {
                    f"{prefix}_{n}": elems[rng.randrange(len(elems))].pts
                    for n in sorted(term.variables())
                    for prefix in prefixes
                }
                extra["term"] = print_term(term)
            if degree:
                extra["d"] = str(rng.randrange(poset.height() + 2))
            yield algebra, masks, extra

    return cases


def _exhaustive(
    largest: int | None = None, degrees: Callable[[int], Iterable[int]] | None = None
) -> Cases:
    """One case per pool entry with at most ``largest`` elements (all when
    None), or one per degree ``d`` in ``degrees(height)`` when given."""

    def cases(ctx: SuiteContext) -> Iterator[Case]:
        for poset, algebra, elems in _pool(ctx):
            if largest is not None and len(elems) > largest:
                continue
            if degrees is None:
                yield algebra, {}, {}
            else:
                for d in degrees(poset.height()):
                    yield algebra, {}, {"d": str(d)}

    return cases


def _every_degree(height: int) -> range:
    return range(height + 2)


def _slice_degrees(height: int) -> list[int]:
    near = {max(0, height - 1), height, min(height + 1, 3)}
    return [d for d in sorted(near) if d <= 3]


def _once(ctx: SuiteContext) -> Iterator[Case]:
    """One case on the empty poset, for a law with no per-case carrier."""
    yield Algebra(build_poset(())), {}, {}


def _check(
    name: str, algebra: Algebra, masks: dict[str, int], extra: dict[str, str]
) -> str | None:
    """Build the named elements from their masks and run the suite's checker."""
    elems = {k: algebra.element(v) for k, v in masks.items()}
    return CHECKERS[name](algebra, elems, extra)


def _shrink(
    name: str, poset: Poset, masks: dict[str, int], extra: dict[str, str]
) -> tuple[Poset, dict[str, int]]:
    """Greedy minimization: take the first candidate that still fails,
    dropping maximal carrier points before peeling masks, until none does."""

    def still_fails(p: Poset, ms: dict[str, int]) -> bool:
        try:
            return _check(name, Algebra(p), ms, extra) is not None
        except Exception:
            # A shrink step that breaks a precondition is not a counterexample.
            return False

    def candidates(poset: Poset, masks: dict[str, int]):
        if poset.n > 1:
            for b in sorted(bits(poset.maximal_points(poset.full)), reverse=True):
                keep = poset.full & ~(1 << b)
                old_to_new = {old: new for new, old in enumerate(bits(keep))}
                yield poset.induced(keep), {
                    k: mask_of(old_to_new[x] for x in bits(v & keep))
                    for k, v in masks.items()
                }
        for k in sorted(masks):
            for b in sorted(bits(poset.maximal_points(masks[k])), reverse=True):
                yield poset, {**masks, k: masks[k] & ~(1 << b)}

    while True:
        for poset_masks in candidates(poset, masks):
            if still_fails(*poset_masks):
                poset, masks = poset_masks
                break
        else:
            return poset, masks


def _fail(
    name: str, law: str, poset: Poset, masks: dict[str, int], extra: dict[str, str]
) -> Failure:
    poset, masks = _shrink(name, poset, masks, extra)
    return Failure(
        suite=name,
        law=law,
        poset_text=poset_to_text(poset),
        masks={k: poset.format_points(v) for k, v in sorted(masks.items())},
        extra=dict(extra),
    )


def replay_failure(failure: Failure) -> bool:
    """Rebuild a failure from its payload; True when it still fails."""
    poset, _ = parse_poset_text(failure.poset_text)
    masks = {k: parse_point_list(v, poset) for k, v in failure.masks.items()}
    return _check(failure.suite, Algebra(poset), masks, failure.extra) is not None


def _model_from_masks(
    algebra: Algebra, names: list[str], per_var: dict[str, int]
) -> KripkeModel:
    """Build a model on ``algebra.spec`` itself, not on its dual frame,
    from per-variable truth downsets."""
    frame = algebra.spec
    colors = [0] * frame.n
    for i, nm in enumerate(names):
        for p in bits(per_var.get(nm, 0)):
            colors[p] |= 1 << i
    return make_model(frame, names, colors)


# ---------------------------------------------------------------------------
# Difference identities


@_suite("s2-identities", _random(0, "abc"))
def _check_s2(algebra, e, extra):
    a, b, c = e["a"], e["b"], e["c"]
    if a != (a - b) | (a & b):
        return "a = (a - b) | (a & b)"
    if (a | b) - c != (a - c) | (b - c):
        return "(a | b) - c = (a - c) | (b - c)"
    if a - (b | c) != (a - b) - c:
        return "a - (b | c) = (a - b) - c"
    if a - (a - b) != (a & b) - (a - b):
        return "a - (a - b) = (a & b) - (a - b)"
    if not algebra.strongly_below((a - b) & b, a):
        return "(a - b) & b strongly below a"
    if (b <= a) != (b - a).is_bottom():
        return "b <= a iff b - a = 0"
    if not a - (a - b) <= b:
        return "a - (a - b) <= b"
    return None


@_suite("delta-triangle", _random(1, "abc"))
def _check_delta(algebra, e, extra):
    a, b, c = e["a"], e["b"], e["c"]
    if not (a ^ c) <= (a ^ b) | (b ^ c):
        return "a ^ c <= (a ^ b) | (b ^ c)"
    if (a ^ b).is_bottom() != (a == b):
        return "a ^ b = 0 iff a = b"
    if a ^ b != b ^ a:
        return "a ^ b = b ^ a"
    return None


@_suite("ultrametric", _random(2, "abc"))
def _check_ultra(algebra, e, extra):
    a, b, c = e["a"], e["b"], e["c"]
    if distance(a, c) > max(distance(a, b), distance(b, c)):
        return "d(a, c) <= max(d(a, b), d(b, c))"
    if distance(a, b) != distance(b, a):
        return "d(a, b) = d(b, a)"
    if (distance(a, b) == 0) != (a == b):
        return "d(a, b) = 0 iff a = b"
    return None


@_suite("codim-join", _random(3, "ab"))
def _check_codim_join(algebra, e, extra):
    a, b = e["a"], e["b"]
    if algebra.codim(a | b) != min(algebra.codim(a), algebra.codim(b)):
        return "codim(a | b) = min(codim a, codim b)"
    if algebra.dim_elt(a | b) != max(algebra.dim_elt(a), algebra.dim_elt(b)):
        return "dim(a | b) = max(dim a, dim b)"
    return None


# ---------------------------------------------------------------------------
# Dimension routes


def _longest_chains(steps: dict) -> Callable:
    """Length of the longest path from a key along ``steps``, memoized."""
    length: dict = {}

    def chain(key) -> int:
        if key not in length:
            length[key] = 0
            length[key] = max((1 + chain(x) for x in steps[key]), default=0)
        return length[key]

    return chain


def chain_routes(algebra: Algebra, elems) -> tuple[Callable, Callable]:
    """(codim_of, dim_of) on nonzero masks by longest strong chains.

    Codimension is the longest ascending and dimension the longest
    descending chain of strictly strongly below pairs, both read from one
    table over the nonzero ``elems``; bottom is left to the caller.
    """
    below: dict[int, list[int]] = {}
    for upper in elems:
        if upper.is_bottom():
            continue
        below[upper.pts] = [
            lower.pts
            for lower in elems
            if not lower.is_bottom()
            and lower != upper
            and algebra.strongly_below(lower, upper)
        ]
    above: dict[int, list[int]] = {m: [] for m in below}
    for upper, lowers in below.items():
        for lower in lowers:
            above[lower].append(upper)
    return _longest_chains(above), _longest_chains(below)


def prime_filters(algebra: Algebra, elems) -> list[tuple[int, frozenset[int]]]:
    """All prime filters among elems as (generator mask, member-mask set)."""
    members = [x.pts for x in elems]
    primes = []
    for gen in elems:
        if gen.is_bottom():
            continue
        filt = frozenset(m for m in members if gen.pts & m == gen.pts)
        prime = True
        for i, a in enumerate(members):
            for b in members[: i + 1]:
                if (a | b) in filt and a not in filt and b not in filt:
                    prime = False
                    break
            if not prime:
                break
        if prime:
            primes.append((gen.pts, filt))
    return primes


def prime_routes(algebra: Algebra, elems) -> tuple[Callable, Callable]:
    """(codim_of, dim_of) on nonzero masks by prime-filter chains.

    A mask's codimension is the least, and its dimension the greatest,
    length of a chain of prime filters below, respectively above, a prime
    filter containing it; bottom is left to the caller.
    """
    sets = [f for _, f in prime_filters(algebra, elems)]
    down = _longest_chains({f: [g for g in sets if g < f] for f in sets})
    up = _longest_chains({f: [g for g in sets if g > f] for f in sets})

    def codim_of(mask: int) -> int:
        return min(down(f) for f in sets if mask in f)

    def dim_of(mask: int) -> int:
        return max(up(f) for f in sets if mask in f)

    return codim_of, dim_of


@_suite("dim-rank", _random(4, "a"))
def _check_dim_rank(algebra, e, extra):
    a = e["a"]
    if a.is_bottom():
        return None  # both sides are the infinite bottom values
    elems = algebra.elements()
    chain_codim, chain_dim = chain_routes(algebra, elems)
    prime_codim, prime_dim = prime_routes(algebra, elems)
    if algebra.codim(a) != chain_codim(a.pts):
        return "codim by coranks = codim by strong chains"
    if algebra.codim(a) != prime_codim(a.pts):
        return "codim by coranks = codim by prime-filter chains"
    if algebra.dim_elt(a) != chain_dim(a.pts):
        return "dim by ranks = dim by strong chains"
    if algebra.dim_elt(a) != prime_dim(a.pts):
        return "dim by ranks = dim by prime-filter chains"
    return None


@_suite("mf-identity", _random(5, "ab"))
def _check_mf(algebra, e, extra):
    a, b = e["a"], e["b"]
    diff = a - b
    lhs = 0 if diff.is_bottom() else algebra.minimal_primes(diff)
    rhs = 0 if a.is_bottom() else algebra.minimal_primes(a) & ~b.pts
    if lhs != rhs:
        return "minimal primes of a - b are those of a outside b"
    return None


@_suite("epsilon-chain", _exhaustive())
def _check_eps(algebra, e, extra):
    height = algebra.spec.height()
    prev = algebra.top()
    for d in range(height + 2):
        eps = algebra.epsilon(d)
        if not eps <= prev:
            return "epsilon chain decreasing"
        if d >= 1 and not algebra.strongly_below(eps, algebra.epsilon(d - 1)):
            return "epsilon(d) strongly below epsilon(d - 1)"
        quotient, _ = algebra.quotient_by(eps)
        if not quotient.dim_algebra() < d:
            return "dim of quotient by epsilon(d) below d"
        prev = eps
    return None


@_suite("join-irr-strong", _exhaustive())
def _check_jis(algebra, e, extra):
    for x in algebra.join_irreducibles():
        for y in algebra.elements():
            if not x <= y and x - y != x:
                return "join irreducible x with x not <= y has x - y = x"
    return None


def _irreducible_sets(algebra: Algebra, elems) -> tuple[set, set]:
    """Join and meet irreducibles of ``elems`` by definition, in O(|L|^2).

    a != bottom is join reducible iff a = y | z for some incomparable y, z
    (if y <= z, then y | z = z); meets are dual.
    """
    joins, meets = set(), set()
    for y, z in itertools.combinations([x.pts for x in elems], 2):
        if y & z not in (y, z):
            joins.add(y | z)
            meets.add(y & z)
    top = algebra.top().pts
    join_irr = {x for x in elems if x.pts and x.pts not in joins}
    return join_irr, {x for x in elems if x.pts != top and x.pts not in meets}


@_suite("irr-supports", _exhaustive(40))
def _check_supports(algebra, e, extra):
    elems = algebra.elements()
    jirr = algebra.join_irreducibles()
    mirr = algebra.meet_irreducibles()
    join_irr, meet_irr = _irreducible_sets(algebra, elems)
    if set(jirr) != join_irr:
        return "join irreducibles match the definitional set"
    if set(mirr) != meet_irr:
        return "meet irreducibles match the definitional set"
    for a in elems:
        parts = algebra.jsupp(a)
        joined = algebra.bottom()
        for x in parts:
            joined = joined | x
        if joined != a:
            return "a is the join of jsupp(a)"
        if not join_irr.issuperset(parts):
            return "jsupp(a) consists of join irreducibles"
        met = algebra.top()
        for x in algebra.msupp(a):
            met = met & x
        if met != a:
            return "a is the meet of msupp(a)"
        if not meet_irr.issuperset(algebra.msupp(a)):
            return "msupp(a) consists of meet irreducibles"
    for j in jirr:
        if algebra.conj_up(j) not in meet_irr:
            return "conj_up maps join irreducibles to meet irreducibles"
        if algebra.conj_down(algebra.conj_up(j)) != j:
            return "conj_down(conj_up(x)) = x on join irreducibles"
    for m in mirr:
        if algebra.conj_down(m) not in join_irr:
            return "conj_down maps meet irreducibles to join irreducibles"
        if algebra.conj_up(algebra.conj_down(m)) != m:
            return "conj_up(conj_down(x)) = x on meet irreducibles"
    for i, j1 in enumerate(jirr):
        for j2 in jirr[i:]:
            if (j1 <= j2) != (algebra.conj_up(j1) <= algebra.conj_up(j2)):
                return "conj_up is an order embedding on join irreducibles"
    return None


# ---------------------------------------------------------------------------
# Quotients and fibers


@_suite("quotient-fini", _exhaustive(40, _every_degree))
def _check_quotient(algebra, e, extra):
    d = int(extra["d"])
    eps = algebra.epsilon(d)
    quotient, proj = algebra.quotient_by(eps)
    elems = algebra.elements()
    # one image per element; a fiber is kept as its image's meet and join
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
    # Let core = {p : down[p] <= eps}; then down(x) <= eps iff x <= core, for
    # any mask eps (core = eps when eps is a downset, as epsilon(d) is).  So
    # a ^ b = down(a & ~b) | down(b & ~a) <= eps iff a & ~core == b & ~core,
    # and the law holds iff key -> image and image -> key, key = a & ~core,
    # are both functions.
    eps_pts, down = eps.pts, algebra.spec.down
    core = mask_of(p for p, below in enumerate(down) if below & ~eps_pts == 0)
    image_at, key_at = {}, {}
    for a, image in image_of.items():
        key = a & ~core
        if image_at.setdefault(key, image) != image or key_at.setdefault(image, key) != key:
            return "pi(a) = pi(b) iff a ^ b <= epsilon(d)"
    qj = set(quotient.join_irreducibles())
    survivors = [j for j in algebra.join_irreducibles() if not j <= eps]
    lifted = {proj.apply(j) for j in survivors}
    if qj != lifted:
        return "join irreducibles not below epsilon(d) biject with quotient's"
    if len(survivors) != len(lifted):
        return "projection is injective on surviving join irreducibles"
    qm = set(quotient.meet_irreducibles())
    lifted_m = {proj.apply(m) for m in algebra.meet_irreducibles() if eps <= m}
    if qm != lifted_m:
        return "meet irreducibles above epsilon(d) biject with quotient's"
    return None


@_suite("dim-quotient", _exhaustive(degrees=_every_degree))
def _check_dim_quotient(algebra, e, extra):
    d = int(extra["d"])
    quotient, proj = algebra.quotient_by(algebra.epsilon(d))
    report = check_dL_preserved(proj, d)
    if not report.contained:
        return "image of epsilon(d) lands in target epsilon(d)"
    if not report.equal:
        return "quotient map carries epsilon(d) onto target epsilon(d)"
    if not quotient.dim_algebra() < d:
        return "dim of quotient by epsilon(d) below d"
    return None


# ---------------------------------------------------------------------------
# Terms


def random_term(rng: random.Random, names: list[str], depth: int, kind: str) -> Term:
    """Random term in one signature: kind is 'diff', 'impl' or 'lattice'."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.15:
            return ZERO
        if roll < 0.3:
            return ONE
        return Var(rng.choice(names))
    ops = [Join, Meet]
    if kind == "diff":
        ops.append(Diff)
    elif kind == "impl":
        ops.append(Impl)
    op = rng.choice(ops)
    return op(
        random_term(rng, names, depth - 1, kind),
        random_term(rng, names, depth - 1, kind),
    )


@_suite("slice", _exhaustive(8, _slice_degrees))
def _check_slice(algebra, e, extra):
    d = int(extra["d"])
    t, spec = slice_term(d + 1), algebra.spec
    names = sorted(t.variables())
    nonzero = first_assignment([(t.code, False)], spec, spec.downsets(), names)
    if (algebra.dim_algebra() <= d) != (nonzero is None):
        return "dim <= d iff the (d+1)-slice term vanishes identically"
    return None


@_suite("term-lipschitz", _random(6, ("diff", 3, "uv")))
def _check_lipschitz(algebra, e, extra):
    term = parse_term(extra["term"])
    names = sorted(term.variables())
    env_u = {n: e[f"u_{n}"] for n in names}
    env_v = {n: e[f"v_{n}"] for n in names}
    bound = Fraction(0)
    for n in names:
        bound = max(bound, distance(env_u[n], env_v[n]))
    lhs = distance(eval_term(term, algebra, env_u), eval_term(term, algebra, env_v))
    if lhs > bound:
        return "term maps are nonexpansive in the sup metric"
    return None


@_suite("eval-morphism", _random(7, ("diff", 2, "u"), degree=True))
def _check_eval_morphism(algebra, e, extra):
    d = int(extra["d"])
    term = parse_term(extra["term"])
    _, proj = algebra.quotient_by(algebra.epsilon(d))
    names = sorted(term.variables())
    env = {n: e[f"u_{n}"] for n in names}
    pushed = {n: proj.apply(v) for n, v in env.items()}
    lhs = proj.apply(eval_term(term, algebra, env))
    rhs = eval_term(term, proj.dst, pushed)
    if lhs != rhs:
        return "quotient maps commute with term evaluation"
    return None


@_suite("morphism-metrics", _random(8, "ab", degree=True))
def _check_morphism_metrics(algebra, e, extra):
    d = int(extra["d"])
    a, b = e["a"], e["b"]
    _, proj = algebra.quotient_by(algebra.epsilon(d))
    if distance(proj.apply(a), proj.apply(b)) > distance(a, b):
        return "quotient maps are nonexpansive"
    for k in range(d + 2):
        report = check_dL_preserved(proj, k)
        if not report.contained:
            return "quotient maps send epsilon(k) into epsilon(k)"
        if proj.dual_injective() and not report.equal:
            return "point-surjective quotients carry epsilon(k) onto epsilon(k)"
    return None


# ---------------------------------------------------------------------------
# Semantics over frames


@_suite("persistence", _random(9, ("impl", 2, "v")))
def _check_persistence(algebra, e, extra):
    term = parse_term(extra["term"])
    names = sorted(term.variables())
    model = _model_from_masks(algebra, names, {n: e[f"v_{n}"].pts for n in names})
    frame = model.frame
    ts = truth_set(model, term)
    if not frame.is_downset(ts):
        return "truth sets are closed downward along accessibility"
    for p in bits(ts):
        for q in bits(frame.down[p]):
            if not ts >> q & 1:
                return "forcing persists to accessible points"
    return None


@_suite("duality-roundtrip", _random(10, ("diff", 2, "g")))
def _check_duality(algebra, e, extra):
    term = parse_term(extra["term"])
    names = sorted(term.variables())
    gens = [e[f"g_{n}"] for n in names]
    env = dict(zip(names, gens))
    value = eval_term(term, algebra, env)
    model = model_of_algebra(algebra, gens, names)
    mirrored = truth_set(model, dualize(term))
    if mirrored != algebra.spec.full & ~value.pts:
        return "dual term truth set is the complement of the evaluation"
    if dualize(dualize(term)) != term:
        return "dualize is an involution"
    return None


@_suite("bisim-truth", _random(11, ("impl", 2, "v")))
def _check_bisim(algebra, e, extra):
    term = parse_term(extra["term"])
    names = sorted(term.variables())
    model = _model_from_masks(algebra, names, {n: e[f"v_{n}"].pts for n in names})
    reduced, to_class = bisim_reduce(model)
    if not is_reduced(reduced):
        return "bisimulation quotient is reduced"
    again, _ = bisim_reduce(reduced)
    if again.frame.n != reduced.frame.n:
        return "reducing a reduced model changes nothing"
    if globally_true(model, term) != globally_true(reduced, term):
        return "global truth is bisimulation invariant"
    ts = truth_set(model, term)
    rts = truth_set(reduced, term)
    for p in range(model.frame.n):
        if bool(ts >> p & 1) != bool(rts >> to_class[p] & 1):
            return "pointwise forcing is bisimulation invariant"
    return None


# ---------------------------------------------------------------------------
# Global laws without a per-case carrier


@_suite("counting-bounds", _once)
def _check_counting(algebra, e, extra):
    for n in range(0, 3):
        for d in range(1, 3):
            census = universal_frame(n, d).census
            if census[0] != 2 ** n:
                return f"layer 1 of the ({n},{d}) universal frame has 2^n points"
            for j in range(1, len(census)):
                prev = universal_frame(n, j).model.frame
                bound = (2 ** n) * (prev.count_downsets() - 1)
                if census[j] > bound:
                    return f"layer {j + 1} of the ({n},{d}) universal frame exceeds 2^n * nu"
        if any(model.frame.n > 2 ** n for model in enumerate_reduced_models(n, 1)):
            return f"a height-1 reduced model over {n} letters has more than 2^n points"
    for n in range(0, 2):
        count = sum(1 for _ in enumerate_reduced_models(n, 1))
        downsets = universal_frame(n, 1).model.frame.count_downsets() - 1
        if count != downsets:
            return "height-1 reduced model count differs from nonempty universal downsets"
    return None


@_suite("tower-coherence", _once)
def _check_towers(algebra, e, extra):
    towers = [make_tower(0, 2), make_tower(1, 3)]
    v3, _ = load_fixture("v3")
    towers.append(make_tower(Algebra(frame_to_spec(v3)), 3))
    for tower in towers:
        for a in tower.levels[-1].elements():
            family = tower.lift(a)
            for d in range(len(tower.levels) - 1):
                mapped = tower.maps[d].apply(family.components[d + 1])
                if mapped != family.components[d]:
                    return "lifted families are coherent under the tower maps"
        for d in range(tower.depth + 1):
            eps_fam = tower.epsilon_family(d)
            for k, level in enumerate(tower.levels):
                if eps_fam.components[k] != level.epsilon(d):
                    return "epsilon families restrict levelwise to epsilon(d)"
        for morphism in tower.maps:
            src_elems = morphism.src.elements()[:12]
            for a in src_elems:
                for b in src_elems:
                    if distance(morphism.apply(a), morphism.apply(b)) > distance(a, b):
                        return "tower maps are nonexpansive"
    return None


def suite_names() -> list[str]:
    return sorted(CASES)


def run_suites(
    names: list[str] | None = None, ctx: SuiteContext | None = None
) -> list[SuiteReport]:
    ctx = ctx or SuiteContext()
    reports = []
    for name in names or suite_names():
        start = time.perf_counter()
        cases, failures = 0, []
        for algebra, masks, extra in CASES[name](ctx):
            cases += 1
            law = _check(name, algebra, masks, extra)
            if law is not None:
                failures.append(_fail(name, law, algebra.spec, masks, extra))
        reports.append(SuiteReport(
            suite=name,
            cases=cases,
            failures=tuple(failures),
            seconds=time.perf_counter() - start,
        ))
    return reports
