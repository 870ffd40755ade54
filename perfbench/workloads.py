"""The four workloads: seeded inputs, timed public calls, checked answers.

Each workload is a ``setup(rng, workdir)`` that builds the inputs and a
``job(rnd, state)`` that makes the timed calls.  An op is one top-level
public call; ``Round.op`` times it alone and checks its answer right after,
so the oracles never count towards ``job_s``.  Oracles call the library's
unwrapped functions (``raw``), so they add nothing to a traced run's spans.

Why these four: see BENCHMARK.json.  In short, ``census`` is the posets
layer alone (cold enumeration, then canonical-form queries); ``laws`` is the
law checking users run (many small algebras, heavy morphism traffic, the
documented CLI); ``frames`` is the scale end (universal frames, one large
algebra, the memory number); ``search`` builds many fresh tiny algebras and
spends its time in term evaluation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import coheyting as C
from coheyting import cli, suites

import oracle


def raw(fn):
    """The library function behind a span wrapper (itself when untraced)."""
    return getattr(fn, "__wrapped__", fn)


class Round:
    """Ops of one round: start and end times, failed ops and a digest of
    the answers."""

    def __init__(self, flip_first_check: bool = False):
        self.spans: list[tuple[float, float]] = []
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []
        self.answers = hashlib.sha256()
        self._flip = flip_first_check

    def op(self, label: str, fn, *args, expect, raises=None):
        """Time ``fn(*args)``, then check the answer with ``expect``.

        ``raises`` names the exception the call must raise; it is then the
        answer.  Returns the answer, or None when the op failed.
        """
        clock = time.perf_counter
        start = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # a wrong exception is a failed op, not a crash
            self.spans.append((start, clock()))
            if raises is None or not isinstance(exc, raises):
                return self._fail(label, f"{type(exc).__name__}: {exc}")
            out = exc
        else:
            self.spans.append((start, clock()))
            if raises is not None:
                return self._fail(label, f"expected {raises.__name__}")
        try:
            ok = bool(expect(out))
        except Exception as exc:
            return self._fail(label, f"oracle raised {type(exc).__name__}: {exc}")
        if self._flip:
            ok, self._flip = not ok, False
        if not ok:
            return self._fail(label, "wrong answer")
        self.answers.update(f"{label}={summary(out)};".encode())
        return out

    def _fail(self, label: str, why: str) -> None:
        self.failed_ops.add(len(self.spans) - 1)
        if len(self.problems) < 5:
            self.problems.append(f"{label}: {why}")
        self.answers.update(f"{label}=FAILED;".encode())
        return None


def summary(value) -> str:
    """Deterministic text of an answer, for comparing rounds."""
    if isinstance(value, C.Element):
        return str(value.pts)
    if isinstance(value, C.Poset):
        return repr((value.names, value.covers))
    if isinstance(value, C.KripkeModel):
        return repr((value.frame.covers, value.colors))
    if isinstance(value, C.Tower):
        return repr([level.spec.n for level in value.levels])
    if isinstance(value, C.CoherentFamily):
        return repr([c.pts for c in value.components])
    if isinstance(value, C.Witness):
        return value.describe()
    if isinstance(value, C.SizeCap):
        return repr(value.census)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(summary(v) for v in value) + "]"
    if isinstance(value, (str, int, bool, Fraction)) or value is None:
        return repr(value)
    raise TypeError(f"no summary for {type(value).__name__}")


# ---------------------------------------------------------------------------
# census: posets layer alone

COLOUR_VARS = ("x1", "x2", "x3")
# Seed of the parts every stream shares (colourings, term shapes): a
# query's cost must not depend on --seed, or the spread across seeds would
# measure the draw instead of the code.  --seed draws relabellings,
# renamings and order, which leave the cost alone.
SHARED_SEED = 0


def census_setup(rng, workdir):
    """Queries: every 7-point class three times, once bare and twice under a
    fixed persistent colouring, each in a seeded relabelling, in seeded
    order.  Seeds change relabellings and order, never the classes or
    colourings.  Query latencies fall in two clusters (one refinement leaf
    or several); about 60% of this mix lies in the lower one, which keeps
    the median inside that cluster instead of on the gap between them."""
    shared = random.Random(SHARED_SEED)
    queries = []
    for cls in range(oracle.A000112[6]):
        for coloured in (False, True, True):
            perm = list(range(7))
            rng.shuffle(perm)
            colour = tuple(shared.getrandbits(7) for _ in COLOUR_VARS) if coloured else None
            queries.append((cls, tuple(perm), colour))
    rng.shuffle(queries)
    return queries, queries


def _a000112(classes) -> bool:
    counts = [0] * 7
    for poset in classes:
        counts[poset.n - 1] += 1
    return tuple(counts) == oracle.A000112


def census_job(rnd: Round, queries) -> None:
    classes = rnd.op(
        "enumerate_posets(7)", lambda: list(C.enumerate_posets(7)), expect=_a000112
    )
    if classes is None:
        return
    sevens = [p for p in classes if p.n == 7]
    names = [f"q{i}" for i in range(7)]
    reference: dict[tuple, str] = {}
    class_of_code: dict[str, int] = {}
    canonical = raw(C.canonical_form)
    for cls, perm, colour in queries:
        rep = sevens[cls]
        labels = rel_labels = None
        if colour is not None:
            # persistent: each variable holds on a downset
            order = oracle.Order(7, rep.covers)
            holds = [order.down_closure(seed) for seed in colour]
            labels = [
                frozenset(v for v, m in zip(COLOUR_VARS, holds) if m >> p & 1)
                for p in range(7)
            ]
            rel_labels = [None] * 7
            for p in range(7):
                rel_labels[perm[p]] = labels[p]
        relabelled = C.build_poset(
            names, [(names[perm[a]], names[perm[b]]) for a, b in rep.covers]
        )
        key = (cls, colour)
        if key not in reference:
            reference[key] = canonical(rep, labels)

        def expect(code, key=key, cls=cls, colour=colour):
            if code != reference[key]:
                return False
            return colour is not None or class_of_code.setdefault(code, cls) == cls

        rnd.op("canonical_form", C.canonical_form, relabelled, rel_labels, expect=expect)


# ---------------------------------------------------------------------------
# laws: acceptance-style law checking over the 405 posets with <= 6 points

# per light checker: 6,000 light cases put op_p50_ms among them, where
# the layer table of README.md expects it, and make 7,742 ops in all, so
# that 38 ops, the heaviest cases, lie beyond op_tail_ms's p99.5 (15 with 300)
LIGHT_CASES = 1200
LIGHT = (("s2-identities", 3), ("delta-triangle", 3), ("ultrametric", 3), ("codim-join", 2))

README = Path(__file__).resolve().parent.parent / "README.md"
_SECONDS = re.compile(r"cases, \d+\.\d+s\)")


def readme_transcript(text: str) -> tuple[dict[str, str], list[tuple[list[str], str]]]:
    """The demo files and the ``$ coheyting ...`` examples of the README.

    Demo files are the code blocks whose first line is ``# <path>``; each
    example is its argv and the output lines up to the next ``$`` line,
    with blank lines between examples dropped."""
    files: dict[str, str] = {}
    examples: list[tuple[list[str], list[str]]] = []
    for block in re.findall(r"```[a-z]*\n(.*?)```", text, re.S):
        head, _, body = block.partition("\n")
        if head.startswith("# /") and "$ " not in block:
            files[head[2:].strip()] = body
            continue
        for line in block.splitlines():
            if line.startswith("$ coheyting "):
                examples.append((shlex.split(line[len("$ coheyting "):]), []))
            elif examples and line.strip():
                examples[-1][1].append(line)
    return files, [(argv, "\n".join(out) + "\n") for argv, out in examples]


def _cli_matches(out: str, expected: str) -> bool:
    """Byte for byte, with the verify line's seconds normalised; an
    example the README elides with ``...`` is checked as a prefix."""
    if expected.endswith("...\n"):
        return out.startswith(expected[:-4])
    return out == _SECONDS.sub("cases, Ns)", expected)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout, with the verify line's seconds normalised."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, _SECONDS.sub("cases, Ns)", buf.getvalue())


def _random_term(rng, names: list[str], depth: int, arrow: str) -> str:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.15:
            return "0"
        if roll < 0.3:
            return "1"
        return rng.choice(names)
    op = rng.choice(["|", "&", arrow])
    left = _random_term(rng, names, depth - 1, arrow)
    right = _random_term(rng, names, depth - 1, arrow)
    return f"({left} {op} {right})"


def laws_setup(rng, workdir):
    pool = []
    for poset in C.enumerate_posets(6):
        algebra = C.Algebra(poset)
        pool.append((poset, algebra, algebra.elements()))
    # (checker, pool index, {name: element index}, extra)
    cases = []
    sized = sorted(range(len(pool)), key=lambda i: (len(pool[i][2]), i))
    qf = [(i, d) for i in sized for d in range(pool[i][0].height() + 2)]
    for i, d in qf:
        cases.append(("quotient-fini", i, {}, {"d": str(d)}))
    sl = []
    for i in sized:
        poset, _, elems = pool[i]
        if len(elems) > 8:
            continue
        h = poset.height()
        sl += [(i, d) for d in sorted({max(0, h - 1), h, min(h + 1, 3)}) if d <= 3]
    for i, d in sl:
        cases.append(("slice", i, {}, {"d": str(d)}))
    # the light cases are fixed; --seed draws the order of all cases
    shared = random.Random(SHARED_SEED)
    for name, arity in LIGHT:
        for _ in range(LIGHT_CASES):
            i = shared.randrange(len(pool))
            picks = {v: shared.randrange(len(pool[i][2])) for v in "abc"[:arity]}
            cases.append((name, i, picks, {}))
    for _ in range(LIGHT_CASES):
        i = shared.randrange(len(pool))
        term = C.parse_term(_random_term(shared, ["x1", "x2"], 3, "\\"))
        picks = {f"g_{v}": shared.randrange(len(pool[i][2])) for v in sorted(term.variables())}
        cases.append(("duality-roundtrip", i, picks, {"term": C.print_term(term)}))
    rng.shuffle(cases)
    # the README's demo files go to the work directory, and its examples
    # name them there
    files, examples = readme_transcript(README.read_text())
    moved = {}
    for path, body in files.items():
        moved[path] = str(workdir / Path(path).name)
        Path(moved[path]).write_text(body)
    commands = [([moved.get(a, a) for a in argv], expected) for argv, expected in examples]
    return (pool, cases, commands), cases


def laws_job(rnd: Round, state) -> None:
    pool, cases, commands = state
    for name, i, picks, extra in cases:
        _, algebra, elems = pool[i]
        bound = {k: elems[j] for k, j in picks.items()}
        rnd.op(
            name, suites.CHECKERS[name], algebra, bound, extra,
            expect=lambda law: law is None,
        )
    for argv, expected in commands:
        rnd.op(
            "cli " + " ".join(argv[:2]), _run_cli, argv,
            expect=lambda out, expected=expected: out[0] == 0 and _cli_matches(out[1], expected),
        )


# ---------------------------------------------------------------------------
# frames: universal frames, one large algebra, towers and depth equivalence

FRAME_CENSUS = (4, 18, 19978)     # universal_frame(2, 3) at the default cap
REDUCED_MODELS_2_2_6 = 865
TOWER_SIZES = {1: [1, 4, 8, 12, 16], 2: [1, 16, 265454]}
# 9,006 ops in all: under the 10,000 at which op_tail_ms would move from
# p99.5 (45 ops beyond it here) to p99.9 (10 beyond it)
LIFTS_PER_TOWER = 500
DISTANCES_PER_TOWER = 1000
EQUIV_STAGES = ((1, 3), (2, 1), (2, 2), (3, 1))
EQUIV_PER_STAGE = 1500
QUERY_CHUNKS = 3       # the small queries run in chunks between the big ops


def frames_setup(rng, workdir):
    """Queries ("lift", tower, where), ("distance", tower, where, where) and
    ("equiv", n, d, term, term), in seeded order; ``where`` is a fraction
    of the tower's top elements.  The term pairs are fixed and each gets a
    seeded renaming of its variables, which the universal frame's symmetry
    makes free: the seed moves the stream, not its cost."""
    shared = random.Random(SHARED_SEED)
    texts = []
    for n, d in EQUIV_STAGES:
        names = [f"x{i + 1}" for i in range(n)]
        for _ in range(EQUIV_PER_STAGE):
            t1 = _random_term(shared, names, 3, "->")
            roll = shared.random()
            if roll < 0.5:
                t2 = _random_term(shared, names, 3, "->")
            elif roll < 0.7:
                t2 = f"{t1} & {t1}"
            elif roll < 0.85:
                t2 = f"1 -> {t1}"
            else:
                t2 = f"{t1} | ({t1} & {_random_term(shared, names, 2, '->')})"
            rename = dict(zip(names, rng.sample(names, n)))
            t1, t2 = (re.sub(r"x\d+", lambda m: rename[m.group()], t) for t in (t1, t2))
            texts.append(("equiv", n, d, t1, t2))
    for n in (1, 2):
        texts += [("lift", n, rng.random()) for _ in range(LIFTS_PER_TOWER)]
        texts += [("distance", n, rng.random(), rng.random()) for _ in range(DISTANCES_PER_TOWER)]
    rng.shuffle(texts)
    queries = [
        q[:3] + (C.parse_term(q[3]), C.parse_term(q[4])) if q[0] == "equiv" else q
        for q in texts
    ]
    return (shared.random(), queries), texts


def _pick(seq, fraction: float):
    return seq[int(fraction * len(seq))]


def frames_job(rnd: Round, state) -> None:
    centre_pick, queries = state
    chunks = [queries[i::QUERY_CHUNKS] for i in range(QUERY_CHUNKS)]
    rnd.op(
        "universal_frame(2,3)", C.universal_frame, 2, 3,
        raises=C.SizeCap, expect=lambda exc: exc.census == FRAME_CENSUS,
    )
    big = rnd.op(
        "free_quotient(2,2) elements", lambda: C.free_quotient(2, 2).algebra.elements(),
        expect=lambda out: len(out) == out[0].owner.size() == TOWER_SIZES[2][-1],
    )
    if big is None:
        return
    towers = {}
    for n, depth in ((1, 4), (2, 2)):
        towers[n] = rnd.op(
            f"make_tower({n},{depth})", C.make_tower, n, depth,
            expect=lambda t, n=n: [lv.size() for lv in t.levels] == TOWER_SIZES[n],
        )
    if None in towers.values():
        return
    queried = _FrameQueries(rnd, towers, big)
    queried.run(chunks[0])
    rnd.op(
        "enumerate_reduced_models(2,2,6)",
        lambda: list(C.enumerate_reduced_models(2, 2, max_points=6)),
        expect=lambda out: len(out) == REDUCED_MODELS_2_2_6 and all(m.frame.n <= 6 for m in out),
    )
    queried.run(chunks[1])
    # the ball's cost depends on its centre, which is fixed: one of the
    # elements of the middle size
    middle = big[0].owner.spec.n // 2
    centre = _pick([e for e in big if e.pts.bit_count() == middle], centre_pick)
    rnd.op("ball(F(2,2))", C.ball, centre, 1, expect=lambda out: _ball_ok(centre, 1, out))
    queried.run(chunks[2])


class _FrameQueries:
    """Lift, distance and depth-equivalence queries with their oracles."""

    def __init__(self, rnd: Round, towers, big):
        self.rnd = rnd
        self.towers = towers
        self.tops = {1: raw(C.Algebra.elements)(towers[1].levels[-1]), 2: big}
        self.orders = {
            n: oracle.Order(t.levels[-1].spec.n, t.levels[-1].spec.covers)
            for n, t in towers.items()
        }
        self.models = {
            (n, d): raw(C.universal_frame)(n, d).model for n, d in EQUIV_STAGES
        }

    def run(self, queries) -> None:
        rnd, truth = self.rnd, raw(C.truth_set)
        for kind, n, *rest in queries:
            if kind == "lift":
                a, tower = _pick(self.tops[n], rest[0]), self.towers[n]
                rnd.op(
                    "lift", tower.lift, a,
                    expect=lambda fam, a=a, tower=tower: [c.pts for c in fam.components] == [
                        a.pts & ((1 << level.spec.n) - 1) for level in tower.levels
                    ],
                )
            elif kind == "distance":
                a, b = _pick(self.tops[n], rest[0]), _pick(self.tops[n], rest[1])
                order = self.orders[n]
                rnd.op(
                    "distance", C.distance, a, b,
                    expect=lambda out, a=a, b=b: out == oracle.distance(order, a.pts, b.pts),
                )
            else:
                d, t1, t2 = rest
                model = self.models[(n, d)]
                rnd.op(
                    f"d_equivalent({n},{d})", C.d_equivalent, t1, t2, n, d,
                    expect=lambda same, t1=t1, t2=t2: same == (
                        truth(model, t1) == truth(model, t2)
                    ),
                )


def _ball_ok(centre, d: int, out) -> bool:
    """The ball is the fiber [centre - eps(d), centre | eps(d)] of the
    quotient by eps(d); count it as the downsets of that interval."""
    spec = centre.owner.spec
    order = oracle.Order(spec.n, spec.covers)
    eps = order.epsilon(d)
    lo = order.diff(centre.pts, eps)
    hi = centre.pts | eps
    interval = C.Algebra(spec.induced(hi & ~lo)).size()
    members = {y.pts for y in out}
    return len(members) == len(out) == interval and all(
        y & lo == lo and y | hi == hi for y in members
    )


# ---------------------------------------------------------------------------
# search: bounded finite-model search on many fresh tiny algebras

# s2 identities (lhs, rhs, relation) over a, b, c; a search for a
# counterexample to a substitution instance must come back empty
S2_LAWS = (
    ("a", "(a \\ b) | (a & b)", "="),
    ("(a | b) \\ c", "(a \\ c) | (b \\ c)", "="),
    ("a \\ (b | c)", "(a \\ b) \\ c", "="),
    ("a \\ (a \\ b)", "(a & b) \\ (a \\ b)", "="),
    ("a \\ ((a \\ b) & b)", "a", "="),
    ("a \\ (a \\ b)", "b", "<="),
)
# satisfiable formulas: each search must return a witness that replays
NON_LAWS = (
    "{x} & (1 \\ {x}) != 0",
    "{x} \\ (1 \\ (1 \\ {x})) != 0",
    "({x} \\ {y}) & ({y} \\ {x}) != 0",
    "({x} & {y}) \\ ({x} \\ ({x} \\ {y})) != 0",
    "((1 \\ {x}) & (1 \\ {y})) \\ (1 \\ ({x} | {y})) != 0",
    "({x} \\ {y}) & {y} != 0",
    "{x} \\ ({x} \\ {y}) != 0 && {y} \\ {x} != 0",
    "({x} | {y}) \\ ({x} & {y}) != 0 && ({x} \\ {y}) & ({y} \\ {x}) = 0",
    "(1 \\ {x}) & (1 \\ (1 \\ {x})) != 0",
    "{x} & ({y} \\ {x}) != 0",
)
VAR_NAMES = ("x", "y", "z", "u", "v", "w", "p", "q", "r", "s")
MAX_ASSIGNMENTS = 300
SHAPE_POINTS = 4       # every substitution shape of every law, refuted up to here
PLAIN_POINTS = 5       # every law under a plain renaming, refuted up to here
# 40 non-laws (4 x 10) put the median of the 106 searches inside the
# cluster of 4-point refutations at 21-37 ms; with 50 it sat on the gap
# below that cluster and moved by half from round to round
NON_LAW_REPEATS = 4


def _law_instances(rng, lhs: str, rhs: str, rel: str) -> list[tuple[str, int]]:
    """Negated instances of one law under seeded variable names: the plain
    renaming, and every substitution of one variable by a binary term in
    it and another variable.  Seeds change the names, never the shapes or
    the names' order, so every seed asks for the same search."""
    used = sorted(set(re.findall(r"\b[abc]\b", lhs + rhs)))
    # sorted, so every seed enumerates assignments in the same role order
    names = dict(zip(used, sorted(rng.sample(VAR_NAMES, len(used)))))
    substitutions = [(dict(names), PLAIN_POINTS)]
    for target in used:
        for op in ("|", "&", "\\"):
            for partner in used:
                if partner != target:
                    subst = dict(names)
                    subst[target] = f"({names[target]} {op} {names[partner]})"
                    substitutions.append((subst, SHAPE_POINTS))
    out = []
    for subst, points in substitutions:
        left, right = (
            re.sub(r"\b[abc]\b", lambda m: subst[m.group()], text) for text in (lhs, rhs)
        )
        if rel == "<=":
            out.append((f"({left}) \\ ({right}) != 0", points))
        else:
            out.append((f"(({left}) \\ ({right})) | (({right}) \\ ({left})) != 0", points))
    return out


def search_setup(rng, workdir):
    list(C.enumerate_posets(6))  # warm: the searches enumerate posets of up to 5 points
    texts = []
    for lhs, rhs, rel in S2_LAWS:
        texts += [(text, points, False) for text, points in _law_instances(rng, lhs, rhs, rel)]
    for _ in range(NON_LAW_REPEATS):
        for template in NON_LAWS:
            x, y = sorted(rng.sample(VAR_NAMES, 2))
            texts.append((template.format(x=x, y=y), PLAIN_POINTS, True))
    rng.shuffle(texts)
    cases = [(C.parse_formula(text), points, sat) for text, points, sat in texts]
    return cases, texts


def _witness_ok(formula, witness) -> bool:
    poset = witness.poset
    order = oracle.Order(poset.n, poset.covers)
    env = {name: elem.pts for name, elem in witness.assignment.items()}
    return (
        witness.replayed
        and all(order.down_closure(m) == m for m in env.values())
        and order.holds(formula, env)
    )


def search_job(rnd: Round, cases) -> None:
    for formula, points, sat in cases:
        if sat:
            expect = lambda w, f=formula: w is not None and _witness_ok(f, w)
        else:
            expect = lambda w: w is None
        rnd.op(
            f"fmp_search(<={points})", C.fmp_search, formula, points, MAX_ASSIGNMENTS,
            expect=expect,
        )


WORKLOADS = {
    "census": (census_setup, census_job),
    "laws": (laws_setup, laws_job),
    "frames": (frames_setup, frames_job),
    "search": (search_setup, search_job),
}
