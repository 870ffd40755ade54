"""Finite partial orders on index-addressed points.

Points are integers 0..n-1 with display names; subsets of points travel as
int bitmasks (bit i set = point i present).  Each poset stores the full
reachability closure per point, which keeps order queries, closures and
rank computations cheap at the sizes this package targets.

The module also provides a plain text format, a canonical form usable to
deduplicate posets up to (label-preserving) isomorphism, and an
isomorphism-class enumerator for small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    CycleDetected,
    DuplicateName,
    FormatError,
    FrameMismatch,
    SizeCap,
)

PointSet = int  # bitmask of point indices
MAX_CANONICAL_POINTS = 64  # canonical form input size
MAX_ENUM_POINTS = 7  # isomorphism-class enumeration
MAX_CLOSURE = 2 ** 20  # downset lists and signature closures
MAX_ANTICHAINS = 2 ** 20  # antichain streams
MAX_CANONICAL_LEAVES = 2 ** 20  # canonical form backtracking leaves
CANONICAL_CACHE = 1024  # entries of each cache canonical_form keeps across calls


def bits(mask: PointSet) -> Iterator[int]:
    """Yield the indices set in ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> PointSet:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _extremal(closure: Sequence[int], s: PointSet) -> PointSet:
    """The points p of ``s`` whose ``closure[p]`` meets ``s`` in p alone."""
    out, rest = 0, s
    while rest:
        low = rest & -rest
        if closure[low.bit_length() - 1] & s == low:
            out |= low
        rest ^= low
    return out


def _runs(points: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
    """The maximal runs of ``points`` that go up by one, as ``(low, ones,
    new)``: ``points[new + j] == low + j`` below ``length``, and ``ones`` is
    ``2**length - 1``.  A repeated or falling entry starts a run, so there
    are never more runs than entries."""
    out, new = [], 0
    for q in range(1, len(points) + 1):
        if q == len(points) or points[q] != points[q - 1] + 1:
            out.append((points[new], (1 << q - new) - 1, new))
            new = q
    return tuple(out)


def _compress(runs: Sequence[tuple[int, int, int]], m: PointSet) -> PointSet:
    """The mask whose bit q is bit ``points[q]`` of ``m``, for the
    ``points`` of ``runs``: one shift and mask per run."""
    out = 0
    for low, ones, new in runs:
        out |= (m >> low & ones) << new
    return out


_CUBE_MIN = 7  # a cube of fewer generators, 64 masks at most, is a run


def _steps(run: list[PointSet], down: Sequence[PointSet], up: Sequence[PointSet], points:
           Iterable[int], decided: PointSet, k: int | None, cap: int) -> tuple[list, list]:
    """The list walk of ``Poset._walk`` over ``points``, from ``decided``:
    the closures without each point, then those with it.  Returns them with
    the last point's part.  SizeCap once they are more than ``cap``."""
    with_i: list[PointSet] = []
    for i in points:
        d = down[i]
        need, bar = d & decided, up[i] & decided
        decided |= 1 << i
        if k is not None:
            with_i = [m | d for m in run if m & need == need and (m | d).bit_count() <= k]
        elif need:
            with_i = [m | d for m in run if m & need == need]
        else:
            with_i = [m | d for m in run]
        if bar:
            run = [m for m in run if not m & bar]
        run += with_i
        if len(run) > cap:
            raise SizeCap(f"more than {cap} downsets")
    return run, with_i


def _expand(base: PointSet, gens: Sequence[PointSet]) -> list[PointSet]:
    """The masks of the cube ``(base, gens)`` in order, by doubling."""
    out = [base]
    for g in gens:
        out += [m | g for m in out]
    return out


def _listed(segs: list) -> tuple[PointSet, ...]:
    """The masks of ``Poset._walk``'s segments reversed, then sorted stably
    by size.  A cube is listed by how many generators a mask joins, which
    once every point is decided is its size less the base's."""
    masks = []
    for s in reversed(segs):
        if type(s) is list:
            masks += reversed(s)
            continue
        levels = [[s[0]]]
        for g in s[1]:
            levels.append([])
            for c in range(len(levels) - 1, 0, -1):
                levels[c] += [m | g for m in levels[c - 1]]
        for level in levels:
            masks += reversed(level)
    masks.sort(key=int.bit_count)
    return tuple(masks)


_FLIP = str.maketrans("01", "10")


def set_key(mask: PointSet) -> tuple:
    """Deterministic sort key: cardinality, then lexicographic indices.

    The bits are read from bit 0 up with 0 and 1 swapped, so a present
    point sorts first; at equal cardinality no such string is a proper
    prefix of another, so the order is that of ascending index tuples.
    """
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP))


class _memo(cached_property):
    """``cached_property`` without the ``RLock`` it takes on each first read up
    to Python 3.11; the methods are pure, so a race stores equal values."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        obj.__dict__[self.attrname] = value = self.func(obj)
        return value


@dataclass(frozen=True)
class Poset:
    """Immutable finite poset.

    ``covers`` is the irredundant Hasse relation as (lower, upper) index
    pairs.  ``down[i]``/``up[i]`` are reflexive closure masks.
    """

    names: tuple[str, ...]
    covers: tuple[tuple[int, int], ...]
    down: tuple[int, ...]
    up: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full(self) -> PointSet:
        return (1 << len(self.names)) - 1

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise FormatError(f"unknown point {name!r}") from None

    def leq(self, i: int, j: int) -> bool:
        return bool(self.down[j] >> i & 1)

    def down_closure(self, s: PointSet) -> PointSet:
        down, out = self.down, 0
        while s:
            low = s & -s
            out |= down[low.bit_length() - 1]
            s ^= low
        return out

    def up_closure(self, s: PointSet) -> PointSet:
        up, out = self.up, 0
        while s:
            low = s & -s
            out |= up[low.bit_length() - 1]
            s ^= low
        return out

    def is_downset(self, s: PointSet) -> bool:
        return self.down_closure(s) == s

    def maximal_points(self, s: PointSet) -> PointSet:
        # p in s with nothing of s strictly above it
        return _extremal(self.up, s)

    def minimal_points(self, s: PointSet) -> PointSet:
        return _extremal(self.down, s)

    @_memo
    def ranks(self) -> tuple[int, ...]:
        """rank[i] = length of the longest chain strictly below i: one
        more than the greatest rank of a lower cover."""
        lower: list[list[int]] = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            lower[hi].append(lo)
        rank = [0] * self.n
        for i in self._topo_order():
            rank[i] = max((rank[j] + 1 for j in lower[i]), default=0)
        return tuple(rank)

    @_memo
    def coranks(self) -> tuple[int, ...]:
        """corank[i] = length of the longest chain strictly above i."""
        return self.dual().ranks

    @_memo
    def _irreducible_masks(self) -> tuple[tuple[PointSet, ...], ...]:
        """The join and meet irreducible masks, each in ``set_key`` order."""
        meets = [self.full & ~u for u in self.up]
        return tuple(tuple(sorted(ms, key=set_key)) for ms in (self.down, meets))

    def height(self) -> int:
        """Longest chain length (edges); -1 for the empty poset."""
        return max(self.ranks, default=-1)

    def _topo_order(self) -> list[int]:
        return sorted(range(self.n), key=lambda i: (self.down[i].bit_count(), i))

    def dual(self) -> "Poset":
        """Same points, reversed order."""
        return Poset(
            names=self.names,
            covers=tuple(sorted((b, a) for a, b in self.covers)),
            down=self.up,
            up=self.down,
        )

    def induced(self, keep: PointSet) -> "Poset":
        """Subposet on the points of ``keep``, renumbered in index order,
        names preserved.  Each down and up mask is compressed run by run
        (``_runs``, ``_compress``) over the maximal runs of ones in
        ``keep``, the runs ``Morphism.apply`` uses for the quotient map
        onto this subposet."""
        kept = list(bits(keep))
        runs = _runs(kept)
        return _from_masks(
            [self.names[i] for i in kept],
            [_compress(runs, self.down[i]) for i in kept],
            [_compress(runs, self.up[i]) for i in kept],
        )

    def antichains(self) -> list[PointSet]:
        """All nonempty antichains, sorted by size then lexicographic indices."""
        return list(antichain_stream(self.down, self.up))

    def _walk(self, k: int | None) -> tuple[PointSet, ...]:
        """The downsets of at most ``k`` points (``None``: every one), sorted
        by (size, indices).  The points are decided from index n-1 down, each
        partial downset held as its down closure: those that hold the decided
        points below i (``need``) gain a copy with ``down[i]``, after all the
        others; those that hold one above i (``bar``), and so i, lose theirs
        without it.  Without ``k`` the closures are held as segments, runs
        (lists) and cubes ``(base, gens)``: the masks ``base | OR(gens[p] for
        p in bits(j))`` for j ascending.  A point with neither appends
        ``down[i]`` to a sole cube.  Each generator adds one decided point to
        its base, so a cube steps exactly: without i it keeps the generators
        that miss ``bar`` (none if the base meets it); with i its base is
        ``base | down[i]``, which holds the generators that meet ``need``, and
        it keeps the others (none if a point of ``need`` outside the base has
        no generator).  A cube of fewer than ``_CUBE_MIN`` generators is a
        run, and a sole run goes on as one list (``_steps``).  SizeCap is
        raised once the segments hold more than ``MAX_CLOSURE``, counted
        without building them."""
        down, up, cap = self.down, self.up, MAX_CLOSURE
        i, decided, masks = self.n, 0, [0]
        if k is None and i >= _CUBE_MIN:
            segs = [(0, [])]
            while i and (len(segs) > 1 or type(segs[0]) is tuple):
                d = down[i - 1]
                need, bar = d & decided, up[i - 1] & decided
                if len(segs) == 1 and need | bar and len(segs[0][1]) < _CUBE_MIN:
                    segs = [_expand(*segs[0])]
                    continue
                i -= 1
                if len(segs) == 1 and not need | bar:
                    segs[0][1].append(d)
                    total = 1 << len(segs[0][1])
                else:
                    keep, withs = [], []
                    for s in segs:
                        if type(s) is list:
                            s, w = _steps(s, down, up, (i,), decided, None, cap)
                            s = s[:len(s) - len(w)]
                        else:
                            base, gens = s
                            lack = need & ~base
                            rest = [g for g in gens if not g & lack]
                            whole = len(gens) - len(rest) == lack.bit_count()
                            w = (base | d, rest) if whole else []
                            s = [] if base & bar else (base, [g for g in gens if not g & bar])
                        keep.append(s)
                        withs.append(w)
                    segs = []
                    for s in keep + withs:
                        if type(s) is tuple and len(s[1]) < _CUBE_MIN:
                            s = _expand(*s)
                        if type(s) is list and segs and type(segs[-1]) is list:
                            segs[-1] += s
                        elif s:
                            segs.append(s)
                    total = sum(len(s) if type(s) is list else 1 << len(s[1]) for s in segs)
                if total > cap:
                    raise SizeCap(f"more than {cap} downsets")
                decided |= 1 << i
            if not i:
                return _listed(segs)
            masks = segs[0]
        masks = _steps(masks, down, up, reversed(range(i)), decided, k, cap)[0]
        masks.reverse()
        masks.sort(key=int.bit_count)
        return tuple(masks)

    def downsets(self) -> tuple[PointSet, ...]:
        """Every downset, sorted by (size, indices), as one tuple kept for
        the life of the poset.  It is built by ``_walk`` on first use, which
        raises SizeCap when there are more than ``MAX_CLOSURE``, counting a
        cube without listing it; a build that raised keeps nothing."""
        found = self.__dict__.get("_downsets")
        if found is None:
            found = self.__dict__["_downsets"] = self._walk(None)
        return found

    def all_downsets(self) -> list[PointSet]:
        """A fresh list of ``downsets()``: the caller may change it."""
        return list(self.downsets())

    def downsets_upto(self, k: int) -> tuple[PointSet, ...]:
        """The downsets of at most ``k`` points: a prefix of ``downsets()``,
        the same masks in the same order, built by ``_walk`` as one run,
        which drops a closure as soon as it has more than ``k`` points, and
        kept by no one.  SizeCap is raised once there are more than
        ``MAX_CLOSURE`` of them, whatever ``downsets()`` would count."""
        return self._walk(k)

    def count_downsets(self) -> int:
        """Number of downsets, computed without materializing them: the
        product over the connected components of the comparability graph.
        In each component, those of ``sub`` without its lowest point x plus
        those with it, memoized, with an explicit stack in place of
        recursion; an antichain is n components of one point."""
        down, up, total, rest = self.down, self.up, 1, self.full
        while rest:
            comp, new = 0, rest & -rest
            while new:
                comp |= new
                new = (self.down_closure(new) | self.up_closure(new)) & ~comp
            rest &= ~comp
            memo: dict[PointSet, int] = {0: 1}
            todo = [comp]
            while todo:
                sub = todo.pop()
                if sub in memo:
                    continue
                x = (sub & -sub).bit_length() - 1
                a, b = sub & ~up[x], sub & ~down[x]
                if a in memo and b in memo:
                    memo[sub] = memo[a] + memo[b]
                else:
                    todo += (sub, a, b)
            total *= memo[comp]
        return total

    def format_points(self, s: PointSet) -> str:
        return "{" + ",".join(self.names[i] for i in bits(s)) + "}"

    def __repr__(self) -> str:
        rel = " ".join(
            f"{self.names[a]}<{self.names[b]}" for a, b in self.covers
        )
        return f"Poset({self.n} points{'; ' + rel if rel else ''})"


def antichain_stream(
    down: Sequence[PointSet], up: Sequence[PointSet]
) -> Iterator[PointSet]:
    """Nonempty antichains of the order given by reflexive ``down``/``up``
    closure masks, lazily, in ``set_key`` order.

    Size by size: each antichain of size k, in lexicographic order of its
    index tuple, gains in turn each larger point incomparable to all of
    it, which lists those of size k+1 in the same order.  Only the
    antichains of the current and the next size are held, and each
    rebuilds its extension mask when it is extended.  A caller that stops
    reading stops the work; SizeCap is raised once more than
    ``MAX_ANTICHAINS`` are yielded, which bounds the work too.  The
    limit is read when the stream starts.
    """
    cap = MAX_ANTICHAINS
    full = (1 << len(down)) - 1
    incomparable = [full & ~(d | u) for d, u in zip(down, up)]
    count, level = 0, [0]
    while level:
        bigger = []
        for chosen in level:
            top = chosen.bit_length()
            rest, s = full >> top << top, chosen
            while s:
                low = s & -s
                rest &= incomparable[low.bit_length() - 1]
                s ^= low
            while rest:
                low = rest & -rest
                rest ^= low
                cur = chosen | low
                count += 1
                if count > cap:
                    raise SizeCap(f"more than {cap} antichains")
                bigger.append(cur)
                yield cur
        level = bigger


def close(
    seeds: Iterable[PointSet],
    diff: Callable[[PointSet, PointSet], PointSet],
) -> list[PointSet]:
    """Closure of ``seeds`` under union, intersection and ``diff`` (taken
    both ways round), sorted by ``set_key``.

    Raises SizeCap once the closure would exceed ``MAX_CLOSURE`` masks.
    """
    cap = MAX_CLOSURE
    masks: list[PointSet] = []
    seen: set[PointSet] = set()

    def add(m: PointSet) -> None:
        if m not in seen:
            if len(seen) >= cap:
                raise SizeCap(f"closure exceeds {cap} elements")
            seen.add(m)
            masks.append(m)

    for m in seeds:
        add(m)
    i = 0
    while i < len(masks):
        a = masks[i]
        for j in range(i + 1):
            b = masks[j]
            add(a | b)
            add(a & b)
            add(diff(a, b))
            add(diff(b, a))
        i += 1
    return sorted(seen, key=set_key)


def transpose(down: Sequence[int]) -> list[int]:
    """Up masks from down masks: bit j of ``up[i]`` is bit i of ``down[j]``."""
    up = [0] * len(down)
    for j, d in enumerate(down):
        for i in bits(d):
            up[i] |= 1 << j
    return up


def _from_down(names: Sequence[str], down: Sequence[int]) -> Poset:
    """Build a Poset from reflexive down-closure masks: their transpose
    gives the up masks, and ``_from_masks`` the covers."""
    return _from_masks(names, down, transpose(down))


def _from_masks(names: Sequence[str], down: Sequence[int], up: Sequence[int]) -> Poset:
    """Build a Poset from reflexive down- and up-closure masks, ``up`` the
    transpose of ``down``; only the covers are computed, by climbing."""
    covers = []
    for j in range(len(names)):
        rest = down[j] & ~(1 << j)
        while rest:
            # climb to a maximal point of rest, a lower cover of j (one
            # step under either topological indexing); no other lies below
            i = rest.bit_length() - 1
            while above := up[i] & rest & ~(1 << i):
                i = (above & -above).bit_length() - 1
            covers.append((i, j))
            rest &= ~down[i]
    return Poset(tuple(names), tuple(sorted(covers)), tuple(down), tuple(up))


def build_poset(
    points: Sequence[str],
    covers: Iterable[tuple[str, str]] = (),
) -> Poset:
    """Construct a poset from point names and generating relation pairs.

    The pairs need not be irredundant; the Hasse relation is recomputed
    from the transitive closure.  Raises DuplicateName or CycleDetected.
    """
    names = tuple(points)
    if len(set(names)) != len(names):
        seen = set()
        for nm in names:
            if nm in seen:
                raise DuplicateName(f"point {nm!r} declared twice")
            seen.add(nm)
    idx = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    edges: list[list[int]] = [[] for _ in range(n)]  # lower -> uppers
    indeg = [0] * n
    pairs = set()
    for lo, hi in covers:
        if lo not in idx:
            raise FormatError(f"unknown point {lo!r} in covers")
        if hi not in idx:
            raise FormatError(f"unknown point {hi!r} in covers")
        a, b = idx[lo], idx[hi]
        if a == b:
            raise CycleDetected(f"point {lo!r} related to itself")
        if (a, b) not in pairs:
            pairs.add((a, b))
            edges[a].append(b)
            indeg[b] += 1
    # Kahn: topological order doubles as the cycle check
    queue = [i for i in range(n) if indeg[i] == 0]
    order = []
    while queue:
        v = queue.pop()
        order.append(v)
        for w in edges[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != n:
        raise CycleDetected("cover relation contains a cycle")
    # down masks along the order, up masks against it: each pass reads only
    # masks it has finished
    down = [1 << i for i in range(n)]
    for v in order:
        for w in edges[v]:
            down[w] |= down[v]
    up = [1 << i for i in range(n)]
    for v in reversed(order):
        for w in edges[v]:
            up[v] |= up[w]
    return _from_masks(names, down, up)


# ---------------------------------------------------------------------------
# text format

# characters of the text formats' own syntax, not allowed in a point name
# or a color variable
_RESERVED = ', { } < : " \\'


def _check_name(kind: str, name: str) -> None:
    if any(c in _RESERVED for c in name):
        raise FormatError(f"{kind} name {name!r} contains one of {_RESERVED}")


def parse_poset_text(text: str) -> tuple[Poset, dict[str, frozenset[str]] | None]:
    """Parse the plain text poset format.

    Directives: ``points:``, ``covers:`` (tokens ``a<b``) and the optional
    ``colors:`` (tokens ``p:{x,y}``).  ``#`` starts a comment.  A point
    name or a color variable may not contain ``, { } < : "`` or a
    backslash.  Returns the poset and the color map when one was given.
    """
    points: list[str] = []
    cover_pairs: list[tuple[str, str]] = []
    colors: dict[str, frozenset[str]] = {}
    saw_colors = False
    mode = None
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        for token in line.split():
            if token.endswith(":") and token[:-1] in ("points", "covers", "colors"):
                mode = token[:-1]
                continue
            if mode == "points":
                _check_name("point", token)
                points.append(token)
            elif mode == "covers":
                if "<" not in token:
                    raise FormatError(f"bad cover token {token!r}")
                lo, hi = token.split("<", 1)
                cover_pairs.append((lo, hi))
            elif mode == "colors":
                saw_colors = True
                if ":" not in token:
                    raise FormatError(f"bad color token {token!r}")
                name, body = token.split(":", 1)
                if not (body.startswith("{") and body.endswith("}")):
                    raise FormatError(f"bad color token {token!r}")
                variables = [v for v in body[1:-1].split(",") if v]
                for v in variables:
                    _check_name("color variable", v)
                colors[name] = frozenset(variables)
            else:
                raise FormatError(f"unexpected token {token!r}")
    poset = build_poset(points, cover_pairs)
    if saw_colors:
        for name in colors:
            if name not in poset.names:
                raise FormatError(f"color given for unknown point {name!r}")
        full = {nm: colors.get(nm, frozenset()) for nm in poset.names}
        return poset, full
    return poset, None


def poset_to_text(
    poset: Poset, colors: Mapping[str, frozenset[str]] | None = None
) -> str:
    lines = ["points: " + " ".join(poset.names)]
    if poset.covers:
        lines.append(
            "covers: "
            + " ".join(f"{poset.names[a]}<{poset.names[b]}" for a, b in poset.covers)
        )
    if colors is not None:
        toks = [
            f"{nm}:{{{','.join(sorted(colors.get(nm, frozenset())))}}}"
            for nm in poset.names
        ]
        lines.append("colors: " + " ".join(toks))
    return "\n".join(lines) + "\n"


def parse_point_list(text: str, poset: Poset) -> PointSet:
    """Parse an element literal like ``{p0,p1}`` against a poset."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise FormatError(f"bad point set literal {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return 0
    out = 0
    for name in inner.split(","):
        out |= 1 << poset.index(name.strip())
    return out


# ---------------------------------------------------------------------------
# canonical form

@lru_cache(maxsize=CANONICAL_CACHE)
def _str_set_key(label: frozenset) -> tuple:
    return ("set", tuple(sorted(label)))


_ONLY_STR = frozenset({str}).issuperset


def _label_key(label) -> tuple:
    """The sort key of one label in ``canonical_form``.

    A frozenset whose members are all exactly ``str`` has its key kept,
    at most ``CANONICAL_CACHE`` of them, least recently used dropped first.
    Only those: the kept keys are found by equality, and ``frozenset({1})
    == frozenset({True}) == frozenset({1.0})`` and ``frozenset({"a"}) ==
    frozenset({s})`` for a ``str`` subclass ``s`` equal to "a", while their
    keys differ.  Equal frozensets of exact ``str`` hold the same strings,
    so their keys agree.  ``set`` labels, frozenset subclasses and every
    other label are keyed afresh on each call.
    """
    if type(label) is frozenset and _ONLY_STR(map(type, label)):
        return _str_set_key(label)
    if isinstance(label, (frozenset, set)):
        # a set of str keeps its two-part key; other members add a third
        # part, their own sorted keys, so frozenset({1}) and frozenset({"1"})
        # stay apart
        others = [v for v in label if not isinstance(v, str)]
        if not others:
            return ("set", tuple(sorted(map(str, label))))
        names = sorted([v for v in label if isinstance(v, str)])
        return ("set", tuple(names), tuple(sorted(map(_label_key, others))))
    if isinstance(label, tuple):
        return ("tuple",) + tuple(_label_key(v) for v in label)
    if label is None:
        return ("none",)
    return ("atom", type(label).__name__, repr(label))


@lru_cache(maxsize=CANONICAL_CACHE)
def _members(mask: PointSet) -> tuple[int, ...]:
    """The indices set in ``mask``, ascending, kept for later calls."""
    return tuple(bits(mask))


# leaf code texts kept for later calls; label key reprs are cached by the
# key, never by the label: 1, True and 1.0 are one cache key, three keys
_key_text = lru_cache(maxsize=CANONICAL_CACHE)(repr)
_NONE_TEXT = repr(("none",))


@lru_cache(maxsize=8)
def _cover_texts(n: int) -> tuple[str, ...]:
    return tuple([f"({v // n}, {v % n})" for v in range(n * n)])


def _refine(
    cells: list[list[int]], signature: Callable[[int, Callable[[int], int]], object]
) -> list[list[int]]:
    """Refine an ordered partition of the points 0..n-1, a list of cells,
    until it is stable.  A round gives each point the offset of its cell,
    the number of points in the cells before it, and splits every cell of
    more than one point by ``signature(i, get)``, where ``get`` maps a
    point to its cell's offset; the parts take the cell's place in sorted
    signature order, each keeping the order of its points.  Singleton
    cells are left alone, and refinement stops when a round splits no cell.
    """
    offset = [0] * sum(map(len, cells))
    get = offset.__getitem__
    while True:
        at = 0
        for cell in cells:
            for i in cell:
                offset[i] = at
            at += len(cell)
        split: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            parts: dict = {}
            for i in cell:
                parts.setdefault(signature(i, get), []).append(i)
            if len(parts) == 1:
                split.append(cell)
            else:
                split += [parts[sig] for sig in sorted(parts)]
        if len(split) == len(cells):
            return cells
        cells = split


def canonical_form(
    poset: Poset,
    labels: Sequence | Mapping[int, object] | None = None,
) -> str:
    """Canonical code: equal exactly for label-preserving isomorphic posets.

    Refinement plus individualization on an ordered partition of the
    points, a list of cells; the code is the minimum encoding over all
    discrete partitions explored.  The cells start as the points of each
    label, labels in sorted order.  ``_refine`` splits them by the sorted
    cell offsets strictly below and strictly above each point.  Without
    labels, the cells start as the points of each (number strictly below,
    number strictly above), in sorted order: what the first round makes of
    the one cell of every point, whose offsets are all 0, since a tuple of
    zeros sorts by its length.
    Individualizing a point of the first cell with more than one point
    moves it to the front of the whole order as a cell of its own, the
    rest of its cell staying where the cell was.  A partition of
    singletons is a leaf.  Its code is the text of ``repr((n, label keys,
    covers))``, the covers as sorted position pairs, joined from kept
    texts of each label key and of each pair (sorted as ``a * n + b``).

    The search is depth first, over an explicit stack of partitions.  A
    partition's children, one per explored point of its target cell in
    the cell's order, are pushed in reverse, so each is refined and
    searched to the end before the next: the leaves come in the order of
    a recursive search.  The leaf budget is checked once per leaf, so a
    search completes under ``MAX_CANONICAL_LEAVES`` exactly when it visits
    at most that many leaves.

    Twins (points with the same strict down-set, strict up-set and label)
    are pruned: swapping two twins is an automorphism fixing every other
    point, so individualizing either gives the same leaf codes, and only
    the first twin of each class in the target cell is explored.  The
    twin classes are found at the first partition with a cell of more
    than one point, so a search that refinement alone takes to a leaf
    never builds them.  The minimum, and with it the code, is
    byte-identical to that of the unpruned search.  Offsets order the
    cells as their ranks do, so the splits and the codes are those of a
    search on colour lists that re-ranks every point by (colour, sorted
    colours below, sorted colours above) each round, with an
    individualized point coloured -1.

    When every cell of more than one point is a twin class, the one leaf
    below is finished at once, charged once to the budget: the first
    point of the first open cell goes to the front, again and again, with
    no refinement between.  This is exact.  Twins are incomparable, and
    every other point lies above (below) all of a twin class or none of
    it; on a stable partition the points of a cell lie above (below)
    equally many points of each cell, so each individualized partition is
    stable as it is, and its target a twin class, of which only the first
    twin is explored.  An antichain, a star or a complete bipartite order
    is finished so after one refinement.

    What depends only on a label or on one mask is kept across calls, at
    most ``CANONICAL_CACHE`` entries each, least recently used dropped
    first: the keys of frozenset labels of exact ``str`` members (see
    ``_label_key``), the texts of label keys, and the points of each
    strict down and up mask as an ascending tuple.  Unlabelled points
    share one text.  A cache changes no code: a kept entry is what the
    call would compute.

    A label sequence must have one label per point (FrameMismatch
    otherwise).  A mapping gives None to the points it leaves out, and
    each of its keys must be a point index, an ``int`` in ``0 .. n - 1``
    (FrameMismatch otherwise); a ``bool`` key is refused, since ``True``
    and ``1`` are one dict key.  SizeCap is raised on more than
    ``MAX_CANONICAL_POINTS`` points, and when the search would visit more
    than ``MAX_CANONICAL_LEAVES`` leaves.
    """
    n = poset.n
    if n > MAX_CANONICAL_POINTS:
        raise SizeCap(f"canonical form limited to {MAX_CANONICAL_POINTS} points")
    if isinstance(labels, Mapping):
        for i in labels:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n:
                raise FrameMismatch(f"label for {i!r}, not a point index below {n}")
        labels = [labels.get(i) for i in range(n)]
    elif labels is not None and len(labels) != n:
        raise FrameMismatch(f"{len(labels)} labels for {n} points")
    if n == 0:
        return repr((0, (), ()))
    below = [_members(d ^ 1 << j) for j, d in enumerate(poset.down)]
    above = [_members(u ^ 1 << j) for j, u in enumerate(poset.up)]
    if labels is None:
        # the first refinement round of the one cell of every point
        keys = list(zip(map(len, below), map(len, above)))
        texts = [_NONE_TEXT] * n
        # the label part of every leaf code
        none_part = ", ".join(texts)
    else:
        keys = list(map(_label_key, labels))
        texts = list(map(_key_text, keys))
        none_part = ""
    root: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        root.setdefault(key, []).append(i)

    def signature(i: int, get: Callable[[int], int]) -> tuple:
        return (tuple(sorted(map(get, below[i]))), tuple(sorted(map(get, above[i]))))

    pair_texts = _cover_texts(n)
    covers = poset.covers
    best: str | None = None
    budget = MAX_CANONICAL_LEAVES
    twin: list[int] = []
    stack = [[root[key] for key in sorted(root)]]
    while stack:
        cells = _refine(stack.pop(), signature)
        for c, target in enumerate(cells):
            if len(target) > 1:
                break
        else:
            c = n
        if c < n and not twin:
            # the label is left out: twins are compared only within a cell,
            # and the points of a cell share their label
            first: dict[tuple, int] = {}
            down, up = poset.down, poset.up
            twin = [first.setdefault((down[i] ^ 1 << i, up[i] ^ 1 << i), i) for i in range(n)]
        if c < n and any(twin[i] != twin[cell[0]] for cell in cells[c:] for i in cell):
            explored = set()
            children = []
            for i in target:
                if twin[i] in explored:
                    continue
                explored.add(twin[i])
                rest = [j for j in target if j != i]
                children.append([[i], *cells[:c], rest, *cells[c + 1:]])
            stack += reversed(children)
            continue
        budget -= 1
        if budget < 0:
            raise SizeCap("canonical form backtracking budget exhausted")
        # one leaf: every open cell is a twin class; the points of each but
        # its last go to the front in turn, so the front holds them reversed
        order = [cell[-1] for cell in cells]
        if c < n:
            front = [i for cell in cells[c:] for i in cell[:-1]]
            order = front[::-1] + order
        pos = [0] * n
        for new, old in enumerate(order):
            pos[old] = new
        flat = sorted([pos[a] * n + pos[b] for a, b in covers])
        label_part = none_part or ", ".join([texts[old] for old in order])
        cover_part = ", ".join([pair_texts[v] for v in flat])
        code = (
            f"({n}, ({label_part}{',' if n == 1 else ''}),"
            f" ({cover_part}{',' if len(flat) == 1 else ''}))"
        )
        if best is None or code < best:
            best = code
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# enumeration up to isomorphism

def _add_top(base: Poset, names: tuple[str, ...], downset: PointSet) -> Poset:
    """``base`` with one more point k, named last in ``names``, whose strict
    down-set is the downset ``downset``: its lower covers are the maximal
    points of ``downset``, and bit k joins the up mask of each point of it."""
    k, top, up = base.n, 1 << base.n, base.up
    new_covers = tuple([(i, k) for i in range(k) if up[i] & downset == 1 << i])
    return Poset(
        names,
        tuple(sorted(base.covers + new_covers)),
        base.down + (downset | top,),
        tuple([u | top if downset >> i & 1 else u for i, u in enumerate(up)]) + (top,),
    )


@lru_cache(maxsize=None)
def _iso_classes(size: int) -> tuple[Poset, ...]:
    if size <= 0:
        return ()
    if size == 1:
        return (build_poset(["p0"], []),)
    reps: dict[str, Poset] = {}
    for base in _iso_classes(size - 1):
        k = base.n
        names = base.names + (f"p{k}",)
        # (a, b) bits of consecutive twins a < b: same strict down and up masks
        twins, last = [], {}
        for i in range(k):
            key = (base.down[i] & ~(1 << i), base.up[i] & ~(1 << i))
            if key in last:
                twins.append((1 << last[key], 1 << i))
            last[key] = i
        for downset in base.downsets():
            if any(downset & b and not downset & a for a, b in twins):
                continue
            cand = _add_top(base, names, downset)
            code = canonical_form(cand)
            if code not in reps:
                reps[code] = cand
    return tuple(reps[c] for c in sorted(reps))


def enumerate_posets(max_points: int) -> Iterator[Poset]:
    """One representative per isomorphism class, sizes 1..max_points.

    Deterministic order: by size, then by canonical code.  Every poset of
    size k+1 arises from a size-k poset by attaching a new maximal point
    above one of its downsets, so the sweep is exhaustive; the first
    candidate of each class, over the bases in order and their downsets
    in ``downsets()`` order, represents it.  Each candidate is built from
    its base: the masks gain the new point, and its lower covers are the
    maximal points of its downset, so no closure is transposed and no
    cover is climbed again.  Twins a < b of a base (the
    same strict down and up masks) are skipped over: a downset holding b
    but not a gives, swapped, an isomorphic candidate from an earlier
    downset of the same base, so it is never first and is not built.
    The classes of each size are built once and kept for the life of the
    process.  SizeCap is raised past ``MAX_ENUM_POINTS`` points.
    """
    if max_points > MAX_ENUM_POINTS:
        raise SizeCap(
            f"enumeration capped at {MAX_ENUM_POINTS} points"
            f" (asked for {max_points})"
        )
    for size in range(1, max_points + 1):
        yield from _iso_classes(size)
