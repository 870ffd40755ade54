"""Poset foundation: construction, closure, enumeration, canonical codes.

The enumeration oracle here is independent of the library: labeled
partial orders are brute-forced as transitive antisymmetric relations and
isomorphism classes are counted via minimum-over-permutations codes.
"""

import dataclasses
import hashlib
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coheyting import posets
from coheyting.algebra import Algebra
from coheyting.errors import (
    CycleDetected,
    DuplicateName,
    FormatError,
    FrameMismatch,
    SizeCap,
)
from coheyting.fixtures import load_fixture
from coheyting.kripke import free_quotient, universal_frame
from coheyting.posets import (
    Poset,
    _from_down,
    antichain_stream,
    bits,
    build_poset,
    canonical_form,
    enumerate_posets,
    mask_of,
    parse_point_list,
    parse_poset_text,
    poset_to_text,
    set_key,
)


def brute_labeled_posets(k: int) -> list[frozenset]:
    """All strict partial orders on range(k) as frozensets of pairs."""
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    found = []
    for sel in range(1 << len(pairs)):
        rel = {pairs[t] for t in range(len(pairs)) if sel >> t & 1}
        if any((j, i) in rel for (i, j) in rel):
            continue
        if any(
            (i, l) not in rel
            for (i, j) in rel
            for (j2, l) in rel
            if j2 == j and i != l
        ):
            continue
        found.append(frozenset(rel))
    return found


def iso_code(rel: frozenset, k: int) -> tuple:
    return min(
        tuple(sorted((perm[i], perm[j]) for (i, j) in rel))
        for perm in itertools.permutations(range(k))
    )


def automorphism_count(poset: Poset) -> int:
    strict = {
        (j, i)
        for i in range(poset.n)
        for j in bits(poset.down[i])
        if j != i
    }
    count = 0
    for perm in itertools.permutations(range(poset.n)):
        if {(perm[a], perm[b]) for (a, b) in strict} == strict:
            count += 1
    return count


# known labeled partial order counts, cross-checked by the brute force
LABELED = {1: 1, 2: 3, 3: 19, 4: 219}
CLASSES = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_brute_force_labeled_counts(k):
    assert len(brute_labeled_posets(k)) == LABELED[k]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumeration_matches_brute_force_classes(k):
    rels = brute_labeled_posets(k)
    brute_classes = {iso_code(rel, k) for rel in rels}
    enumerated = [p for p in enumerate_posets(k) if p.n == k]
    assert len(enumerated) == len(brute_classes) == CLASSES[k]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_orbit_stabilizer_cross_check(k):
    """Sum of k!/|Aut| over iso classes equals the labeled count."""
    total = 0
    fact = 1
    for i in range(1, k + 1):
        fact *= i
    for poset in enumerate_posets(k):
        if poset.n != k:
            continue
        aut = automorphism_count(poset)
        assert fact % aut == 0
        total += fact // aut
    assert total == LABELED[k]


def test_enumeration_sizes_up_to_five():
    seen = {}
    for p in enumerate_posets(5):
        seen[p.n] = seen.get(p.n, 0) + 1
    assert seen == CLASSES


def test_enumeration_is_deterministic():
    first = [canonical_form(p) for p in enumerate_posets(4)]
    second = [canonical_form(p) for p in enumerate_posets(4)]
    assert first == second
    assert len(set(first)) == len(first)


def test_enumeration_cap():
    with pytest.raises(SizeCap):
        list(enumerate_posets(40))


def test_build_poset_rejects_duplicates_and_cycles():
    with pytest.raises(DuplicateName):
        build_poset(["a", "a"], [])
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(FormatError):
        build_poset(["a"], [("a", "zzz")])


def test_build_poset_up_masks_match_transpose():
    # build_poset takes its up masks from a second pass over the Kahn order;
    # _from_down transposes the down masks.  Each poset of up to 6 points is
    # rebuilt from its covers, from all its strict pairs in a shuffled order,
    # and under reversed point names, which makes the indices run downward.
    rng = random.Random(25)
    fields = [f.name for f in dataclasses.fields(Poset)]
    for p in enumerate_posets(6):
        covers = [(p.names[a], p.names[b]) for a, b in p.covers]
        strict = [(p.names[a], p.names[b])
                  for b in range(p.n) for a in bits(p.down[b]) if a != b]
        rng.shuffle(strict)
        for q in (build_poset(p.names, covers), build_poset(p.names, strict)):
            assert q.down == p.down
            want = _from_down(p.names, p.down)
            assert [getattr(q, f) for f in fields] == [getattr(want, f) for f in fields]
        q = build_poset(p.names[::-1], covers)
        want = _from_down(q.names, q.down)
        assert [getattr(q, f) for f in fields] == [getattr(want, f) for f in fields]


def test_closure_and_rank_on_three_chain():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq(0, 2)
    assert not p.leq(2, 0)
    assert list(p.ranks) == [0, 1, 2]
    assert list(p.coranks) == [2, 1, 0]
    assert p.height() == 2
    assert p.down_closure(1 << 2) == 0b111
    assert p.up_closure(1 << 0) == 0b111
    assert p.is_downset(0b011)
    assert not p.is_downset(0b100)


def test_set_key_orders_like_index_tuples():
    def reference(m):
        return (m.bit_count(), tuple(bits(m)))

    rng = random.Random(22)
    small = list(range(1 << 12))
    rng.shuffle(small)
    wide = [rng.getrandbits(22) for _ in range(20000)]
    for masks in (small, wide):
        assert sorted(masks, key=set_key) == sorted(masks, key=reference)


def test_ranks_are_longest_chains():
    """Ranks from the covers against longest chains in the down masks."""
    for p in enumerate_posets(6):
        rank, corank = [0] * p.n, [0] * p.n
        for _ in range(p.n):
            for i in range(p.n):
                for j in bits(p.down[i] & ~(1 << i)):
                    rank[i] = max(rank[i], rank[j] + 1)
                    corank[j] = max(corank[j], corank[i] + 1)
        assert list(p.ranks) == rank and list(p.coranks) == corank


def test_transitive_input_covers_are_reduced():
    """A redundant comparability must not appear among the covers."""
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert (0, 2) not in p.covers
    assert p.leq(0, 2)
    assert len(p.covers) == 2


def test_antichain_count_on_antichain_poset():
    """Nonempty antichains: every nonempty subset of a 3-antichain, the
    singletons of a chain."""
    p = build_poset(["x", "y", "z"], [])
    assert len(p.antichains()) == 7
    chain = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert len(chain.antichains()) == 3


def test_antichain_cap(limits):
    a2, _ = load_fixture("a2")
    assert len(a2.antichains()) == 3
    with limits(MAX_ANTICHAINS=2), pytest.raises(SizeCap):
        a2.antichains()


def test_wide_antichain_stream_hits_cap_not_recursion_limit():
    # 1,500 incomparable points: a search one call deep per chosen point
    # passes the interpreter's recursion limit long before the cap
    wide = build_poset([f"p{i}" for i in range(1500)])
    with pytest.raises(SizeCap):
        wide.antichains()


def test_downsets_against_subset_brute_force():
    p = build_poset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("c", "d")])
    brute = [
        s for s in range(1 << p.n) if p.is_downset(s)
    ]
    assert sorted(p.all_downsets()) == sorted(brute)
    assert p.count_downsets() == len(brute)


def test_count_downsets_matches_all_downsets():
    for p in enumerate_posets(6):
        assert p.count_downsets() == len(p.all_downsets())


def test_count_downsets_multiplies_components():
    # a 3-chain (4 downsets), a diamond (6) and a 3-point antichain (8),
    # side by side and interleaved in index order
    union = build_poset(
        ["c0", "d0", "a0", "c1", "d1", "d2", "a1", "c2", "d3", "a2"],
        [("c0", "c1"), ("c1", "c2"),
         ("d0", "d1"), ("d0", "d2"), ("d1", "d3"), ("d2", "d3")],
    )
    assert union.count_downsets() == len(union.downsets()) == 4 * 6 * 8
    wide = build_poset([f"p{i}" for i in range(14400)])
    assert wide.count_downsets() == 2 ** 14400


def walk_is_prefix(p: Poset, ks) -> None:
    full = p.downsets()
    for k in ks:
        walked = p.downsets_upto(k)
        assert walked == full[:len(walked)]
        assert len(walked) == sum(1 for m in full if m.bit_count() <= k)


def test_downsets_upto_is_a_prefix_of_downsets():
    for p in enumerate_posets(6):
        for q in (p, p.dual()):
            walk_is_prefix(q, range(q.n + 2))
    for n, d in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1)):
        frame = universal_frame(n, d).model.frame
        walk_is_prefix(frame, range(frame.n + 2))
    # the (2,2) frame: every k up to 12 points, 110,060 downsets, then all
    # 22 points; one full walk takes ~1 s
    frame = universal_frame(2, 2).model.frame
    walk_is_prefix(frame, [*range(13), frame.n])
    assert len(frame.downsets_upto(6)) == 866
    # the F(2,2) spectrum lists its points top-down: every k
    spec = free_quotient(2, 2).algebra.spec
    walk_is_prefix(spec, range(spec.n + 2))


def test_downsets_upto_counts_its_own_walk(limits):
    flat = build_poset(["a", "b", "c", "d"])
    # 1 + 4 + 6 downsets of at most 2 points, of 16 in all
    with limits(MAX_CLOSURE=11):
        assert len(flat.downsets_upto(2)) == 11
    with limits(MAX_CLOSURE=10), pytest.raises(SizeCap):
        flat.downsets_upto(2)
    with limits(MAX_CLOSURE=11), pytest.raises(SizeCap):
        flat.downsets()
    assert flat.downsets_upto(0) == (0,)
    assert build_poset([]).downsets_upto(3) == (0,)
    # and on every order of up to 5 points and its dual
    for p in enumerate_posets(5):
        for q in (p, p.dual()):
            sizes = [m.bit_count() for m in q.downsets()]
            for k in range(q.n + 2):
                count = sum(1 for size in sizes if size <= k)
                with limits(MAX_CLOSURE=count):
                    assert len(q.downsets_upto(k)) == count
                with limits(MAX_CLOSURE=count - 1), pytest.raises(SizeCap):
                    q.downsets_upto(k)
    # and on the F(2,2) spectrum, whose points are listed top-down
    spec = free_quotient(2, 2).algebra.spec
    for k, count in ((6, 31180), (10, 199209)):
        with limits(MAX_CLOSURE=count):
            assert len(spec.downsets_upto(k)) == count
        with limits(MAX_CLOSURE=count - 1), pytest.raises(SizeCap):
            spec.downsets_upto(k)


def ref_walk(p: Poset, k) -> tuple:
    """The former list walk of ``Poset._walk``, kept as a reference: every
    partial downset held in one list, doubled or filtered at each point."""
    down, up = p.down, p.up
    masks, decided = [0], 0
    for i in reversed(range(p.n)):
        d = down[i]
        need, bar = d & decided, up[i] & decided
        if k is not None:
            with_i = [m | d for m in masks if m & need == need and (m | d).bit_count() <= k]
        elif need:
            with_i = [m | d for m in masks if m & need == need]
        else:
            with_i = [m | d for m in masks]
        if bar:
            masks = [m for m in masks if not m & bar]
        masks += with_i
        decided |= 1 << i
    masks.reverse()
    masks.sort(key=int.bit_count)
    return tuple(masks)


def seeded_orders(count: int, max_points: int, seed: int):
    """Seeded random orders (p_a < p_b only when a < b), each listed
    bottom-up, top-down and in a shuffled order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_points)
        rate = rng.choice([0.08, 0.15, 0.3, 0.6])
        pairs = [(f"p{a}", f"p{b}") for b in range(n) for a in range(b) if rng.random() < rate]
        names = [f"p{i}" for i in range(n)]
        mixed = names[:]
        rng.shuffle(mixed)
        yield from (build_poset(order, pairs) for order in (names, names[::-1], mixed))


def fresh(p: Poset) -> Poset:
    """A new object for the same poset, with no downset list kept yet."""
    return _from_down(p.names, p.down)


def chain(n: int) -> Poset:
    return build_poset([f"c{i}" for i in range(n)], [(f"c{i}", f"c{i + 1}") for i in range(n - 1)])


def walk_cases():
    """The orders the segment walk is checked on against ``ref_walk``."""
    for p in enumerate_posets(6):
        yield from (p, p.dual())
    yield from seeded_orders(300, 16, 35)
    yield universal_frame(2, 2).model.frame
    yield free_quotient(2, 2).algebra.spec
    # the (1, d) frames, listed bottom-up, and their duals, the spectra of
    # F(1, d), listed top-down
    for d in range(1, 31):
        frame = universal_frame(1, d).model.frame
        yield from (frame, frame.dual())
    yield from (chain(200), chain(200).dual())


def test_walk_matches_the_list_walk():
    for p in walk_cases():
        got = fresh(p).downsets()
        assert type(got) is tuple and got == ref_walk(p, None)


def test_walk_upto_matches_the_list_walk():
    for p in seeded_orders(100, 14, 36):
        for k in range(p.n + 2):
            assert p.downsets_upto(k) == ref_walk(p, k)


def test_walk_holds_no_small_cube_and_no_adjacent_runs(monkeypatch):
    seen = []

    def spy(segs):
        seen.append([("cube", len(s[1])) if type(s) is tuple else ("run", len(s)) for s in segs])
        return listed(segs)

    listed = posets._listed
    monkeypatch.setattr(posets, "_listed", spy)
    for p in walk_cases():
        fresh(p).downsets()
    assert len(seen) > 20
    for segs in seen:
        assert all(n >= posets._CUBE_MIN for kind, n in segs if kind == "cube")
        assert not any(a[0] == b[0] == "run" for a, b in zip(segs, segs[1:]))
    # the (2,2) frame ends in 4 cubes and 4 runs, its 18 maximal points
    # the generators of the last cube; the spectrum in the same, reversed
    seen.clear()
    fresh(universal_frame(2, 2).model.frame).downsets()
    fresh(free_quotient(2, 2).algebra.spec).downsets()
    frame = [("run", 149), ("cube", 11), ("run", 21), ("cube", 9),
             ("run", 4), ("cube", 9), ("run", 64), ("cube", 18)]
    assert seen == [frame, frame[::-1]]


def test_a_chain_is_walked_as_one_list(monkeypatch):
    calls = []

    def spy(run, down, up, points, decided, k, cap):
        points = list(points)
        calls.append(len(points))
        return steps(run, down, up, points, decided, k, cap)

    steps = posets._steps
    monkeypatch.setattr(posets, "_steps", spy)
    for p in (chain(200), chain(200).dual()):
        calls.clear()
        assert p.downsets() == ref_walk(p, None)
        # the first point goes onto the cube, the second expands it, and the
        # list walk takes that one and the 198 after it
        assert calls == [199]


def test_downsets_counts_its_own_walk(limits):
    def cases():
        for p in enumerate_posets(5):
            yield from (p, p.dual())
        # orders with cubes: antichains, seeded orders, the (2,2) frame and
        # the F(2,2) spectrum
        for n in range(7, 13):
            yield build_poset([f"p{i}" for i in range(n)])
        yield from (p for p in seeded_orders(40, 14, 37) if p.n >= posets._CUBE_MIN)
        yield universal_frame(2, 2).model.frame
        yield free_quotient(2, 2).algebra.spec

    for p in cases():
        count = p.count_downsets()
        with limits(MAX_CLOSURE=count - 1), pytest.raises(SizeCap):
            fresh(p).downsets()
        with limits(MAX_CLOSURE=count):
            assert len(fresh(p).downsets()) == count


def test_wide_antichain_raises_before_listing():
    wide = build_poset([f"p{i}" for i in range(1500)])
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(SizeCap):
            wide.downsets()
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert took < 0.1 and peak < 2 ** 20
    algebra = Algebra(wide)
    with pytest.raises(SizeCap):
        algebra.elements()
    assert "_elements" not in algebra.__dict__ and "_downsets" not in wide.__dict__


def reference_downsets(p: Poset) -> list[int]:
    """The former route: a set union per point, sorted by set_key."""
    sets = {0}
    for i in range(p.n):
        sets |= {s | p.down[i] for s in sets}
    return sorted(sets, key=set_key)


def reference_antichains(p: Poset) -> list[int]:
    """The former route: depth-first over ascending indices carrying the
    mask, sorted by set_key."""
    found = []

    def rec(start, chosen, allowed):
        for i in range(start, p.n):
            if allowed >> i & 1:
                cur = chosen | 1 << i
                found.append(cur)
                rec(i + 1, cur, allowed & ~(p.down[i] | p.up[i]))

    rec(0, 0, p.full)
    return sorted(found, key=set_key)


@pytest.fixture(scope="module")
def f22_downsets():
    return free_quotient(2, 2).algebra.spec.all_downsets()


def test_streams_match_former_routes(f22_downsets):
    small = [q for p in enumerate_posets(6) for q in (p, p.dual())]
    for p in small + [free_quotient(1, 4).algebra.spec]:
        assert p.all_downsets() == reference_downsets(p)
        assert p.antichains() == reference_antichains(p)
    f22 = free_quotient(2, 2).algebra.spec
    assert f22_downsets == reference_downsets(f22)
    assert f22.antichains() == reference_antichains(f22)


def test_f22_downsets_in_set_key_order(f22_downsets):
    keys = [set_key(m) for m in f22_downsets]
    assert len(keys) == 265454
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert free_quotient(2, 2).algebra.spec.count_downsets() == 265454


def test_streams_on_tiny_posets_and_caps(limits):
    empty, one = build_poset([]), build_poset(["a"])
    assert empty.all_downsets() == [0] and empty.antichains() == []
    assert one.all_downsets() == [0, 1] and one.antichains() == [1]
    flat = build_poset(["a", "b", "c", "d"])
    # the smaller limit first: a kept list is not checked again
    with limits(MAX_CLOSURE=15), pytest.raises(SizeCap):
        flat.all_downsets()
    with limits(MAX_CLOSURE=16):
        assert len(flat.all_downsets()) == 16
    with limits(MAX_ANTICHAINS=15):
        assert len(flat.antichains()) == 15
    with limits(MAX_ANTICHAINS=14), pytest.raises(SizeCap):
        flat.antichains()


def fresh_f14() -> Poset:
    """A new object equal to F(1,4)'s spectrum, so no list is kept yet."""
    spec = free_quotient(1, 4).algebra.spec
    return _from_down(spec.names, spec.down)


def shuffled(p: Poset, seed: int) -> Poset:
    """A new object for the same order, its points listed in a seeded
    shuffled order."""
    order = list(p.names)
    random.Random(seed).shuffle(order)
    return build_poset(order, [(p.names[a], p.names[b]) for a, b in p.covers])


def f14_layouts() -> tuple[Poset, Poset]:
    """Fresh objects for F(1,4)'s spectrum, listed top-down as built and
    in a mixed order."""
    return fresh_f14(), shuffled(fresh_f14(), 4)


def test_downset_list_is_kept_and_capped_on_every_call():
    for p in f14_layouts():
        full = p.all_downsets()
        assert full == reference_downsets(p)
        assert p.downsets() is p.downsets()
        # a fresh list each call: changing one leaves the next as it was
        mine = p.all_downsets()
        mine[0] = -1
        mine.append(99)
        mine.reverse()
        assert p.all_downsets() == reference_downsets(p)


def test_downset_build_that_raised_keeps_nothing(limits):
    for p in f14_layouts():
        n = p.count_downsets()
        with limits(MAX_CLOSURE=n - 1), pytest.raises(SizeCap):
            p.all_downsets()
        assert "_downsets" not in p.__dict__
        with limits(MAX_CLOSURE=n):
            assert p.all_downsets() == reference_downsets(p)


@st.composite
def posets_in_any_layout(draw, max_points: int = 10) -> Poset:
    """A random order on up to ``max_points`` points, listed in a random
    order: p_a < p_b only when a < b."""
    n = draw(st.integers(min_value=0, max_value=max_points))
    names = draw(st.permutations([f"p{i}" for i in range(n)]))
    pairs = [(f"p{a}", f"p{b}") for b in range(n) for a in range(b)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return build_poset(names, chosen)


@settings(max_examples=200, deadline=None)
@given(posets_in_any_layout())
def test_downsets_match_every_subset_in_any_layout(p):
    for q in (p, p.dual()):
        every = [s for s in range(1 << q.n) if q.is_downset(s)]
        assert q.downsets() == tuple(sorted(every, key=set_key))


def test_f22_downsets_in_other_layouts():
    # the spectrum is listed top-down; its frame bottom-up, where the walk's
    # lists grow longest; the shuffle is mixed
    frame = universal_frame(2, 2).model.frame
    bottom_up = _from_down(frame.names, frame.down)
    mixed = shuffled(free_quotient(2, 2).algebra.spec, 16)
    for p in (bottom_up, mixed):
        assert list(p.downsets()) == reference_downsets(p)


@pytest.mark.parametrize("dual", [False, True], ids=["f22", "f22-dual"])
def test_antichain_stream_matches_former_route(dual):
    p = free_quotient(2, 2).algebra.spec
    if dual:
        p = p.dual()
    every = reference_antichains(p)
    assert list(antichain_stream(p.down, p.up)) == every


def test_antichain_stream_reads_only_what_is_asked(limits):
    wide = build_poset([f"p{i}" for i in range(1500)])
    first = [1 << i for i in range(10)]
    for cap in (posets.MAX_ANTICHAINS, 10):
        with limits(MAX_ANTICHAINS=cap):
            stream = antichain_stream(wide.down, wide.up)
            assert list(itertools.islice(stream, 10)) == first
    with limits(MAX_ANTICHAINS=10), pytest.raises(SizeCap):
        list(itertools.islice(antichain_stream(wide.down, wide.up), 11))


def test_covers_by_climbing_match_pairwise_rule():
    """Every class of at most 7 points and its dual, under 3 seeded
    relabellings, against the test of every comparable pair."""
    rng = random.Random(7)
    for p in enumerate_posets(7):
        for q in (p, p.dual()):
            for _ in range(3):
                perm = list(range(q.n))
                rng.shuffle(perm)
                down = [0] * q.n
                for j in range(q.n):
                    down[perm[j]] = mask_of(perm[i] for i in bits(q.down[j]))
                r = _from_down(q.names, down)
                pairwise = sorted(
                    (i, j)
                    for j in range(r.n)
                    for i in bits(down[j] & ~(1 << j))
                    if down[j] & r.up[i] == 1 << i | 1 << j
                )
                assert list(r.covers) == pairwise
                assert list(r.covers) == sorted(
                    (perm[a], perm[b]) for a, b in q.covers
                )


def test_dual_swaps_ranks():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    d = p.dual()
    assert d.names == p.names
    assert list(d.ranks) == list(p.coranks)
    assert d.dual().covers == p.covers


def test_induced_keeps_names():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    sub = p.induced(0b101)
    assert sub.names == ("a", "c")
    assert sub.leq(0, 1)


def induced_by_bits(p: Poset, keep: int) -> Poset:
    """Reference subposet: each kept down mask renumbered bit by bit, the up
    masks by transposing them."""
    kept = list(bits(keep))
    pos = {old: new for new, old in enumerate(kept)}
    down = []
    for old in kept:
        m = 0
        for j in bits(p.down[old] & keep):
            m |= 1 << pos[j]
        down.append(m)
    return _from_down(tuple(p.names[i] for i in kept), down)


def test_induced_matches_bitwise_reference():
    # every subset of every poset of up to 6 points: 22,674 pairs
    fields = [f.name for f in dataclasses.fields(Poset)]
    count = 0
    for p in enumerate_posets(6):
        for keep in range(1 << p.n):
            got, want = p.induced(keep), induced_by_bits(p, keep)
            assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
            count += 1
    assert count == 22674


def test_induced_on_a_long_chain_is_fast():
    # one run of kept points is one shift per mask; renumbering bit by bit
    # and transposing took ~1.2 s here
    names = [f"p{i}" for i in range(2000)]
    chain = build_poset(names, list(zip(names, names[1:])))
    start = time.perf_counter()
    sub = chain.induced(chain.full & ~1)
    assert time.perf_counter() - start < 0.25
    assert sub.names == tuple(names[1:])
    assert sub.covers == tuple((i, i + 1) for i in range(1998))
    assert sub.down == tuple((1 << i + 1) - 1 for i in range(1999))
    assert sub.up == tuple(sub.full & ~((1 << i) - 1) for i in range(1999))


def test_text_round_trip():
    text = "points: a b c\ncovers: a<b a<c\ncolors: a:{x} b:{} c:{x,y}\n"
    poset, colors = parse_poset_text(text)
    assert poset.n == 3
    assert colors["c"] == frozenset({"x", "y"})
    again, colors2 = parse_poset_text(poset_to_text(poset, colors))
    assert again.names == poset.names
    assert again.covers == poset.covers
    assert colors2 == colors


def test_parse_poset_text_errors():
    with pytest.raises(FormatError):
        parse_poset_text("points: a\ncovers: nonsense\n")
    with pytest.raises(FormatError):
        parse_poset_text("stray tokens\n")
    with pytest.raises(FormatError):
        parse_poset_text("points: a\ncolors: b:{x}\n")


@pytest.mark.parametrize("name", ["a,b", "{a", "a}", "a<b", "a:", 'a"b', "a\\b"])
def test_point_names_exclude_format_syntax(name):
    # each such name would print as text the formats read differently
    with pytest.raises(FormatError, match="point name"):
        parse_poset_text(f"points: {name} c\n")


def test_parse_point_list():
    p = build_poset(["a", "b"], [("a", "b")])
    assert parse_point_list("{a,b}", p) == 0b11
    assert parse_point_list("{}", p) == 0
    assert parse_point_list("{b}", p) == 0b10
    with pytest.raises(FormatError):
        parse_point_list("a,b", p)
    with pytest.raises(FormatError):
        parse_point_list("{zzz}", p)


def test_canonical_form_permutation_invariant():
    base = build_poset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("c", "d")])
    relabeled = build_poset(
        ["p", "q", "r", "s"], [("s", "q"), ("r", "q"), ("q", "p")]
    )
    assert canonical_form(base) == canonical_form(relabeled)
    other = build_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert canonical_form(base) != canonical_form(other)


def test_canonical_form_respects_labels():
    p = build_poset(["a", "b"], [])
    same = canonical_form(p, labels=["red", "red"])
    swapped = canonical_form(p, labels=["red", "blue"])
    assert same != swapped
    assert canonical_form(p, labels=["blue", "red"]) == swapped


def test_set_labels_keep_member_types_apart():
    pair = build_poset(["a", "b"], [])
    # a set of str keeps the key the pinned digests were computed with
    assert posets._label_key(frozenset({"x2", "x1"})) == ("set", ("x1", "x2"))
    assert posets._label_key(set()) == ("set", ())
    # other members add their own keys: equal sets of members that differ
    # in type, and sets whose members print alike, get different codes
    kinds = [
        frozenset({1}), frozenset({"1"}), frozenset({True}), frozenset({1.0}),
        frozenset({1, "1"}), frozenset({"1", "True"}), frozenset({("a",)}),
        frozenset({"('a',)"}), frozenset({None}), frozenset({"None"}),
        frozenset({frozenset({"x"})}), frozenset({"frozenset({'x'})"}),
    ]
    codes = {canonical_form(pair, [label, None]) for label in kinds}
    assert len(codes) == len(kinds)
    assert posets._label_key(frozenset({1, "b", "a"})) == (
        "set", ("a", "b"), (("atom", "int", "1"),)
    )
    # the key of a set does not depend on the order its members were added
    for members in (list(range(40)), [frozenset({"x", "y"}), frozenset({"z"}), 3, "w"]):
        keys = set()
        for seed in range(5):
            random.Random(seed).shuffle(members)
            keys.add(posets._label_key(frozenset(members)))
            keys.add(posets._label_key(set(reversed(members))))
        assert len(keys) == 1


class Shown(str):
    """A str whose str() is not itself: it equals "a" but keys as "shown:a"."""

    def __str__(self):
        return "shown:" + str.__str__(self)


class Tagged(frozenset):
    """A frozenset that equals its plain copy but iterates other members."""

    def __iter__(self):
        return (f"tag:{v}" for v in frozenset.__iter__(self))


def seeded_labels(rng):
    """Labels of every kind _label_key takes, among them equal labels whose
    keys differ: frozenset({1}), frozenset({True}) and frozenset({1.0}), and
    frozenset({"a"}) and frozenset({Shown("a")})."""
    words = ["a", "b", "x1", "x2", "1", "True", "None", "frozenset({'x'})"]
    labels = []
    for _ in range(40):
        members = rng.sample(words, rng.randint(0, 3))
        labels += [frozenset(members), set(members), Tagged(members)]
        labels.append(frozenset(members + [Shown(rng.choice(words))]))
        labels.append(frozenset(rng.sample([1, True, 1.0, "1", 0, False, "0"], 2)))
        labels.append(frozenset({frozenset(members), rng.choice((None, 1, ("a",)))}))
        labels.append((rng.choice(words), frozenset(members), None))
    labels += [None, 1, True, 1.0, "1", "a", Shown("a"), (Shown("a"),), ()]
    rng.shuffle(labels)
    return labels


def test_kept_label_keys_match_the_reference():
    assert frozenset({1}) == frozenset({True}) == frozenset({1.0})
    assert frozenset({"a"}) == frozenset({Shown("a")}) == Tagged({"a"})
    labels = seeded_labels(random.Random(33))
    equal_pairs = [
        (frozenset({1}), frozenset({True})), (frozenset({1.0}), frozenset({1})),
        (frozenset({"a"}), frozenset({Shown("a")})), (frozenset({"a"}), Tagged({"a"})),
        (frozenset({"a", "b"}), frozenset({"a", Shown("b")})),
        (frozenset({frozenset({"x"})}), frozenset({frozenset({Shown("x")})})),
    ]
    for first, second in equal_pairs:
        labels += [first, second, first]
    # in both orders, from empty kept keys: no kept key answers for an
    # equal label whose key differs
    for order in (labels, labels[::-1]):
        posets._str_set_key.cache_clear()
        for _ in range(2):
            for label in order:
                assert posets._label_key(label) == ref_label_key(label), label
    # equal labels that key apart give different codes
    pair = build_poset(["a", "b"], [])
    for first, second in equal_pairs:
        assert first == second
        for left, right in ((first, second), (second, first)):
            posets._str_set_key.cache_clear()
            assert canonical_form(pair, [left, None]) != canonical_form(pair, [right, None])


def test_canonical_caches_stay_bounded():
    bound = posets.CANONICAL_CACHE
    kept = (posets._str_set_key, posets._key_text, posets._members)
    misses = [f.cache_info().misses for f in kept]
    # 10,000 distinct labels on 50-point antichains
    points = [f"p{j}" for j in range(50)]
    antichain = build_poset(points, [])
    for i in range(200):
        labels = [frozenset({f"v{50 * i + j}"}) for j in range(50)]
        assert canonical_form(antichain, labels) == ref_canonical_form(antichain, labels)
    # over 10,000 distinct strict down and up masks of 60-64 points
    rng = random.Random(34)
    masks = set()
    while len(masks) < 10_000:
        p = seeded_poset(rng.randint(60, posets.MAX_CANONICAL_POINTS), rng)
        canonical_form(p)
        masks.update(d ^ 1 << j for j, d in enumerate(p.down))
        masks.update(u ^ 1 << j for j, u in enumerate(p.up))
    for f, before in zip(kept, misses):
        info = f.cache_info()
        assert info.maxsize == bound and info.currsize <= bound
        assert info.misses - before >= 10_000


def test_canonical_codes_pinned():
    # sha256 prefix of every code up to 6 points (405 classes): a faster
    # canonical form must return byte-identical codes
    codes = [canonical_form(p) for p in enumerate_posets(6)]
    assert len(codes) == 405
    digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
    assert digest.startswith("d573d0ee718d3017")


def sha256_of(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_canonical_codes_pinned_on_seven_points():
    # every 7-point class (2,045), bare and under one fixed persistent
    # colouring of three variables (each holds on a downset); the digest
    # was computed on the colour-list search that preceded the ordered
    # partitions, so the codes are byte-identical to it
    sevens = [p for p in enumerate_posets(7) if p.n == 7]
    assert len(sevens) == 2045
    rng = random.Random(7)
    seeds = [rng.getrandbits(7) for _ in range(3)]

    def colouring(p):
        holds = [p.down_closure(s) for s in seeds]
        return [
            frozenset(v for v, m in zip(("x1", "x2", "x3"), holds) if m >> i & 1)
            for i in range(p.n)
        ]

    codes = [canonical_form(p) for p in sevens]
    codes += [canonical_form(p, colouring(p)) for p in sevens]
    assert sha256_of(codes).startswith("6b1bd5a348d43686")


def symmetric_labelled(rng):
    """m copies of a random q-point poset, labelled alike, plus extra points
    each above or below one point of every copy, in a shuffled order: 8 to
    14 points whose copies refinement cannot tell apart."""
    n, q = rng.randint(8, 14), rng.randint(2, 4)
    m = n // q
    inner = [(a, b) for a in range(q) for b in range(a + 1, q) if rng.random() < 0.5]
    inner_labels = [rng.choice((None, "a")) for _ in range(q)]
    covers, labels = [], []
    for c in range(m):
        covers += [(c * q + a, c * q + b) for a, b in inner]
        labels += inner_labels
    for e in range(m * q, n):
        t = rng.randrange(q)
        upward = rng.random() < 0.5
        covers += [(c * q + t, e) if upward else (e, c * q + t) for c in range(m)]
        labels.append(rng.choice((None, "b")))
    names = [f"r{i}" for i in range(n)]
    rng.shuffle(names)
    return build_poset(names, [(names[a], names[b]) for a, b in covers]), labels


def test_canonical_codes_pinned_on_searches_of_several_leaves(limits):
    # 40 seeded labelled posets of 8-14 points, most of which search more
    # than one leaf (up to 720); the digest was computed on the colour-list
    # search that preceded the ordered partitions
    rng = random.Random(12)
    codes, several = [], 0
    for _ in range(40):
        poset, labels = symmetric_labelled(rng)
        code = canonical_form(poset, labels)
        # a mapping that leaves out the None labels gives the same code
        mapped = {i: label for i, label in enumerate(labels) if label is not None}
        assert canonical_form(poset, mapped) == code
        codes.append(code)
        try:
            with limits(MAX_CANONICAL_LEAVES=1):
                canonical_form(poset, labels)
        except SizeCap:
            several += 1
    assert several >= 25
    assert sha256_of(codes).startswith("bb5dfebfff5a4fb6")


def test_canonical_form_leaf_counts_pinned(limits):
    # the smallest MAX_CANONICAL_LEAVES under which each search completes,
    # found by doubling and then bisection, is the number of leaves it
    # visits: the budget is checked once per leaf, and a faster search must
    # visit the same leaves
    def leaves(poset, labels=None):
        def completes(limit):
            try:
                with limits(MAX_CANONICAL_LEAVES=limit):
                    canonical_form(poset, labels)
            except SizeCap:
                return False
            return True

        hi = 1
        while not completes(hi):
            hi *= 2
        lo = hi // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if completes(mid):
                hi = mid
            else:
                lo = mid
        return hi

    bare = [leaves(p) for p in enumerate_posets(7) if p.n == 7]
    assert (len(bare), sum(bare), max(bare)) == (2045, 2280, 6)
    assert sha256_of([repr(bare)]).startswith("c9cd802e791b89b3")
    rng = random.Random(12)
    labelled = [leaves(*symmetric_labelled(rng)) for _ in range(40)]
    assert (sum(labelled), max(labelled)) == (3531, 720)
    assert sha256_of([repr(labelled)]).startswith("6cea98d205cc52e3")


def test_enumeration_pinned(monkeypatch):
    # names and covers of all 2,450 representatives of up to 7 points, and
    # the canonical_form calls of a cold enumeration (the kept classes are
    # cleared first); the digest was computed on the enumeration without
    # the twin skip, which made 6,377 calls
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return canonical_form(*args, **kwargs)

    monkeypatch.setattr(posets, "canonical_form", counting)
    posets._iso_classes.cache_clear()
    reps = list(enumerate_posets(7))
    assert len(reps) == 2450 and len(calls) == 5069
    assert sha256_of(repr((p.names, p.covers)) for p in reps).startswith("6af9dbfe7644e4ce")
    # the closure masks, computed on the build that made each candidate
    # with _from_down
    assert sha256_of(repr((p.down, p.up)) for p in reps).startswith("a1fb97f451474c29")
    monkeypatch.undo()
    posets._iso_classes.cache_clear()
    assert reps == list(enumerate_posets(7))


def test_candidates_built_from_their_base():
    # every downset of every base of at most 6 points, those the twin skip
    # drops too, against the transpose and cover climb of the new down masks
    for base in enumerate_posets(6):
        names = base.names + (f"p{base.n}",)
        for downset in base.downsets():
            cand = posets._add_top(base, names, downset)
            assert cand == _from_down(names, base.down + (downset | 1 << base.n,))


def test_unlabelled_root_matches_labelled_path():
    # without labels the root is the first refinement round, done in one
    # step; [None] * n runs that round in _refine
    for p in enumerate_posets(7):
        assert canonical_form(p) == canonical_form(p, [None] * p.n)
    rng = random.Random(12)
    for _ in range(40):
        p, _labels = symmetric_labelled(rng)
        assert canonical_form(p) == canonical_form(p, [None] * p.n)


def test_canonical_form_label_count_must_match():
    vee = build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    for labels in (["x", "y"], ["x", "y", "z", "w"], [], ()):
        with pytest.raises(FrameMismatch):
            canonical_form(vee, labels)
    # a mapping gives None to the points it leaves out
    assert canonical_form(vee, {1: "x"}) == canonical_form(vee, [None, "x", None])
    assert canonical_form(vee, {}) == canonical_form(vee)


def test_canonical_form_mapping_keys_must_be_point_indices():
    # a key that is no point index used to be dropped without a word
    p = build_poset(["a", "b", "c"], [("a", "b")])
    for labels in (
        {"a": frozenset({"x"})}, {7: "x"}, {3: "x"}, {-1: "x"}, {1: "x", 7: "y"},
        {None: "x"}, {1.0: "x"}, {(1,): "x"},
        # True and 1 are one dict key: a bool names no point
        {True: "x"}, {False: "x"}, {2: "y", True: "x"},
    ):
        with pytest.raises(FrameMismatch):
            canonical_form(p, labels)
    with pytest.raises(FrameMismatch):
        canonical_form(build_poset([], []), {0: "x"})
    assert canonical_form(p, {2: "x", 0: None}) == canonical_form(p, [None, None, "x"])
    assert canonical_form(p, {2: "x"}) != canonical_form(p)


def test_canonical_form_point_limit(limits):
    # a limit of its own: no leaf limit lifts it
    assert posets.MAX_CANONICAL_POINTS == 64
    chain = [f"p{i}" for i in range(65)]
    covers = list(zip(chain, chain[1:]))
    assert canonical_form(build_poset(chain[:64], covers[:63]))
    with limits(MAX_CANONICAL_LEAVES=2 ** 30):
        with pytest.raises(SizeCap, match="canonical form limited to 64 points"):
            canonical_form(build_poset(chain, covers))


def relabelled(names, covers, labels, rng):
    """The same labelled poset with its points listed in a shuffled order."""
    order = list(names)
    rng.shuffle(order)
    label_of = dict(zip(names, labels))
    return build_poset(order, covers), [label_of[nm] for nm in order]


def test_canonical_form_prunes_twins(monkeypatch):
    # full search visits 10!, 6! and 3!*4! leaves; twin pruning visits one
    names = [f"p{i}" for i in range(10)]
    star = [("p0", f"p{i}") for i in range(1, 7)]
    bipartite = [(f"p{i}", f"p{j}") for i in range(3) for j in range(3, 7)]
    monkeypatch.setattr(posets, "MAX_CANONICAL_LEAVES", 16)
    rng = random.Random(3)
    for pts, covers in ((names, []), (names[:7], star), (names[:7], bipartite)):
        for labels in (["a"] * len(pts), ["b"] + ["a"] * (len(pts) - 1)):
            code = canonical_form(build_poset(pts, covers), labels)
            for _ in range(3):
                poset, moved = relabelled(pts, covers, labels, rng)
                assert canonical_form(poset, moved) == code
    # labels that tell twins apart still separate codes
    k34 = build_poset(names[:7], bipartite)
    codes = {
        canonical_form(k34, labels)
        for labels in (
            [None] * 7,
            ["x"] + [None] * 6,
            [None] * 3 + ["x"] + [None] * 3,
            ["x", "x"] + [None] * 5,
            ["x"] + [None] * 2 + ["x"] + [None] * 3,
        )
    }
    assert len(codes) == 5
    assert canonical_form(k34, [None] * 3 + ["x"] + [None] * 3) == (
        canonical_form(k34, [None] * 6 + ["x"])
    )


# ---------------------------------------------------------------------------
# canonical_form as it was before the one-leaf shortcut and the joined leaf
# texts: every partition is refined, and each leaf code is the repr of a
# nested tuple; kept as the reference, with the label keys as they were
# before any was kept across calls


def ref_label_key(label):
    if isinstance(label, (frozenset, set)):
        others = [v for v in label if not isinstance(v, str)]
        if not others:
            return ("set", tuple(sorted(map(str, label))))
        names = sorted([v for v in label if isinstance(v, str)])
        return ("set", tuple(names), tuple(sorted(map(ref_label_key, others))))
    if isinstance(label, tuple):
        return ("tuple",) + tuple(ref_label_key(v) for v in label)
    if label is None:
        return ("none",)
    return ("atom", type(label).__name__, repr(label))


def ref_canonical_form(poset, labels=None):
    n = poset.n
    if labels is None:
        keys = [("none",)] * n
    elif isinstance(labels, dict):
        keys = [ref_label_key(labels.get(i)) for i in range(n)]
    else:
        keys = [ref_label_key(label) for label in labels]
    if n == 0:
        return repr((0, (), ()))
    below = [[i for i in bits(d) if i != j] for j, d in enumerate(poset.down)]
    above = [[j for j in bits(u) if j != i] for i, u in enumerate(poset.up)]
    root = {}
    for i, key in enumerate(keys):
        root.setdefault(key, []).append(i)

    def signature(i, get):
        return (tuple(sorted(map(get, below[i]))), tuple(sorted(map(get, above[i]))))

    first = {}
    twin = [
        first.setdefault((poset.down[i] ^ 1 << i, poset.up[i] ^ 1 << i, keys[i]), i)
        for i in range(n)
    ]
    best = None
    stack = [[root[key] for key in sorted(root)]]
    while stack:
        cells = posets._refine(stack.pop(), signature)
        for c, target in enumerate(cells):
            if len(target) > 1:
                break
        else:
            pos = [0] * n
            for new, (old,) in enumerate(cells):
                pos[old] = new
            cov = tuple(sorted([(pos[a], pos[b]) for a, b in poset.covers]))
            code = repr((n, tuple([keys[old] for (old,) in cells]), cov))
            if best is None or code < best:
                best = code
            continue
        explored = set()
        children = []
        for i in target:
            if twin[i] not in explored:
                explored.add(twin[i])
                rest = [j for j in target if j != i]
                children.append([[i], *cells[:c], rest, *cells[c + 1:]])
        stack += reversed(children)
    return best


# labels of every kind a code tells apart, 1, True and 1.0 among them
MIXED_LABELS = (
    None, 1, True, 1.0, "1", "x", frozenset({"x1"}), frozenset({"x1", "x2"}),
    frozenset(), ("a", 1), ("a", True), (1,), (),
)


def seeded_poset(k, rng):
    """k points in a shuffled order, each pair of a seeded order related
    with probability about 0.1, 0.25 or 0.5."""
    names = [f"s{i}" for i in range(k)]
    rate = rng.choice((0.1, 0.25, 0.5))
    covers = [
        (names[a], names[b]) for a in range(k) for b in range(a + 1, k) if rng.random() < rate
    ]
    rng.shuffle(names)
    return build_poset(names, covers)


def test_codes_match_the_reference():
    rng = random.Random(31)
    cases = [(build_poset([], []), None)]
    for p in enumerate_posets(7):
        cases.append((p, None))
        cases.append((p, [rng.choice(MIXED_LABELS) for _ in range(p.n)]))
    for _ in range(40):
        cases.append(symmetric_labelled(rng))
    # two-digit positions
    for _ in range(200):
        p = seeded_poset(rng.randint(10, 14), rng)
        cases.append((p, None))
        cases.append((p, [rng.choice(MIXED_LABELS[:6]) for _ in range(p.n)]))
    # one point, and exactly one cover among 2-12 points: one-element tuples
    for label in MIXED_LABELS:
        cases.append((build_poset(["a"], []), [label]))
    for k in range(2, 13):
        names = [f"c{i}" for i in range(k)]
        rng.shuffle(names)
        one = build_poset(names, [("c0", "c1")])
        cases.append((one, None))
        cases.append((one, [rng.choice(MIXED_LABELS) for _ in range(k)]))
    # mappings, which give None to the points they leave out
    for p in list(enumerate_posets(5))[::3]:
        labels = {i: rng.choice(MIXED_LABELS) for i in range(p.n) if rng.random() < 0.5}
        cases.append((p, labels))
    # masks past 2^20, up to MAX_CANONICAL_POINTS points
    big = random.Random(33)
    for k in (21, 33, 48, posets.MAX_CANONICAL_POINTS):
        for _ in range(3):
            p = seeded_poset(k, big)
            cases.append((p, None))
            cases.append((p, [big.choice(MIXED_LABELS) for _ in range(p.n)]))
    singles = covers_one = 0
    for p, labels in cases:
        assert canonical_form(p, labels) == ref_canonical_form(p, labels), (p, labels)
        singles += p.n == 1
        covers_one += len(p.covers) == 1
    assert singles >= 10 and covers_one >= 20


def twin_orders():
    """An antichain, a star, K(3,4), and an order with two twin classes in
    different cells (two points below a middle one, three above it)."""
    names = [f"p{i}" for i in range(10)]
    return [
        (names, []),
        (names[:7], [("p0", f"p{i}") for i in range(1, 7)]),
        (names[:7], [(f"p{i}", f"p{j}") for i in range(3) for j in range(3, 7)]),
        (names[:6], [("p0", "p2"), ("p1", "p2"), ("p2", "p3"), ("p2", "p4"), ("p2", "p5")]),
    ]


def test_twin_classes_finish_in_one_leaf(limits, monkeypatch):
    # refinement stops with every open cell a twin class, so the one leaf
    # is finished with no further refinement round and no second leaf
    refined = []
    refine = posets._refine

    def counting(cells, signature):
        refined.append(1)
        return refine(cells, signature)

    rng = random.Random(4)
    for pts, covers in twin_orders():
        for labels in ([None] * len(pts), ["b"] + [None] * (len(pts) - 1)):
            code = ref_canonical_form(build_poset(pts, covers), labels)
            for _ in range(4):
                poset, moved = relabelled(pts, covers, labels, rng)
                monkeypatch.setattr(posets, "_refine", counting)
                refined.clear()
                with limits(MAX_CANONICAL_LEAVES=1):
                    assert canonical_form(poset, moved) == code
                assert len(refined) == 1
                monkeypatch.setattr(posets, "_refine", refine)
    # two 2-chains: refinement stops at cells that are no twin classes, so
    # both points of the lower cell are explored, each its own leaf
    chains = build_poset(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with limits(MAX_CANONICAL_LEAVES=1):
        with pytest.raises(SizeCap):
            canonical_form(chains)
    with limits(MAX_CANONICAL_LEAVES=2):
        assert canonical_form(chains) == ref_canonical_form(chains)


def test_canonical_form_agrees_with_networkx():
    # independent oracle: labelled isomorphism of the cover digraphs
    nx = pytest.importorskip("networkx")
    pool = list(enumerate_posets(6))
    rng = random.Random(11)

    def graph(poset, labels):
        g = nx.DiGraph()
        g.add_nodes_from((i, {"label": labels[i]}) for i in range(poset.n))
        g.add_edges_from(poset.covers)
        return g

    outcomes = set()
    for _ in range(300):
        p = rng.choice(pool)
        labels = [rng.choice("ab") for _ in range(p.n)]
        roll = rng.random()
        if roll < 0.5:
            covers = [(p.names[a], p.names[b]) for a, b in p.covers]
            q, q_labels = relabelled(p.names, covers, labels, rng)
            if roll < 0.2:
                q_labels[rng.randrange(q.n)] = "c"
        else:
            q = rng.choice([r for r in pool if r.n == p.n])
            q_labels = [rng.choice("ab") for _ in range(q.n)]
        same = canonical_form(p, labels) == canonical_form(q, q_labels)
        iso = nx.is_isomorphic(
            graph(p, labels), graph(q, q_labels),
            node_match=lambda u, v: u["label"] == v["label"],
        )
        assert same == iso, (p, labels, q, q_labels)
        outcomes.add(same)
    assert outcomes == {True, False}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**5 - 1), st.data())
def test_down_closure_is_smallest_downset(mask, data):
    posets = [p for p in enumerate_posets(4) if p.n >= 2]
    poset = data.draw(st.sampled_from(posets))
    mask &= poset.full
    closed = poset.down_closure(mask)
    assert poset.is_downset(closed)
    assert closed & mask == mask
    for other in poset.all_downsets():
        if other & mask == mask:
            assert closed & other == closed


def test_extremal_points_match_definition():
    # p of s is maximal when no other point of s lies above it, and minimal
    # when none lies below it; every subset of every poset of up to 5 points
    for p in enumerate_posets(5):
        for s in range(p.full + 1):
            pts = list(bits(s))
            assert p.maximal_points(s) == mask_of(
                i for i in pts if not any(j != i and p.leq(i, j) for j in pts)
            )
            assert p.minimal_points(s) == mask_of(
                i for i in pts if not any(j != i and p.leq(j, i) for j in pts)
            )


def test_mask_helpers():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011


def test_memo_computes_once_per_instance():
    calls = []

    @dataclasses.dataclass(frozen=True)
    class Box:
        x: int

        @posets._memo
        def doubled(self):
            """Twice x."""
            calls.append(self.x)
            return (self.x * 2,)

    a, b = Box(1), Box(2)
    assert a.doubled == (2,) and a.doubled is a.doubled
    assert b.doubled == (4,) and b.doubled is b.doubled
    assert calls == [1, 2]
    # read on the class, the memo is itself and keeps the method's docstring
    assert isinstance(Box.doubled, posets._memo) and Box.doubled.__doc__ == "Twice x."
    assert not callable(Box.doubled)
    p = build_poset(["a", "b", "c"], [("a", "b")])
    assert p.ranks is p.ranks and vars(p)["ranks"] == (0, 1, 0)


def test_kept_irreducible_masks_are_sorted_by_set_key():
    from coheyting.algebra import Algebra

    def reference(spec):
        full = spec.full
        return (
            tuple(sorted(spec.down, key=set_key)),
            tuple(sorted([full & ~u for u in spec.up], key=set_key)),
        )

    for p in enumerate_posets(6):
        algebra = Algebra(p)
        specs = [p] + [
            algebra.quotient_by(algebra.epsilon(d))[0].spec
            for d in range(p.height() + 2)
        ]
        for spec in specs:
            assert spec._irreducible_masks == reference(spec), spec
            assert spec._irreducible_masks is spec._irreducible_masks
