"""Kripke semantics, bisimulation reduction, universal frames and the
free-quotient duality.

The forcing oracle below recurses on term structure and quantifies over
accessible points directly, with no sharing of code with truth_set.  Free
quotient sizes are pinned and cross-checked through the independent
operation-closure route.
"""

import gc
import hashlib
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coheyting.algebra import Algebra
from coheyting.errors import (
    FrameMismatch,
    NotMonotone,
    SignatureMismatch,
    SizeCap,
    UnboundVariable,
)
from coheyting.kripke import (
    MAX_FRAME_NODES,
    MAX_GENERATION_CHECK,
    algebra_of_model,
    bisim_reduce,
    d_equivalent,
    enumerate_reduced_models,
    forces,
    frame_to_spec,
    free_epsilon,
    free_quotient,
    globally_true,
    is_reduced,
    make_model,
    model_code,
    model_of_algebra,
    projection,
    spec_to_frame,
    truth_set,
    universal_frame,
)
from coheyting.posets import (
    Poset,
    _from_down,
    antichain_stream,
    bits,
    build_poset,
    enumerate_posets,
)
from coheyting.suites import random_term
from coheyting.terms import dualize, eval_term, parse_term, run_program


def oracle_forces(model, p: int, t) -> bool:
    """Structural forcing: implication quantifies over the points below."""
    if t.op == "zero":
        return False
    if t.op == "one":
        return True
    if t.op == "var":
        i = model.vars.index(t.name)
        return bool(model.colors[p] >> i & 1)
    if t.op == "join":
        return oracle_forces(model, p, t.args[0]) or oracle_forces(
            model, p, t.args[1]
        )
    if t.op == "meet":
        return oracle_forces(model, p, t.args[0]) and oracle_forces(
            model, p, t.args[1]
        )
    return all(
        not oracle_forces(model, q, t.args[0]) or oracle_forces(model, q, t.args[1])
        for q in bits(model.frame.down[p])
    )


def two_chain_model():
    frame = build_poset(["w0", "w1"], [("w0", "w1")])
    return make_model(frame, ("x",), {"w0": frozenset({"x"}), "w1": frozenset()})


def test_make_model_validates_persistence():
    frame = build_poset(["w0", "w1"], [("w0", "w1")])
    with pytest.raises(NotMonotone):
        make_model(frame, ("x",), {"w1": frozenset({"x"})})
    with pytest.raises(UnboundVariable):
        make_model(frame, ("x",), {"w0": frozenset({"y"})})


def test_make_model_checks_colour_sequences():
    frame = build_poset(["a", "b", "c"])
    with pytest.raises(FrameMismatch):
        make_model(frame, ("x",), [1, 0])
    with pytest.raises(UnboundVariable):
        make_model(frame, ("x",), [1, 0, 6])
    chain = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(FrameMismatch):
        make_model(chain, ("x",), [1])
    assert make_model(chain, ("x",), [1, 1, 0]).columns == (0b011,)


def test_forcing_negation_example():
    model = two_chain_model()
    assert forces(model, "w0", parse_term("x"))
    assert not forces(model, "w1", parse_term("x"))
    assert not forces(model, "w1", parse_term("x -> 0"))
    assert globally_true(model, parse_term("(x -> 0) -> 0"))
    assert not globally_true(model, parse_term("x | (x -> 0)"))


def test_truth_sets_are_downsets_and_reject_difference():
    model = two_chain_model()
    for src in ("x", "x -> 0", "(x -> 0) -> 0", "x | 1", "x & 0"):
        ts = truth_set(model, parse_term(src))
        assert model.frame.down_closure(ts) == ts
    with pytest.raises(SignatureMismatch):
        truth_set(model, parse_term("x \\ x"))
    with pytest.raises(UnboundVariable):
        truth_set(model, parse_term("y"))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_forcing_matches_structural_oracle(seed):
    rng = random.Random(seed)
    models = [two_chain_model()] + list(enumerate_reduced_models(1, 2))
    model = rng.choice(models)
    t = random_term(rng, model.vars, depth=4, kind="impl")
    ts = truth_set(model, t)
    for p in range(model.frame.n):
        assert bool(ts >> p & 1) == oracle_forces(model, p, t)


def test_bisim_collapses_colorless_chain():
    frame = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    model = make_model(frame, ("x",), {})
    reduced, mapping = bisim_reduce(model)
    assert reduced.frame.n == 1
    assert mapping == (0, 0, 0)
    assert is_reduced(reduced)


def test_bisim_keeps_separated_points():
    model = two_chain_model()
    reduced, mapping = bisim_reduce(model)
    assert reduced.frame.n == 2
    assert is_reduced(reduced)
    again, _ = bisim_reduce(reduced)
    assert again.frame.n == 2


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bisim_preserves_forcing(seed):
    rng = random.Random(seed)
    frame = build_poset(
        ["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("a", "d")]
    )
    color = rng.choice([frozenset(), frozenset({"x"})])
    model = make_model(
        frame, ("x",), {"a": frozenset({"x"}), "b": frozenset({"x"}), "c": color & frozenset({"x"}), "d": frozenset()}
    )
    reduced, mapping = bisim_reduce(model)
    t = random_term(rng, ("x",), depth=4, kind="impl")
    for p in range(frame.n):
        assert forces(model, p, t) == forces(reduced, mapping[p], t)


def oracle_bisimulation(model):
    """Greatest bisimulation, brute force over point pairs: start from the
    pairs of the same colour and drop a pair while one side has a point
    below it that no point below the other side is still paired with."""
    down = [list(bits(m)) for m in model.frame.down]
    n = model.frame.n
    pairs = {(p, q) for p in range(n) for q in range(n)
             if model.colors[p] == model.colors[q]}
    changed = True
    while changed:
        changed = False
        for p, q in sorted(pairs):
            if not (all(any((a, b) in pairs for b in down[q]) for a in down[p])
                    and all(any((a, b) in pairs for a in down[p]) for b in down[q])):
                pairs.discard((p, q))
                pairs.discard((q, p))
                changed = True
    return pairs


def bisim_corpus():
    """Every poset of up to 5 points with seeded persistent colourings of
    0, 1 and 2 variables: each variable holds on a random downset."""
    for index, poset in enumerate(enumerate_posets(5)):
        downsets = poset.downsets()
        for nvars in range(3):
            for k in range(1 if nvars == 0 else 3):
                rng = random.Random(1000 * index + 10 * nvars + k)
                columns = [downsets[rng.randrange(len(downsets))] for _ in range(nvars)]
                colors = [sum(1 << i for i, col in enumerate(columns) if col >> p & 1)
                          for p in range(poset.n)]
                yield make_model(poset, tuple(f"x{i + 1}" for i in range(nvars)), colors)


def test_bisim_reduce_matches_brute_force_oracle():
    digest = hashlib.sha256()
    count = 0
    for model in bisim_corpus():
        frame = model.frame
        reduced, mapping = bisim_reduce(model)
        pairs = oracle_bisimulation(model)
        assert {(p, q) for p in range(frame.n) for q in range(frame.n)
                if mapping[p] == mapping[q]} == pairs
        # class ids run in order of smallest member
        firsts = [mapping.index(c) for c in range(reduced.frame.n)]
        assert firsts == sorted(firsts) and set(mapping) == set(range(len(firsts)))
        # class a lies below class b when some point of a lies below one of b
        members = [[p for p in range(frame.n) if mapping[p] == c] for c in range(len(firsts))]
        for a, pa in enumerate(members):
            assert reduced.colors[a] == model.colors[pa[0]]
            for b, pb in enumerate(members):
                assert reduced.frame.leq(a, b) == any(frame.leq(p, q) for p in pa for q in pb)
        assert is_reduced(reduced)
        assert is_reduced(model) == (reduced.frame.n == frame.n)
        digest.update(repr((reduced.to_text(), mapping)).encode())
        count += 1
    assert count == 609
    assert digest.hexdigest().startswith("1e53751f9f7cdbda")


def test_model_code_is_isomorphism_invariant():
    f1 = build_poset(["a", "b"], [("a", "b")])
    f2 = build_poset(["q9", "q1"], [("q9", "q1")])
    m1 = make_model(f1, ("x",), {"a": frozenset({"x"})})
    m2 = make_model(f2, ("x",), {"q9": frozenset({"x"})})
    m3 = make_model(f1, ("x",), {"a": frozenset({"x"}), "b": frozenset({"x"})})
    assert model_code(m1) == model_code(m2)
    assert model_code(m1) != model_code(m3)


def test_frame_spec_round_trip():
    frame = build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
    spec = frame_to_spec(frame)
    back = spec_to_frame(spec)
    assert back.names == frame.names
    assert set(back.covers) == set(frame.covers)
    assert set(spec.covers) == {(hi, lo) for lo, hi in frame.covers}


def test_universal_censuses():
    assert universal_frame(0, 3).census == (1,)
    assert universal_frame(1, 1).census == (2,)
    assert universal_frame(1, 2).census == (2, 2)
    assert universal_frame(1, 3).census == (2, 2, 2)
    assert universal_frame(2, 1).census == (4,)
    assert universal_frame(2, 2).census == (4, 18)
    assert universal_frame(2, 0).census == ()


def test_universal_frame_of_many_layers():
    # each layer extends the up masks by its own points: a transpose of the
    # whole lower frame per layer took ~2 s on this frame
    start = time.perf_counter()
    uf = universal_frame(1, 200)
    assert time.perf_counter() - start < 1.0
    assert uf.census == (2,) * 200
    assert uf.model.frame.n == 400


@pytest.mark.parametrize(
    "n, d, census", [(1, 1, (2,)), (2, 1, (4,)), (3, 1, (8,)), (1, 2, (2, 2)), (2, 2, (4, 18))]
)
def test_universal_frame_layers_count_rooted_reduced_models(n, d, census):
    # an oracle outside the frame's construction: layer k holds one point
    # per rooted reduced model of depth k, up to isomorphism.  Brute force:
    # every poset of at most m points with one maximal point (the root),
    # under every persistent colouring, kept when reduced, one model_code
    # class each, counted by depth height() + 1.  m points suffice:
    # - depth 1 is the root alone, so m = 1;
    # - at depth 2 every other point is minimal, and two minimal points of
    #   one colour have one theory, so a reduced model has at most 2**n of
    #   them under its root: m = 1 + 2**n.
    # (3, 2) would need 9 points, past posets.MAX_ENUM_POINTS.
    m = 1 if d == 1 else 1 + 2**n
    vars = tuple(f"x{i + 1}" for i in range(n))
    codes = [set() for _ in range(d)]
    for frame in enumerate_posets(m):
        if frame.maximal_points(frame.full).bit_count() != 1:
            continue
        depth = frame.height() + 1
        if depth > d:
            continue
        for colors in itertools.product(range(2**n), repeat=frame.n):
            if any(colors[lo] | colors[hi] != colors[lo] for lo, hi in frame.covers):
                continue
            model = make_model(frame, vars, colors)
            if is_reduced(model):
                codes[depth - 1].add(model_code(model))
    assert tuple(map(len, codes)) == census == universal_frame(n, d).census


def test_universal_frame_is_reduced_and_capped():
    uf = universal_frame(2, 2)
    assert is_reduced(uf.model)
    with pytest.raises(SizeCap) as err:
        universal_frame(2, 2, max_nodes=10)
    assert err.value.census is not None


def test_universal_frame_caps_layer_one():
    # layer 1 alone holds 2**n points: 32,768 for n = 15, over the default
    # cap of 20,000; the check comes before any point or variable is made
    with pytest.raises(SizeCap) as err:
        universal_frame(15, 1)
    assert err.value.census == ()
    start = time.perf_counter()
    with pytest.raises(SizeCap) as err:
        universal_frame(64, 1)
    assert time.perf_counter() - start < 0.1
    assert err.value.census == ()
    assert universal_frame(2, 1, max_nodes=4).census == (4,)
    with pytest.raises(SizeCap):
        universal_frame(2, 1, max_nodes=3)


def test_universal_frame_caps_variables_at_depth_zero():
    # the d = 0 frame is empty, but its model names n variables
    assert universal_frame(3, 0, max_nodes=3).census == ()
    start = time.perf_counter()
    with pytest.raises(SizeCap) as err:
        universal_frame(10**7, 0)
    assert time.perf_counter() - start < 0.1
    assert err.value.census == ()
    with pytest.raises(SizeCap) as err:
        free_quotient(4, 0, max_nodes=3)
    assert err.value.census == ()
    assert free_quotient(3, 0, max_nodes=3).algebra.size() == 1


def test_universal_frame_antichain_cap_reports_census(limits):
    with limits(MAX_ANTICHAINS=1000), pytest.raises(SizeCap) as err:
        universal_frame(2, 3)
    assert err.value.census == (4, 18)
    # under the default caps the node cap fires inside the third layer
    with pytest.raises(SizeCap) as err:
        universal_frame(2, 3)
    assert err.value.census == (4, 18, 19978)


def test_universal_frame_node_cap_sweep():
    # pinned on the build that made each node's down mask as it went: the
    # cap fires on the first node past it, with the same partial census
    sweep = {
        (2, 3, 22): (4, 18, 0),
        (2, 3, 23): (4, 18, 1),
        (2, 3, 100): (4, 18, 78),
        (1, 10, 4): (2, 2, 0),
        (1, 10, 5): (2, 2, 1),
    }
    for (n, d, cap), census in sweep.items():
        with pytest.raises(SizeCap) as err:
            universal_frame(n, d, max_nodes=cap)
        assert err.value.census == census
        assert str(err.value) == f"universal frame exceeds {cap} nodes"


def test_capped_universal_frame_holds_only_small_ints():
    # a layer's node-wide down masks are built once the whole layer fits, so
    # the capped (2, 3) build holds one lower-frame mask per node; it peaked
    # at ~27.7 MiB when each node's down mask was built as it was found
    tracemalloc.start()
    try:
        with pytest.raises(SizeCap):
            universal_frame(2, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_universal_frame_antichain_cap_counts_visited_antichains(limits):
    # the cap counts the antichains a layer's walk visits, those that meet
    # the newest layer or can still be extended to meet it, not every
    # antichain of the lower frame: a few a layer on the (1, d) ladder, so
    # each layer's work is bounded by count, however deep the frame.  The
    # (2, 3) cap under MAX_ANTICHAINS=1000 is checked above.
    with limits(MAX_ANTICHAINS=100):
        assert universal_frame(1, 200).census == (2,) * 200


def former_layers(n, d, max_nodes=None):
    """The layer loop before the pruned walk, kept as the reference: each
    layer streams every antichain of the lower frame and keeps those that
    meet the newest layer, re-reading each kept antichain's points for its
    colour meet and down union.  Returns (colors, down, up, layers,
    visits), ``visits[k]`` being the antichains of layer k+1's stream that
    meet the newest layer or whose extension mask does.  At ``max_nodes``
    it returns the census, the partial layer last, and the antichains
    visited in that layer up to the one the cap fires on."""
    colors, down, up, layers, visits = [], [], [], [], []
    for _ in range(d):
        newest = sum(1 << p for p in layers[-1]) if layers else 0
        found = antichain_stream(down, up) if layers else (0,)
        new_colors, new_below, visited = [], [], 0
        for antichain in found:
            top = antichain.bit_length()
            extension = ((1 << len(colors)) - 1) >> top << top
            for w in bits(antichain):
                extension &= ~(down[w] | up[w])
            visited += bool((antichain | extension) & newest)
            if antichain and not antichain & newest:
                continue
            inter, below = (1 << n) - 1, 0
            for w in bits(antichain):
                inter &= colors[w]
                below |= down[w]
            single = antichain.bit_count() == 1
            for c in range(inter if single else inter + 1):
                if c & inter == c:
                    if len(colors) + len(new_colors) == max_nodes:
                        census = tuple(map(len, layers)) + (len(new_colors),)
                        return census, visited
                    new_colors.append(c)
                    new_below.append(below)
        if not new_colors:
            break
        for c, below in zip(new_colors, new_below):
            idx = len(colors)
            colors.append(c)
            down.append(below | 1 << idx)
            up.append(1 << idx)
            for w in bits(below):
                up[w] |= 1 << idx
        layers.append(tuple(range(len(colors) - len(new_colors), len(colors))))
        visits.append(visited)
    return colors, down, up, layers, visits


FORMER_FRAMES = [(0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)] + [
    (1, d) for d in range(3, 31)
]


@pytest.mark.parametrize("n, d", FORMER_FRAMES)
def test_universal_frame_matches_former_layer_loop(n, d, limits):
    colors, down, up, layers, visits = former_layers(n, d)
    uf = universal_frame(n, d)
    frame = uf.model.frame
    assert uf.model.colors == tuple(colors)
    assert frame.down == tuple(down)
    assert frame.up == tuple(up)
    assert uf.layers == tuple(layers)
    # the walk visits exactly the antichains that meet the newest layer or
    # can still be extended to meet it, and the cap counts each of them
    if len(visits) > 1:
        most = max(visits[1:])
        with limits(MAX_ANTICHAINS=most):
            assert universal_frame(n, d).census == uf.census
        with limits(MAX_ANTICHAINS=most - 1), pytest.raises(SizeCap) as err:
            universal_frame(n, d)
        assert err.value.census == uf.census[: visits.index(most, 1)]


def test_capped_universal_frame_matches_former_layer_loop(limits):
    # the third layer's walk prunes antichains of the lower frame as well:
    # layer 1's three coloured points form one, but every layer 2 point
    # lies over one of them, so no extension meets layer 2
    for cap in (100, MAX_FRAME_NODES):
        census, visited = former_layers(2, 3, max_nodes=cap)
        with limits(MAX_ANTICHAINS=visited), pytest.raises(SizeCap) as err:
            universal_frame(2, 3, max_nodes=cap)
        assert err.value.census == census
        assert str(err.value) == f"universal frame exceeds {cap} nodes"
        with limits(MAX_ANTICHAINS=visited - 1), pytest.raises(SizeCap) as err:
            universal_frame(2, 3, max_nodes=cap)
        assert err.value.census == census[:2]


def rieger_nishimura(frame, x1, count):
    """Truth sets of the Rieger-Nishimura formulas nf_0 .. nf_{count-1} on
    a one-variable frame whose variable holds on ``x1``, one formula at a
    time: nf_0 = 0, nf_1 = x1, nf_2 = x1 -> 0, nf_{2k+1} = nf_{2k-1} |
    nf_{2k} and nf_{2k+2} = nf_{2k+1} -> nf_{2k-1}.  Their codes grow like
    Fibonacci numbers, so each is built from the values of the last two."""
    join, impl = parse_term("a | b").code, parse_term("a -> b").code
    nf = [0, x1, run_program(impl, {"a": x1, "b": 0}, frame)]
    while len(nf) < count:
        k = len(nf)
        code = join if k % 2 else impl
        first, second = (k - 2, k - 1) if k % 2 else (k - 1, k - 3)
        nf.append(run_program(code, {"a": nf[first], "b": nf[second]}, frame))
    return nf[:count]


def test_one_variable_frames_are_the_rieger_nishimura_ladder():
    # an oracle from outside the frame's construction: the free one-
    # generated Heyting algebra is the Rieger-Nishimura ladder, so on the
    # (1, D) frame the formulas nf_0 .. nf_{4D-2} are distinct downsets
    # short of the whole frame, and with it they are all 4D downsets
    for depth in range(1, 61):
        model = universal_frame(1, depth).model
        frame = model.frame
        nf = rieger_nishimura(frame, model.columns[0], 4 * depth - 1)
        assert len(set(nf)) == len(nf)
        assert frame.full not in nf
        assert frame.count_downsets() == 4 * depth


def test_caught_universal_frame_cap_holds_nothing():
    # the walk empties its lists before it raises, so a caught SizeCap
    # still referenced (its traceback holds the walk's frame) keeps no
    # layer: 1.53 MiB traced when the capped layer was left in the frame
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        try:
            universal_frame(2, 3)
        except SizeCap as exc:
            kept = exc
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert kept.census == (4, 18, 19978)
    assert held < 64 * 2**10


def test_universal_frame_structure_pinned():
    # sha256 of (names, covers, colors, layers), computed on the build that
    # walked each antichain once per colour: pins the frames themselves,
    # beyond their censuses
    pins = {
        (1, 5): "5b1d4af087402f9e",
        (2, 2): "fe2b5a7efe1a2b07",
        (3, 1): "307f0e884c0fe92c",
    }
    for (n, d), pin in pins.items():
        uf = universal_frame(n, d)
        frame = uf.model.frame
        text = repr((frame.names, frame.covers, uf.model.colors, uf.layers))
        assert hashlib.sha256(text.encode()).hexdigest().startswith(pin)


def test_universal_frame_keeps_its_grown_up_masks():
    # the frame takes the up masks grown layer by layer, not a transpose
    for n, ds in ((1, range(1, 7)), (2, (1, 2)), (3, (1, 2))):
        for d in ds:
            frame = universal_frame(n, d).model.frame
            assert frame == _from_down(frame.names, frame.down)


def test_columns_are_colour_bits():
    for model in [two_chain_model(), universal_frame(2, 2).model,
                  universal_frame(3, 1).model]:
        assert len(model.columns) == len(model.vars)
        for i, column in enumerate(model.columns):
            assert column == sum(
                1 << p for p, c in enumerate(model.colors) if c >> i & 1
            )
        assert model.columns is model.columns


def test_truth_set_follows_renamed_variables():
    model = universal_frame(2, 2).model
    renamed = make_model(model.frame, ("b", "a"), model.colors)
    for seed in range(200):
        # the same draws over two name lists give the same term, renamed
        t = random_term(random.Random(seed), list(model.vars), depth=4, kind="impl")
        u = random_term(random.Random(seed), ["b", "a"], depth=4, kind="impl")
        assert truth_set(model, t) == truth_set(renamed, u)


def test_algebra_of_model_closure_cap(limits):
    model = free_quotient(1, 3).frame.model
    assert len(algebra_of_model(model)) == free_quotient(1, 3).algebra.size()
    with limits(MAX_CLOSURE=4), pytest.raises(SizeCap):
        algebra_of_model(model)


def test_free_sizes_two_routes():
    expected = {(0, 1): 2, (0, 2): 2, (1, 1): 4, (1, 2): 8, (2, 1): 16}
    for (n, d), size in expected.items():
        fq = free_quotient(n, d)
        assert fq.algebra.size() == size
        assert len(algebra_of_model(fq.frame.model)) == size
        assert fq.complete is True
    # the generator audit stops above 600 elements
    assert MAX_GENERATION_CHECK == 600
    assert free_quotient(2, 2).complete is None


def test_free_quotient_generators_and_epsilon():
    fq = free_quotient(1, 2)
    g = fq.gens[0]
    top = fq.algebra.top()
    assert str(g) == "{u0,u2,u3}"
    eps = free_epsilon(1, 2, 1)
    assert eps == g & (top - g)
    assert str(eps) == "{u2,u3}"
    assert free_epsilon(1, 2, 0) == top
    assert free_epsilon(1, 2, 2).is_bottom()


def test_projection_carries_generators():
    proj = projection(1, 1)
    src = free_quotient(1, 2)
    dst = free_quotient(1, 1)
    assert proj.apply(src.gens[0]) == dst.gens[0]
    assert proj.apply(src.algebra.top()) == dst.algebra.top()
    assert proj.dual_injective()


def test_depth_equivalence_examples():
    lem = parse_term("x | (x -> 0)")
    one = parse_term("1")
    assert d_equivalent(lem, one, 1, 1)
    assert not d_equivalent(lem, one, 1, 2)
    assert d_equivalent(parse_term("x"), parse_term("x"), 1, 2)
    with pytest.raises(SignatureMismatch):
        d_equivalent(parse_term("x \\ x"), one, 1, 1)
    with pytest.raises(UnboundVariable):
        d_equivalent(parse_term("a | b | c"), one, 2, 1)


def test_depth_equivalence_matches_model_quantification():
    pairs = [
        ("x1 | (x1 -> 0)", "1"),
        ("(x1 -> 0) -> 0", "x1"),
        ("x1 & x1", "x1"),
        ("x1 -> 0", "0"),
    ]
    for d in (1, 2):
        models = list(enumerate_reduced_models(1, d))
        for s1, s2 in pairs:
            t1, t2 = parse_term(s1), parse_term(s2)
            brute = all(
                truth_set(m, t1) == truth_set(m, t2) for m in models
            )
            assert d_equivalent(t1, t2, 1, d) == brute


def test_enumerate_reduced_models_counts():
    small = list(enumerate_reduced_models(1, 2, max_points=1))
    assert len(small) == 2


@pytest.mark.parametrize("n,d,max_points,count", [
    (1, 1, None, 3), (1, 2, None, 7), (1, 3, None, 11), (1, 4, None, 15),
    (2, 1, None, 15), (3, 1, None, 255),
    (2, 2, 6, 865), (2, 2, 8, 6072), (3, 2, 5, 11106),
])
def test_one_reduced_model_per_nonempty_downset(n, d, max_points, count):
    # no two downsets of the universal model are isomorphic, so each gives
    # a model of its own: the canonical codes, computed here, are distinct
    frame = universal_frame(n, d).model.frame
    if max_points is None:
        assert frame.count_downsets() - 1 == count
    else:
        assert len(frame.downsets_upto(max_points)) - 1 == count
    models = list(enumerate_reduced_models(n, d, max_points))
    assert len(models) == count
    assert len({model_code(m) for m in models}) == count
    assert all(is_reduced(m) for m in models)


def test_reduced_models_of_f22_pinned():
    # the model codes in order, as the antichain route gave them
    codes = [model_code(m) for m in enumerate_reduced_models(2, 2, 6)]
    assert len(codes) == 865
    digest = hashlib.sha256("\n".join(codes).encode()).hexdigest()
    assert digest.startswith("d1a55e034b284611")


def test_bounded_reduced_models_walk_only_small_downsets(monkeypatch):
    def no_full_list(self):
        raise AssertionError("the full downset list was built")

    # the unbounded route, cut to the bound, gives the same models in order
    expected = {
        k: [model_code(m) for m in enumerate_reduced_models(1, 3) if m.frame.n <= k]
        for k in range(1, 8)
    }
    monkeypatch.setattr(Poset, "downsets", no_full_list)
    assert len(list(enumerate_reduced_models(2, 2, 6))) == 865
    for k, codes in expected.items():
        assert [model_code(m) for m in enumerate_reduced_models(1, 3, k)] == codes
    with pytest.raises(AssertionError):
        list(enumerate_reduced_models(1, 2))


def test_bounded_reduced_models_cap_counts_the_walk(limits):
    # 866 downsets of at most 6 points are walked, the empty one included,
    # of 265,454 in all
    with limits(MAX_CLOSURE=800), pytest.raises(SizeCap):
        list(enumerate_reduced_models(2, 2, 6))
    with limits(MAX_CLOSURE=1000):
        assert len(list(enumerate_reduced_models(2, 2, 6))) == 865
        with pytest.raises(SizeCap):
            list(enumerate_reduced_models(2, 2, None))


def test_model_algebra_round_trip():
    fq = free_quotient(1, 2)
    rebuilt = model_of_algebra(fq.algebra, fq.gens)
    assert model_code(rebuilt) == model_code(fq.frame.model)
    with pytest.raises(FrameMismatch):
        model_of_algebra(fq.algebra, fq.gens, var_names=("a", "b"))


def test_duality_of_forcing_and_evaluation():
    fq = free_quotient(1, 2)
    model = fq.frame.model
    env = {"x1": fq.gens[0]}
    for src in ("x1", "x1 -> 0", "(x1 -> 0) -> 0", "x1 | (x1 -> 0)", "0", "1"):
        t = parse_term(src)
        ts = truth_set(model, t)
        value = eval_term(dualize(t), fq.algebra, env)
        assert ts == model.frame.full & ~value.pts
