"""Shared fixtures and test-side helpers."""

import random
from contextlib import contextmanager

import pytest

from coheyting import posets
from coheyting.posets import Poset, bits, build_poset


@pytest.fixture
def limits(monkeypatch):
    """``with limits(MAX_CLOSURE=11): ...`` sets the named ``posets`` size
    limits for the block only; a misspelt name raises."""

    @contextmanager
    def set_limits(**values):
        with monkeypatch.context() as patch:
            for name, value in values.items():
                patch.setattr(posets, name, value)
            yield

    return set_limits


def from_down(names, down) -> Poset:
    """A Poset from reflexive down-closure masks alone: the up masks are
    their transpose, and the library climbs the covers."""
    up = [0] * len(down)
    for j, d in enumerate(down):
        for i in bits(d):
            up[i] |= 1 << j
    return posets._from_masks(names, down, up)


def two_level(n: int) -> Poset:
    """n // 2 bottom points, then the top points, each above 3 bottom points
    drawn with seed 1: counting its downsets memoizes 53,823 subsets at 40
    points and 302,459 at 48."""
    rng = random.Random(1)
    bottom = [f"b{i}" for i in range(n // 2)]
    top = [f"t{i}" for i in range(n - n // 2)]
    return build_poset(bottom + top, [(b, t) for t in top for b in rng.sample(bottom, 3)])
