"""Shared fixtures."""

from contextlib import contextmanager

import pytest

from coheyting import posets


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
