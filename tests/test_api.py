"""Shape of the public API: the frame-node cap is the one size limit a
caller can set, as ``max_nodes`` on the frame builders; the other limits
are module constants of ``posets``."""

import dataclasses
import importlib.util
import inspect

import coheyting
from coheyting import Algebra, Poset, SuiteContext, Tower

FRAME_BUILDERS = {
    "universal_frame",
    "free_quotient",
    "free_epsilon",
    "projection",
    "d_equivalent",
    "enumerate_reduced_models",
    "make_tower",
    "precompactness_census",
}


def parameters(fn) -> set[str]:
    try:
        return set(inspect.signature(fn).parameters)
    except (TypeError, ValueError):  # most exception classes have none
        return set()


def test_no_caps_and_max_nodes_only_on_frame_builders():
    assert importlib.util.find_spec("coheyting.config") is None
    assert not {"Caps", "DEFAULT_CAPS"} & set(coheyting.__all__)
    takes_max_nodes = set()
    for name in coheyting.__all__:
        obj = getattr(coheyting, name)
        if callable(obj):
            assert "caps" not in parameters(obj), name
            if "max_nodes" in parameters(obj):
                takes_max_nodes.add(name)
    assert takes_max_nodes == FRAME_BUILDERS
    for cls in (Poset, Algebra, Tower, SuiteContext):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert not {"caps", "max_nodes"} & fields, cls.__name__
        for attr, member in vars(cls).items():
            if callable(member):
                assert not {"caps", "max_nodes"} & parameters(member), attr
