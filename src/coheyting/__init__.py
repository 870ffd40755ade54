"""Finite co-Heyting algebras as downsets of posets.

Dimension and codimension of elements, quotients by the codimension
ideals, Kripke-model duality with the finite stages of free algebras, and
the ultrametric completion machinery at finite depth.
"""

from .algebra import (
    Algebra,
    DimPreservationReport,
    Element,
    Infinite,
    MINUS_INFINITY,
    Morphism,
    PLUS_INFINITY,
    check_dL_preserved,
    fiber_max,
    fiber_min,
    identity_morphism,
    make_morphism,
)
from .errors import (
    CoheytingError,
    CycleDetected,
    DuplicateName,
    EmptyElement,
    FormatError,
    FrameMismatch,
    IncoherentFamily,
    InfiniteArithmetic,
    LimitsDiffer,
    NotADownset,
    NotCauchyAtDepth,
    NotMonotone,
    NotOpen,
    NotSqueezed,
    OwnerMismatch,
    SignatureMismatch,
    SizeCap,
    TermSyntaxError,
    UnboundVariable,
)
from .fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from .kripke import (
    FreeQuotient,
    KripkeModel,
    UniversalFrame,
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
from .metric import (
    CoherentFamily,
    FamilyDistance,
    Tower,
    ball,
    cauchy_limit,
    dense_skeleton,
    distance,
    family_distance,
    is_isolated,
    make_tower,
    monotone_limit,
    precompactness_census,
    squeeze_limit,
)
from .posets import (
    Poset,
    build_poset,
    canonical_form,
    enumerate_posets,
    parse_point_list,
    parse_poset_text,
    poset_to_text,
)
from .search import Witness, fmp_search
from .suites import (
    Failure,
    SuiteContext,
    SuiteReport,
    replay_failure,
    run_suites,
    suite_names,
)
from .terms import (
    Diff,
    Formula,
    Impl,
    Join,
    Meet,
    ONE,
    Term,
    Var,
    ZERO,
    dualize,
    eval_formula,
    eval_term,
    parse_formula,
    parse_term,
    print_term,
    slice_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
