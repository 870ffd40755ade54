"""Resource caps.

Everything in the package that can blow up combinatorially checks one of
these limits and raises SizeCap instead of exhausting memory.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    max_enum_points: int = 7        # poset isomorphism-class enumeration
    max_frame_nodes: int = 20000    # universal frame construction
    max_closure: int = 2 ** 20      # element materialization / signature closure
    max_antichains: int = 2 ** 20   # antichain streams
    max_canonical_leaves: int = 2 ** 20  # canonical form backtracking leaves


DEFAULT_CAPS = Caps()
