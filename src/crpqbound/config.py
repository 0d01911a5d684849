"""Resource caps and run statistics.

All potentially explosive computations take a :class:`Caps` instance and
raise :class:`~crpqbound.errors.CapExceeded` rather than silently
truncating.  A :class:`Stats` object threads through analysis calls so
callers can report how much work a verdict cost.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Hard limits for the succinct algorithms.

    max_expansions:
        Most expansions a single enumeration may visit.
    max_materialized_atoms:
        Longest expansion, the sum of |w|*n over its atoms, that a
        containment check indexes as its left side or that materialize
        unrolls.
    max_length_dp:
        Most residues one state holds, per pivot, in the exact length
        search behind succinct-NFA membership; also the longest word,
        transition or power the brute-force oracles unroll.
    max_word_len:
        Longest word allowed under a star or power when materializing.
    max_semilinear:
        Most lengths one state holds once the length search has cut
        every cycle and propagates length sets over the acyclic rest.
    """

    max_expansions: int = 10**5
    max_materialized_atoms: int = 10**6
    max_length_dp: int = 10**6
    max_word_len: int = 10**4
    max_semilinear: int = 10**5


@dataclass
class Stats:
    """Mutable counters accumulated during an analysis run."""

    expansions_checked: int = 0
    nfa_calls: int = 0
    wall_ms: float = 0.0


DEFAULT_CAPS = Caps()
