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
        Most combinations the probe grid may hold, all counted and not
        only the probe checks, where a pendant star, which sits at
        exponent 0, counts once; also the most expansions one enumeration
        visits and the most words one star-free label's language lists.
    max_materialized_atoms:
        Longest expansion, the sum of |w|*n over its atoms, that a
        containment check indexes as its left side or that materialize
        unrolls.
    max_length_dp:
        Most residues a state holds for one pivot in the length search
        behind succinct-NFA membership, counted apart for walks that have
        not yet passed the pivot and walks that have, so a state may hold
        twice as many in all; also the longest word or transition
        brute-force membership unrolls, and the largest |w|*n of a power
        that query evaluation reads.
    max_word_len:
        Longest word a star-free label spells when its language is listed.
    """

    max_expansions: int = 10**5
    max_materialized_atoms: int = 10**6
    max_length_dp: int = 10**6
    max_word_len: int = 10**4


@dataclass
class Stats:
    """Mutable counters accumulated during an analysis run.

    expansions_checked counts the probe vectors decided, vectors of the
    grid with every pendant star at exponent 0, one per combination of
    atom choices, also when two normalize to the same expansion; covered
    counts those among them that a line cover, a contained line, decided
    without a check of their own, and cover_checks counts the checks run
    on the lines' sub-expansions.
    """

    expansions_checked: int = 0
    covered: int = 0
    cover_checks: int = 0
    wall_ms: float = 0.0


DEFAULT_CAPS = Caps()
