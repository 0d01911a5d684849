"""The main decision procedure for boundedness of recursive path queries.

A query whose stars range over single words is bounded exactly when every
expansion, with star exponents drawn from a finite probe set, is already
subsumed by the star-capped query q(Z).  An expansion whose capped stars
all sit at or below Z is an expansion of q(Z), so only the probe
expansions, with at least one capped star above Z, are enumerated and
checked.  This module computes the numeric thresholds (Z and the probe
exponent), counts the probe grid arithmetically against the budget, runs
the containment checks, and derives star-free rewritings,
letter-restricted verdicts, and the maximal set of individually bounded
star letters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from crpqbound.config import DEFAULT_CAPS, Caps, Stats
from crpqbound.errors import CapExceeded
from crpqbound.expansion import (
    ExponentDomain,
    SuccinctCQ,
    bound_letters,
    enumerate_expansions,
    is_capped,
    max_word_len,
    nullable,
    star_free_choice_count,
)
from crpqbound.homomorphism import NotContained, expansion_contained
from crpqbound.syntax import (
    UCRPQ,
    Star,
    alphabet,
    check_single_letter_stars,
    check_ssf_wstar,
    collapse,
    star_letters,
)

# ------------------------------------------------------------------- bounds


@dataclass(frozen=True)
class BoundsProfile:
    """The numeric thresholds of one conjunct (or the aggregate).

    z_red multiplies the lengths of the distinct starred words, z_col and z
    scale that by atom, variable, and word-length counts, and z_plus is the
    probe exponent one past which unbounded behaviour must show up.
    """

    nratoms: int
    nrvars: int
    n_len: int
    rec_words: tuple
    z_red: int
    z_col: int
    z: int
    z_plus: int


def _disjunct_profile(d) -> BoundsProfile:
    atoms = d.edge_atoms
    nratoms = len(atoms)
    nrvars = len(d.variables())
    rec = set()
    n_len = 1
    for a in atoms:
        if isinstance(a.label, Star):
            rec.add(a.label.word)
        else:
            n_len = max(n_len, max_word_len(a.label))
    rec_words = tuple(sorted(rec))
    z_red = 1
    for w in rec_words:
        z_red *= len(w)
    z_col = nratoms * n_len * nrvars * z_red
    z = nratoms * nratoms * z_col
    return BoundsProfile(
        nratoms=nratoms,
        nrvars=nrvars,
        n_len=n_len,
        rec_words=rec_words,
        z_red=z_red,
        z_col=z_col,
        z=z,
        z_plus=nratoms * z + 1,
    )


def per_disjunct_bounds(q: UCRPQ) -> tuple:
    return tuple(_disjunct_profile(d) for d in collapse(q).disjuncts)


def compute_bounds(q: UCRPQ) -> BoundsProfile:
    """The profile of the disjunct with the largest z (first on ties)."""
    per = per_disjunct_bounds(q)
    return max(per, key=lambda p: p.z)


def _safe_probe(profile: BoundsProfile) -> int:
    max_w = max((len(w) for w in profile.rec_words), default=1)
    return profile.nratoms * profile.z * max_w + profile.nrvars + 1


# ------------------------------------------------------------------- report


@dataclass
class AnalysisReport:
    """The outcome of one analysis, whichever entry point ran it.

    letters is the letter set asked about (None for is_bounded), or, from
    maximal_bounded_letters, the maximal set found.  Only that entry point
    fills per_letter, with one (letter, is_bounded_in report) pair per
    star letter; its stats are their sum, and rewriting and witness stay
    None because they belong to the single letters.
    """

    verdict: str  # "bounded" | "unbounded" | "inconclusive"
    bounds: BoundsProfile
    rewriting: UCRPQ | None
    witness: SuccinctCQ | None
    letters: frozenset | None
    stats: Stats
    mode: dict
    inconclusive_reason: str | None = None
    per_letter: tuple | None = None

    @property
    def inconclusive(self) -> frozenset:
        """The letters whose own run was inconclusive."""
        return frozenset(
            a for a, r in self.per_letter or () if r.verdict == "inconclusive"
        )


# ------------------------------------------------------------ the decision


def _probe_grid(d, z: int, probe: int, full: bool, letters):
    """The star exponent domain of one disjunct and its capped star atoms."""
    stars = [i for i, a in enumerate(d.edge_atoms) if isinstance(a.label, Star)]
    values = tuple(range(probe + 1)) if full else tuple(range(z + 1)) + (probe,)
    capped = frozenset(
        i for i in stars if is_capped(d.edge_atoms[i].label.word, letters)
    )
    return ExponentDomain(tuple((i, values) for i in stars)), capped


def _has_nullable_disjunct(rhs: UCRPQ) -> bool:
    return any(
        d.edge_atoms and all(nullable(a.label) for a in d.edge_atoms)
        for d in rhs.disjuncts
    )


def _probe_counts(qc, z, probe, full, letters, caps):
    """Raw combination count and probe check count, summed over disjuncts.

    A probe combination has at least one capped star above z; the others
    are expansions of q(Z) and need no check.  Pure arithmetic, so that
    astronomically large Z never materializes a value tuple before the
    budget check.
    """
    raw = real = 0
    per = probe + 1 if full else z + 2
    for d in qc.disjuncts:
        base = 1
        capped_stars = free_stars = 0
        for a in d.edge_atoms:
            if isinstance(a.label, Star):
                if is_capped(a.label.word, letters):
                    capped_stars += 1
                else:
                    free_stars += 1
            else:
                base *= star_free_choice_count(a.label, caps)
        total = base * per ** (capped_stars + free_stars)
        raw += total
        real += total - base * (z + 1) ** capped_stars * per**free_stars
    return raw, real


def _decide(qc, rhs, z, probe, letters, caps, full, stats, mode):
    """Check every probe expansion of qc against rhs.

    Returns (verdict, witness, reason); the witness is the first
    uncontained probe expansion in enumeration order.  The budget bounds
    the raw combinations, which are never fewer than the probe checks.
    """
    if _has_nullable_disjunct(rhs):
        # some right-side disjunct expands to isolated points, which map
        # into every canonical database, so every expansion is contained
        mode["shortcut"] = "nullable-disjunct"
        return "bounded", None, None

    try:
        raw, real = _probe_counts(qc, z, probe, full, letters, caps)
        if full and raw > caps.max_expansions:
            # full enumeration over budget; fall back to the restricted grid
            full = False
            raw, real = _probe_counts(qc, z, probe, full, letters, caps)
    except CapExceeded as exc:
        return "inconclusive", None, str(exc)
    mode["full_enumeration_effective"] = full
    mode["raw_combos"] = raw
    mode["real_checks"] = real
    if raw > caps.max_expansions:
        reason = (
            f"needs {real} containment checks over {raw} combinations, "
            f"budget {caps.max_expansions}"
        )
        return "inconclusive", None, reason

    # the budget check bounds every enumeration below the expansion cap
    capped = False
    for d in qc.disjuncts:
        dom, probed = _probe_grid(d, z, probe, full, letters)
        for lam in enumerate_expansions(d, dom, caps=caps, above=(probed, z)):
            stats.expansions_checked += 1
            try:
                result = expansion_contained(lam, rhs, caps)
            except CapExceeded:
                capped = True
                continue
            stats.nfa_calls += 1
            if isinstance(result, NotContained):
                return "unbounded", lam, None
    if capped:
        return "inconclusive", None, "a containment check exceeded caps"
    return "bounded", None, None


def _analyze(q, letters, caps, full_enumeration, zplus_mode) -> AnalysisReport:
    """The analysis core of is_bounded (letters=None) and is_bounded_in."""
    t0 = time.monotonic()
    if zplus_mode not in ("paper", "safe"):
        raise ValueError(f"unknown zplus_mode: {zplus_mode!r}")
    check_ssf_wstar(q)
    if letters is not None:
        check_single_letter_stars(q)
        letters = frozenset(letters)
    qc = collapse(q)
    agg = max((_disjunct_profile(d) for d in qc.disjuncts), key=lambda p: p.z)
    z = agg.z
    probe = agg.z_plus if zplus_mode == "paper" else _safe_probe(agg)
    stats = Stats()
    mode = {
        "zplus_mode": zplus_mode,
        "full_enumeration": full_enumeration,
        "probe": probe,
        "z": z,
        "letters": None if letters is None else "".join(sorted(letters)),
        "shortcut": None,
    }
    if letters == frozenset():
        # nothing is capped, so q is its own rewriting
        verdict, witness, reason = "bounded", None, None
    else:
        verdict, witness, reason = _decide(
            qc, bound_letters(qc, letters, z), z, probe, letters, caps,
            full_enumeration, stats, mode,
        )
    stats.wall_ms = (time.monotonic() - t0) * 1000.0
    return AnalysisReport(
        verdict=verdict,
        bounds=agg,
        rewriting=bound_letters(q, letters, z) if verdict == "bounded" else None,
        witness=witness,
        letters=letters,
        stats=stats,
        mode=mode,
        inconclusive_reason=reason,
    )


def is_bounded(
    q: UCRPQ,
    caps: Caps = DEFAULT_CAPS,
    full_enumeration: bool = False,
    zplus_mode: str = "paper",
) -> AnalysisReport:
    """Decide whether q is equivalent to its star-capped version q(Z).

    Checks only the probe expansions against q(Z): star exponents range
    over {0..Z} plus the probe exponent (all of {0..probe} under
    full_enumeration), and at least one star sits above Z, since the
    other expansions are expansions of q(Z) already.  Each check
    materializes the expansion.  The first uncontained expansion, in
    enumeration order, is returned as the witness.  Caps yield
    Inconclusive, never a wrong verdict.
    """
    return _analyze(q, None, caps, full_enumeration, zplus_mode)


def is_bounded_in(
    q: UCRPQ,
    letters,
    caps: Caps = DEFAULT_CAPS,
    full_enumeration: bool = False,
    zplus_mode: str = "paper",
) -> AnalysisReport:
    """Decide A-boundedness: is q equivalent to q with A-stars capped?

    Only stars over letters in A are capped on the right and probed on the
    left; other stars stay and absorb their own exponents, over the same
    exponent domain.  Stars must be over single letters for the
    letter-restricted analysis.
    """
    return _analyze(q, letters, caps, full_enumeration, zplus_mode)


def maximal_bounded_letters(
    q: UCRPQ,
    caps: Caps = DEFAULT_CAPS,
    full_enumeration: bool = False,
    zplus_mode: str = "paper",
) -> AnalysisReport:
    """The union of star letters a with q bounded in {a}, as one report.

    Each star letter gets its own is_bounded_in(q, {a}) run, kept in
    per_letter.  Single-letter boundedness is confluent, so the union of
    the bounded letters is itself a set the query is bounded in, and it
    is maximal among star letters; it becomes the report's letters.  A
    query with no stars is vacuously bounded in every alphabet letter.
    The verdict is inconclusive if some letter's run is (the set then
    under-approximates), else unbounded if some letter is unbounded, else
    bounded.
    """
    t0 = time.monotonic()
    check_ssf_wstar(q)
    check_single_letter_stars(q)
    per_letter = tuple(
        (a, is_bounded_in(q, {a}, caps, full_enumeration, zplus_mode))
        for a in sorted(star_letters(q))
    )
    verdicts = {r.verdict for _, r in per_letter}
    verdict = next(
        (v for v in ("inconclusive", "unbounded") if v in verdicts), "bounded"
    )
    bounded = frozenset(a for a, r in per_letter if r.verdict == "bounded")
    stats = Stats(
        expansions_checked=sum(r.stats.expansions_checked for _, r in per_letter),
        nfa_calls=sum(r.stats.nfa_calls for _, r in per_letter),
    )
    report = AnalysisReport(
        verdict=verdict,
        bounds=compute_bounds(q),
        rewriting=None,
        witness=None,
        letters=bounded if per_letter else alphabet(q),
        stats=stats,
        mode={
            "letters": "max",
            "zplus_mode": zplus_mode,
            "full_enumeration": full_enumeration,
            "per_letter": [[a, r.verdict] for a, r in per_letter],
        },
        per_letter=per_letter,
    )
    report.mode["inconclusive_letters"] = sorted(report.inconclusive)
    stats.wall_ms = (time.monotonic() - t0) * 1000.0
    return report
