"""The main decision procedure for boundedness of recursive path queries.

A query whose stars range over single words is bounded exactly when every
expansion, with star exponents drawn from a finite probe set, is already
subsumed by the star-capped query q(Z).  An expansion whose capped stars
all sit at or below Z is an expansion of q(Z), so only the probe
expansions, with at least one capped star above Z, are walked and
checked.  This module computes the numeric thresholds (Z and the probe
exponent), counts the probe grid arithmetically against the budget, runs
the containment checks, and derives star-free rewritings,
letter-restricted verdicts, and the maximal set of individually bounded
star letters.

The probes are walked as vectors, one choice (word, exponent) per atom
of the collapsed disjunct, in lexicographic order; a vector is built and
normalized into its expansion only when it needs a check.  Homomorphisms
compose (Chandra and Merlin, STOC 1977): if q(Z) maps into a database
that maps into the probe's canonical database, it maps into the probe.
Two rules follow.

- Pendant stars sit at exponent 0.  A pendant star is a star atom of the
  collapsed disjunct, not a self-loop, with an end, its leaf, that no
  other atom touches.  Setting its exponent to 0 merges the leaf into
  the other end and changes nothing else.  A vector v with pendant star
  i above 0 comes after v[i<-0] in walk order, since 0 is every star's
  first exponent, and v[i<-0] is one of four things: trivial (every
  probed star at most Z, an expansion of q(Z)), contained, the witness
  (the walk stops there), or capped.  Trivial or contained, it makes v
  contained, since it is v without the star's atom and the leaf, which
  maps into v.  Capped, it makes v cap too: v is strictly longer, since
  the star's atom adds |w|*e letters that normalizing cannot merge.  So
  each pendant star is relabeled w^0, whose one choice is (word, 0), and
  its exponent is neither probed nor counted.  The atom is pinned, not
  deleted: normalizing names the merged vertex by the least name, which
  can be the leaf's.  The leaf is judged on the disjunct, never on the
  normalized probe, where a star at exponent 1 merges with an atom of
  the same word between the same variables.
- The vectors that differ in one axis, the choice of one atom, form a
  line, and they share a sub-expansion: the probe minus that atom, with
  all variables kept.  It maps into each probe of the line, as a
  sub-database when the atom's exponent is positive and by identifying
  the atom's two ends when it is 0.  A line's sub-expansion met for the
  second time gets one check of its own, a cover check; when it is
  contained, it decides that vector and every later vector on the line
  without a check.

So the verdict, the witness (the first uncontained vector in walk order),
the rewriting and the reason are those of checking every probe.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, fields, replace

from crpqbound.config import DEFAULT_CAPS, Caps, Stats
from crpqbound.errors import CapExceeded
from crpqbound.expansion import (
    SuccinctCQ,
    bound_letters,
    choice_lists,
    expansion_of,
    is_capped,
    max_word_len,
    star_free_choice_count,
)

# unused here; kept importable because the benchmark's layer trace patches it
from crpqbound.expansion import enumerate_expansions  # noqa: F401
from crpqbound.homomorphism import RightSide, expansion_contained
from crpqbound.syntax import (
    UCRPQ,
    Power,
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


def _largest(qc: UCRPQ) -> BoundsProfile:
    return max(map(_disjunct_profile, qc.disjuncts), key=lambda p: p.z)


def compute_bounds(q: UCRPQ) -> BoundsProfile:
    """The profile of the disjunct with the largest z (first on ties)."""
    return _largest(collapse(q))


def _safe_probe(profile: BoundsProfile) -> int:
    max_w = max((len(w) for w in profile.rec_words), default=1)
    return profile.nratoms * profile.z * max_w + profile.nrvars + 1


# ------------------------------------------------------------------- report


@dataclass
class AnalysisReport:
    """The outcome of one analysis, whichever entry point ran it.

    letters is the letter set asked about (None for is_bounded), or, from
    maximal_bounded_letters, the maximal set found.  Only that entry point
    fills per_letter, with one (letter a, is_bounded_in(q, {a}) report)
    pair per star letter; its stats are their sum, and rewriting and
    witness stay None because they belong to the single letters.
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


def _probe_counts(splits, z, per, caps):
    """Raw combination count and probe check count, summed over disjuncts.

    Each star of ``splits`` (see _decide) takes ``per`` exponents.  A probe
    combination has at least one capped star above z; the others are
    expansions of q(Z) and need no check.  Pure arithmetic, so that
    astronomically large Z never materializes a value before the budget.
    """
    raw = real = 0
    for d, stars, capped in splits:
        base = 1
        for a in d.edge_atoms:
            if not isinstance(a.label, Star):
                base *= star_free_choice_count(a.label, caps)
        total = base * per ** len(stars)
        raw += total
        real += total - base * (z + 1) ** len(capped) * per ** (len(stars) - len(capped))
    return raw, real


def _probe_vectors(lists, probed, z):
    """The product of the choice lists, pruned to the vectors in which at
    least one atom of ``probed``, which is not empty, takes an exponent
    above z.

    Lexicographic order is kept: each prefix up to the last probed atom is
    followed by that atom's full choice list if the prefix already exceeds
    z, and by its choices above z otherwise.
    """
    last = max(probed)
    earlier = [i for i in probed if i < last]
    high = [c for c in lists[last] if c[1] > z]
    tail = lists[last + 1:]
    for prefix in itertools.product(*lists[:last]):
        here = lists[last] if any(prefix[i][1] > z for i in earlier) else high
        for rest in itertools.product(here, *tail):
            yield prefix + rest


def _pendant(d) -> frozenset:
    """The pendant stars of disjunct d (see the module docstring); a
    self-loop counts its variable twice, so it is never one."""
    ends = Counter(v for a in d.edge_atoms for v in (a.src, a.dst))
    return frozenset(
        i for i, a in enumerate(d.edge_atoms)
        if isinstance(a.label, Star) and 1 in (ends[a.src], ends[a.dst])
    )


_ONCE, _SPENT, _COVER = 1, 2, 3


class _Walk:
    """One disjunct's walk over its probe vectors, and the lines it has met.

    A line key is (axis, the vector without that axis), for each atom with
    more than one choice.  lines maps a key to _ONCE once a vector that no
    line decided met it, to _SPENT once its cover check found no map (or
    hit a cap), and to _COVER once it found one.
    """

    def __init__(self, d, lists, rhs, caps, stats):
        self.atoms = d.edge_atoms
        self.variables = d.variables()
        self.rhs, self.caps, self.stats = rhs, caps, stats
        self.axes = [i for i, choices in enumerate(lists) if len(choices) > 1]
        self.lines = {}

    def expansion(self, v, drop=None):
        """The probe of vector v, or its sub-expansion without atom ``drop``."""
        if drop is None:
            return expansion_of(self.atoms, v, self.variables)
        return expansion_of(self.atoms[:drop] + self.atoms[drop + 1:], v, self.variables)

    def covers(self, v) -> bool:
        """Whether a line through v is known, or now found, contained.

        The first of v's keys met for the second time gets the one cover
        check it will ever have.
        """
        keys = [(i, v[:i] + v[i + 1:]) for i in self.axes]
        lines = self.lines
        states = [lines.get(k) for k in keys]
        if _COVER in states:
            return True
        again = None
        for k, state in zip(keys, states):
            if state is None:
                lines[k] = _ONCE
            elif state == _ONCE and again is None:
                again = k
        if again is None:
            return False
        lines[again] = _SPENT
        self.stats.cover_checks += 1
        try:
            if expansion_contained(self.expansion(again[1], again[0]), self.rhs, self.caps) is None:
                return False
        except CapExceeded:
            return False
        lines[again] = _COVER
        return True


def _decide(starred, rhs, z, probe, letters, caps, full, stats, mode):
    """Check every probe vector of the collapsed query against rhs.

    starred pairs each collapsed disjunct, its pendant stars pinned at
    exponent 0 (see _analyze), with the indices of its other star atoms;
    those capped under letters (see is_capped) are probed above z, and
    rhs is q with every capped star capped.  Returns (verdict,
    witness, reason); the witness is the expansion of the first
    uncontained probe vector in walk order.  The budget bounds the raw
    combinations, which are never fewer than the probe vectors.

    A vector is a tuple of atom choices, walked per disjunct in the
    lexicographic order of _probe_vectors, and every one counts in
    expansions_checked, also one that normalizes like an earlier one.  A
    vector on a line known contained is decided without being built (see
    _Walk.covers), since q(Z)'s map into the line's sub-expansion is one
    into the probe too.  An uncontained probe has no contained line, so
    it is always built and checked itself, and the first of them in walk
    order is still the witness.  A cover check that hits a cap records
    nothing and leaves the probe to its own check, so it never makes the
    verdict inconclusive.
    """
    rhs = RightSide(rhs)
    if rhs.nullable_disjunct:
        # some right-side disjunct expands to isolated points, which map
        # into every canonical database, so every expansion is contained
        mode["shortcut"] = "nullable-disjunct"
        return "bounded", None, None

    splits = [
        (d, s, frozenset(i for i in s if is_capped(d.edge_atoms[i].label.word, letters)))
        for d, s in starred
    ]
    try:
        raw, real = _probe_counts(splits, z, probe + 1 if full else z + 2, caps)
        if full and raw > caps.max_expansions:
            # full enumeration over budget; fall back to the restricted grid
            full = False
            raw, real = _probe_counts(splits, z, z + 2, caps)
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

    # the budget check bounds every walk below the expansion cap
    capped = False
    for d, stars, probed in splits:
        if not probed:
            continue
        values = range(probe + 1) if full else (*range(z + 1), probe)
        lists = choice_lists(d, dict.fromkeys(stars, values), caps)
        walk = _Walk(d, lists, rhs, caps, stats)
        for v in _probe_vectors(lists, probed, z):
            stats.expansions_checked += 1
            if walk.covers(v):
                stats.covered += 1
                continue
            lam = walk.expansion(v)
            try:
                result = expansion_contained(lam, rhs, caps)
            except CapExceeded:
                capped = True
                continue
            if result is None:
                return "unbounded", lam, None
    if capped:
        return "inconclusive", None, "a containment check exceeded caps"
    return "bounded", None, None


def _analyze(q, letter_sets, caps, full_enumeration, zplus_mode):
    """Check, collapse and bound q once, then run each letter set on it.

    The checks run even when no letter set follows.  A letter set is None
    (every star capped) or a frozenset of letters.  A run builds only its
    capped query, its right side and its rewriting when bounded, and the
    stars it probes.  Returns the bounds and one report per set; a run's
    wall_ms starts where the one before ended, so the first's includes
    the shared work.
    """
    t = time.monotonic()
    if zplus_mode not in ("paper", "safe"):
        raise ValueError(f"unknown zplus_mode: {zplus_mode!r}")
    (check_ssf_wstar if letter_sets == [None] else check_single_letter_stars)(q)
    qc = collapse(q)
    agg = _largest(qc)
    probe = agg.z_plus if zplus_mode == "paper" else _safe_probe(agg)
    starred = []
    for d in qc.disjuncts:
        # a pendant star's one choice is (word, 0), and it counts once
        pendant = _pendant(d)
        d = replace(d, atoms=tuple(
            replace(a, label=Power(a.label.word, 0)) if i in pendant else a
            for i, a in enumerate(d.edge_atoms)
        ))
        starred.append((d, [i for i, a in enumerate(d.edge_atoms) if isinstance(a.label, Star)]))
    reports = []
    for letters in letter_sets:
        stats = Stats()
        mode = dict(
            zplus_mode=zplus_mode, full_enumeration=full_enumeration, probe=probe, z=agg.z,
            letters=None if letters is None else ",".join(sorted(letters)), shortcut=None,
        )
        capped = bound_letters(q, letters, agg.z)
        if letters == frozenset():
            # nothing is capped, so q is its own rewriting
            verdict, witness, reason = "bounded", None, None
        else:
            verdict, witness, reason = _decide(
                starred, capped, agg.z, probe, letters, caps, full_enumeration, stats, mode
            )
        t0, t = t, time.monotonic()
        stats.wall_ms = (t - t0) * 1000.0
        reports.append(AnalysisReport(
            verdict=verdict,
            bounds=agg,
            rewriting=capped if verdict == "bounded" else None,
            witness=witness,
            letters=letters,
            stats=stats,
            mode=mode,
            inconclusive_reason=reason,
        ))
    return agg, reports


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
    other expansions are expansions of q(Z) already.  Each check indexes
    the expansion's canonical database by positions, without unrolling
    it (see expansion_contained).  The first uncontained expansion, in
    walk order (see _decide), is returned as the witness.  Caps yield
    Inconclusive, never a wrong verdict.
    """
    return _analyze(q, [None], caps, full_enumeration, zplus_mode)[1][0]


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
    return _analyze(q, [frozenset(letters)], caps, full_enumeration, zplus_mode)[1][0]


def maximal_bounded_letters(
    q: UCRPQ,
    caps: Caps = DEFAULT_CAPS,
    full_enumeration: bool = False,
    zplus_mode: str = "paper",
) -> AnalysisReport:
    """The union of star letters a with q bounded in {a}, as one report.

    q is checked, collapsed and bounded once; then each star letter a
    gets its own run, the report is_bounded_in(q, {a}) gives, kept in
    per_letter.  Single-letter boundedness is confluent, so the union of
    the bounded letters is itself a set the query is bounded in, and it
    is maximal among star letters; it becomes the report's letters.  A
    query with no stars is vacuously bounded in every alphabet letter.
    The verdict is the gravest letter verdict: inconclusive (the set then
    under-approximates), then unbounded, then bounded.
    """
    t0 = time.monotonic()
    letters = sorted(star_letters(q))
    agg, runs = _analyze(
        q, [frozenset({a}) for a in letters], caps, full_enumeration, zplus_mode
    )
    per_letter = tuple(zip(letters, runs))
    gravest = ("inconclusive", "unbounded", "bounded")
    verdict = min((r.verdict for r in runs), key=gravest.index, default="bounded")
    bounded = frozenset(a for a, r in per_letter if r.verdict == "bounded")
    counters = [f.name for f in fields(Stats) if f.name != "wall_ms"]
    stats = Stats(**{f: sum(getattr(r.stats, f) for r in runs) for f in counters})
    report = AnalysisReport(
        verdict=verdict,
        bounds=agg,
        rewriting=None,
        witness=None,
        letters=bounded if per_letter else alphabet(q),
        stats=stats,
        mode=dict(
            letters="max", zplus_mode=zplus_mode, full_enumeration=full_enumeration,
            per_letter=[[a, r.verdict] for a, r in per_letter],
        ),
        per_letter=per_letter,
    )
    report.mode["inconclusive_letters"] = sorted(report.inconclusive)
    stats.wall_ms = (time.monotonic() - t0) * 1000.0
    return report
