"""Expansion machinery: bounded queries, expansion enumeration, materialization.

An expansion of a query picks one concrete word per atom.  Expansions are
kept succinct: each atom stores a word and a repetition count in binary
(:class:`SuccinctCQ`), and :func:`materialize` unrolls one into a plain
conjunctive query with explicit path variables when the fully written-out
form is needed.

:func:`join`, the brute-force references' backtracking join with
arc-consistent domains, serves :func:`cq_hom` (the plain homomorphism search
the containment engine is tested against) and the oracle's evaluation.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from crpqbound.config import DEFAULT_CAPS, Caps
from crpqbound.errors import CapExceeded, UnsupportedFragment
from crpqbound.syntax import (
    CRPQ,
    UCRPQ,
    Concat,
    EdgeAtom,
    Epsilon,
    EqualityAtom,
    Letter,
    Power,
    PowerLE,
    RegexExpr,
    Star,
    Union,
    as_power,
    collapse,
    identify,
    render_regex,
)

# ---------------------------------------------------------------- data model


@dataclass(frozen=True, order=True)
class SuccinctAtom:
    """One atom of a succinct CQ: a w^n path from src to dst."""

    src: str
    word: tuple
    exponent: int
    dst: str

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("negative exponent")
        if self.exponent > 0 and not self.word:
            raise ValueError("positive exponent needs a non-empty word")

    @property
    def length(self) -> int:
        return len(self.word) * self.exponent


@dataclass(frozen=True)
class SuccinctCQ:
    """A conjunction of w^n atoms plus possibly isolated variables."""

    variables: tuple
    atoms: tuple

    def __post_init__(self):
        if not self.variables:
            raise ValueError("SuccinctCQ needs at least one variable")
        have = set(self.variables)
        for a in self.atoms:
            if a.src not in have or a.dst not in have:
                raise ValueError(f"atom endpoint missing from variables: {a}")


@dataclass(frozen=True)
class CQAtom:
    src: str
    symbol: str
    dst: str


@dataclass(frozen=True)
class CQ:
    """A plain conjunctive query with single-letter edge labels."""

    variables: tuple
    atoms: tuple


# ------------------------------------------------------------ bounded queries


def _map_labels(q: UCRPQ, f) -> UCRPQ:
    out = []
    for d in q.disjuncts:
        atoms = []
        for a in d.atoms:
            if isinstance(a, EdgeAtom):
                atoms.append(EdgeAtom(a.src, f(a.label), a.dst))
            else:
                atoms.append(a)
        out.append(CRPQ(tuple(atoms)))
    return UCRPQ(tuple(out))


def _replace_stars(e: RegexExpr, f) -> RegexExpr:
    if isinstance(e, Star):
        return f(e)
    if isinstance(e, (Concat, Union)):
        cls = type(e)
        return cls(tuple(_replace_stars(p, f) for p in e.parts))
    return e


def is_capped(word, letters) -> bool:
    """Whether a star over ``word`` is capped under letter set A.

    ``letters=None`` stands for all letters: every star is capped.
    Otherwise only single-letter stars over a letter in A are.
    """
    return letters is None or (len(word) == 1 and word[0] in letters)


def bound_query(q: UCRPQ, m: int) -> UCRPQ:
    """q(m): every w* becomes w^{<=m}."""
    return bound_letters(q, None, m)


def bound_letters(q: UCRPQ, letters, n: int) -> UCRPQ:
    """q[A -> n]: capped stars (see is_capped) become ^{<=n}, others stay."""

    def swap(s: Star) -> RegexExpr:
        return PowerLE(s.word, n) if is_capped(s.word, letters) else s

    return _map_labels(q, lambda e: _replace_stars(e, swap))


# -------------------------------------------------------------- SSF languages


def ssf_words(e: RegexExpr, caps: Caps = DEFAULT_CAPS):
    """The finite language of a star-free expression, as a word list.

    Order is deterministic (syntactic, left to right) and duplicates are
    dropped keeping the first occurrence.  The caps are checked on the
    language's size before any word is listed.
    """
    _ssf_size(e, caps)
    seen = set()
    out = []
    for w in _ssf_words(e):
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _ssf_size(e: RegexExpr, caps: Caps):
    """(word count, longest word) of _ssf_words(e), computed without listing.

    Raises the first cap that listing the language would exceed.
    """
    if isinstance(e, Epsilon):
        return 1, 0
    if isinstance(e, Letter):
        return 1, 1
    if isinstance(e, (Power, PowerLE)):
        longest = len(e.word) * e.exponent
        if longest > caps.max_word_len:
            raise CapExceeded(caps.max_word_len, "materialized power too long")
        return (1 if isinstance(e, Power) else e.exponent + 1), longest
    if isinstance(e, Union):
        count = longest = 0
        for p in e.parts:
            c, m = _ssf_size(p, caps)
            count, longest = count + c, max(longest, m)
            if count > caps.max_expansions:
                raise CapExceeded(caps.max_expansions, "union language too large")
        return count, longest
    if isinstance(e, Concat):
        count, longest = 1, 0
        for p in e.parts:
            c, m = _ssf_size(p, caps)
            if count * c > caps.max_expansions:
                raise CapExceeded(caps.max_expansions, "concat language too large")
            if longest + m > caps.max_word_len:
                raise CapExceeded(caps.max_word_len, "concat word too long")
            count, longest = count * c, longest + m
        return count, longest
    if isinstance(e, Star):
        raise UnsupportedFragment("a starred expression has no finite language")
    raise TypeError(f"not a regex: {e!r}")


def _ssf_words(e: RegexExpr):
    if isinstance(e, Epsilon):
        return [()]
    if isinstance(e, Letter):
        return [(e.symbol,)]
    if isinstance(e, Power):
        return [e.word * e.exponent]
    if isinstance(e, PowerLE):
        return [e.word * k for k in range(e.exponent + 1)]
    if isinstance(e, Union):
        return [w for p in e.parts for w in _ssf_words(p)]
    out = [()]
    for p in e.parts:
        tails = _ssf_words(p)
        out = [w + t for w in out for t in tails]
    return out


def max_word_len(e: RegexExpr) -> int:
    """Length of the longest word the expression can spell (symbolically)."""
    if isinstance(e, Epsilon):
        return 0
    if isinstance(e, Letter):
        return 1
    if isinstance(e, (Power, PowerLE)):
        return len(e.word) * e.exponent
    if isinstance(e, Concat):
        return sum(max_word_len(p) for p in e.parts)
    if isinstance(e, Union):
        return max(max_word_len(p) for p in e.parts)
    if isinstance(e, Star):
        raise UnsupportedFragment("starred expressions have unbounded words")
    raise TypeError(f"not a regex: {e!r}")


def nullable(e: RegexExpr) -> bool:
    """Whether the empty word belongs to the expression's language."""
    if isinstance(e, Epsilon):
        return True
    if isinstance(e, Letter):
        return False
    if isinstance(e, Star):
        return True
    if isinstance(e, Power):
        return e.exponent == 0
    if isinstance(e, PowerLE):
        return True
    if isinstance(e, Concat):
        return all(nullable(p) for p in e.parts)
    if isinstance(e, Union):
        return any(nullable(p) for p in e.parts)
    raise TypeError(f"not a regex: {e!r}")


# -------------------------------------------------------------- normalization


def normalize_succinct(scq: SuccinctCQ) -> SuccinctCQ:
    """Canonical form: collapse zero-length atoms, dedupe, sort.

    Atoms with exponent 0 identify their endpoints (the path is empty);
    the equivalence classes are renamed to their lexicographically least
    member by the same identify as query-level collapse.
    """
    find = identify((a.src, a.dst) for a in scq.atoms if a.length == 0)
    atoms = set()
    for a in scq.atoms:
        if a.length == 0:
            continue
        atoms.add(SuccinctAtom(find(a.src), a.word, a.exponent, find(a.dst)))
    variables = tuple(sorted({find(v) for v in scq.variables}))
    return SuccinctCQ(variables, tuple(sorted(atoms)))


def render_succinct_cq(scq: SuccinctCQ) -> str:
    """Canonical text form, re-using the query grammar."""
    if not scq.atoms:
        v = scq.variables[0]
        return f"?{v} -[eps]-> ?{v}"
    return ", ".join(
        f"?{a.src} -[{render_regex(Power(a.word, a.exponent))}]-> ?{a.dst}"
        for a in scq.atoms
    )


def succinct_cq_from_crpq(d: CRPQ) -> SuccinctCQ:
    """Read a CRPQ whose labels are all of w^n shape as a succinct CQ."""
    atoms = []
    for a in d.atoms:
        if isinstance(a, EqualityAtom):
            atoms.append(SuccinctAtom(a.left, (), 0, a.right))
            continue
        pair = as_power(a.label)
        if pair is None:
            raise UnsupportedFragment(
                "succinct CQ atoms must be words or binary powers"
            )
        atoms.append(SuccinctAtom(a.src, *pair, a.dst))
    variables = d.variables()
    return SuccinctCQ(tuple(variables), tuple(atoms))


# ---------------------------------------------------------------- enumeration


def _atom_choices(label: RegexExpr, dom_values, caps: Caps):
    """Choice list for one atom: pairs (word, exponent), in canonical order."""
    if isinstance(label, Star):
        return [(label.word, e) for e in dom_values]
    if isinstance(label, PowerLE):
        return [(label.word, k) for k in range(label.exponent + 1)]
    pair = as_power(label)
    if pair is not None:
        return [pair]
    return [(w, 1) if w else ((), 0) for w in ssf_words(label, caps)]


def star_free_choice_count(label: RegexExpr, caps: Caps = DEFAULT_CAPS) -> int:
    """Number of expansion choices of a non-star atom label.

    Arithmetic only, used for budget estimates before any choice list is
    materialized.  A word the label spells in more than one way is
    counted once per way, so the count is an upper bound, exact when each
    word is spelled once.
    """
    if isinstance(label, Star):
        raise ValueError("star label has no fixed choice count")
    if isinstance(label, PowerLE):
        return label.exponent + 1
    if as_power(label) is not None:
        return 1
    return _ssf_size(label, caps)[0]


def choice_lists(q: CRPQ, dom: dict, caps: Caps = DEFAULT_CAPS) -> list:
    """One choice list per atom of q, which holds no equality atom.

    A choice is a pair (word, exponent).  Star atoms draw their exponents
    from ``dom``, a dict from atom index to exponent values; star-free
    atoms range over their finite languages, in canonical order.
    """
    return [
        _atom_choices(a.label, dom[i] if isinstance(a.label, Star) else None, caps)
        for i, a in enumerate(q.atoms)
    ]


def expansion_of(atoms, combo, variables) -> SuccinctCQ:
    """The normalized expansion that puts each choice of combo on its atom.

    ``variables`` are all kept, so an endpoint of no listed atom stays as
    an isolated variable.
    """
    return normalize_succinct(SuccinctCQ(variables, tuple(
        SuccinctAtom(a.src, w, e, a.dst) for a, (w, e) in zip(atoms, combo)
    )))


def enumerate_expansions(q: CRPQ, dom: dict, cap: int | None = None, caps: Caps = DEFAULT_CAPS):
    """Yield the expansions of q, as normalized succinct CQs.

    Atoms take their choices from choice_lists(q, dom, caps).  Enumeration
    order is lexicographic over (atom index, choice index), and
    structurally equal expansions are emitted once.  Raises CapExceeded
    after visiting ``cap`` combinations.
    """
    limit = caps.max_expansions if cap is None else cap
    q = collapse(q) if q.equality_atoms else q
    variables = q.variables()
    seen = set()
    visited = 0
    for combo in itertools.product(*choice_lists(q, dom, caps)):
        visited += 1
        if visited > limit:
            raise CapExceeded(limit, "expansion enumeration over cap")
        scq = expansion_of(q.atoms, combo, variables)
        if scq not in seen:
            seen.add(scq)
            yield scq


# -------------------------------------------------------------- materializing


def check_length(scq: SuccinctCQ, limit: int) -> None:
    """Refuse an expansion longer than limit letters, the sum of |w|*n."""
    total = sum(a.length for a in scq.atoms)
    if total > limit:
        raise CapExceeded(limit, f"materialization needs {total} atoms")


def fresh_prefix(taken):
    """The shortest run of z's that no name in taken extends by digits."""
    prefix = "z"
    while any(re.fullmatch(prefix + "[0-9]+", v) for v in taken):
        prefix += "z"
    return prefix


def materialize(scq: SuccinctCQ, caps: Caps = DEFAULT_CAPS) -> CQ:
    """Unroll a succinct CQ into a plain CQ with explicit path variables.

    Midpoint variables are named z1, z2, ... in atom order (the prefix is
    lengthened if it would clash with an existing variable).  The
    unrolled length is bounded by ``max_materialized_atoms``.
    """
    scq = normalize_succinct(scq)
    check_length(scq, caps.max_materialized_atoms)
    prefix = fresh_prefix(set(scq.variables))
    counter = 0
    atoms = []
    variables = list(scq.variables)
    for a in scq.atoms:
        cur = a.src
        path = a.word * a.exponent
        for k, sym in enumerate(path):
            if k == len(path) - 1:
                nxt = a.dst
            else:
                counter += 1
                nxt = f"{prefix}{counter}"
                variables.append(nxt)
            atoms.append(CQAtom(cur, sym, nxt))
            cur = nxt
    return CQ(tuple(variables), tuple(atoms))


# ------------------------------------------------------------ reference join


def join(variables, domains, pairs):
    """A value per variable from its ``domains`` meeting every pair, or None.

    A pair (x, y, fwd, bwd) of distinct variables allows y = v with x = u
    exactly when v is in fwd[u]; bwd is its inverse.  Backtracking over
    domains kept arc consistent, so chain-shaped joins collapse by
    propagation; it branches on the first smallest open domain in
    ``variables`` order and tries its values in sorted order.
    """
    # the work sets hold pair indices: pairs holding dicts do not hash
    pairs_of = {v: [] for v in variables}
    dom = {v: set(domains[v]) for v in variables}
    for i, (x, y, fwd, bwd) in enumerate(pairs):
        pairs_of[x].append(i)
        pairs_of[y].append(i)
        dom[x] = {u for u in dom[x] if u in fwd}
        dom[y] = {u for u in dom[y] if u in bwd}

    def propagate(dom, work):
        while work:
            x, y, fwd, bwd = pairs[work.pop()]
            sx, sy = dom[x], dom[y]
            # every value left in a domain has an entry (filtered above)
            nx = {u for u in sx if not fwd[u].isdisjoint(sy)}
            ny = {u for u in sy if not bwd[u].isdisjoint(nx)}
            if len(nx) < len(sx):
                if not nx:
                    return False
                dom[x] = nx
                work.update(pairs_of[x])
            if len(ny) < len(sy):
                if not ny:
                    return False
                dom[y] = ny
                work.update(pairs_of[y])
        return True

    def search(dom):
        v = None
        for u in variables:
            if len(dom[u]) > 1 and (v is None or len(dom[u]) < len(dom[v])):
                v = u
        if v is None:
            return {u: next(iter(dom[u])) for u in variables}
        for value in sorted(dom[v]):
            nd = {w: set(d) for w, d in dom.items()}
            nd[v] = {value}
            if propagate(nd, set(pairs_of[v])):
                found = search(nd)
                if found is not None:
                    return found
        return None

    if any(not d for d in dom.values()) or not propagate(dom, set(range(len(pairs)))):
        return None
    return search(dom)


def cq_hom(src: CQ, dst: CQ):
    """A homomorphism from src into dst, or None, found by join.

    A self-loop atom restricts its variable to dst's vertices with that loop.
    """
    fwd, bwd = {}, {}
    for a in dst.atoms:
        fwd.setdefault(a.symbol, {}).setdefault(a.src, set()).add(a.dst)
        bwd.setdefault(a.symbol, {}).setdefault(a.dst, set()).add(a.src)
    domains = {v: set(dst.variables) for v in src.variables}
    pairs = []
    for a in src.atoms:
        out, into = fwd.get(a.symbol, {}), bwd.get(a.symbol, {})
        if a.src == a.dst:
            domains[a.src] &= {u for u, vs in out.items() if u in vs}
        else:
            pairs.append((a.src, a.dst, out, into))
    return join(src.variables, domains, pairs)
