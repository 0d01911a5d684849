"""The containment engine.

expansion_contained indexes the left expansion's canonical database by
positions (variables, then the interior positions of each w^n atom,
whose length ``max_materialized_atoms`` bounds) instead of unrolling it
into a CQ, and asks whether some expansion of a star-free (or
letter-restricted) union query, prepared once as a RightSide, maps into
it, interleaving the right side's branch and exponent choices with a
forward-checking variable assignment search by memoized regex
reachability.  succinct_containment poses succinct CQ
containment to that same engine.  The brute-force reference it is
tested against, cq_hom, lives in expansion beside materialize and
shares no code with this search.

Reachability along w^<=n and w* is arithmetic over atoms, not letter by
letter.  Inside an atom u^e the letters have period |u| and the copies of
w period |w|; by Fine and Wilf, two such streams that agree on |u| + |w|
letters agree to the atom's end, so that many comparisons decide whether
the copies run through the atom, and the positions where whole copies end
form one arithmetic progression.  A Dijkstra over (vertex, phase of w),
whose vertices are the variables and the positions where atoms are
entered, keeps the least number of letters read; that is exact for up
to n copies, because from one state, fewer copies read so far leave more
to read and so reach a superset.  Reading w^n exactly, the copies of w
that stay inside atoms are crossed in one step by the same comparison.
The same periodicity lists the positions reading a letter as one range
per offset of an atom's word.  Each atom is kept as one span, from which
a position's letter and the vertex after it are computed, and every set
of vertices, reached or a candidate domain, is a Domain: a few variables
plus progressions inside atoms, whose size and intersections are
arithmetic and which the search iterates lazily in ascending order, so
the candidates, their sizes and their try order are those of the plain
sets.  What stays linear in the expansion's length is the number of
candidates tried one by one, the self-loop test, which reads the loop's
label from each candidate left, and a concatenation, which reads each
next part from every vertex the parts before it reach.

A homomorphism maps a closed walk of the right side, its atoms read
forwards, to a closed walk in the canonical database that spells one
word of each atom's label in turn (Chandra and Merlin, STOC 1977;
Figueira et al., KR 2020, for simple CRPQs).  An interior position has
one edge in and one edge out, both on its own atom, so a closed walk of
positive length through it reads that whole atom.  So let v be a
right-side variable on a closed walk with no star and at least one
non-nullable atom, and L the sum of its atoms' max_word_len: the walk's
image has positive length and at most L letters, and v never maps inside
an atom of more than L letters.  The search skips those candidates when
it assigns v, before reading any label from them.  No homomorphism uses
a skipped candidate, so the answer and the homomorphism found do not
change.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from heapq import heappop, heappush, merge
from itertools import chain
from math import gcd, inf, lcm
from operator import attrgetter

from crpqbound.config import DEFAULT_CAPS, Caps
from crpqbound.expansion import (
    SuccinctAtom,
    SuccinctCQ,
    check_length,
    fresh_prefix,
    max_word_len,
    normalize_succinct,
    nullable,
    ssf_words,
)

# unused here; kept importable because the benchmark's trace and checker use them
from crpqbound.expansion import cq_hom, materialize  # noqa: F401
from crpqbound.succinct_nfa import membership  # noqa: F401
from crpqbound.syntax import (
    CRPQ,
    UCRPQ,
    Concat,
    EdgeAtom,
    Epsilon,
    Letter,
    Power,
    PowerLE,
    Star,
    Union,
    as_power,
    collapse,
    concat,
    holds_star,
    union,
)

# ------------------------------------------------- expansion vs star-free q


class Contained:
    """Some expansion of the right side maps into lam's canonical database.

    The search finds an assignment of the disjunct's variables to integer
    vertices; ``hom`` (under the names materialize gives those vertices)
    and the right-side ``expansion`` that assignment realizes are
    recovered only when first read.
    """

    def __init__(self, disjunct: CRPQ, assignment: dict, db: _CanonicalDB):
        self._disjunct = disjunct
        self._assignment = assignment
        self._db = db

    @cached_property
    def hom(self) -> dict:
        return {v: self._db.name(u) for v, u in self._assignment.items()}

    @cached_property
    def expansion(self) -> SuccinctCQ:
        h = self._assignment
        atoms = []
        for a in self._disjunct.edge_atoms:
            word, exp = _witness_atom(self._db.fwd, a.label, h[a.src], h[a.dst])
            atoms.append(SuccinctAtom(a.src, word, exp, a.dst))
        return SuccinctCQ(self._disjunct.variables(), tuple(atoms))


def _reverse_expr(e):
    if isinstance(e, (Epsilon, Letter)):
        return e
    if isinstance(e, Concat):
        return concat(tuple(_reverse_expr(p) for p in reversed(e.parts)))
    if isinstance(e, Union):
        return union(tuple(_reverse_expr(p) for p in e.parts))
    if isinstance(e, (Power, PowerLE)):
        return type(e)(tuple(reversed(e.word)), e.exponent)
    if isinstance(e, Star):
        return Star(tuple(reversed(e.word)))
    raise TypeError(f"unknown expression: {e!r}")


def _first_letters(e) -> frozenset:
    """The letters that begin a non-empty word of e."""
    if isinstance(e, Epsilon):
        return frozenset()
    if isinstance(e, Letter):
        return frozenset((e.symbol,))
    if isinstance(e, Concat):
        out = set()
        for part in e.parts:
            out |= _first_letters(part)
            if not nullable(part):
                break
        return frozenset(out)
    if isinstance(e, Union):
        return frozenset().union(*(_first_letters(p) for p in e.parts))
    if isinstance(e, (Power, PowerLE)):
        return frozenset((e.word[0],)) if e.exponent else frozenset()
    if isinstance(e, Star):
        return frozenset((e.word[0],))
    raise TypeError(f"unknown expression: {e!r}")


_START = attrgetter("start")


def _meet(r, s):
    """The common elements of two ascending ranges of two or more elements
    each, as one range (by the Chinese remainder theorem), or None."""
    a, b = r.step, s.step
    g = gcd(a, b)
    diff = s.start - r.start
    if diff % g:
        return None
    step = a // g * b
    x = r.start + a * (diff // g * pow(a // g, -1, b // g) % (b // g))
    lo, hi = max(r.start, s.start), min(r[-1], s[-1])
    if x < lo:
        x += (lo - x + step - 1) // step * step
    return range(x, hi + 1, step) if x <= hi else None


def _clusters(ranges):
    """Groups of consecutive ranges, sorted by start, whose spans overlap."""
    group, hi = [], -1
    for r in ranges:
        if group and r.start > hi:
            yield group
            group = []
        group.append(r)
        hi = max(hi, r[-1])
    if group:
        yield group


def _merged(group):
    """Disjoint ranges covering a cluster: each range is cut into ranges
    of the least common step, and those of one residue are joined."""
    step = lcm(*(r.step for r in group if len(r) > 1))
    classes = {}
    for r in group:
        k = step // r.step if len(r) > 1 else 1
        for i in range(min(k, len(r))):
            part = r[i::k]
            classes.setdefault(part.start % step, []).append(part)
    out = []
    for parts in classes.values():
        parts.sort(key=_START)
        first, last = parts[0].start, parts[0][-1]
        for p in parts[1:]:
            if p.start > last + step:
                out.append(range(first, last + 1, step))
                first = p.start
            last = max(last, p[-1])
        out.append(range(first, last + 1, step))
    out.sort(key=_START)
    return out


class Domain:
    """A set of vertices: a frozenset of variables, and ascending ranges
    inside atoms, sorted by start and pairwise disjoint, each a
    progression of one atom's interior positions.  Size, emptiness,
    membership and intersection are arithmetic on the ranges; iteration
    is lazy and ascending, variables first."""

    __slots__ = ("variables", "ranges", "size")

    def __init__(self, variables: frozenset, ranges: list):
        self.variables = variables
        self.ranges = ranges
        self.size = len(variables) + sum(map(len, ranges))

    @classmethod
    def union(cls, variables, ranges) -> Domain:
        """variables and the union of ascending ranges, which may overlap."""
        ranges = list(ranges)
        if len(ranges) < 2:
            return cls(variables, ranges)
        out = []
        for group in _clusters(sorted(ranges, key=_START)):
            out.extend(group if len(group) == 1 else _merged(group))
        return cls(variables, out)

    def __len__(self):
        return self.size

    def __contains__(self, u):
        return u in self.variables or any(u in r for r in self.ranges)

    def __iter__(self):
        yield from sorted(self.variables)
        if self.ranges:
            for group in _clusters(self.ranges):
                yield from group[0] if len(group) == 1 else merge(*group)

    def __and__(self, other: Domain) -> Domain:
        out, b, j0, nb = [], other.ranges, 0, len(other.ranges)
        if not nb or not self.ranges:
            return Domain(self.variables & other.variables, out)
        for r in self.ranges:
            lo, hi = r.start, r[-1]
            while j0 < nb and b[j0][-1] < lo:
                j0 += 1
            j = j0
            while j < nb and b[j].start <= hi:
                s = b[j]
                j += 1
                if lo == hi:
                    if lo in s:
                        out.append(r)
                elif len(s) == 1:
                    if s.start in r:
                        out.append(s)
                elif s[-1] >= lo:
                    m = _meet(r, s)
                    if m:
                        out.append(m)
        if len(out) > 1:
            out.sort(key=_START)
        return Domain(self.variables & other.variables, out)


def _union_of(doms) -> Domain:
    """The union of domains."""
    doms = list(doms)
    return Domain.union(
        frozenset().union(*(d.variables for d in doms)),
        chain.from_iterable(d.ranges for d in doms),
    )


class _PathIndex:
    """Memoized reachability along regex labels, in one direction.

    Vertices below ``nvars`` are variables, whose edges are listed in
    ``adj`` by (vertex, letter).  Every other vertex p is an interior
    position of one atom with exactly one edge, to ``p + delta`` or, from
    the atom's last position, to its end.  ``spans`` lists each atom's
    (first, last interior position, word, source, target) in ascending
    order, and both directions share it: forwards p reads
    ``word[(p - first + 1) % |word|]``, backwards ``word[(p - first) % |word|]``.
    ``w^<=n`` and ``w*`` are read atom by atom (_copies): by Fine and
    Wilf, comparing |word| + |w| letters decides whether the copies of w
    run to the atom's end, and the least letters read per (vertex, phase
    of w) is exact for up to n copies.  ``w^n`` jumps over the copies that
    stay inside atoms by the same comparison (_power).  Sets of vertices
    are Domains, so a reach set along ``w^<=n`` or ``w*`` holds one range
    per atom and phase of w that the copies enter.  What stays linear:
    a concatenation reads each next part once per vertex of the set
    reached so far, and ``w^n`` walks one copy at a time while a variable
    is among the vertices reached.
    """

    def __init__(self, nvars, adj, delta, spans):
        self.nvars = nvars
        self.adj = adj
        self.delta = delta
        self.spans = spans
        self.heads = [head for head, *_ in spans]
        self.memo = {}

    def _atom(self, p):
        """Interior position p's atom in this direction: its word, the
        index in it of the letter p reads, its last position and its end."""
        head, tail, word, src, dst = self.spans[bisect_right(self.heads, p) - 1]
        if self.delta > 0:
            return word, (p - head + 1) % len(word), tail, dst
        return word, (p - head) % len(word), head, src

    def having(self, symbols) -> Domain:
        """The vertices with an edge reading one of symbols.  An atom's
        letters have period |word|, so each matching offset is one range."""
        shift = 1 if self.delta > 0 else 0
        return Domain(frozenset(u for u, t in self.adj if t in symbols), [
            range(lo + k, hi + 1, len(word))
            for lo, hi, word, _, _ in self.spans
            for k in range(min(len(word), hi - lo + 1))
            if word[(k + shift) % len(word)] in symbols
        ])

    def atom_length(self, p):
        """The number of letters of interior position p's atom."""
        head, tail, *_ = self.spans[bisect_right(self.heads, p) - 1]
        return tail - head + 2

    def within(self, dom: Domain, longest) -> Domain:
        """dom's variables and its positions inside atoms of at most
        longest letters, picked a whole range at a time."""
        return Domain(dom.variables, [r for r in dom.ranges if self.atom_length(r.start) <= longest])

    def points(self, us) -> Domain:
        """The distinct vertices us, a collection."""
        nvars = self.nvars
        inner = sorted(u for u in us if u >= nvars)
        if not inner:
            return Domain(frozenset(us), inner)
        return Domain(frozenset(u for u in us if u < nvars), [range(u, u + 1) for u in inner])

    def walk_word(self, frontier, word):
        nvars, adj, delta = self.nvars, self.adj, self.delta
        for s in word:
            nxt = set()
            for u in frontier:
                if u < nvars:
                    nxt.update(adj.get((u, s), ()))
                    continue
                aword, i, last, end = self._atom(u)
                if aword[i] == s:
                    nxt.add(end if u == last else u + delta)
            frontier = nxt
            if not frontier:
                break
        return frozenset(frontier)

    def reach(self, e, u) -> Domain:
        key = (e, u)
        got = self.memo.get(key)
        if got is not None:
            return got
        self.memo[key] = result = self._compute(e, u)
        return result

    def _compute(self, e, u) -> Domain:
        if isinstance(e, Epsilon):
            return self.points((u,))
        if isinstance(e, Letter):
            return self.points(self.walk_word((u,), (e.symbol,)))
        if isinstance(e, Concat):
            frontier = self.points((u,))
            for part in e.parts:
                frontier = _union_of(self.reach(part, v) for v in frontier)
                if not frontier:
                    break
            return frontier
        if isinstance(e, Union):
            return _union_of(self.reach(part, u) for part in e.parts)
        if isinstance(e, Power):
            return self._power(e.word, e.exponent, u)
        if isinstance(e, (PowerLE, Star)):
            limit = inf if isinstance(e, Star) else len(e.word) * e.exponent
            copies = [r for r, _ in self._copies(e.word, u, limit)]
            return Domain.union(
                frozenset(r.start for r in copies if r.start < self.nvars),
                [r if r.step > 0 else r[::-1] for r in copies if r.start >= self.nvars],
            )
        raise TypeError(f"unknown expression: {e!r}")

    def _read(self, v, word, d):
        """Interior position v against the copies of w, d letters of them
        read: how many letters agree before the first that differs (by Fine
        and Wilf, comparing |word| + |w| letters decides whether they agree
        to the atom's end), the letters left in v's atom, and its end."""
        aword, i, last, end = self._atom(v)
        la, lw, delta = len(aword), len(word), self.delta
        room = (last - v) * delta + 1
        for t in range(min(room, la + lw)):
            if aword[(i + t * delta) % la] != word[(d + t) % lw]:
                return t, room, end
        return room, room, end

    def _power(self, word, n, u) -> Domain:
        """Where reading w^n from u ends.  When every vertex reached is an
        interior position whose atom agrees with k more copies of w ending
        inside it, those k copies are one step; otherwise one copy is read.
        A jump ends where some vertex has no further copy inside its atom,
        so the step after it reads one copy.  Once a set of vertices
        repeats, the copies left shrink modulo the copies read between its
        two visits."""
        lw, nvars = len(word), self.nvars
        frontier, done, seen, k = frozenset((u,)), 0, {}, 0
        while done < n and frontier:
            if frontier in seen:
                n = done + (n - done) % (done - seen[frontier])
                if done == n:
                    break
            seen[frontier] = done
            k = 0 if k else n - done
            for v in frontier:
                if k < 2 or v < nvars:
                    k = 0
                    break
                read, room, _ = self._read(v, word, 0)
                fit = (read if read < room else room - 1) // lw
                if fit < k:
                    k = fit
            if k:
                frontier = frozenset(v + k * lw * self.delta for v in frontier)
                done += k
            else:
                frontier = self.walk_word(frontier, word)
                done += 1
        return self.points(frontier)

    def _copies(self, word, u, limit):
        """Where reading w^k from u ends, for k*|w| up to limit letters:
        (vertices, d) pairs, whose range's first vertex is reached after d
        letters and each next one |w| letters later."""
        nvars, adj, delta = self.nvars, self.adj, self.delta
        lw = len(word)
        dist, heap, found = {(u, 0): 0}, [(0, u)], []
        while heap:
            d, v = heappop(heap)
            if dist[v, d % lw] < d:
                continue
            if v < nvars:
                if d % lw == 0:
                    found.append((range(v, v + 1), d))
                steps = [(x, d + 1) for x in adj.get((v, word[d % lw]), ())]
            else:
                # the rest of v's atom against the copies of w
                read, room, end = self._read(v, word, d)
                lo, hi = -d % lw, min(read, room - 1, limit - d)
                if lo <= hi:
                    found.append((range(v + lo * delta, v + (hi + 1) * delta, lw * delta), d + lo))
                steps = [(end, d + room)] if read == room else []
            for x, dx in steps:
                if dx <= limit and dx < dist.get((x, dx % lw), dx + 1):
                    dist[x, dx % lw] = dx
                    heappush(heap, (dx, x))
        return found

    def steps_to(self, word, source, target, limit=None):
        """Least k with target reachable from source by reading word^k."""
        lw = len(word)
        copies = self._copies(word, source, inf if limit is None else limit * lw)
        d = min((d + r.index(target) * lw for r, d in copies if target in r), default=None)
        return None if d is None else d // lw


class _CanonicalDB:
    """The canonical database of a normalized succinct CQ, by positions.

    Variables are vertices 0..V-1 in the CQ's order; the |w|*n - 1
    interior positions of each atom follow in atom order, so vertex
    V + k - 1 is the one materialize names with suffix k.  Each atom adds
    one adjacency entry per direction and, if it has interior positions,
    one span (see _PathIndex); nothing is built per position.
    """

    def __init__(self, lam: SuccinctCQ):
        self.variables = lam.variables
        nvars = len(lam.variables)
        index = {v: i for i, v in enumerate(lam.variables)}
        out_adj, in_adj = {}, {}
        spans = []
        size = nvars
        for a in lam.atoms:
            src, dst = index[a.src], index[a.dst]
            if a.length == 1:
                head, tail = dst, src
            else:
                head, tail = size, size + a.length - 2
                size = tail + 1
                spans.append((head, tail, a.word, src, dst))
            out_adj.setdefault((src, a.word[0]), set()).add(head)
            in_adj.setdefault((dst, a.word[-1]), set()).add(tail)
        self.fwd = _PathIndex(nvars, out_adj, 1, spans)
        self.bwd = _PathIndex(nvars, in_adj, -1, spans)

    @cached_property
    def vertices(self) -> Domain:
        return Domain(
            frozenset(range(self.fwd.nvars)),
            [range(head, tail + 1) for head, tail, *_ in self.fwd.spans],
        )

    def name(self, u) -> str:
        """The name materialize gives vertex u."""
        nvars = len(self.variables)
        if u < nvars:
            return self.variables[u]
        return f"{fresh_prefix(set(self.variables))}{u - nvars + 1}"


def _witness_atom(fwd, e, hu, hv):
    """Concrete (word, exponent) choice of e realizing a path hu -> hv."""
    pair = as_power(e)
    if pair is not None:
        return pair
    if isinstance(e, (PowerLE, Star)):
        limit = e.exponent if isinstance(e, PowerLE) else None
        k = fwd.steps_to(e.word, hu, hv, limit=limit)
        if k is None:
            raise RuntimeError("witness recovery failed")
        return (e.word, k) if k > 0 else ((), 0)
    for w in ssf_words(e):
        if not w:
            if hu == hv:
                return (), 0
            continue
        if hv in fwd.walk_word(frozenset((hu,)), w):
            return w, 1
    raise RuntimeError("witness recovery failed")


class RightSide:
    """A union query, collapsed once, and its disjuncts, each with what
    every check against it reads: its non-nullable atoms' first and last
    letters, the links along which assigning one variable narrows another,
    the search's variable order, and per variable the least, over the
    closed walks through it, of the most letters the walk can spell (see
    _closed_walk_bounds).  The disjuncts are prepared when first read."""

    def __init__(self, q: UCRPQ):
        self.collapsed = collapse(q)
        self._disjuncts = None

    @property
    def disjuncts(self) -> tuple:
        if self._disjuncts is None:
            self._disjuncts = tuple(_PreparedDisjunct(d) for d in self.collapsed.disjuncts)
        return self._disjuncts

    @property
    def nullable_disjunct(self) -> bool:
        """Whether some disjunct has only nullable atoms, so that it maps
        into every canonical database."""
        return any(
            all(nullable(a.label) for a in d.edge_atoms) for d in self.collapsed.disjuncts
        )


class _PreparedDisjunct:
    def __init__(self, d: CRPQ):
        self.crpq = d
        self.solid = [
            (a, _first_letters(a.label), _first_letters(_reverse_expr(a.label)))
            for a in d.edge_atoms if not nullable(a.label)
        ]
        by_var = {v: [] for v in d.variables()}
        self.links = {v: [] for v in by_var}  # (other end, label, forwards?)
        for a in d.edge_atoms:
            by_var[a.src].append(a)
            if a.dst != a.src:
                by_var[a.dst].append(a)
                self.links[a.src].append((a.dst, a.label, True))
                self.links[a.dst].append((a.src, _reverse_expr(a.label), False))
        self.order = sorted(by_var, key=lambda v: (-len(by_var[v]), v))
        self.rank = {v: i for i, v in enumerate(self.order)}
        self.closed = _closed_walk_bounds(d)


def _closed_walk_bounds(d: CRPQ) -> dict:
    """Per variable v on such a walk, the least sum of max_word_len over a
    closed walk through v along atoms read forwards, one or more of them
    non-nullable (see the module docstring).  A label holding a star, whole
    or inside a concatenation or union, spells words of unbounded length,
    so its atom is no edge of the walk.  One Dijkstra over
    (variable, non-nullable atom read yet) from each variable with atoms
    both into and out of it."""
    arcs = {}
    for a in d.edge_atoms:
        if not holds_star(a.label):
            arcs.setdefault(a.src, []).append((a.dst, max_word_len(a.label), not nullable(a.label)))
    entered = {x for out in arcs.values() for x, _, _ in out}
    bounds = {}
    for v in filter(entered.__contains__, arcs):
        dist, heap = {(v, False): 0}, [(0, v, False)]
        while heap:
            n, u, solid = heappop(heap)
            if u == v and solid:
                bounds[v] = n
                break
            if dist[u, solid] < n:
                continue
            for x, m, s in arcs.get(u, ()):
                if n + m < dist.get((x, solid or s), inf):
                    dist[x, solid or s] = n + m
                    heappush(heap, (n + m, x, solid or s))
    return bounds


def expansion_contained(
    lam: SuccinctCQ, right: UCRPQ | RightSide, caps: Caps = DEFAULT_CAPS
) -> Contained | None:
    """Is the expansion lam subsumed by some expansion of the right side?

    The reachability engine reads every right-side label, stars included,
    whole or inside a concatenation or union; only Contained.expansion
    needs the right side star-free apart from whole-label stars.  A UCRPQ
    is prepared, and lam normalized, for this one check; with a RightSide
    lam must be normalized already, as expansion_of builds it.
    lam is indexed by positions (see _CanonicalDB), not unrolled; its
    length, the sum of |w|*n over its atoms, is bounded by
    ``max_materialized_atoms``.
    Returns Contained, which recovers the chosen right-side expansion and
    homomorphism on demand, or None when no expansion maps.
    """
    if isinstance(right, UCRPQ):
        lam, right = normalize_succinct(lam), RightSide(right)
    check_length(lam, caps.max_materialized_atoms)
    db = _CanonicalDB(lam)
    for d in right.disjuncts:
        h = _disjunct_hom(d, db)
        if h is not None:
            return Contained(d.crpq, h, db)
    return None


def succinct_containment(
    left: SuccinctCQ, right: SuccinctCQ, caps: Caps = DEFAULT_CAPS
) -> bool:
    """True iff the right CQ maps homomorphically into the left one.

    The right CQ is read as a one-disjunct query of w^n atoms and decided
    by expansion_contained, so the left side's length is bounded by
    ``max_materialized_atoms``.
    """
    right = normalize_succinct(right)
    if not right.atoms:
        return True
    atoms = tuple(
        EdgeAtom(a.src, Power(a.word, a.exponent), a.dst) for a in right.atoms
    )
    query = UCRPQ((CRPQ(atoms),))
    return expansion_contained(left, query, caps) is not None


def _unary_domains(d: _PreparedDisjunct, fwd: _PathIndex, bwd: _PathIndex):
    """Candidate sets that need no other variable's value.

    A non-nullable atom's source must have an edge out on one of the
    label's first letters and its target an edge in on one of its last
    letters; a non-nullable self-loop's variable must reach itself.  Such
    a variable is on a closed walk (the loop alone, if nothing shorter),
    so it also drops the interior positions of atoms longer than its bound
    in d.closed (see the module docstring).  A nullable label constrains
    nothing (the empty path joins every vertex to itself), and variables
    left out are unconstrained.
    """
    dom = {}

    def restrict(v, allowed):
        dom[v] = allowed if v not in dom else dom[v] & allowed

    for a, first, last in d.solid:
        restrict(a.src, fwd.having(first))
        restrict(a.dst, bwd.having(last))
    for a, _, _ in d.solid:
        if a.src == a.dst:
            keep = dom[a.src]
            if a.src in d.closed:
                keep = fwd.within(keep, d.closed[a.src])
            dom[a.src] = fwd.points([u for u in keep if u in fwd.reach(a.label, u)])
    return dom


def _disjunct_hom(d: _PreparedDisjunct, db: _CanonicalDB):
    """Backtracking with forward checking: assigning a variable narrows
    the candidates of the unassigned ones it shares an atom with, undone
    on backtrack.  Fewest candidates (then least rank) goes next, and
    tries its candidates lazily in ascending order.  A variable on a
    closed walk of at most L letters (d.closed) passes over the interior
    positions of atoms longer than L, a whole range at a time, without
    trying them: no homomorphism maps it there (see the module
    docstring).  Only a self-loop's variable has them dropped from its
    domain; the other domains keep them, so the variable order and the
    homomorphism found are those of trying them."""
    fwd, bwd = db.fwd, db.bwd
    dom = _unary_domains(d, fwd, bwd)
    cands = {v: dom[v] if v in dom else db.vertices for v in d.order}
    assign = {}

    def solve(todo):
        if not todo:
            return True
        v = min(todo, key=lambda u: (cands[u].size, d.rank[u]))
        rest = [u for u in todo if u != v]
        tries = fwd.within(cands[v], d.closed[v]) if v in d.closed else cands[v]
        for u in tries:
            assign[v] = u
            saved = []
            for w, label, forward in d.links[v]:
                if w in assign:
                    continue
                s = (fwd if forward else bwd).reach(label, u)
                saved.append((w, cands[w]))
                cands[w] = cands[w] & s
                if not cands[w]:
                    break
            else:
                if solve(rest):
                    return True
            for w, old in reversed(saved):
                cands[w] = old
            del assign[v]
        return False

    return dict(assign) if solve(d.order) else None
