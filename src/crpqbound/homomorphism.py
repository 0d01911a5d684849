"""Homomorphism search and containment checks.

cq_hom finds a plain homomorphism between materialized conjunctive
queries; it is the reference the containment engine is tested against.
expansion_contained is the containment engine: it indexes the left
expansion's canonical database by positions (variables, then the
interior positions of each w^n atom, whose length ``max_materialized_atoms``
bounds) instead of unrolling it into a CQ, and asks whether some
expansion of a star-free (or letter-restricted) union query maps into it,
interleaving the right side's branch and exponent choices with the
variable assignment search by memoized regex reachability.
succinct_containment poses succinct CQ containment to that same engine.

Reachability along w^<=n and w* is arithmetic over atoms, not letter by
letter.  Inside an atom u^e the letters have period |u| and the copies of
w period |w|; by Fine and Wilf, two such streams that agree on |u| + |w|
letters agree to the atom's end, so that many comparisons decide whether
the copies run through the atom, and the positions where whole copies end
form one arithmetic progression.  A Dijkstra over (vertex, phase of w),
whose vertices are the variables and the positions where atoms are
entered, keeps the least number of letters read; that is exact for up
to n copies, because from one state, fewer copies read so far leave more
to read and so reach a superset.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, compress, count, repeat
from math import inf
from operator import eq, itemgetter

from crpqbound.config import DEFAULT_CAPS, Caps
from crpqbound.expansion import (
    CQ,
    SuccinctAtom,
    SuccinctCQ,
    check_length,
    fresh_prefix,
    max_word_len,
    normalize_succinct,
    nullable,
    ssf_words,
)

# unused here; kept importable because the benchmark's layer trace patches them
from crpqbound.expansion import materialize  # noqa: F401
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
    union,
)

# ------------------------------------------------------------- plain CQ homs


_NO_VARS = frozenset()


def cq_hom(src: CQ, dst: CQ):
    """A homomorphism from src into dst, or None.

    Complete backtracking over per-variable candidate domains that are
    kept arc consistent, so the chain-shaped queries that materialized
    expansions produce collapse by propagation instead of by branching.
    """
    out_idx = {}
    in_idx = {}
    loops = {}
    for a in dst.atoms:
        out_idx.setdefault((a.src, a.symbol), set()).add(a.dst)
        in_idx.setdefault((a.dst, a.symbol), set()).add(a.src)
        if a.src == a.dst:
            loops.setdefault(a.symbol, set()).add(a.src)
    dst_vars = set(dst.variables)

    atoms_of = {v: [] for v in src.variables}
    binary = []
    dom = {v: set(dst_vars) for v in src.variables}
    for a in src.atoms:
        if a.src == a.dst:
            dom[a.src] &= loops.get(a.symbol, _NO_VARS)
        else:
            dom[a.src] = {u for u in dom[a.src] if (u, a.symbol) in out_idx}
            dom[a.dst] = {u for u in dom[a.dst] if (u, a.symbol) in in_idx}
            atoms_of[a.src].append(a)
            atoms_of[a.dst].append(a)
            binary.append(a)

    def propagate(dom, work):
        while work:
            a = work.pop()
            sx, sy = dom[a.src], dom[a.dst]
            nx = {u for u in sx if out_idx.get((u, a.symbol), _NO_VARS) & sy}
            ny = {u for u in sy if in_idx.get((u, a.symbol), _NO_VARS) & nx}
            if len(nx) < len(sx):
                if not nx:
                    return False
                dom[a.src] = nx
                work.update(atoms_of[a.src])
            if len(ny) < len(sy):
                if not ny:
                    return False
                dom[a.dst] = ny
                work.update(atoms_of[a.dst])
        return True

    if not propagate(dom, set(binary)):
        return None

    def search(dom):
        v = None
        for u in src.variables:
            if len(dom[u]) > 1 and (v is None or len(dom[u]) < len(dom[v])):
                v = u
        if v is None:
            return {u: next(iter(dom[u])) for u in src.variables}
        for value in sorted(dom[v]):
            nd = {w: set(d) for w, d in dom.items()}
            nd[v] = {value}
            if propagate(nd, set(atoms_of[v])):
                found = search(nd)
                if found is not None:
                    return found
        return None

    if any(not d for d in dom.values()):
        return None
    return search(dom)


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


class NotContained:
    """No expansion of the right side maps into lam's canonical database."""


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


class _PathIndex:
    """Memoized reachability along regex labels, in one direction.

    Vertices below ``nvars`` are variables, whose edges are listed in
    ``adj`` by (vertex, letter).  Every other vertex p is an interior
    position of one atom with exactly one edge: it reads ``letters[p]``
    and leads to ``ends[p]`` at the atom's end, else to ``p + delta``.
    ``spans`` lists each atom's (lowest, highest interior position,
    |word|) in ascending order; both directions share it.  ``w^<=n`` and
    ``w*`` are read atom by atom (_copies): by Fine and Wilf, comparing
    |word| + |w| letters decides whether the copies of w run to the
    atom's end, and the least letters read per (vertex, phase of w) is
    exact for up to n copies.
    """

    def __init__(self, nvars, adj, letters, ends, delta, spans):
        self.nvars = nvars
        self.adj = adj
        self.letters = letters
        self.ends = ends
        self.delta = delta
        self.spans = spans
        self.memo = {}

    def having(self, symbols) -> frozenset:
        """The vertices with an edge reading one of symbols."""
        # the None letters of the variables never equal s
        return frozenset(
            chain.from_iterable(
                chain(
                    (u for u, t in self.adj if t == s),
                    compress(count(), map(eq, self.letters, repeat(s))),
                )
                for s in symbols
            )
        )

    def walk_word(self, frontier, word):
        nvars, adj, letters, ends, delta = (
            self.nvars, self.adj, self.letters, self.ends, self.delta
        )
        for s in word:
            nxt = set()
            for u in frontier:
                if u < nvars:
                    nxt.update(adj.get((u, s), ()))
                elif letters[u] == s:
                    nxt.add(ends.get(u, u + delta))
            frontier = nxt
            if not frontier:
                break
        return frozenset(frontier)

    def reach(self, e, u) -> frozenset:
        key = (e, u)
        got = self.memo.get(key)
        if got is not None:
            return got
        self.memo[key] = result = self._compute(e, u)
        return result

    def _compute(self, e, u) -> frozenset:
        if isinstance(e, Epsilon):
            return frozenset((u,))
        if isinstance(e, Letter):
            return self.walk_word((u,), (e.symbol,))
        if isinstance(e, Concat):
            frontier = frozenset((u,))
            for part in e.parts:
                out = set()
                for v in frontier:
                    out.update(self.reach(part, v))
                frontier = frozenset(out)
                if not frontier:
                    break
            return frontier
        if isinstance(e, Union):
            out = set()
            for part in e.parts:
                out.update(self.reach(part, u))
            return frozenset(out)
        if isinstance(e, Power):
            return self._power(e.word, e.exponent, u)
        if isinstance(e, (PowerLE, Star)):
            limit = inf if isinstance(e, Star) else len(e.word) * e.exponent
            copies = self._copies(e.word, u, limit)
            # via a set: a frozenset filled from an iterator can keep a larger table
            return frozenset(set().union(*(r for r, _ in copies)))
        raise TypeError(f"unknown expression: {e!r}")

    def _power(self, word, n, u) -> frozenset:
        frontier = frozenset((u,))
        seen = {frontier: 0}
        trace = [frontier]
        for step in range(n):
            frontier = self.walk_word(frontier, word)
            if frontier in seen:
                start = seen[frontier]
                period = step + 1 - start
                return trace[start + (n - start) % period]
            seen[frontier] = step + 1
            trace.append(frontier)
        return frontier

    def _copies(self, word, u, limit):
        """Where reading w^k from u ends, for k*|w| up to limit letters:
        (vertices, d) pairs, whose range's first vertex is reached after d
        letters and each next one |w| letters later."""
        nvars, adj, letters, ends, delta, spans = (
            self.nvars, self.adj, self.letters, self.ends, self.delta, self.spans
        )
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
                low, high, period = spans[bisect_right(spans, v, key=itemgetter(0)) - 1]
                last = high if delta > 0 else low
                room = (last - v) * delta + 1
                width = min(room, period + lw)
                miss = (t for t in range(width) if letters[v + t * delta] != word[(d + t) % lw])
                read = next(miss, room)
                lo, hi = -d % lw, min(read, room - 1, limit - d)
                if lo <= hi:
                    found.append((range(v + lo * delta, v + (hi + 1) * delta, lw * delta), d + lo))
                steps = [(ends[last], d + room)] if read == room else []
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
    one adjacency entry per direction, one letter per interior position
    and one span; nothing is unrolled into named atoms.
    """

    def __init__(self, lam: SuccinctCQ):
        self.variables = lam.variables
        nvars = len(lam.variables)
        index = {v: i for i, v in enumerate(lam.variables)}
        out_adj, in_adj = {}, {}
        # letters read leaving / entering each vertex; variables use the adjacency
        out_letters = [None] * nvars
        in_letters = [None] * nvars
        last, first = {}, {}
        spans = []
        for a in lam.atoms:
            src, dst = index[a.src], index[a.dst]
            path = a.word * a.exponent
            if len(path) == 1:
                head, tail = dst, src
            else:
                head = len(out_letters)
                tail = head + len(path) - 2
                out_letters.extend(path[1:])
                in_letters.extend(path[:-1])
                last[tail] = dst
                first[head] = src
                spans.append((head, tail, len(a.word)))
            out_adj.setdefault((src, path[0]), set()).add(head)
            in_adj.setdefault((dst, path[-1]), set()).add(tail)
        self.vertices = range(len(out_letters))
        self.fwd = _PathIndex(nvars, out_adj, out_letters, last, 1, spans)
        self.bwd = _PathIndex(nvars, in_adj, in_letters, first, -1, spans)

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


def expansion_contained(
    lam: SuccinctCQ, bounded_q: UCRPQ, caps: Caps = DEFAULT_CAPS
):
    """Is the expansion lam subsumed by some expansion of bounded_q?

    bounded_q must be star-free apart from whole-label stars, which the
    reachability engine evaluates natively.  lam is indexed by positions
    (see _CanonicalDB), not unrolled into a CQ; its length, the sum of
    |w|*n over its atoms, is bounded by ``max_materialized_atoms``.
    Returns Contained, which recovers the chosen right-side expansion and
    homomorphism on demand, or NotContained.
    """
    lam_n = normalize_succinct(lam)
    check_length(lam_n, caps.max_materialized_atoms)
    db = _CanonicalDB(lam_n)
    for d in collapse(bounded_q).disjuncts:
        h = _disjunct_hom(d, db)
        if h is not None:
            return Contained(d, h, db)
    return NotContained()


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
    return isinstance(expansion_contained(left, query, caps), Contained)


def _unary_domains(d, fwd: _PathIndex, bwd: _PathIndex):
    """Candidate sets that need no other variable's value.

    A non-nullable atom's source must have an edge out on one of the
    label's first letters and its target an edge in on one of its last
    letters; a non-nullable self-loop's variable must reach itself.  A
    closed walk through an interior position reads its whole atom, so a
    self-loop whose words are all shorter skips the atom's positions.  A
    nullable label constrains nothing (the empty path joins every vertex
    to itself), and variables left out are unconstrained.
    """
    dom = {}

    def restrict(v, allowed):
        dom[v] = allowed if v not in dom else dom[v] & allowed

    solid = [a for a in d.edge_atoms if not nullable(a.label)]
    for a in solid:
        restrict(a.src, fwd.having(_first_letters(a.label)))
        restrict(a.dst, bwd.having(_first_letters(_reverse_expr(a.label))))
    for a in solid:
        if a.src == a.dst:
            longest = max_word_len(a.label)
            fits = set(range(fwd.nvars)).union(
                *(range(lo, hi + 1) for lo, hi, _ in fwd.spans if hi - lo + 2 <= longest)
            )
            dom[a.src] = {u for u in dom[a.src] if u in fits and u in fwd.reach(a.label, u)}
    return dom


def _disjunct_hom(d, db: _CanonicalDB):
    fwd, bwd = db.fwd, db.bwd
    by_var = {v: [] for v in d.variables()}
    for a in d.edge_atoms:
        by_var[a.src].append(a)
        if a.dst != a.src:
            by_var[a.dst].append(a)
    order = sorted(d.variables(), key=lambda v: (-len(by_var[v]), v))
    rank = {v: i for i, v in enumerate(order)}
    dom = _unary_domains(d, fwd, bwd)
    assign = {}

    def candidates(v):
        cands = dom.get(v)
        for a in by_var[v]:
            if a.src == v and a.dst in assign:
                s = bwd.reach(_reverse_expr(a.label), assign[a.dst])
            elif a.dst == v and a.src in assign:
                s = fwd.reach(a.label, assign[a.src])
            else:
                continue
            cands = s if cands is None else cands & s
            if not cands:
                break
        return db.vertices if cands is None else cands

    def solve(todo):
        if not todo:
            return True
        cands = {u: candidates(u) for u in todo}
        v = min(todo, key=lambda u: (len(cands[u]), rank[u]))
        rest = [u for u in todo if u != v]
        for u in sorted(cands[v]):
            assign[v] = u
            if solve(rest):
                return True
            del assign[v]
        return False

    if solve(order):
        return dict(assign)
    return None
