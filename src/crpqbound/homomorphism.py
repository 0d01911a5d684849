"""Homomorphism search and containment checks.

cq_hom finds a plain homomorphism between materialized conjunctive
queries; it is the reference the containment engine is tested against.
expansion_contained is the containment engine: it materializes the left
expansion (within ``max_materialized_atoms``) and asks whether some
expansion of a star-free (or letter-restricted) union query maps into it,
interleaving the right side's branch and exponent choices with the
variable assignment search by memoized regex reachability.
succinct_containment poses succinct CQ containment to that same engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from crpqbound.config import DEFAULT_CAPS, Caps
from crpqbound.expansion import (
    CQ,
    SuccinctAtom,
    SuccinctCQ,
    materialize,
    normalize_succinct,
    nullable,
    ssf_words,
)

# unused here; kept importable because the benchmark's layer trace patches it
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
    collapse,
    concat,
    union,
)

Hom = dict

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


@dataclass(frozen=True)
class Contained:
    expansion: SuccinctCQ
    hom: dict


@dataclass(frozen=True)
class NotContained:
    counterexample: SuccinctCQ


def _reverse_expr(e):
    if isinstance(e, (Epsilon, Letter)):
        return e
    if isinstance(e, Concat):
        return concat(tuple(_reverse_expr(p) for p in reversed(e.parts)))
    if isinstance(e, Union):
        return union(tuple(_reverse_expr(p) for p in e.parts))
    if isinstance(e, Power):
        return Power(tuple(reversed(e.word)), e.exponent)
    if isinstance(e, PowerLE):
        return PowerLE(tuple(reversed(e.word)), e.exponent)
    if isinstance(e, Star):
        return Star(tuple(reversed(e.word)))
    raise TypeError(f"unknown expression: {e!r}")


class _PathIndex:
    """Memoized reachability along regex labels over a fixed edge set."""

    def __init__(self, adjacency):
        self.adj = adjacency
        self.memo = {}

    def walk_word(self, frontier, word):
        for s in word:
            nxt = set()
            for u in frontier:
                nxt.update(self.adj.get((u, s), ()))
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

    def reach_set(self, e, frontier) -> frozenset:
        out = set()
        for u in frontier:
            out.update(self.reach(e, u))
        return frozenset(out)

    def _compute(self, e, u) -> frozenset:
        if isinstance(e, Epsilon):
            return frozenset((u,))
        if isinstance(e, Letter):
            return frozenset(self.adj.get((u, e.symbol), ()))
        if isinstance(e, Concat):
            frontier = frozenset((u,))
            for part in e.parts:
                frontier = self.reach_set(part, frontier)
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
        if isinstance(e, PowerLE):
            return self._accumulate(e.word, e.exponent, u)
        if isinstance(e, Star):
            return self._accumulate(e.word, None, u)
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

    def _accumulate(self, word, n, u) -> frozenset:
        frontier = frozenset((u,))
        acc = set(frontier)
        seen = {frontier}
        step = 0
        while n is None or step < n:
            frontier = self.walk_word(frontier, word)
            step += 1
            if frontier in seen:
                break
            seen.add(frontier)
            acc.update(frontier)
        return frozenset(acc)

    def steps_to(self, word, source, target, limit=None):
        """Least k with target reachable from source by reading word^k."""
        frontier = frozenset((source,))
        seen = set()
        k = 0
        while frontier not in seen:
            if target in frontier:
                return k
            seen.add(frontier)
            frontier = self.walk_word(frontier, word)
            k += 1
            if limit is not None and k > limit:
                break
        return None


def _adjacencies(cq: CQ):
    out_adj = {}
    in_adj = {}
    for a in cq.atoms:
        out_adj.setdefault((a.src, a.symbol), set()).add(a.dst)
        in_adj.setdefault((a.dst, a.symbol), set()).add(a.src)
    return out_adj, in_adj


def _witness_atom(fwd, e, hu, hv):
    """Concrete (word, exponent) choice of e realizing a path hu -> hv."""
    if isinstance(e, Epsilon):
        return (), 0
    if isinstance(e, Letter):
        return (e.symbol,), 1
    if isinstance(e, Power):
        return e.word, e.exponent
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
    reachability engine evaluates natively.  Returns Contained with the
    chosen right-side expansion and homomorphism, or NotContained carrying
    lam itself.
    """
    lam_n = normalize_succinct(lam)
    cq = materialize(lam_n, caps=caps)
    out_adj, in_adj = _adjacencies(cq)
    vertices = set(cq.variables)
    fwd = _PathIndex(out_adj)
    bwd = _PathIndex(in_adj)

    q = collapse(bounded_q)
    for d in q.disjuncts:
        h = _disjunct_hom(d, vertices, fwd, bwd)
        if h is None:
            continue
        atoms = []
        for a in d.edge_atoms:
            word, exp = _witness_atom(fwd, a.label, h[a.src], h[a.dst])
            atoms.append(SuccinctAtom(a.src, word, exp, a.dst))
        expansion = SuccinctCQ(d.variables(), tuple(atoms))
        return Contained(expansion, dict(h))
    return NotContained(lam_n)


def succinct_containment(
    left: SuccinctCQ, right: SuccinctCQ, caps: Caps = DEFAULT_CAPS
) -> bool:
    """True iff the right CQ maps homomorphically into the left one.

    The right CQ is read as a one-disjunct query of w^n atoms and decided
    by expansion_contained, so the left side is materialized within
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


def _disjunct_hom(d, vertices, fwd: _PathIndex, bwd: _PathIndex):
    by_var = {v: [] for v in d.variables()}
    for a in d.edge_atoms:
        by_var[a.src].append(a)
        if a.dst != a.src:
            by_var[a.dst].append(a)
    order = sorted(d.variables(), key=lambda v: (-len(by_var[v]), v))
    assign = {}

    def candidates(v):
        cands = None
        for a in by_var[v]:
            if a.src == v and a.dst == v:
                if nullable(a.label):
                    continue  # the empty path loops at every vertex
                pool = vertices if cands is None else cands
                cands = {u for u in pool if u in fwd.reach(a.label, u)}
            elif a.src == v and a.dst in assign:
                s = bwd.reach(_reverse_expr(a.label), assign[a.dst])
                cands = set(s) if cands is None else cands & s
            elif a.dst == v and a.src in assign:
                s = fwd.reach(a.label, assign[a.src])
                cands = set(s) if cands is None else cands & s
            if cands is not None and not cands:
                return cands
        return vertices if cands is None else cands

    def solve(todo):
        if not todo:
            return True
        v = min(todo, key=lambda u: (len(candidates(u)), order.index(u)))
        rest = [u for u in todo if u != v]
        for u in sorted(candidates(v)):
            assign[v] = u
            if solve(rest):
                return True
            del assign[v]
        return False

    if solve(list(order)):
        return dict(assign)
    return None
