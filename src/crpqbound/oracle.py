"""Brute-force ground truth for the succinct algorithms.

Everything here works on fully materialized objects: automata are unrolled
to letter transitions, queries are evaluated on concrete graph databases by
reading each atom's label over sets of vertices plus a backtracking join,
and equivalence is refuted by sampling.  Nothing here calls the
homomorphism module, though importing compute_bounds from boundedness
still loads it (ROADMAP item 4); agreement between these oracles and the
succinct implementations is what the differential test suite certifies.
Its join, expansion.join, is shared with cq_hom, another reference, and
with nothing of the engine.

The independence is not complete: sampled equivalence caps the star
exponents of its canonical databases by boundedness.compute_bounds and
builds them with expansion.enumerate_expansions and
expansion.materialize, code that the boundedness verdicts it checks rest
on as well.  ROADMAP item 4 plans oracles that share none of it.
"""

from __future__ import annotations

import csv
import itertools
import random
from dataclasses import dataclass

from crpqbound.boundedness import compute_bounds
from crpqbound.config import DEFAULT_CAPS, Caps
from crpqbound.errors import CapExceeded, ParseError, UnsupportedFragment
from crpqbound.expansion import CQ, enumerate_expansions, join, materialize
from crpqbound.qbfgen import QBF
from crpqbound.succinct_nfa import SuccinctNFA
from crpqbound.syntax import (
    UCRPQ,
    Concat,
    Epsilon,
    Letter,
    Power,
    PowerLE,
    Star,
    Union,
    alphabet,
    collapse,
)

# ------------------------------------------------------------------ graph DB


@dataclass(frozen=True)
class GraphDB:
    vertices: tuple
    edges: tuple  # (src, symbol, dst) triples

    def __post_init__(self):
        # canonical representation: sorted, deduplicated
        object.__setattr__(self, "vertices", tuple(sorted(set(self.vertices))))
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))
        have = set(self.vertices)
        for s, _, d in self.edges:
            if s not in have or d not in have:
                raise ValueError("edge endpoint not a vertex")


def graph_of_cq(cq: CQ) -> GraphDB:
    """The canonical database of a conjunctive query."""
    edges = tuple({(a.src, a.symbol, a.dst) for a in cq.atoms})
    return GraphDB(tuple(cq.variables), edges)


def load_graph_csv(path) -> GraphDB:
    edges = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 columns, got {row!r}", rows.line_num, 1)
            s, label, d = (c.strip() for c in row)
            if (s.lower(), label.lower(), d.lower()) == ("src", "label", "dst"):
                continue
            edges.append((s, label, d))
    vertices = sorted({v for s, _, d in edges for v in (s, d)})
    return GraphDB(tuple(vertices), tuple(sorted(set(edges))))


# ------------------------------------------------- materialized NFA oracles


def nfa_membership_brute(
    nfa: SuccinctNFA, v, m: int, caps: Caps = DEFAULT_CAPS
) -> bool:
    """Ground-truth membership of v^m: unroll everything, then simulate."""
    v = tuple(v)
    word = v * m
    if len(word) > caps.max_length_dp:
        raise CapExceeded(caps.max_length_dp, "query word too long to materialize")
    letter_edges = []
    eps_edges = []
    counter = itertools.count()
    for t in nfa.transitions:
        if t.length == 0:
            eps_edges.append((t.src, t.dst))
            continue
        if t.length > caps.max_length_dp:
            raise CapExceeded(caps.max_length_dp, "transition too long to unroll")
        prev = t.src
        chars = t.word * t.exponent
        for i, s in enumerate(chars):
            nxt = t.dst if i == len(chars) - 1 else f"#u{next(counter)}"
            letter_edges.append((prev, s, nxt))
            prev = nxt

    eps_adj = {}
    for s, d in eps_edges:
        eps_adj.setdefault(s, set()).add(d)
    step_adj = {}
    for s, sym, d in letter_edges:
        step_adj.setdefault((s, sym), set()).add(d)

    def closure(states):
        out = set(states)
        stack = list(states)
        while stack:
            for nxt in eps_adj.get(stack.pop(), ()):
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return out

    current = closure({nfa.initial})
    for s in word:
        nxt = set()
        for q in current:
            nxt.update(step_adj.get((q, s), ()))
        current = closure(nxt)
        if not current:
            return False
    return bool(current & set(nfa.finals))


# ------------------------------------------------------------ graph evaluation


def _reach(e, sources, succ, caps: Caps):
    """The vertices that paths from sources spelling a word of e end at.

    A letter steps along its edges, a concatenation runs its parts in
    sequence and a union joins what its parts reach.  w^n reads n copies
    of w; w^<=n and w* search breadth-first over copies of w, expanding a
    vertex once, after the fewest copies that reach it.  A power meets the
    length cap before it reads a copy, and no part of a concatenation or
    union is skipped when no vertex is left, so every power of e meets the
    cap whatever the graph.
    """
    if isinstance(e, Epsilon):
        return sources
    if isinstance(e, Letter):
        return {v for u in sources for v in succ.get((u, e.symbol), ())}
    if isinstance(e, Concat):
        for part in e.parts:
            sources = _reach(part, sources, succ, caps)
        return sources
    if isinstance(e, Union):
        return set().union(*(_reach(part, sources, succ, caps) for part in e.parts))
    if not isinstance(e, Star) and len(e.word) * e.exponent > caps.max_length_dp:
        raise CapExceeded(caps.max_length_dp, "power too large to unroll")

    def copy(frontier):
        for s in e.word:
            frontier = {v for u in frontier for v in succ.get((u, s), ())}
        return frontier

    if isinstance(e, Power):
        for _ in range(e.exponent):
            if not sources:
                break
            sources = copy(sources)
        return sources
    reached, frontier = set(sources), sources
    for _ in itertools.count() if isinstance(e, Star) else range(e.exponent):
        frontier = copy(frontier) - reached
        if not frontier:
            break
        reached |= frontier
    return reached


def _atom_relation(label, db: GraphDB, caps: Caps):
    """All vertex pairs (u, v) connected by a path reading a word of label,
    as a map from each u with some v to its set of v."""
    succ = {}
    for u, sym, v in db.edges:
        succ.setdefault((u, sym), set()).add(v)
    relation = {u: _reach(label, {u}, succ, caps) for u in db.vertices}
    return {u: vs for u, vs in relation.items() if vs}


def eval_on_graph(q: UCRPQ, db: GraphDB, caps: Caps = DEFAULT_CAPS) -> bool:
    """Does the graph satisfy the query (all variables existential)?"""
    if not db.vertices:
        return False
    q = collapse(q)
    for d in q.disjuncts:
        if _eval_disjunct(d, db, caps):
            return True
    return False


def _eval_disjunct(d, db: GraphDB, caps: Caps) -> bool:
    domains = {v: set(db.vertices) for v in d.variables()}
    pairs = []
    for a in d.edge_atoms:
        rel = _atom_relation(a.label, db, caps)
        if not rel:
            return False
        if a.src == a.dst:
            domains[a.src] &= {u for u, vs in rel.items() if u in vs}
        else:
            inverse = {}
            for u, vs in rel.items():
                for v in vs:
                    inverse.setdefault(v, set()).add(u)
            pairs.append((a.src, a.dst, rel, inverse))
    return join(d.variables(), domains, pairs) is not None


# --------------------------------------------------------- sampled equivalence


@dataclass(frozen=True)
class Verdict:
    kind: str  # "agree" | "disagree" | "skipped"
    instance: GraphDB | None
    trials_run: int


_CANONICAL_BUDGET = 2048


def _canonical_dbs(query: UCRPQ, star_max: int, caps: Caps):
    """Graphs induced by expansions of the query, star exponents <= star_max."""
    out = []
    for d in collapse(query).disjuncts:
        dom = dict.fromkeys(range(len(d.edge_atoms)), range(star_max + 1))
        lams = []
        try:
            for lam in enumerate_expansions(d, dom, cap=_CANONICAL_BUDGET, caps=caps):
                lams.append(lam)
        except CapExceeded:
            pass  # keep the enumerated prefix; the caller halves the ceiling
        for lam in lams:
            try:
                out.append(graph_of_cq(materialize(lam, caps=caps)))
            except CapExceeded:
                continue
        if len(out) >= _CANONICAL_BUDGET:
            break
    return out[:_CANONICAL_BUDGET]


def _star_ceiling(q: UCRPQ, q2: UCRPQ) -> int:
    z = 0
    for query in (q, q2):
        try:
            z = max(z, compute_bounds(query).z)
        except UnsupportedFragment:  # a star nested in a label
            z = max(z, 8)
    return min(z + 2, 64)


def sampled_equivalence(
    q: UCRPQ,
    q2: UCRPQ,
    trials: int = 100,
    graph_size: int = 6,
    seed: int = 0,
    caps: Caps = DEFAULT_CAPS,
    canonical_exponents=None,
) -> Verdict:
    """Refute or tentatively confirm q == q2 by evaluation on sample graphs.

    Canonical databases of both queries' expansions come first (these are
    complete for containment one graph at a time), then seeded random
    graphs over the joint alphabet with expected degree 2.
    """
    rng = random.Random(seed)
    sigma = sorted(set(alphabet(q)) | set(alphabet(q2)))
    if canonical_exponents is None:
        star_max = _star_ceiling(q, q2)
    else:
        star_max = max(canonical_exponents)

    canonical = 0
    for query in (q, q2):
        ceiling = star_max
        dbs = _canonical_dbs(query, ceiling, caps)
        while len(dbs) >= _CANONICAL_BUDGET and ceiling > 2:
            ceiling = max(2, ceiling // 2)
            dbs = _canonical_dbs(query, ceiling, caps)
        for db in dbs:
            canonical += 1
            if eval_on_graph(q, db, caps) != eval_on_graph(q2, db, caps):
                return Verdict("disagree", db, 0)

    n = graph_size
    p = 2.0 / (n * max(1, len(sigma)))
    for t in range(trials):
        vertices = tuple(f"g{i}" for i in range(n))
        edges = []
        for u in vertices:
            for v in vertices:
                for s in sigma:
                    if rng.random() < p:
                        edges.append((u, s, v))
        db = GraphDB(vertices, tuple(sorted(set(edges))))
        if eval_on_graph(q, db, caps) != eval_on_graph(q2, db, caps):
            return Verdict("disagree", db, t + 1)
    if canonical == 0 and trials == 0:
        return Verdict("skipped", None, 0)
    return Verdict("agree", None, trials)


# --------------------------------------------------------------- QBF oracle


def qbf_satisfiable(phi: QBF) -> bool:
    """Truth of a forall-exists 3CNF, by full truth-table enumeration."""
    if phi.n + phi.l > 20:
        raise ValueError("QBF too large for brute force (n + l > 20)")

    def lit(value_x, value_y, i):
        v = abs(i)
        val = value_x[v - 1] if v <= phi.n else value_y[v - phi.n - 1]
        return val if i > 0 else not val

    for xs in itertools.product((False, True), repeat=phi.n):
        if not any(
            all(any(lit(xs, ys, i) for i in clause) for clause in phi.clauses)
            for ys in itertools.product((False, True), repeat=phi.l)
        ):
            return False
    return True
