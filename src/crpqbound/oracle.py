"""Brute-force ground truth for the succinct algorithms.

Everything here works on fully materialized objects: automata are unrolled
to letter transitions, queries are evaluated on concrete graph databases by
per-atom product reachability plus a backtracking join, and equivalence is
refuted by sampling.  The homomorphism module is deliberately not imported;
agreement between these oracles and the succinct implementations is what
the differential test suite certifies.  Its join, expansion.join, is shared
with cq_hom, another reference, and with nothing of the engine.

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
from crpqbound.expansion import CQ, ExponentDomain, enumerate_expansions, join, materialize
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
    with open(path, newline="") as fh:
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


# ----------------------------------------------- regex compilation (letter NFA)


def compile_regex_nfa(e, caps: Caps = DEFAULT_CAPS):
    """Compile a star-free-or-word-star regex to a letter automaton.

    Returns (transitions, initial, finals) with transitions a list of
    (src, symbol_or_None, dst); None marks an epsilon edge.  A star over a
    word becomes a cycle with as many states as the word has letters.
    """
    counter = itertools.count()

    def fresh():
        return next(counter)

    def build(e):
        if isinstance(e, Epsilon):
            s = fresh()
            return [], s, s
        if isinstance(e, Letter):
            s, t = fresh(), fresh()
            return [(s, e.symbol, t)], s, t
        if isinstance(e, Concat):
            trans, start, end = build(e.parts[0])
            for part in e.parts[1:]:
                t2, s2, e2 = build(part)
                trans.extend(t2)
                trans.append((end, None, s2))
                end = e2
            return trans, start, end
        if isinstance(e, Union):
            s, t = fresh(), fresh()
            trans = []
            for part in e.parts:
                tp, sp, ep = build(part)
                trans.extend(tp)
                trans.append((s, None, sp))
                trans.append((ep, None, t))
            return trans, s, t
        if isinstance(e, (Power, PowerLE)):
            total = len(e.word) * e.exponent
            if total > caps.max_length_dp:
                raise CapExceeded(caps.max_length_dp, "power too large to unroll")
            start = fresh()
            trans = []
            skippable = isinstance(e, PowerLE)
            boundaries = [start]
            prev = start
            for _ in range(e.exponent):
                for sym in e.word:
                    nxt = fresh()
                    trans.append((prev, sym, nxt))
                    prev = nxt
                boundaries.append(prev)
            end = prev
            if skippable:
                for b in boundaries[:-1]:
                    trans.append((b, None, end))
            return trans, start, end
        if isinstance(e, Star):
            first = fresh()
            prev = first
            trans = []
            for sym in e.word[:-1]:
                nxt = fresh()
                trans.append((prev, sym, nxt))
                prev = nxt
            trans.append((prev, e.word[-1], first))
            return trans, first, first
        raise TypeError(f"not a supported regex: {e!r}")

    return build(e)


# ------------------------------------------------------------ graph evaluation


def _atom_relation(label, db: GraphDB, caps: Caps):
    """All vertex pairs (u, v) connected by a path reading a word of label."""
    trans, start, end = compile_regex_nfa(label, caps)
    eps_adj = {}
    sym_adj = {}
    for s, sym, d in trans:
        if sym is None:
            eps_adj.setdefault(s, set()).add(d)
        else:
            sym_adj.setdefault(s, set()).add((sym, d))
    graph_adj = {}
    for u, sym, v in db.edges:
        graph_adj.setdefault((u, sym), set()).add(v)

    closed = {}

    def closure(q):
        """The automaton states epsilon-reachable from q, found once per state."""
        if q not in closed:
            out = {q}
            stack = [q]
            while stack:
                for q2 in eps_adj.get(stack.pop(), ()):
                    if q2 not in out:
                        out.add(q2)
                        stack.append(q2)
            closed[q] = out
        return closed[q]

    relation = {}
    for u0 in db.vertices:
        seen = {(u0, q) for q in closure(start)}
        stack = list(seen)
        while stack:
            u, q = stack.pop()
            for sym, q2 in sym_adj.get(q, ()):
                for v in graph_adj.get((u, sym), ()):
                    for q3 in closure(q2):
                        if (v, q3) not in seen:
                            seen.add((v, q3))
                            stack.append((v, q3))
        targets = {u for (u, q) in seen if q == end}
        if targets:
            relation[u0] = targets
    return relation


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
        dom = ExponentDomain.uniform(
            range(len(d.edge_atoms)), tuple(range(star_max + 1))
        )
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
