"""Succinct NFAs: transitions read w^n with n in binary.

The central question answered here is membership of v^m (m in binary) in
the language of such an automaton.  ``membership`` runs three stages:
``normalize`` removes zero-length transitions, ``build_product`` builds a
product automaton on integer states whose accepted words are exactly the
accepted powers of v, and ``length_reach`` asks whether the product
accepts a word of length m*|v|.  The length question has one exact
route: each cycle is cut at a pivot state whose walks are counted by
residues modulo its shortest closed walk, and once no cycle is left the
initial state is the last pivot, whose residues are the lengths
themselves.  The work is bounded by the pivots' shortest closed walks
rather than by m.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from math import gcd

from crpqbound.config import DEFAULT_CAPS, Caps
from crpqbound.errors import CapExceeded, ParseError
from crpqbound.expansion import SuccinctAtom
from crpqbound.syntax import as_power, parse_regex

# ----------------------------------------------------------------- structure

# a transition reads w^n from src to dst, the same edge as a succinct CQ atom
SNFATransition = SuccinctAtom


@dataclass(frozen=True)
class SuccinctNFA:
    states: tuple
    transitions: tuple
    initial: str
    finals: tuple

    def __post_init__(self):
        have = set(self.states)
        if self.initial not in have:
            raise ValueError("initial state unknown")
        for f in self.finals:
            if f not in have:
                raise ValueError(f"final state unknown: {f}")
        for t in self.transitions:
            if t.src not in have or t.dst not in have:
                raise ValueError(f"transition endpoint unknown: {t}")


def normalize(nfa: SuccinctNFA) -> SuccinctNFA:
    """Remove zero-length transitions by epsilon closure.

    The result has only positive-exponent transitions and accepts the
    same language: words can depart from any state epsilon-reachable from
    their old source, and a state is final if it epsilon-reaches a final.
    An automaton with no zero-length transition is returned as it is.
    """
    if all(t.length for t in nfa.transitions):
        return nfa
    eps = {q: [] for q in nfa.states}
    for t in nfa.transitions:
        if t.length == 0:
            eps[t.src].append((t.dst, 0))
    states = set(nfa.states)
    closures = {q: _reachable([q], eps, states) for q in nfa.states}
    transitions = set()
    for t in nfa.transitions:
        if t.length == 0:
            continue
        for src in nfa.states:
            if t.src in closures[src]:
                transitions.add(SNFATransition(src, t.word, t.exponent, t.dst))
    final_set = set(nfa.finals)
    finals = tuple(sorted(q for q in nfa.states if closures[q] & final_set))
    return SuccinctNFA(
        tuple(sorted(nfa.states)),
        tuple(sorted(transitions)),
        nfa.initial,
        finals,
    )


# -------------------------------------------------------------- product build


def _phases_read(w, n: int, v) -> list:
    """The phases i of the periodic stream of v at which w^n reads correctly.
    w^n has period |w| and the stream period |v|: by Fine and Wilf, if they
    agree on |w| + |v| - gcd(|w|, |v|) letters they agree on all of w^n."""
    lv, lw = len(v), len(w)
    window = min(n * lw, lw + lv - gcd(lw, lv))
    read = (w * (window // lw + 1))[:window]
    stream = v * (window // lv + 2)
    return [i for i in range(lv) if stream[i:i + window] == read]


def _product_edges(nfa: SuccinctNFA, v: tuple):
    """Yield (t, i, j) for each transition t of a normalized automaton and
    each phase i of v's stream that t reads along, ending at phase j."""
    lv = len(v)
    for t in nfa.transitions:
        step = t.length % lv
        for i in _phases_read(t.word, t.exponent, v):
            yield t, i, (i + step) % lv


def build_product(nfa: SuccinctNFA, v: tuple):
    """Restrict a normalized automaton to words that are powers of v.

    Returns ``(size, edges, initial, finals)`` on states 0..size-1: state q
    at phase i is ``index[q]*|v| + i``, with ``index`` numbering the states
    in order, and an edge (src, dst, |w|*n) reads w^n, moving the phase
    forward by |w|*n modulo |v|.  Accepted words are exactly the accepted
    powers of v, so acceptance of v^m reduces to reaching a final at phase
    0 with total length m*|v|.  v must be a non-empty tuple.
    """
    lv = len(v)
    index = {q: k for k, q in enumerate(dict.fromkeys(nfa.states))}
    edges = [
        (index[t.src] * lv + i, index[t.dst] * lv + j, t.length)
        for t, i, j in _product_edges(nfa, v)
    ]
    finals = {index[f] * lv for f in nfa.finals}
    return len(index) * lv, edges, index[nfa.initial] * lv, finals


# --------------------------------------------------------------- length reach


def _reachable(starts, adj, live) -> set:
    seen = {q for q in starts if q in live}
    stack = list(seen)
    while stack:
        for nxt, _ in adj[stack.pop()]:
            if nxt in live and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _cycle_head(adj):
    """A state on a cycle of ``adj``, or None if it has no cycle.

    ``adj`` maps each live state to its live out-edges.  A depth-first
    search from the states in ascending order, trying successors in edge
    order, returns the first state it meets again on its own path.
    """
    seen = set()
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        on_path = {root}
        stack = [(root, iter(adj[root]))]
        while stack:
            q, edges = stack[-1]
            for nxt, _ in edges:
                if nxt in on_path:
                    return nxt
                if nxt not in seen:
                    seen.add(nxt)
                    on_path.add(nxt)
                    stack.append((nxt, iter(adj[nxt])))
                    break
            else:
                stack.pop()
                on_path.discard(q)
    return None


def _through_pivot(p, adj, initial, finals, target, caps) -> bool:
    """Is there an initial-to-final walk of length target that visits p?

    With c the length of a closed walk through p, the walks through p have
    exactly the lengths l_r + k*c (k >= 0), where l_r is the shortest of
    them with length r modulo c.  One Dijkstra over (state, residue,
    visited p) finds l_r for the residue of the target; ties between
    nodes at one distance settle in node order.
    """
    # p's shortest closed walk; any longer than the target answers like one
    # of length target+1
    c = target + 1
    dist = {p: 0}
    heap = [(0, p)]
    while heap:
        d, q = heapq.heappop(heap)
        if d > dist[q]:
            continue
        for v, w in adj.get(q, ()):
            nd = d + w
            if v == p:
                c = min(c, nd)
            elif nd <= target and nd < dist.get(v, nd + 1):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    goal = target % c

    start = (initial, 0, initial == p)
    dist = {start: 0}
    heap = [(0, start)]
    held = {}
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        q, r, through = node
        if through and r == goal and q in finals:
            return True
        held[q, through] = held.get((q, through), 0) + 1
        if held[q, through] > caps.max_length_dp:
            raise CapExceeded(caps.max_length_dp, "residue table too large")
        for v, w in adj.get(q, ()):
            nd = d + w
            nxt = (v, (r + w) % c, through or v == p)
            if nd <= target and nd < dist.get(nxt, nd + 1):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    return False


def length_reach(size: int, edges, initial: int, finals: set, target: int, caps: Caps) -> bool:
    """Is there an initial-to-final walk of total length target > 0?

    The states are 0..size-1 and the edges (src, dst, length) have
    positive length.  While the useful states (reachable from the initial
    state and reaching a final) contain a cycle, one state p of it is a
    pivot: the walks through p are decided by residues modulo p's shortest
    closed walk, and p is deleted.  The pivot is the first state a
    depth-first search finds on a cycle (``_cycle_head``).  Once no cycle
    is left, the initial state is the last pivot: every walk starts there
    and none returns, so its residues are the lengths.
    Exact; a pivot's table holds at most min(c, target + 1) residues per
    state, for c its shortest closed walk, so the work does not grow with
    target beyond c; ``caps.max_length_dp`` bounds it.
    """
    out = [[] for _ in range(size)]
    into = [[] for _ in range(size)]
    for src, dst, length in edges:
        out[src].append((dst, length))
        into[dst].append((src, length))
    live = range(size)
    while True:
        live = _reachable([initial], out, live) & _reachable(finals, into, live)
        adj = {q: [(v, w) for v, w in out[q] if v in live] for q in live}
        p = _cycle_head(adj)
        if p is None:
            p = initial
        if _through_pivot(p, adj, initial, finals, target, caps):
            return True
        if p == initial:
            return False  # every walk visits the initial state
        live.discard(p)


# ----------------------------------------------------------------- membership


def membership(nfa: SuccinctNFA, v, m: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """Decide v^m in L(nfa), with v a word and m a natural in binary."""
    v = tuple(v)
    if m < 0:
        raise ValueError("exponent must be a natural number")
    nfa = normalize(nfa)
    if m == 0 or not v:
        return nfa.initial in nfa.finals
    return length_reach(*build_product(nfa, v), m * len(v), caps)


# ------------------------------------------------------------------- text IO


_NAME = r"[A-Za-z0-9_@.]+"  # a state name
_NAME_RE = re.compile(_NAME)
_TRANSITION_RE = re.compile(rf"^\s*({_NAME})\s*-\[(.+)\]->\s*({_NAME})\s*$")


def parse_nfa(text: str) -> SuccinctNFA:
    """Read an automaton: 'initial:' and 'finals:' lines, then transitions
    'src -[label]-> dst', whose label is a word, a power or eps.  A state
    name is letters, digits, '_', '@' and '.'."""
    initial = None
    finals = None
    transitions = []
    states = set()
    offset = 0
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        start, offset = offset, offset + len(raw) + 1
        line = body.strip()
        if not line:
            continue
        if line.startswith("initial:"):
            if initial is not None:
                raise ParseError("duplicate initial line", lineno, 1)
            initial = line[len("initial:"):].strip()
            if not initial:
                raise ParseError("missing initial state", lineno, 1)
            names = (initial,)
        elif line.startswith("finals:"):
            if finals is not None:
                raise ParseError("duplicate finals line", lineno, 1)
            finals = names = tuple(line[len("finals:"):].replace(",", " ").split())
        else:
            m = _TRANSITION_RE.match(body)
            if m is None:
                raise ParseError(f"bad automaton line: {line!r}", lineno, 1)
            # the label is read in place, so an error in it names its column in the file
            pair = as_power(parse_regex(text, start + m.start(2), start + m.end(2)))
            if pair is None:
                message = "transition label must be a word, a power, or eps"
                raise ParseError(message, lineno, m.start(2) + 1)
            src, dst = m.group(1, 3)  # names, as the pattern matched them
            transitions.append(SNFATransition(src, *pair, dst))
            states.update((src, dst))
            continue
        for name in names:
            if not _NAME_RE.fullmatch(name):
                col = raw.index(name, raw.index(":") + 1) + 1
                raise ParseError(f"bad state name {name!r}", lineno, col)
        states.update(names)
    if initial is None:
        raise ParseError("missing 'initial:' line", 1, 1)
    if finals is None:
        raise ParseError("missing 'finals:' line", 1, 1)
    return SuccinctNFA(tuple(sorted(states)), tuple(transitions), initial, finals)
