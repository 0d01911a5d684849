"""Succinct NFAs: transitions read w^n with n in binary.

The central question answered here is membership of v^m (m in binary) in
the language of such an automaton.  The decision runs in three stages:
normalize away zero-length transitions, build a product automaton whose
accepted words are exactly the accepted powers of v, then ask whether the
product accepts a word of length m*|v|.  The length question is solved
exactly with semilinear length sets when the loop structure allows, and
by a bounded dynamic program otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from math import gcd

from crpqbound.config import DEFAULT_CAPS, Caps
from crpqbound.errors import CapExceeded, ParseError
from crpqbound.syntax import Epsilon, Power, as_word, parse_regex, render_regex, word_expr

# ----------------------------------------------------------------- structure


@dataclass(frozen=True)
class SNFATransition:
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
    """
    eps = {}
    for t in nfa.transitions:
        if t.length == 0:
            eps.setdefault(t.src, set()).add(t.dst)

    def closure(q):
        seen = {q}
        stack = [q]
        while stack:
            for nxt in eps.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    closures = {q: closure(q) for q in nfa.states}
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
        tuple(sorted(transitions, key=lambda t: (t.src, t.word, t.exponent, t.dst))),
        nfa.initial,
        finals,
    )


# -------------------------------------------------------------- product build


def _power_matches_at_phase(w, n: int, i: int, v) -> bool:
    """Does w^n read correctly against the periodic stream of v at phase i?"""
    lv, lw = len(v), len(w)

    def ok(p):
        return all(w[s] == v[(p + s) % lv] for s in range(lw))

    delta = lw % lv
    period = 1 if delta == 0 else lv // gcd(delta, lv)
    for t in range(min(n, period)):
        if not ok((i + t * delta) % lv):
            return False
    return True


def build_product(nfa: SuccinctNFA, v) -> SuccinctNFA:
    """Restrict an automaton to words that are powers of v.

    States are pairs (state, phase) written ``q@i``; a transition reading
    w^n moves the phase forward by n*|w| modulo |v|.  Accepted words are
    exactly the accepted powers of v, so acceptance of v^m reduces to
    reaching a final at phase 0 with total length m*|v|.
    """
    v = tuple(v)
    if not v:
        raise ValueError("v must be non-empty")
    nfa = normalize(nfa)
    lv = len(v)
    states = tuple(f"{q}@{i}" for q in nfa.states for i in range(lv))
    transitions = []
    for t in nfa.transitions:
        step = (t.length) % lv
        for i in range(lv):
            if _power_matches_at_phase(t.word, t.exponent, i, v):
                j = (i + step) % lv
                transitions.append(
                    SNFATransition(f"{t.src}@{i}", t.word, t.exponent, f"{t.dst}@{j}")
                )
    finals = tuple(sorted(f"{f}@0" for f in nfa.finals))
    return SuccinctNFA(states, tuple(transitions), f"{nfa.initial}@0", finals)


# ----------------------------------------------------------------- length sets


@dataclass(frozen=True)
class LengthSet:
    """A set of naturals: finitely many points plus arithmetic progressions.

    Each progression (base, period) denotes {base + k*period : k >= 0}.
    """

    finite: frozenset
    progressions: tuple

    EMPTY = None  # set below

    def is_empty(self) -> bool:
        return not self.finite and not self.progressions

    def contains(self, x: int) -> bool:
        if x in self.finite:
            return True
        return any(x >= b and (x - b) % p == 0 for b, p in self.progressions)

    def shift(self, d: int) -> "LengthSet":
        return LengthSet(
            frozenset(x + d for x in self.finite),
            tuple((b + d, p) for b, p in self.progressions),
        )

    def union(self, other: "LengthSet", caps: Caps = DEFAULT_CAPS) -> "LengthSet":
        return _normalize_ls(
            self.finite | other.finite,
            self.progressions + other.progressions,
            caps,
        )

    def minkowski(self, other: "LengthSet", caps: Caps = DEFAULT_CAPS) -> "LengthSet":
        """Pointwise sum of two length sets, kept exact."""
        if self.is_empty() or other.is_empty():
            return LengthSet.EMPTY
        finite = frozenset(a + b for a in self.finite for b in other.finite)
        progs = []
        for f in self.finite:
            progs.extend((b + f, p) for b, p in other.progressions)
        for f in other.finite:
            progs.extend((b + f, p) for b, p in self.progressions)
        for b1, p1 in self.progressions:
            for b2, p2 in other.progressions:
                sg = semigroup((p1, p2), caps).shift(b1 + b2)
                finite = finite | sg.finite
                progs.extend(sg.progressions)
        return _normalize_ls(finite, tuple(progs), caps)


LengthSet.EMPTY = LengthSet(frozenset(), ())


def length_set(values=(), progressions=()) -> LengthSet:
    return _normalize_ls(frozenset(values), tuple(progressions), DEFAULT_CAPS)


def _normalize_ls(finite, progs, caps: Caps) -> LengthSet:
    kept = []
    for b, p in sorted(set(progs)):
        covered = any(
            p % p2 == 0 and b >= b2 and (b - b2) % p2 == 0 for b2, p2 in kept
        )
        if not covered:
            kept.append((b, p))
    fin = frozenset(
        x for x in finite if not any(x >= b and (x - b) % p == 0 for b, p in kept)
    )
    if len(fin) + len(kept) > caps.max_semilinear:
        raise CapExceeded(caps.max_semilinear, "length set too large")
    return LengthSet(fin, tuple(kept))


def semigroup(generators, caps: Caps = DEFAULT_CAPS) -> LengthSet:
    """All sums of the generators (with repetition, including the empty sum).

    Exact: shortest-path over residues modulo the smallest generator gives,
    per residue class, the least representable value; everything congruent
    above it is representable too.
    """
    gens = sorted({g for g in generators if g > 0})
    if not gens:
        return length_set(values=[0])
    g0 = gens[0]
    if g0 > caps.max_semilinear:
        raise CapExceeded(caps.max_semilinear, "semigroup modulus too large")
    import heapq

    dist = {0: 0}
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist.get(r, None) != d:
            continue
        for g in gens[1:]:
            nd, nr = d + g, (r + g) % g0
            if nd < dist.get(nr, nd + 1):
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return _normalize_ls(
        frozenset(), tuple((dist[r], g0) for r in sorted(dist)), caps
    )


# --------------------------------------------------------------- length reach


def _weighted_graph(nfa: SuccinctNFA):
    edges = {}
    loops = {}
    for t in nfa.transitions:
        w = t.length
        if t.src == t.dst:
            loops.setdefault(t.src, set()).add(w)
        else:
            edges.setdefault((t.src, t.dst), set()).add(w)
    return edges, loops


def length_reach(nfa: SuccinctNFA, target_length: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """Is there an initial-to-final path of total label length target_length?

    Transitions count as their materialized length |w|*n.  Tries the exact
    semilinear route first (valid whenever the graph without self-loops is
    acyclic); falls back to a bitset dynamic program up to the length cap.
    """
    if target_length < 0:
        return False
    nfa = normalize(nfa)
    if target_length == 0:
        return nfa.initial in nfa.finals
    edges, loops = _weighted_graph(nfa)
    try:
        return _reach_semilinear(nfa, edges, loops, target_length, caps)
    except _NotADag:
        pass
    except CapExceeded:
        pass
    if target_length > caps.max_length_dp:
        raise CapExceeded(
            caps.max_length_dp, "length target too large for cyclic automaton"
        )
    return _reach_bitset(nfa, edges, loops, target_length)


class _NotADag(Exception):
    pass


def _reach_semilinear(nfa, edges, loops, target, caps) -> bool:
    graph = {q: set() for q in nfa.states}
    for (u, v) in edges:
        graph[v].add(u)  # TopologicalSorter wants predecessor sets
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError:
        raise _NotADag()
    incoming = {}
    for (u, v), ws in edges.items():
        incoming.setdefault(v, []).append((u, ws))
    reach = {}
    for q in order:
        base = LengthSet.EMPTY
        if q == nfa.initial:
            base = base.union(length_set(values=[0]), caps)
        for u, ws in incoming.get(q, ()):
            r = reach.get(u)
            if r is None or r.is_empty():
                continue
            for w in ws:
                base = base.union(r.shift(w), caps)
        if base.is_empty():
            continue
        if q in loops:
            base = base.minkowski(semigroup(loops[q], caps), caps)
        reach[q] = base
    return any(
        f in reach and reach[f].contains(target) for f in nfa.finals
    )


def _reach_bitset(nfa, edges, loops, target) -> bool:
    mask = (1 << (target + 1)) - 1
    bits = {q: 0 for q in nfa.states}
    bits[nfa.initial] = 1
    out = {}
    for (u, v), ws in edges.items():
        out.setdefault(u, []).append((v, ws))
    for u, ws in loops.items():
        out.setdefault(u, []).append((u, ws))
    from collections import deque

    queue = deque([nfa.initial])
    queued = {nfa.initial}
    while queue:
        u = queue.popleft()
        queued.discard(u)
        bu = bits[u]
        for v, ws in out.get(u, ()):
            add = 0
            for w in ws:
                add |= (bu << w) & mask
            if add | bits[v] != bits[v]:
                bits[v] |= add
                if v not in queued:
                    queued.add(v)
                    queue.append(v)
    probe = 1 << target
    return any(bits[f] & probe for f in nfa.finals)


# ----------------------------------------------------------------- membership


def membership(nfa: SuccinctNFA, v, m: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """Decide v^m in L(nfa), with v a word and m a natural in binary."""
    v = tuple(v)
    norm = normalize(nfa)
    if m == 0 or not v:
        return norm.initial in norm.finals
    product = build_product(norm, v)
    return length_reach(product, m * len(v), caps)


# ------------------------------------------------------------------- text IO


_TRANSITION_RE = re.compile(r"^([A-Za-z0-9_@.]+)\s*-\[(.+)\]->\s*([A-Za-z0-9_@.]+)$")


def _label_to_pair(text: str, lineno: int):
    e = parse_regex(text)
    if isinstance(e, Power):
        return e.word, e.exponent
    if isinstance(e, Epsilon):
        return (), 0
    w = as_word(e)
    if w:
        return w, 1
    raise ParseError("transition label must be a word, a power, or eps", lineno, 1)


def parse_nfa(text: str) -> SuccinctNFA:
    initial = None
    finals = None
    transitions = []
    states = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("initial:"):
            if initial is not None:
                raise ParseError("duplicate initial line", lineno, 1)
            initial = line[len("initial:"):].strip()
            if not initial:
                raise ParseError("missing initial state", lineno, 1)
            states.add(initial)
            continue
        if line.startswith("finals:"):
            if finals is not None:
                raise ParseError("duplicate finals line", lineno, 1)
            finals = tuple(line[len("finals:"):].replace(",", " ").split())
            states.update(finals)
            continue
        m = _TRANSITION_RE.match(line)
        if m is None:
            raise ParseError(f"bad automaton line: {line!r}", lineno, 1)
        src, label, dst = m.group(1), m.group(2), m.group(3)
        word, exp = _label_to_pair(label, lineno)
        states.update((src, dst))
        transitions.append(SNFATransition(src, word, exp, dst))
    if initial is None:
        raise ParseError("missing 'initial:' line", 1, 1)
    if finals is None:
        raise ParseError("missing 'finals:' line", 1, 1)
    return SuccinctNFA(tuple(sorted(states)), tuple(transitions), initial, finals)


def render_nfa(nfa: SuccinctNFA) -> str:
    lines = [f"initial: {nfa.initial}", "finals: " + " ".join(nfa.finals)]
    for t in sorted(nfa.transitions, key=lambda t: (t.src, t.word, t.exponent, t.dst)):
        if t.length == 0:
            label = "eps"
        elif t.exponent == 1:
            label = render_regex(word_expr(t.word))
        else:
            label = render_regex(Power(t.word, t.exponent))
        lines.append(f"{t.src} -[{label}]-> {t.dst}")
    return "\n".join(lines) + "\n"
