"""Seeded workloads for the benchmark, built from a hand-written catalogue.

Every analyze item comes from a template whose verdict and maximal letter
set were derived by hand under the all-existential semantics the analyzer
uses (every variable is existentially quantified, so a subquery touched
only by stars may collapse to one vertex).  The reason for each expected
answer is recorded next to it.  ``contains`` and ``member`` items are
random but stratified; their answers are computed by brute force in
``check.py``.

A workload is a fixed multiset of template instances per pass, and the
exponents walk a fixed grid: the seed picks letters, words and the item
order, never how many items of each kind a pass holds or how large they
are, so the cost of a pass and the share of conclusive answers do not
drift between seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("small-queries", "deep-words", "succinct-checks")


@dataclass(frozen=True)
class Template:
    """One query shape with its expected answers.

    ``text`` uses the slots {p}, {q}, {r} for distinct letters and, in
    deep-words, {w}, {u} for words and {n} for an exponent.  ``letters``
    names the slots of the expected maximal letter set.  ``runs`` is the
    number of items per pass as (plain analyze, analyze --letters max).
    """

    name: str
    text: str
    verdict: str
    letters: str
    runs: tuple
    reason: str
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------- small-queries

SMALL_TEMPLATES = (
    Template(
        "claim",
        "?x -[{p}]-> ?y, ?x -[{p}*]-> ?z, ?z -[{q}]-> ?w",
        "bounded", "p", (2, 1),
        "a p^k q path with k >= 1 ends in the p.q step that exponent 1 spells",
    ),
    Template(
        "astarb",
        "?x -[{p}*]-> ?y, ?x -[{q}]-> ?y",
        "unbounded", "", (6, 3),
        "a p^k path beside the only q-edge is covered only by p^j with j = k",
    ),
    Template(
        "leafy",
        "?x -[{p}*]-> ?y, ?x -[{q}]-> ?y, ?x -[{r}*]-> ?w",
        "unbounded", "r", (1, 1),
        "the r-star ends in the leaf w and collapses at 0; the p-star is astarb",
    ),
    Template(
        "two-star",
        "?x -[{p}]-> ?y, ?y -[{p}*]-> ?z, ?z -[{q}]-> ?w, ?x -[{q}*]-> ?u",
        "bounded", "pq", (3, 2),
        "the q-star ends in the leaf u and collapses at 0; the p-part is claim",
    ),
    Template(
        "loop-two-stars",
        "?x -[{p}]-> ?x, ?x -[{p}*]-> ?y, ?y -[{p}*]-> ?y",
        "bounded", "p", (1, 0),
        "both stars collapse at exponent 0 onto the vertex with the p-loop",
    ),
    Template(
        "star-loop-pair",
        "?x -[{p}*]-> ?y, ?y -[{p}]-> ?y, ?y -[{p}*]-> ?x",
        "bounded", "p", (1, 0),
        "both stars collapse at exponent 0 onto the vertex with the p-loop",
    ),
    Template(
        "parallel-stars-edge",
        "?x -[{p}*]-> ?y, ?x -[{q}*]-> ?y, ?y -[{r}]-> ?z",
        "bounded", "pq", (1, 0),
        "both stars collapse at exponent 0 onto the source of the r-edge",
    ),
    Template(
        "loop-beside-astarb",
        "?z -[{p}]-> ?z, ?x -[{p}*]-> ?y, ?x -[{q}]-> ?y",
        "unbounded", "", (8, 4),
        "the p-loop is its own component, so the x-y part is still astarb",
    ),
    Template(
        "loop-leaf-star",
        "?z -[{p}]-> ?z, ?z -[{q}]-> ?y, ?x -[{p}*]-> ?y",
        "bounded", "p", (6, 3),
        "x occurs only in the star atom, so the star collapses at exponent 0",
    ),
    Template(
        "cycle-onto-loop",
        "?z -[{q}]-> ?z, ?x -[{p}*]-> ?y, ?y -[{q}]-> ?x",
        "bounded", "p", (6, 3),
        "at exponent 0 the p^k q cycle folds onto the q-loop",
    ),
    Template(
        "star-loop-between-edges",
        "?x -[{q}]-> ?y, ?y -[{p}*]-> ?y, ?y -[{r}]-> ?z",
        "bounded", "p", (8, 4),
        "the star self-loop collapses at exponent 0",
    ),
    Template(
        "loop-on-cycle",
        "?x -[{q}]-> ?x, ?x -[{p}*]-> ?y, ?y -[{p}]-> ?x",
        "unbounded", "", (6, 3),
        "only x has a q-loop, so the p-cycle through x must keep length k+1",
    ),
    Template(
        "long-cycle",
        "?y -[{p}*]-> ?z, ?y -[{p}*]-> ?x, ?x -[{p}]-> ?y",
        "unbounded", "", (8, 4),
        "the p-cycle through x has length m+1, longer than any cycle of q(Z)",
    ),
    Template(
        "star-cycle",
        "?x -[{p}*]-> ?y, ?y -[{q}]-> ?x",
        "unbounded", "", (6, 3),
        "the only cycle reads p^k q, and q(Z) has no such cycle for k > Z",
    ),
    Template(
        "open-triangle",
        "?x -[{p}*]-> ?y, ?y -[{q}]-> ?z, ?z -[{r}*]-> ?x",
        "unbounded", "", (3, 1),
        "the cycle p^k q r^m has one q-edge, so q(Z) must match k and m exactly",
    ),
    Template(
        "prefix-star",
        "?x -[{p}]-> ?y, ?y -[{p}*]-> ?z",
        "bounded", "p", (6, 3),
        "z occurs only in the star atom, so the star collapses at exponent 0",
    ),
    Template(
        "single-star",
        "?x -[{p}*]-> ?y",
        "bounded", "p", (3, 3),
        "every right-hand atom is nullable, so all of it maps to one vertex",
    ),
    Template(
        "star-chain",
        "?x -[{p}*]-> ?y, ?y -[{q}*]-> ?z",
        "bounded", "pq", (3, 3),
        "every right-hand atom is nullable, so all of it maps to one vertex",
    ),
    Template(
        "parallel-stars",
        "?x -[{p}*]-> ?y, ?x -[{q}*]-> ?y",
        "bounded", "pq", (3, 3),
        "nullable right-hand side; with answer variables it would be unbounded",
    ),
)


# ------------------------------------------------------------------ deep-words

# Exponent ranges are per star-word length, chosen so that Z stays between
# about 10^2 and 1.5*10^3 on the checked items and a pass takes a few
# seconds; the nullable items reach Z = 8*10^3 but take the short-cut.
DEEP_TEMPLATES = (
    Template(
        "fold",
        "?x -[({w})*]-> ?y, ?x -[({w})^{n}]-> ?y",
        "bounded", "", (20, 0),
        "the star copy folds onto the parallel w^n path at exponent n <= Z",
        {"n": {2: (6, 14), 3: (3, 8)}},
    ),
    Template(
        "leaf-power",
        "?x -[({w})*]-> ?y, ?y -[({u})^{n}]-> ?z",
        "bounded", "", (20, 0),
        "x occurs only in the star atom, so the star collapses at exponent 0",
        {"n": {2: (3, 10), 3: (2, 7)}},
    ),
    Template(
        "side-power",
        "?x -[({w})*]-> ?y, ?x -[({u})^{n}]-> ?z",
        "bounded", "", (16, 0),
        "y occurs only in the star atom, so the star collapses at exponent 0",
        {"n": {2: (3, 10), 3: (2, 7)}},
    ),
    Template(
        "leaf-bounded-power",
        "?x -[({w})*]-> ?y, ?y -[b^<={n}]-> ?z, ?z -[c]-> ?v",
        "bounded", "", (6, 0),
        "x occurs only in the star atom, so the star collapses at exponent 0",
        {"n": {2: (2, 4), 3: (2, 3)}},
    ),
    Template(
        "nullable-power",
        "?x -[({w})*]-> ?y, ?y -[({u})^<={n}]-> ?z",
        "bounded", "", (34, 0),
        "every right-hand atom is nullable, so all of it maps to one vertex",
        {"n": {2: (10, 40), 3: (10, 40)}},
    ),
    Template(
        "power-cycle",
        "?x -[({w})*]-> ?y, ?y -[c^{n}]-> ?x",
        "unbounded", "", (4, 0),
        "the only cycle reads w^k c^n, and q(Z) has no such cycle for k > Z",
        {"n": {2: (2, 3), 3: (2, 2)}},
    ),
)

# Star words of length 2 and 3 over {a, b}; every one has both letters, so
# c never occurs in a star word and b^<=n never spells a whole star copy.
STAR_WORDS = {2: ("ab", "ba"), 3: ("aab", "aba", "abb", "baa", "bab", "bba")}
POWER_WORDS = {2: ("ab", "ba"), 3: ("aab", "abb", "bab")}
_SWAP = str.maketrans("ab", "ba")


# ----------------------------------------------------------------- items


@dataclass(frozen=True)
class Item:
    """One call of ``crpqbound.cli.main``.

    ``files`` maps file names (relative to the work directory) to their
    text; ``argv`` names them.  ``expect`` holds what the checker needs.
    """

    kind: str  # "analyze" | "analyze-max" | "contains" | "member"
    template: str
    argv: tuple
    files: tuple  # ((name, text), ...)
    expect: dict


def _letters(rng: random.Random) -> dict:
    p, q, r = rng.sample("abc", 3)
    return {"p": p, "q": q, "r": r}


def _analyze_items(template: Template, text: str, slots: dict, idx: int, runs: tuple):
    letters = "".join(sorted(slots[s] for s in template.letters))
    plain, with_max = runs
    for k in range(plain + with_max):
        kind = "analyze" if k < plain else "analyze-max"
        name = f"q{idx:03d}-{k}.txt"
        argv = ["analyze", name, "--json"]
        if kind == "analyze-max":
            argv += ["--letters", "max"]
        yield Item(
            kind,
            template.name,
            tuple(argv),
            ((name, text + "\n"),),
            {"verdict": template.verdict, "letters": letters, "query": text},
        )


def _grid(lo: int, hi: int, k: int, count: int) -> int:
    """The k-th of ``count`` evenly spaced points of [lo, hi].

    Exponents drive the cost of an item (often quadratically), so they
    walk a fixed grid: every pass has the same cost profile and the seed
    varies letters, words and order instead.
    """
    return lo + round((hi - lo) * (k + 0.5) / count)


def small_queries(rng: random.Random) -> list:
    items = []
    for idx, t in enumerate(SMALL_TEMPLATES):
        slots = _letters(rng)
        items.extend(_analyze_items(t, t.text.format(**slots), slots, idx, t.runs))
    return items


def deep_words(rng: random.Random) -> list:
    items = []
    idx = 0
    for t in DEEP_TEMPLATES:
        count = t.runs[0]
        for k in range(count):
            # word lengths cycle through all four pairs, the words through
            # their lists and the exponent through a grid of its range, so
            # every pass has the same profile; the seed swaps a and b
            wlen, ulen = 2 + k % 2, 2 + (k // 2) % 2
            lo, hi = t.params["n"][wlen]
            w = STAR_WORDS[wlen][(k // 4) % len(STAR_WORDS[wlen])]
            u = POWER_WORDS[ulen][(k // 4) % len(POWER_WORDS[ulen])]
            if rng.random() < 0.5:
                w, u = w.translate(_SWAP), u.translate(_SWAP)
            slots = {"w": w, "u": u, "n": _grid(lo, hi, k // 2, (count + 1) // 2)}
            items.extend(_analyze_items(t, t.text.format(**slots), slots, idx, (1, 0)))
            idx += 1
    return items


# -------------------------------------------------------------- succinct-checks


@dataclass(frozen=True)
class PairTemplate:
    """A ``contains`` pair: does ``right`` map into ``left``?

    Atoms are (src, word, exponent, dst) with {p}, {q} letter slots in the
    words.  ``left`` and ``right`` take the tuple of drawn exponents.
    """

    name: str
    left: object
    right: object
    contained: bool
    count: int
    ranges: tuple
    reason: str


# Exponent ranges keep each check under about 0.1 s on the seed code; the
# search cost grows with the product of the left side's lengths.
PAIR_TEMPLATES = (
    PairTemplate(
        "longer-than-run",
        lambda n: [("x", "pq", n[0], "y"), ("y", "q", n[1], "z")],
        lambda n: [("u", "pq", n[0] + 1, "t")],
        False, 8, ((4, 14), (4, 14)),
        "the left side spells at most n1 copies of pq in a row",
    ),
    PairTemplate(
        "window",
        lambda n: [("x", "pq", n[0], "y"), ("y", "q", n[1], "z")],
        lambda n: [("u", "pq", max(1, n[0] // 2), "t"), ("t", "pq", 1, "s")],
        True, 4, ((4, 14), (4, 14)),
        "the right path fits inside the first left atom",
    ),
    PairTemplate(
        "wrap-cycle",
        lambda n: [("x", "pq", n[0], "y"), ("y", "pq", n[1], "x")],
        lambda n: [("u", "pq", n[0] + n[1] + 3, "t")],
        True, 4, ((5, 40), (5, 40)),
        "the right path wraps around the left pq-cycle",
    ),
    PairTemplate(
        "no-qq",
        lambda n: [("x", "pq", n[0], "y"), ("y", "ppq", n[1], "x")],
        lambda n: [("u", "qp", n[2], "t"), ("t", "q", 2, "s")],
        False, 8, ((4, 11), (4, 11), (1, 40)),
        "every q on the left cycle is followed by p, so qq never occurs",
    ),
    PairTemplate(
        "letter-clash",
        lambda n: [("x", "pq", n[0], "y"), ("x", "qp", n[1], "z"), ("x", "p", n[2], "w")],
        lambda n: [("u", "pq", 3, "t"), ("t", "qp", 2, "s")],
        False, 6, ((5, 40), (5, 40), (5, 40)),
        "the right path reads qq, which no left path spells",
    ),
    PairTemplate(
        "diamond",
        lambda n: [
            ("x", "p", n[0], "y"), ("x", "q", n[1], "z"),
            ("y", "pq", n[1], "w"), ("z", "qp", n[0], "w"),
        ],
        lambda n: [("u", "p", n[0] + 1, "t"), ("t", "q", 1, "s")],
        True, 4, ((5, 40), (5, 40)),
        "x reaches y by p^n1 and the next atom starts with p.q",
    ),
    PairTemplate(
        "q-run-too-long",
        lambda n: [("x", "p", n[0], "y"), ("y", "q", n[1], "z"), ("z", "p", n[2], "w")],
        lambda n: [("u", "p", 1, "t"), ("t", "q", n[1] + 1, "s"), ("s", "p", 1, "r")],
        False, 6, ((4, 30), (4, 30), (4, 30)),
        "the only q-run on the left has length n2",
    ),
    PairTemplate(
        "cycle-multiple",
        lambda n: [("x", "pq", n[0], "x"), ("x", "q", n[1], "y")],
        lambda n: [("u", "pq", n[0] * n[2], "u")],
        True, 4, ((2, 12), (2, 20), (1, 3)),
        "a closed pq-walk around a cycle of n1 copies takes a multiple of n1",
    ),
    PairTemplate(
        "cycle-off-by-one",
        lambda n: [("x", "pq", n[0], "x"), ("x", "q", n[1], "y")],
        lambda n: [("u", "pq", n[0] * n[2] + 1, "u")],
        False, 6, ((2, 12), (2, 20), (1, 3)),
        "a closed pq-walk around a cycle of n1 copies takes a multiple of n1",
    ),
)


@dataclass(frozen=True)
class NfaTemplate:
    """A ``member`` query: is v^m accepted?

    ``build`` maps (v, e) to (initial, finals, transitions) over words in v.
    ``accepts`` maps e to (offset, period): offset + k * period is accepted
    for every k >= 0, and every accepted m is congruent to offset modulo
    some divisor >= 2 of period.  Even instances take such an m, odd ones
    add 1, so both answers occur and each is known.
    """

    name: str
    build: object
    accepts: object
    cyclic: bool
    count: int
    reason: str


def _rot(v: str) -> str:
    return v[1:] + v[0]


NFA_TEMPLATES = (
    NfaTemplate(
        "loop-chain",
        lambda v, e: ("s0", ("s2",), (
            ("s0", v, e[0], "s1"), ("s1", v, e[1], "s1"), ("s1", v, e[2], "s2"),
        )),
        lambda e: (e[0] + e[2], e[1]),
        False, 18,
        "v^e1 (v^e2)* v^e3",
    ),
    NfaTemplate(
        "rotated-loop",
        lambda v, e: ("s0", ("s3",), (
            ("s0", v[0], 1, "s1"), ("s1", _rot(v), e[1], "s1"),
            ("s1", v[1:] + v[0], e[0], "s2"), ("s2", v[1:], 1, "s3"),
        )),
        lambda e: (e[0] + 1, e[1]),
        False, 18,
        "v0 (rot v)^(e2*k + e1) v[1:] spells v^(e1 + 1 + e2*k)",
    ),
    NfaTemplate(
        "triangle",
        lambda v, e: ("s0", ("s2",), (
            ("s0", v, e[0], "s1"), ("s1", v, e[1], "s2"), ("s2", v, e[2], "s0"),
        )),
        lambda e: (e[0] + e[1], e[0] + e[1] + e[2]),
        True, 18,
        "one cycle of length e1+e2+e3 with the final e1+e2 steps in",
    ),
    NfaTemplate(
        "two-cycles",
        lambda v, e: ("s0", ("s3",), (
            ("s0", v, e[0], "s1"), ("s1", v, e[1], "s0"),
            ("s1", v, e[2], "s2"), ("s2", v, e[1], "s1"), ("s2", v, 1, "s3"),
        )),
        lambda e: (e[0] + e[2] + 1, e[0] + e[1]),
        True, 18,
        "two cycles through s1 of even lengths e1+e2 and e2+e3",
    ),
)

MAX_M = 10**5
PRIMITIVE_WORDS = {1: ("a", "b"), 2: ("ab", "ba"), 3: STAR_WORDS[3]}


def _render_cq(atoms) -> str:
    parts = []
    for src, word, exp, dst in atoms:
        base = word if len(word) == 1 else f"({word})"
        parts.append(f"?{src} -[{base}^{exp}]-> ?{dst}")
    return ", ".join(parts) + "\n"


def _render_nfa(initial, finals, trans) -> str:
    lines = [f"initial: {initial}", "finals: " + " ".join(finals)]
    for src, word, exp, dst in trans:
        base = word if len(word) == 1 else f"({word})"
        lines.append(f"{src} -[{base}^{exp}]-> {dst}")
    return "\n".join(lines) + "\n"


def _contains_items(rng: random.Random):
    items = []
    for t in PAIR_TEMPLATES:
        for k in range(t.count):
            letters = dict(zip("pq", rng.sample("ab", 2)))
            n = tuple(_grid(lo, hi, k, t.count) for lo, hi in t.ranges)
            left = [(s, "".join(letters[c] for c in w), e, d) for s, w, e, d in t.left(n)]
            right = [(s, "".join(letters[c] for c in w), e, d) for s, w, e, d in t.right(n)]
            tag = f"c{len(items):03d}"
            lname, rname = f"{tag}-left.txt", f"{tag}-right.txt"
            items.append(
                Item(
                    "contains",
                    t.name,
                    ("contains", lname, rname, "--json"),
                    ((lname, _render_cq(left)), (rname, _render_cq(right))),
                    {"left": left, "right": right, "contained": t.contained},
                )
            )
    return items


def _member_items(rng: random.Random, start: int):
    items = []
    for t in NFA_TEMPLATES:
        for k in range(t.count):
            # the cost of a check depends on |v|, the exponents and m, so
            # they walk fixed cycles; the seed picks which primitive word
            # of that length v is
            size = 1 + k % 3 if t.name != "rotated-loop" else 2 + k % 2
            v = rng.choice(PRIMITIVE_WORDS[size])
            e = [1 + (7 * k) % 9, 2 + (5 * k) % 8, 1 + (3 * k + 4) % 9]
            if t.name == "two-cycles":
                # both cycle lengths even, so odd offsets stay unreachable
                e[0] += (e[0] - e[1]) % 2
                e[2] += (e[2] - e[1]) % 2
            offset, period = t.accepts(e)
            # m walks a log-spaced grid of [1, MAX_M] (even and odd k
            # alternate through it), then moves onto the accepted
            # progression (even k) or one past it (odd k)
            m = round(math.exp(math.log(MAX_M) * (k // 2 + 0.5) / (t.count // 2)))
            m = offset + max(0, m - offset) // period * period + k % 2
            member = k % 2 == 0
            initial, finals, trans = t.build(v, e)
            name = f"m{start + len(items):03d}.txt"
            items.append(
                Item(
                    "member",
                    t.name,
                    ("member", name, v, str(m), "--json"),
                    ((name, _render_nfa(initial, finals, trans)),),
                    {
                        "initial": initial, "finals": finals, "trans": trans,
                        "v": v, "m": m, "member": member,
                    },
                )
            )
    return items


def succinct_checks(rng: random.Random) -> list:
    items = _contains_items(rng)
    items.extend(_member_items(rng, len(items)))
    return items


_GENERATORS = {
    "small-queries": small_queries,
    "deep-words": deep_words,
    "succinct-checks": succinct_checks,
}


def generate(workload: str, seed: int) -> list:
    """The items of one pass, in the order the pass runs them.

    The first item stays first (it is the one ``setup_s`` answers); the
    rest are shuffled by the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    items = _GENERATORS[workload](rng)
    head, rest = items[0], items[1:]
    rng.shuffle(rest)
    return [head] + rest
