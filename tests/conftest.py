"""Seeded instance generators shared across the test modules."""

import itertools
import math
import random

from crpqbound.expansion import (
    CQ,
    CQAtom,
    SuccinctAtom,
    SuccinctCQ,
    bound_letters,
    choice_lists,
    cq_hom,
    expansion_of,
    is_capped,
    normalize_succinct,
    star_free_choice_count,
)
from crpqbound.config import DEFAULT_CAPS
from crpqbound.homomorphism import RightSide, expansion_contained
from crpqbound.oracle import GraphDB, _atom_relation, eval_on_graph
from crpqbound.succinct_nfa import SNFATransition, SuccinctNFA
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
    Star,
    Union,
    collapse,
    concat,
    parse_ucrpq,
    render_regex,
    render_ucrpq,
    union,
)

LETTERS = ("a", "b", "c")
VAR_POOL = ("x", "y", "z", "u", "v", "w")


def gen_random_snfa(rng: random.Random, max_states=5, max_word=3, max_exp=16) -> SuccinctNFA:
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    transitions = []
    for _ in range(rng.randint(1, 2 * n)):
        word = tuple(rng.choice(LETTERS[:2]) for _ in range(rng.randint(1, max_word)))
        exponent = rng.randint(0, max_exp)
        if exponent == 0:
            word = word if rng.random() < 0.5 else ()
        transitions.append(
            SNFATransition(rng.choice(states), word, exponent, rng.choice(states))
        )
    finals = tuple(s for s in states if rng.random() < 0.4)
    if not finals:
        finals = (rng.choice(states),)
    return SuccinctNFA(states, tuple(transitions), rng.choice(states), finals)


def gen_random_word(rng: random.Random, max_len=3, sigma=LETTERS[:2]):
    return tuple(rng.choice(sigma) for _ in range(rng.randint(1, max_len)))


def gen_random_succinct_cq(rng: random.Random, max_atoms=4, max_exp=12) -> SuccinctCQ:
    n_vars = rng.randint(2, 4)
    pool = VAR_POOL[:n_vars]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        src, dst = rng.choice(pool), rng.choice(pool)
        word = tuple(rng.choice(LETTERS[:2]) for _ in range(rng.randint(1, 2)))
        atoms.append(SuccinctAtom(src, word, rng.randint(0, max_exp), dst))
    return normalize_succinct(SuccinctCQ(tuple(pool), tuple(atoms)))


def gen_cycle(rng: random.Random, max_exp: int) -> tuple:
    """The atoms of a directed cycle x -> ... -> x through one to three
    variables, words of one or two letters over a, b, exponents 1..max_exp."""
    n = rng.randint(1, 3)
    return tuple(
        SuccinctAtom(
            VAR_POOL[i], gen_random_word(rng, 2), rng.randint(1, max_exp), VAR_POOL[(i + 1) % n]
        )
        for i in range(n)
    )


def gen_rotated_cycle_word(rng: random.Random, cycle) -> tuple:
    """The word a gen_cycle cycle spells once around, read from a random
    position."""
    word = tuple(itertools.chain.from_iterable(a.word * a.exponent for a in cycle))
    r = rng.randrange(len(word))
    return word[r:] + word[:r]


def gen_cyclic_succinct_cq(rng: random.Random, max_exp: int) -> SuccinctCQ:
    """gen_cycle's atoms and, at even odds, one more atom (exponent
    0..max_exp) between any two of its variables and one more variable."""
    atoms = gen_cycle(rng, max_exp)
    pool = VAR_POOL[: len(atoms) + 1]
    if rng.random() < 0.5:
        word, exponent = gen_random_word(rng, 2), rng.randint(0, max_exp)
        atoms += (SuccinctAtom(rng.choice(pool), word, exponent, rng.choice(pool)),)
    return normalize_succinct(SuccinctCQ(pool, atoms))


def gen_random_crpq_astar(rng: random.Random, max_atoms=3, star_prob=0.4) -> UCRPQ:
    """A conjunctive query whose labels are the letter a or a-star."""
    n_vars = rng.randint(2, 3)
    pool = VAR_POOL[:n_vars]
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        src, dst = rng.choice(pool), rng.choice(pool)
        label = Star(("a",)) if rng.random() < star_prob else Letter("a")
        atoms.append(EdgeAtom(src, label, dst))
    return UCRPQ((CRPQ(tuple(atoms)),))


def some_stars_over_b(q: UCRPQ, rng: random.Random) -> UCRPQ:
    """The first disjunct of q with each star renamed to b* at even odds."""
    atoms = tuple(
        EdgeAtom(a.src, Star(("b",)), a.dst)
        if isinstance(a.label, Star) and rng.random() < 0.5
        else a
        for a in q.disjuncts[0].atoms
    )
    return UCRPQ((CRPQ(atoms),))


def gen_pendant_crpq(rng: random.Random) -> UCRPQ:
    """A query of gen_random_crpq_astar (the first atom made the letter a
    if all are stars, so that q(Z) is not nullable) with one or two pendant
    stars: each joins a variable of the query to a fresh leaf, in either
    direction, over a, b or ab.  Two of them share their variable at even
    odds.  At even odds the query has one atom and one more star, over a
    or b, between two of its variables, which is no pendant star and so is
    probed beside them; otherwise it has at most two atoms."""
    probed = rng.random() < 0.5
    atoms = list(gen_random_crpq_astar(rng, max_atoms=1 if probed else 2).disjuncts[0].atoms)
    if all(isinstance(a.label, Star) for a in atoms):
        atoms[0] = EdgeAtom(atoms[0].src, Letter("a"), atoms[0].dst)
    pool = sorted({v for a in atoms for v in (a.src, a.dst)})
    if probed:
        ends = rng.sample(pool, 2) if len(pool) > 1 else pool * 2
        atoms.append(EdgeAtom(ends[0], Star((rng.choice("ab"),)), ends[1]))
    root = rng.choice(pool)
    for leaf in ("u", "v")[: rng.randint(1, 2)]:
        if rng.random() < 0.5:
            root = rng.choice(pool)
        ends = (root, leaf) if rng.random() < 0.5 else (leaf, root)
        atoms.append(EdgeAtom(ends[0], Star(rng.choice((("a",), ("b",), ("a", "b")))), ends[1]))
    return UCRPQ((CRPQ(tuple(atoms)),))


def pendant_stars(d) -> list:
    """The star atoms of d that join two variables, one of them touched by
    no other atom."""
    atoms = d.edge_atoms
    return [
        i for i, a in enumerate(atoms)
        if isinstance(a.label, Star) and a.src != a.dst and any(
            all(v not in (b.src, b.dst) for j, b in enumerate(atoms) if j != i)
            for v in (a.src, a.dst)
        )
    ]


def enumerate_then_skip(q, letters, z, probe, full, caps=DEFAULT_CAPS, pendant_values=None):
    """The plain probe loop: walk every combination of atom choices, skip
    the trivial ones, and build and check each other one on its own.

    A combination is trivial when every star over a capped word takes an
    exponent of at most z.  Every other one counts, also one that
    normalizes like an earlier one.  Returns (verdict, witness, checks
    made, checks made with every pendant star at exponent 0), or None,
    without a check, when the grid holds more than caps.max_expansions
    combinations.

    With pendant_values, exponents of the grid in ascending order from 0,
    each pendant star takes only those: the loop walks a sub-grid in the
    grid's order, which holds every combination with the pendant stars at
    0, so it finds the grid's first uncontained combination whenever that
    one has them at 0.
    """
    qc = collapse(q)
    rhs = RightSide(bound_letters(qc, letters, z))  # prepared once for every check
    per = probe + 1 if full else z + 2
    pendants = [pendant_stars(d) for d in qc.disjuncts]
    grid = sum(
        math.prod(
            (len(pendant_values) if pendant_values and i in pendant else per)
            if isinstance(a.label, Star) else star_free_choice_count(a.label, caps)
            for i, a in enumerate(d.edge_atoms)
        )
        for d, pendant in zip(qc.disjuncts, pendants)
    )
    if grid > caps.max_expansions:
        return None
    values = tuple(range(probe + 1)) if full else tuple(range(z + 1)) + (probe,)
    checks = pinned = 0
    for d, pendant in zip(qc.disjuncts, pendants):
        atoms = d.edge_atoms
        probed = [
            i for i, a in enumerate(atoms)
            if isinstance(a.label, Star) and is_capped(a.label.word, letters)
        ]
        dom = {
            i: pendant_values if pendant_values and i in pendant else values
            for i, a in enumerate(atoms) if isinstance(a.label, Star)
        }
        for combo in itertools.product(*choice_lists(d, dom, caps)):
            if all(combo[i][1] <= z for i in probed):
                continue
            checks += 1
            pinned += all(combo[i][1] == 0 for i in pendant)
            lam = expansion_of(atoms, combo, d.variables())
            if expansion_contained(lam, rhs, caps) is None:
                return "unbounded", lam, checks, pinned
    return "bounded", None, checks, pinned


_CORPUS_SHAPES = (
    "?x -[{p}]-> ?y",
    "?x -[{p}]-> ?y, ?y -[{q}]-> ?z",
    "?x -[{p}]-> ?y, ?x -[{q}]-> ?z, ?z -[{p}]-> ?w",
    "?x -[{p}*]-> ?y",
    "?x -[{p}*]-> ?y, ?u -[{q}]-> ?v",
    "?x -[{p}]-> ?y, ?x -[{p}*]-> ?z, ?z -[{q}]-> ?w",
    "?x -[({p}{q}{p})*]-> ?y, ?x -[({p}{q}{p})^3]-> ?z",
    "?x -[({p}{q})*]-> ?y, ?x -[({p}{q})^2]-> ?z",
    "?x -[{p}*]-> ?y | ?x -[{q}]-> ?y",
    "?x -[{p}^<=3]-> ?y, ?y -[{q}]-> ?z",
)


def rewriting_corpus(count=50, seed=11):
    """Bounded queries of varied shapes for the rewriting size check."""
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        shape = rng.choice(_CORPUS_SHAPES)
        p, q = rng.sample(LETTERS, 2)
        corpus.append(parse_ucrpq(shape.format(p=p, q=q)))
    return corpus


# ------------------------------------------- the join against naive enumeration

_JOIN_LABELS = (
    "a", "b", "a*", "(ab)*", "a+b", "ab", "b^<=2", "a(b+eps)", "eps", "a b*",
    "a^3", "(ab)^2", "(ab)^0", "a (b^<=2) b",
)


def _compose(r, t):
    return {(u, w) for u, v in r for v2, w in t if v == v2}


def naive_relation(e, db: GraphDB) -> set:
    """The vertex pairs joined by a path spelling a word of e, by relation algebra."""
    ident = {(v, v) for v in db.vertices}
    if isinstance(e, Epsilon):
        return ident
    if isinstance(e, Letter):
        return {(u, v) for u, s, v in db.edges if s == e.symbol}
    if isinstance(e, Union):
        return set().union(*(naive_relation(p, db) for p in e.parts))
    if isinstance(e, Concat):
        out = ident
        for p in e.parts:
            out = _compose(out, naive_relation(p, db))
        return out
    word = ident
    for s in e.word:
        word = _compose(word, naive_relation(Letter(s), db))
    out = powers = ident
    for _ in range(e.exponent if isinstance(e, (Power, PowerLE)) else len(db.vertices)):
        powers = _compose(powers, word)
        out = powers if isinstance(e, Power) else out | powers
    return out


def naive_eval(q: UCRPQ, db: GraphDB) -> bool:
    """Does some assignment of vertices satisfy a disjunct (edge atoms only)?"""
    for d in q.disjuncts:
        variables = d.variables()
        relations = [(a.src, naive_relation(a.label, db), a.dst) for a in d.atoms]
        for values in itertools.product(db.vertices, repeat=len(variables)):
            h = dict(zip(variables, values))
            if all((h[x], h[y]) in rel for x, rel, y in relations):
                return True
    return False


def join_case_problems(rng: random.Random) -> list:
    """Check eval_on_graph and cq_hom on one seeded case by naive enumeration.

    The graph has at most 4 vertices; the query has one or two disjuncts
    of at most 3 variables, with stars, unions and self-loops; the CQ of
    up to 4 single-letter atoms is mapped into the graph read as a CQ.  Any
    mapping cq_hom returns must be a homomorphism.  Returns what disagrees.
    """
    vertices = tuple(f"g{i}" for i in range(rng.randint(1, 4)))
    edges = tuple(
        (u, s, v) for u in vertices for s in "ab" for v in vertices if rng.random() < 0.3
    )
    db = GraphDB(vertices, edges)
    pool = VAR_POOL[: rng.randint(1, 3)]
    q = parse_ucrpq(" | ".join(
        ", ".join(
            f"?{rng.choice(pool)} -[{rng.choice(_JOIN_LABELS)}]-> ?{rng.choice(pool)}"
            for _ in range(rng.randint(1, 3))
        )
        for _ in range(rng.randint(1, 2))
    ))
    problems = []
    if eval_on_graph(q, db) != naive_eval(q, db):
        problems.append(f"eval_on_graph on {render_ucrpq(q)!r} over {db.edges}")
    src = CQ(pool, tuple(
        CQAtom(rng.choice(pool), rng.choice("ab"), rng.choice(pool))
        for _ in range(rng.randint(1, 4))
    ))
    edge_set = set(db.edges)

    def is_hom(h):
        return all((h[a.src], a.symbol, h[a.dst]) in edge_set for a in src.atoms)

    h = cq_hom(src, CQ(vertices, tuple(CQAtom(*e) for e in db.edges)))
    exists = any(
        is_hom(dict(zip(pool, values)))
        for values in itertools.product(vertices, repeat=len(pool))
    )
    if (h is not None) != exists or (h is not None and (set(h) != set(pool) or not is_hom(h))):
        problems.append(f"cq_hom of {src.atoms} into {db.edges} gave {h}")
    return problems


def gen_random_graph(rng: random.Random, max_vertices: int) -> GraphDB:
    """A graph over a, b and 'x1' of 1 to max_vertices vertices, each
    possible edge drawn with one density from 0.05-0.5."""
    vertices = tuple(f"g{i}" for i in range(rng.randint(1, max_vertices)))
    p = rng.uniform(0.05, 0.5)
    return GraphDB(vertices, tuple(
        (u, s, v) for u in vertices for s in ("a", "b", "x1") for v in vertices
        if rng.random() < p
    ))


def relation_case_problems(rng: random.Random) -> list:
    """Check the oracle's relation of one random label on a random graph of
    at most 8 vertices against naive_relation.  Returns what disagrees."""
    db = gen_random_graph(rng, 8)
    label = gen_random_label(rng)
    got = {(u, v) for u, vs in _atom_relation(label, db, DEFAULT_CAPS).items() for v in vs}
    if got != naive_relation(label, db):
        return [f"_atom_relation of {render_regex(label)!r} over {db.edges}"]
    return []


# --------------------------------------------------- texts for the parsers

# pieces of the query grammar, with comments and line breaks
_SOUP_PIECES = (
    "?x", "?y", "?v1", "-[", "]->", "a", "ab", "ba", "'x1'", "(", ")", "^", "^<=",
    "0", "3", "12", "*", "+", "|", ",", "=", "eps", " # note\n", "\t", "\r\n", "\n",
    " ", " ",
)
_STRAY = "()[]^*+|,=?'-#$<>\n\t a1"


def gen_token_soup(rng: random.Random, max_pieces=12) -> str:
    """Grammar pieces in random order, half of them after an atom's opening
    and a quarter with one stray character: mostly malformed text."""
    pieces = [rng.choice(_SOUP_PIECES) for _ in range(rng.randint(1, max_pieces))]
    if rng.random() < 0.5:
        pieces.insert(0, "?x -[")
    if rng.random() < 0.25:
        pieces.insert(rng.randrange(len(pieces) + 1), rng.choice("$?'-]"))
    return "".join(pieces)


def gen_random_label(rng: random.Random, depth=0):
    """A label over words of a, b and 'x1' with powers, stars, eps and unions."""

    def factor():
        word = tuple(rng.choice(("a", "b", "x1")) for _ in range(rng.randint(1, 3)))
        r = rng.random()
        if r < 0.15:
            return Star(word)
        if r < 0.3:
            return Power(word, rng.randint(0, 12))
        if r < 0.4:
            return PowerLE(word, rng.randint(0, 12))
        if r < 0.5 and depth < 2:
            return gen_random_label(rng, depth + 1)
        if r < 0.55:
            return Epsilon()
        return concat(map(Letter, word))

    return union([
        concat([factor() for _ in range(rng.randint(1, 3))])
        for _ in range(rng.randint(1, 2))
    ])


def gen_random_ucrpq(rng: random.Random, max_disjuncts=2, max_atoms=3) -> UCRPQ:
    """A query with random labels and, now and then, an equality atom."""
    disjuncts = []
    for _ in range(rng.randint(1, max_disjuncts)):
        pool = VAR_POOL[: rng.randint(1, 3)]
        atoms = [
            EdgeAtom(rng.choice(pool), gen_random_label(rng), rng.choice(pool))
            for _ in range(rng.randint(1, max_atoms))
        ]
        if rng.random() < 0.2:
            atoms.insert(rng.randrange(len(atoms) + 1), EqualityAtom(*rng.sample(VAR_POOL, 2)))
        disjuncts.append(CRPQ(tuple(atoms)))
    return UCRPQ(tuple(disjuncts))


def mutate_text(rng: random.Random, text: str) -> str:
    """The text with one character deleted, inserted or swapped with the next."""
    i = rng.randrange(len(text))
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + text[i + 1:]
    if op == 1:
        return text[:i] + rng.choice(_STRAY) + text[i:]
    return text[:i] + text[i + 1: i + 2] + text[i] + text[i + 2:]
