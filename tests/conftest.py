"""Seeded instance generators shared across the test modules."""

import itertools
import random

from crpqbound.expansion import (
    CQ,
    CQAtom,
    SuccinctAtom,
    SuccinctCQ,
    cq_hom,
    normalize_succinct,
)
from crpqbound.oracle import GraphDB, eval_on_graph
from crpqbound.succinct_nfa import SNFATransition, SuccinctNFA
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
    parse_ucrpq,
    render_ucrpq,
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

_JOIN_LABELS = ("a", "b", "a*", "(ab)*", "a+b", "ab", "b^<=2", "a(b+eps)", "eps", "a b*")


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
