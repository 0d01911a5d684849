"""Seeded instance generators shared across the test modules."""

import random

from crpqbound.expansion import SuccinctAtom, SuccinctCQ, normalize_succinct
from crpqbound.succinct_nfa import SNFATransition, SuccinctNFA
from crpqbound.syntax import (
    CRPQ,
    UCRPQ,
    EdgeAtom,
    Letter,
    Star,
    parse_ucrpq,
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
