"""Homomorphism search and succinct containment."""

import json
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

from conftest import (
    gen_cyclic_succinct_cq,
    gen_cycle,
    gen_random_crpq_astar,
    gen_random_succinct_cq,
    gen_rotated_cycle_word,
    some_stars_over_b,
)
from crpqbound.boundedness import compute_bounds
from crpqbound.config import DEFAULT_CAPS
from crpqbound.expansion import (
    SuccinctAtom,
    SuccinctCQ,
    bound_letters,
    bound_query,
    enumerate_expansions,
    materialize,
    normalize_succinct,
)
from crpqbound.homomorphism import (
    Contained,
    Domain,
    RightSide,
    _CanonicalDB,
    _PathIndex,
    cq_hom,
    expansion_contained,
    succinct_containment,
)
from crpqbound.oracle import eval_on_graph, graph_of_cq
from crpqbound.syntax import (
    CRPQ,
    UCRPQ,
    EdgeAtom,
    Epsilon,
    EqualityAtom,
    Letter,
    Power,
    PowerLE,
    Star,
    concat,
    parse_ucrpq,
    union,
)


def _path_cq(symbols, prefix="p"):
    atoms = tuple(
        SuccinctAtom(f"{prefix}{i}", (s,), 1, f"{prefix}{i + 1}")
        for i, s in enumerate(symbols)
    )
    variables = tuple(f"{prefix}{i}" for i in range(len(symbols) + 1))
    return materialize(SuccinctCQ(variables, atoms))


def test_cq_hom_single_edge():
    src = _path_cq("a", prefix="s")
    dst = _path_cq("a", prefix="d")
    hom = cq_hom(src, dst)
    assert hom == {"s0": "d0", "s1": "d1"}


def test_cq_hom_cycle_into_loop():
    cycle = materialize(
        SuccinctCQ(
            ("x", "y"),
            (SuccinctAtom("x", ("a",), 1, "y"), SuccinctAtom("y", ("a",), 1, "x")),
        )
    )
    loop = materialize(SuccinctCQ(("u",), (SuccinctAtom("u", ("a",), 1, "u"),)))
    hom = cq_hom(cycle, loop)
    assert hom == {"x": "u", "y": "u"}


def test_cq_hom_longer_path_has_none():
    assert cq_hom(_path_cq("aaa", prefix="s"), _path_cq("aa", prefix="d")) is None


def test_cq_hom_respects_atoms():
    src = _path_cq("ab", prefix="s")
    dst = _path_cq("ab", prefix="d")
    hom = cq_hom(src, dst)
    for atom in src.atoms:
        assert any(
            d.src == hom[atom.src] and d.symbol == atom.symbol and d.dst == hom[atom.dst]
            for d in dst.atoms
        )


def test_succinct_containment_prefix_power():
    left = SuccinctCQ(("x", "y"), (SuccinctAtom("x", ("a", "b"), 4, "y"),))
    right = SuccinctCQ(("u", "v"), (SuccinctAtom("u", ("a", "b"), 2, "v"),))
    assert succinct_containment(left, right)


def test_succinct_containment_reflexive_example():
    left = SuccinctCQ(("x", "y"), (SuccinctAtom("x", ("a", "b"), 4, "y"),))
    assert succinct_containment(left, left)


def test_succinct_containment_no_long_path():
    left = SuccinctCQ(("x", "y"), (SuccinctAtom("x", ("a",), 2, "y"),))
    right = SuccinctCQ(("u", "v"), (SuccinctAtom("u", ("a",), 3, "v"),))
    assert not succinct_containment(left, right)


def test_succinct_containment_differential():
    rng = random.Random(77)
    agree = 0
    for _ in range(120):
        left = gen_random_succinct_cq(rng, max_atoms=3, max_exp=5)
        right = gen_random_succinct_cq(rng, max_atoms=2, max_exp=4)
        want = cq_hom(materialize(right), materialize(left)) is not None
        got = succinct_containment(left, right)
        assert got == want, (left, right)
        agree += 1
    assert agree == 120


def test_succinct_containment_reflexive_transitive_sampled():
    rng = random.Random(78)
    found_chain = 0
    for _ in range(80):
        a = gen_random_succinct_cq(rng, max_atoms=2, max_exp=4)
        b = gen_random_succinct_cq(rng, max_atoms=2, max_exp=4)
        c = gen_random_succinct_cq(rng, max_atoms=2, max_exp=4)
        assert succinct_containment(a, a)
        if succinct_containment(a, b) and succinct_containment(b, c):
            found_chain += 1
            assert succinct_containment(a, c)
    assert found_chain > 0


def test_expansion_contained_nullable_self_loop_needs_no_loop():
    q = parse_ucrpq("?x -[a*]-> ?x, ?x -[b]-> ?y")
    lam = SuccinctCQ(("u", "v"), (SuccinctAtom("u", ("b",), 1, "v"),))
    result = expansion_contained(lam, bound_query(q, 2))
    assert isinstance(result, Contained)
    assert result.hom == {"x": "u", "y": "v"}
    assert cq_hom(materialize(result.expansion), materialize(lam)) is not None


def test_hom_composition():
    q2 = _path_cq("aa", prefix="t")
    q1 = _path_cq("aa", prefix="m")
    loop = materialize(SuccinctCQ(("u",), (SuccinctAtom("u", ("a",), 1, "u"),)))
    h1 = cq_hom(q2, q1)
    h2 = cq_hom(q1, loop)
    assert h1 and h2
    composed = {v: h2[h1[v]] for v in h1}
    for atom in q2.atoms:
        assert any(
            d.src == composed[atom.src]
            and d.symbol == atom.symbol
            and d.dst == composed[atom.dst]
            for d in loop.atoms
        )


def test_expansion_contained_identity_case():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    lam = SuccinctCQ(
        ("x", "y"),
        (SuccinctAtom("x", ("a",), 1, "y"), SuccinctAtom("x", ("b",), 1, "y")),
    )
    result = expansion_contained(lam, bound_query(q, 1))
    assert isinstance(result, Contained)


def test_expansion_contained_exponent_two_fails_at_one():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    lam = SuccinctCQ(
        ("x", "y"),
        (SuccinctAtom("x", ("a",), 2, "y"), SuccinctAtom("x", ("b",), 1, "y")),
    )
    result = expansion_contained(lam, bound_query(q, 1))
    assert result is None


def test_expansion_contained_tail_pattern():
    q = parse_ucrpq("?x -[a]-> ?y, ?x -[a*]-> ?z, ?z -[b]-> ?w")
    for n in (0, 2, 5):
        lam_atoms = [SuccinctAtom("x", ("a",), 1, "y")]
        if n:
            lam_atoms.append(SuccinctAtom("x", ("a",), n, "z"))
            lam_atoms.append(SuccinctAtom("z", ("b",), 1, "w"))
            variables = ("x", "y", "z", "w")
        else:
            # exponent 0 identifies x with z, leaving the b edge at x
            lam_atoms.append(SuccinctAtom("x", ("b",), 1, "w"))
            variables = ("x", "y", "w")
        lam = SuccinctCQ(variables, tuple(lam_atoms))
        result = expansion_contained(lam, bound_query(q, 1))
        assert isinstance(result, Contained), n


def test_expansion_contained_monotone_in_m():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    lam = SuccinctCQ(
        ("x", "y"),
        (SuccinctAtom("x", ("a",), 3, "y"), SuccinctAtom("x", ("b",), 1, "y")),
    )
    hits = [
        isinstance(expansion_contained(lam, bound_query(q, m)), Contained)
        for m in range(0, 6)
    ]
    assert hits == sorted(hits)  # once contained, stays contained
    assert hits[3] and not hits[2]


def test_expansion_contained_witness_maps_into_canonical():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    lam = SuccinctCQ(
        ("x", "y"),
        (SuccinctAtom("x", ("a",), 1, "y"), SuccinctAtom("x", ("b",), 1, "y")),
    )
    result = expansion_contained(lam, bound_query(q, 2))
    assert isinstance(result, Contained)
    hom = result.hom
    target = materialize(lam)
    witness_cq = materialize(result.expansion)
    for atom in witness_cq.atoms:
        assert hom[atom.src] in target.variables
        assert hom[atom.dst] in target.variables


def test_expansion_contained_against_starful_right_side():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y, ?x -[c*]-> ?w")
    lam_atoms = (
        SuccinctAtom("x", ("a",), 1, "y"),
        SuccinctAtom("x", ("b",), 1, "y"),
        SuccinctAtom("x", ("c",), 9, "w"),
    )
    lam = SuccinctCQ(("x", "y", "w"), lam_atoms)
    from crpqbound.expansion import bound_letters

    rhs = bound_letters(q, {"c"}, 2)
    assert isinstance(expansion_contained(lam, rhs), Contained)



def test_expansion_contained_yields_expansion_of_rhs():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    rhs = bound_query(q, 2)
    lam = SuccinctCQ(
        ("x", "y"),
        (SuccinctAtom("x", ("a",), 2, "y"), SuccinctAtom("x", ("b",), 1, "y")),
    )
    result = expansion_contained(lam, rhs)
    assert isinstance(result, Contained)
    rendered = {
        tuple(sorted((a.src, "".join(a.word), a.exponent, a.dst) for a in e.atoms))
        for d in rhs.disjuncts
        for e in enumerate_expansions(d, {})
    }
    found = tuple(
        sorted((a.src, "".join(a.word), a.exponent, a.dst) for a in result.expansion.atoms)
    )
    assert found in rendered


def _random_label(rng, depth=0):
    word = tuple(rng.choice("ab") for _ in range(rng.randint(1, 2)))
    kinds = ["letter", "power", "powerle", "eps"]
    if depth == 0:
        kinds += ["union", "concat", "star", "star"]
    kind = rng.choice(kinds)
    if kind == "letter":
        return Letter(rng.choice("ab"))
    if kind == "power":
        return Power(word, rng.randint(0, 4))
    if kind == "powerle":
        return PowerLE(word, rng.randint(0, 3))
    if kind == "eps":
        return Epsilon()
    if kind == "star":
        return Star(word)
    parts = tuple(_random_label(rng, depth + 1) for _ in range(rng.randint(2, 3)))
    return union(parts) if kind == "union" else concat(parts)


def _random_right_side(rng):
    disjuncts = []
    for _ in range(rng.randint(1, 2)):
        pool = ("u", "v", "t")[: rng.randint(2, 3)]
        atoms = [
            EdgeAtom(rng.choice(pool), _random_label(rng), rng.choice(pool))
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.15:
            atoms.append(EqualityAtom(pool[0], pool[1]))
        disjuncts.append(CRPQ(tuple(atoms)))
    return UCRPQ(tuple(disjuncts))


def _realizes(result, canonical):
    """Each atom of the recovered expansion is a path between the images
    that Contained.hom names in the materialized canonical database."""
    out = {}
    for a in canonical.atoms:
        out.setdefault((a.src, a.symbol), set()).add(a.dst)
    for a in result.expansion.atoms:
        frontier = {result.hom[a.src]}
        for s in a.word * a.exponent:
            frontier = set().union(*(out.get((u, s), ()) for u in frontier))
        if result.hom[a.dst] not in frontier:
            return False
    return True


def test_expansion_contained_matches_evaluation_on_materialized_left():
    # left sides have 1-4 atoms over 2-4 variables and exponents 0-5, so
    # length-1 atoms, self-loops, parallel and exponent-0 atoms all occur
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for i in range(400):
        lam = gen_random_succinct_cq(rng, max_exp=5)
        q = _random_right_side(rng)
        canonical = materialize(lam)
        want = eval_on_graph(q, graph_of_cq(canonical))
        result = expansion_contained(lam, q)
        assert isinstance(result, Contained) == want, (i, lam, q)
        if want:
            assert set(result.hom.values()) <= set(canonical.variables), (i, lam, q)
            assert _realizes(result, canonical), (i, lam, q)
        seen[want] += 1
    assert min(seen.values()) > 100


def test_contained_hom_names_interior_positions_as_materialize_does():
    q = parse_ucrpq("?u -[a^3]-> ?v, ?u -[a^4]-> ?w")
    lam = SuccinctCQ(("x", "y"), (SuccinctAtom("x", ("a",), 4, "y"),))
    assert expansion_contained(lam, q).hom == {"u": "x", "v": "z3", "w": "y"}
    # a variable that looks like a midpoint name lengthens the prefix
    lam = SuccinctCQ(("y", "z1"), (SuccinctAtom("z1", ("a",), 4, "y"),))
    result = expansion_contained(lam, q)
    assert result.hom == {"u": "z1", "v": "zz3", "w": "y"}
    assert "zz3" in materialize(lam).variables


def _least_copies(edges, word, start, n):
    """{vertex: least k} over the vertices that reading word^k from start
    reaches in the letter graph edges, for k <= n (any k if n is None)."""
    least = {start: 0}
    frontier = frozenset((start,))
    seen = set()
    k = 0
    while (n is None or k < n) and frontier not in seen:
        seen.add(frontier)
        for s in word:
            frontier = frozenset(v for u in frontier for v in edges.get((u, s), ()))
        k += 1
        for v in frontier:
            least.setdefault(v, k)
    return least


def test_reach_along_powers_matches_materialized_walk():
    # atom and label words of length 1-4 make periods that disagree
    # late; the reference walks materialize's letter edges, reversed for bwd.
    # The last left sides have three-letter words with exponents in the
    # hundreds, read from a sample of sources, mostly deep inside an atom,
    # with labels that are often a rotation of an atom's word
    rng = random.Random(8)

    def word():
        return tuple(rng.choice("ab") for _ in range(rng.randint(1, 4)))

    for i in range(154):
        pool = ("x", "y", "z")[: rng.randint(1, 3)]
        deep = i >= 150
        atoms = tuple(
            SuccinctAtom(
                rng.choice(pool),
                tuple(rng.choices("ab", k=3)) if deep else word(),
                rng.randint(100, 400) if deep else rng.randint(0, 5),
                rng.choice(pool),
            )
            for _ in range(rng.randint(1, 2 if deep else 4))
        )
        lam = normalize_succinct(SuccinctCQ(pool, atoms))
        canonical = materialize(lam)
        names = canonical.variables
        fwd_edges, bwd_edges = {}, {}
        for a in canonical.atoms:
            fwd_edges.setdefault((a.src, a.symbol), set()).add(a.dst)
            bwd_edges.setdefault((a.dst, a.symbol), set()).add(a.src)
        db = _CanonicalDB(lam)
        assert list(db.vertices) == list(range(len(names)))
        longest = max(a.length for a in lam.atoms) if lam.atoms else 0
        sources = rng.sample(range(len(names)), 6) if deep else range(len(names))
        for _ in range(3):
            w = word()
            if deep:
                if rng.random() < 0.7:
                    aw = rng.choice(lam.atoms).word
                    r = rng.randrange(len(aw))
                    w = (aw[r:] + aw[:r]) * rng.randint(1, 2)
                n = rng.choice((None, rng.randint(2, longest // len(w)), longest // len(w) + 1))
            else:
                n = rng.choice((None, 0, 1, 2, longest // len(w) + rng.randint(1, 3)))
            label = Star(w) if n is None else PowerLE(w, n)
            for index, edges in ((db.fwd, fwd_edges), (db.bwd, bwd_edges)):
                for u in sources:
                    name = names[u]
                    least = _least_copies(edges, w, name, n)
                    got = {names[v] for v in index.reach(label, u)}
                    assert got == set(least), (i, lam, label, name)
                    targets = rng.sample(names, min(3, len(names)))
                    targets += rng.sample(sorted(least), min(3, len(least)))
                    for t in targets:
                        k = index.steps_to(w, u, names.index(t), n)
                        assert k == least.get(t), (i, lam, label, name, t)


def _exact_copies(edges, word, start, n):
    """The vertices that reading exactly n copies of word from start
    reaches in the letter graph edges."""
    frontier = {start}
    for _ in range(n):
        for s in word:
            frontier = {v for u in frontier for v in edges.get((u, s), ())}
    return frontier


def test_reach_along_exact_powers_matches_materialized_walk():
    # cycles through one to three variables (a self-loop when one), at
    # times with one more atom, of up to 80 copies; most labels are a
    # rotation of an atom's word, so copies run deep into atoms, and with n
    # up to 300 walks go round the cycles
    rng = random.Random(24)
    for i in range(60):
        lam = gen_cyclic_succinct_cq(rng, max_exp=80)
        canonical = materialize(lam)
        names = canonical.variables
        fwd_edges, bwd_edges = {}, {}
        for a in canonical.atoms:
            fwd_edges.setdefault((a.src, a.symbol), set()).add(a.dst)
            bwd_edges.setdefault((a.dst, a.symbol), set()).add(a.src)
        db = _CanonicalDB(lam)
        for _ in range(4):
            w = tuple(rng.choices("ab", k=rng.randint(1, 3)))
            if rng.random() < 0.7:
                aw = rng.choice(lam.atoms).word
                r = rng.randrange(len(aw))
                w = (aw[r:] + aw[:r]) * rng.randint(1, 2)
            label = Power(w, rng.randint(0, 300))
            for index, edges in ((db.fwd, fwd_edges), (db.bwd, bwd_edges)):
                for u in rng.sample(range(len(names)), min(6, len(names))):
                    want = _exact_copies(edges, w, names[u], label.exponent)
                    got = {names[v] for v in index.reach(label, u)}
                    assert got == want, (i, lam, label, names[u])


def test_self_loop_rotation_maps_to_interior_position():
    # a closed walk through an interior position reads its whole atom, so
    # the rotation aba of the loop x -[aab]-> x fits only from inside it
    lam = SuccinctCQ(("x",), (SuccinctAtom("x", ("a", "a", "b"), 1, "x"),))
    assert expansion_contained(lam, parse_ucrpq("?u -[aba]-> ?u")).hom == {"u": "z1"}
    for text in ("?u -[ab]-> ?u", "?u -[aba]-> ?u, ?u -[b]-> ?v"):
        assert expansion_contained(lam, parse_ucrpq(text)) is None


def test_closed_walk_rule_at_its_boundary():
    # x -[(ab)^3]-> x is a six-letter atom; u lies on a closed walk of
    # b and the second label, which fits inside the atom only from z1
    lam = SuccinctCQ(("x",), (SuccinctAtom("x", ("a", "b"), 3, "x"),))
    cases = (
        ("?u -[b]-> ?v, ?v -[(ab)^2 a]-> ?u", "z1"),  # exactly six letters
        ("?u -[b]-> ?v, ?v -[(ab)^<=2 a]-> ?u", "z1"),  # the longest word bounds it
        ("?u -[b]-> ?v, ?v -[(ab)^<=1 a]-> ?u", None),
        ("?u -[b a]-> ?v, ?v -[(ba)*]-> ?u", "z1"),  # a star bounds no walk
        ("?u -[b]-> ?v, ?v -[a (ba)*]-> ?u", "z1"),  # nor does a star inside a label
    )
    for text, image in cases:
        result = expansion_contained(lam, parse_ucrpq(text))
        assert (result and result.hom["u"]) == image, text
    # a cycle of nullable atoms alone may spell the empty word
    lam = SuccinctCQ(("x", "y"), (SuccinctAtom("x", ("a",), 5, "y"),))
    q = parse_ucrpq("?u -[a^<=2]-> ?v, ?v -[a^<=1]-> ?u, ?t -[a a]-> ?u, ?u -[a a]-> ?s")
    assert expansion_contained(lam, q).hom["u"] == "z2"


def test_long_cycle_probe_reads_no_label_inside_the_long_atom(monkeypatch):
    # y -[a^<=81]-> x -[a]-> y spells at most 82 letters, so neither y nor
    # x is tried inside the 244-letter atom: one a^<=81 read from each
    # variable, where trying every position read 245
    copies = _PathIndex._copies
    calls = []

    def counted(self, *args):
        calls.append(args)
        return copies(self, *args)

    monkeypatch.setattr(_PathIndex, "_copies", counted)
    lam = SuccinctCQ(("x", "y"), (
        SuccinctAtom("x", ("a",), 1, "y"), SuccinctAtom("y", ("a",), 244, "x"),
    ))
    q = bound_query(parse_ucrpq("?y -[a*]-> ?z, ?y -[a*]-> ?x, ?x -[a]-> ?y"), 81)
    assert expansion_contained(lam, q) is None
    assert len(calls) <= 4


def _random_cycle_label(rng, kind):
    word = tuple(rng.choice("ab") for _ in range(rng.randint(1, 2)))
    if kind == "star":
        return Star(word)
    if kind == "nullable":
        return rng.choice((PowerLE(word, rng.randint(0, 6)), Epsilon()))
    return rng.choice((
        Letter(rng.choice("ab")),
        Power(word, rng.randint(1, 8)),
        concat((Letter(rng.choice("ab")), PowerLE(word, rng.randint(0, 8)))),
        union((Power(word, rng.randint(1, 5)), Letter(rng.choice("ab")))),
    ))


def _random_cyclic_right_side(rng):
    """A directed cycle through one to three variables, whose labels are all
    non-nullable, or one is a star, or all are nullable; at times an atom
    off the cycle."""
    pool = ("u", "v", "t")[: rng.randint(1, 3)]
    kinds = ["solid"] * len(pool)
    shape = rng.random()
    if shape < 0.2:
        kinds[rng.randrange(len(pool))] = "star"
    elif shape < 0.35:
        kinds = ["nullable"] * len(pool)
    elif shape < 0.5:
        kinds[rng.randrange(len(pool))] = "nullable"
    atoms = [
        EdgeAtom(pool[i], _random_cycle_label(rng, kind), pool[(i + 1) % len(pool)])
        for i, kind in enumerate(kinds)
    ]
    if rng.random() < 0.4:
        atoms.append(EdgeAtom(rng.choice(pool), _random_cycle_label(rng, "solid"), "s"))
    if rng.random() < 0.4:
        atoms.append(EdgeAtom("r", _random_cycle_label(rng, "solid"), rng.choice(pool)))
    return UCRPQ((CRPQ(tuple(atoms)),))


def _left_cycle_and_a_walk_around_it(rng):
    """A left cycle, and a right-side cycle through one to three variables
    that reads the left cycle's word once from a random rotation, each
    label spelling its piece among other words."""
    cycle = gen_cycle(rng, 30)
    word = gen_rotated_cycle_word(rng, cycle)
    cuts = sorted(rng.sample(range(1, len(word)), min(len(word) - 1, rng.randint(0, 2))))
    pieces = [word[i:j] for i, j in zip([0, *cuts], [*cuts, len(word)])]

    def label(piece):
        if len(piece) > 1 and rng.random() < 0.3:
            # spells piece, and words as short as one letter
            return concat((Letter(piece[0]), PowerLE(piece[1:], rng.randint(1, 3))))
        if rng.random() < 0.3:
            return union((Power(piece, 1), Letter(rng.choice("ab"))))
        return Power(piece, 1)

    right = ("u", "v", "t")[: len(pieces)]
    atoms = tuple(
        EdgeAtom(v, label(p), right[(i + 1) % len(right)])
        for i, (v, p) in enumerate(zip(right, pieces))
    )
    q = UCRPQ((CRPQ(atoms),))
    lam = SuccinctCQ(tuple(sorted({a.src for a in cycle})), cycle)
    return normalize_succinct(lam), q


def test_cyclic_right_sides_match_evaluation_on_materialized_left():
    # left atoms of up to 60 letters against closed walks of a few to about
    # 40 letters, so atoms fall on both sides of each bound; a walk once
    # around a left cycle meets its bound at a loop atom's length
    rng = random.Random(19)
    seen = {"contained": 0, "not contained": 0, "atom past a bound": 0,
            "bounded variable inside an atom": 0}
    for i in range(300):
        pick = rng.random()
        if pick < 0.35:
            lam, q = _left_cycle_and_a_walk_around_it(rng)
        else:
            if pick < 0.8:
                lam = gen_cyclic_succinct_cq(rng, max_exp=30)
            else:
                lam = gen_random_succinct_cq(rng, max_exp=30)
            q = _random_cyclic_right_side(rng)
        closed = RightSide(q).disjuncts[0].closed
        canonical = materialize(lam)
        want = eval_on_graph(q, graph_of_cq(canonical))
        result = expansion_contained(lam, q)
        assert isinstance(result, Contained) == want, (i, lam, q)
        seen["contained" if want else "not contained"] += 1
        if any(a.length > bound for a in lam.atoms for bound in closed.values()):
            seen["atom past a bound"] += 1
        if want:
            assert _realizes(result, canonical), (i, lam, q)
            if any(result.hom[v] not in lam.variables for v in closed):
                seen["bounded variable inside an atom"] += 1
    assert min(seen.values()) > 20, seen


def _having_by_scan(canonical, forward, symbols):
    """having by its definition, on materialize's letter edges: every
    vertex with an edge out of it (forward) or into it reading one of symbols."""
    vertex = {v: u for u, v in enumerate(canonical.variables)}
    return frozenset(
        vertex[a.src if forward else a.dst] for a in canonical.atoms if a.symbol in symbols
    )


def _random_domain(rng):
    """Up to three variables below 10, and up to five ranges above them
    that often overlap, of mixed steps."""
    variables = frozenset(rng.sample(range(10), rng.randint(0, 3)))
    ranges = []
    for _ in range(rng.randint(0, 5)):
        start, step = rng.randint(10, 70), rng.randint(1, 7)
        ranges.append(range(start, start + step * rng.randint(1, 12), step))
    return variables, ranges


def test_domain_operations_match_sets():
    rng = random.Random(31)
    for i in range(3000):
        (va, ra), (vb, rb) = _random_domain(rng), _random_domain(rng)
        sa, sb = set(va).union(*ra), set(vb).union(*rb)
        a, b = Domain.union(va, ra), Domain.union(vb, rb)
        for dom, want in ((a, sa), (a & b, sa & sb)):
            assert list(dom) == sorted(want), (i, ra, rb)
            assert len(dom) == len(want) and bool(dom) == bool(want), (i, ra, rb)
            starts = [r.start for r in dom.ranges]
            assert starts == sorted(starts) and len(dom.variables) + sum(map(len, dom.ranges)) == len(want)
        u = rng.randint(0, 100)
        assert (u in a) == (u in sa), (i, ra, u)


def test_having_matches_a_scan_of_every_position():
    rng = random.Random(12)
    seen = set()
    for i in range(300):
        pool = ("x", "y", "z")[: rng.randint(1, 3)]
        atoms = []
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
            atoms.append(SuccinctAtom(rng.choice(pool), word, rng.randint(0, 5), rng.choice(pool)))
        lam = normalize_succinct(SuccinctCQ(pool, tuple(atoms)))
        db = _CanonicalDB(lam)
        canonical = materialize(lam)
        for a in lam.atoms:
            seen.add("long word" if len(a.word) >= 2 else "one letter word")
            seen.add("exponent 1" if a.exponent == 1 else "exponent 2+")
            if a.length == 1:
                seen.add("atom without span")
        if any(sum(s in a.word for a in lam.atoms) >= 2 for s in "abc"):
            seen.add("symbol in several atoms")
        for symbols in (frozenset(), frozenset(rng.choice("abc")), frozenset(rng.sample("abc", 2))):
            for index, forward in ((db.fwd, True), (db.bwd, False)):
                want = _having_by_scan(canonical, forward, symbols)
                assert set(index.having(symbols)) == want, (i, lam, symbols)
    assert len(seen) == 6, seen


def test_canonical_db_is_built_per_atom_not_per_letter():
    # (ab)^499999 c has 10^6 vertices; tables of one letter per position took 16 MiB
    lam = normalize_succinct(SuccinctCQ(("x", "y", "z"), (
        SuccinctAtom("x", ("a", "b"), 499999, "y"), SuccinctAtom("y", ("c",), 1, "z"),
    )))
    tracemalloc.start()
    try:
        db = _CanonicalDB(lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(db.vertices) == 10**6
    assert peak < 2**20


def test_exact_power_is_read_in_a_bounded_number_of_copy_walks(monkeypatch):
    # the copies of ab run through the 2*10^5-letter atom, so one walk
    # enters it, one jump crosses it and one walk leaves it
    walk_word = _PathIndex.walk_word
    calls = []

    def counted(self, *args):
        calls.append(args)
        return walk_word(self, *args)

    monkeypatch.setattr(_PathIndex, "walk_word", counted)
    lam = SuccinctCQ(("x", "y"), (SuccinctAtom("x", ("a", "b"), 100000, "y"),))
    q = parse_ucrpq("?u -[(ab)^100000]-> ?v")
    assert expansion_contained(lam, q).hom == {"u": "x", "v": "y"}
    assert len(calls) <= 4


def test_long_check_builds_no_set_of_positions():
    # (ab)^n c against (ab)^<=2n then c at n = 10^6: the reach set along
    # (ab)^<=2n and the candidates of its source are one range each
    n = 10**6
    lam = SuccinctCQ(("x", "y", "z"), (
        SuccinctAtom("x", ("a", "b"), n, "y"), SuccinctAtom("y", ("c",), 1, "z"),
    ))
    q = parse_ucrpq(f"?u -[(ab)^<={2 * n}]-> ?v, ?v -[c]-> ?w")
    caps = replace(DEFAULT_CAPS, max_materialized_atoms=4 * n)
    tracemalloc.start()
    try:
        result = expansion_contained(lam, q, caps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.hom == {"v": "y", "u": "x", "w": "z"}
    assert peak < 2**20


GOLDEN_HOMS = Path(__file__).parent / "data" / "contained_homs.json"


def _golden_cases():
    """Seeded (left side, right side) pairs: random left sides against
    random right sides, then probe expansions of random a-star queries
    against their bounded right sides, as the boundedness checks pose them."""
    rng = random.Random(41)
    for _ in range(300):
        yield gen_random_succinct_cq(rng, max_exp=5), _random_right_side(rng)
    rng = random.Random(42)
    for _ in range(150):
        q = some_stars_over_b(gen_random_crpq_astar(rng), rng)
        z = compute_bounds(q).z
        rhs = bound_query(q, z) if rng.random() < 0.5 else bound_letters(q, {"a"}, z)
        d = q.disjuncts[0]
        stars = [j for j, a in enumerate(d.edge_atoms) if isinstance(a.label, Star)]
        for _ in range(3 if stars else 1):
            values = [rng.choice((0, 1, z, z + 1, 2 * z + 1)) for _ in stars]
            dom = {i: (v,) for i, v in zip(stars, values)}
            for lam in enumerate_expansions(d, dom):
                yield lam, rhs


def _render_expansion(scq):
    """Each atom as src -[word^exponent]-> dst, exponent-0 atoms included."""
    return ", ".join(
        f"?{a.src} -[({''.join(a.word) or 'eps'})^{a.exponent}]-> ?{a.dst}"
        for a in scq.atoms
    )


def _golden_records():
    """Per case, None when not contained, else the homomorphism's (variable,
    vertex name) pairs in the order the search assigned them and the
    rendered right-side expansion it realizes."""
    records = []
    for lam, rhs in _golden_cases():
        result = expansion_contained(lam, rhs)
        if isinstance(result, Contained):
            records.append([list(result.hom.items()), _render_expansion(result.expansion)])
        else:
            records.append(None)
    return records


def test_chosen_homomorphisms_match_the_golden_file():
    # written by _golden_records from the search without forward
    # checking; rewriting it from the current code would pin nothing
    want = json.loads(GOLDEN_HOMS.read_text())
    got = json.loads(json.dumps(_golden_records()))
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (i, g, w)
    assert sum(r is not None for r in want) > 300 and sum(r is None for r in want) > 50
