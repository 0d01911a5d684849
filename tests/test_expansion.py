"""Bounded queries, expansion enumeration, and materialization."""

import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest

from crpqbound import boundedness
from crpqbound.config import DEFAULT_CAPS
from crpqbound.errors import CapExceeded
from crpqbound.expansion import (
    CQ,
    SuccinctAtom,
    SuccinctCQ,
    bound_letters,
    bound_query,
    choice_lists,
    enumerate_expansions,
    materialize,
    normalize_succinct,
    render_succinct_cq,
    ssf_words,
    star_free_choice_count,
    succinct_cq_from_crpq,
)
from crpqbound.syntax import (
    CRPQ,
    EdgeAtom,
    EqualityAtom,
    Letter,
    Power,
    PowerLE,
    Star,
    collapse,
    parse_ucrpq,
    render_ucrpq,
)


def _single_label(q):
    return q.disjuncts[0].atoms[0].label


def test_bound_query_replaces_stars():
    q = parse_ucrpq("?x -[(ab)*]-> ?y")
    assert _single_label(bound_query(q, 2)) == PowerLE(("a", "b"), 2)


def test_bound_query_star_free_identity():
    q = parse_ucrpq("?x -[ab]-> ?y, ?y -[c^4]-> ?z")
    assert bound_query(q, 7) == q


def test_bound_query_at_zero():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    out = bound_query(q, 0)
    labels = [a.label for a in out.disjuncts[0].atoms]
    assert labels == [PowerLE(("a",), 0), Letter("b")]


def test_bound_letters_restricts_to_set():
    q = parse_ucrpq("?x -[a*]-> ?y, ?z -[b*]-> ?w")
    out = bound_letters(q, {"a"}, 3)
    labels = [a.label for a in out.disjuncts[0].atoms]
    assert labels == [PowerLE(("a",), 3), Star(("b",))]


def test_bound_letters_empty_set_identity():
    q = parse_ucrpq("?x -[a*]-> ?y, ?z -[b*]-> ?w")
    assert bound_letters(q, set(), 5) == q


def test_bound_letters_full_alphabet_matches_bound_query():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b*]-> ?z")
    assert bound_letters(q, {"a", "b"}, 4) == bound_query(q, 4)



def test_enumerate_single_star():
    q = parse_ucrpq("?x -[a*]-> ?y").disjuncts[0]
    dom = {0: (0, 1, 2)}
    lams = list(enumerate_expansions(q, dom))
    assert len(lams) == 3
    assert lams[0].atoms == ()  # collapsed point
    assert lams[1].atoms == (SuccinctAtom("x", ("a",), 1, "y"),)
    assert lams[2].atoms == (SuccinctAtom("x", ("a",), 2, "y"),)


def test_enumerate_union_label_branches():
    q = parse_ucrpq("?x -[a+b]-> ?y").disjuncts[0]
    lams = list(enumerate_expansions(q, {}))
    assert len(lams) == 2


def test_enumerate_exponent_zero_collapses():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y").disjuncts[0]
    dom = {0: (0, 1)}
    lams = list(enumerate_expansions(q, dom))
    assert len(lams) == 2
    zero = lams[0]
    # x and y identified, so the b atom becomes a self-loop pattern
    assert zero.atoms == (SuccinctAtom("x", ("b",), 1, "x"),)


def test_enumeration_is_lexicographic_and_counted():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b^<=1]-> ?z").disjuncts[0]
    dom = {0: (0, 1)}
    lams = list(enumerate_expansions(q, dom))
    assert len(lams) == 4
    exponents = [tuple(a.exponent for a in lam.atoms) for lam in lams]
    assert exponents == sorted(exponents)


def test_enumerate_above_keeps_order_of_filtered_product():
    # the boundedness walk visits the probe vectors, those with a probed
    # atom above z, in the order of the whole product; its star choices
    # come from a plain tuple, from _decide's probe axis or from full
    # mode's range, and the product runs over the same choices listed
    q = parse_ucrpq(
        "?x -[a*]-> ?y, ?y -[b^<=1]-> ?z, ?z -[c*]-> ?w, ?w -[d*]-> ?x"
    ).disjuncts[0]
    for z in (0, 1, 2):
        for values, plain in (
            ((0, 1, 2, 5), (0, 1, 2, 5)),
            (boundedness._ProbeAxis(z, 5), (*range(z + 1), 5)),
            (range(6), tuple(range(6))),
        ):
            lists = choice_lists(q, dict.fromkeys((0, 2, 3), values))
            listed = [[(w, e) for e in plain] for w in (("a",), ("b",), ("c",), ("d",))]
            listed[1] = [(("b",), 0), (("b",), 1)]
            everything = list(itertools.product(*listed))
            for probed in ({0}, {2}, {0, 2}, {0, 3}, {0, 2, 3}):
                want = [v for v in everything if any(v[i][1] > z for i in probed)]
                got = list(boundedness._probe_vectors(lists, probed, z))
                assert got == want, (probed, z, plain)


def test_enumerate_cap_raises():
    q = parse_ucrpq("?x -[a*]-> ?y").disjuncts[0]
    dom = {0: range(10)}
    with pytest.raises(CapExceeded):
        list(enumerate_expansions(q, dom, cap=5))


def test_materialize_unrolls_power():
    lam = SuccinctCQ(("x", "y"), (SuccinctAtom("x", ("a", "b"), 2, "y"),))
    cq = materialize(lam)
    symbols = [a.symbol for a in cq.atoms]
    assert symbols == ["a", "b", "a", "b"]
    assert cq.atoms[0].src == "x"
    assert cq.atoms[-1].dst == "y"


def test_materialize_empty_is_isolated_variable():
    lam = SuccinctCQ(("x",), ())
    cq = materialize(lam)
    assert cq.variables == ("x",)
    assert cq.atoms == ()


def test_materialize_cap():
    lam = SuccinctCQ(("x", "y"), (SuccinctAtom("x", ("a",), 6, "y"),))
    with pytest.raises(CapExceeded):
        materialize(lam, caps=replace(DEFAULT_CAPS, max_materialized_atoms=5))


def test_succinct_text_roundtrips_through_query_grammar():
    lam = SuccinctCQ(
        ("x", "y", "z"),
        (SuccinctAtom("x", ("a", "b"), 5, "y"), SuccinctAtom("y", ("a",), 1, "z")),
    )
    text = render_succinct_cq(lam)
    q = parse_ucrpq(text)
    assert q.disjuncts[0].atoms[0].label == Power(("a", "b"), 5)


def _raw_succinct_cq(rng, symbols=("a", "b", "x1", "yy")):
    """A succinct CQ as enumeration builds it, before normalization: zero
    exponents, repeated atoms and multi-character symbols included."""
    pool = ("x", "y", "z", "u", "v", "w")[: rng.randint(2, 6)]
    atoms = []
    for _ in range(rng.randint(1, 6)):
        word = tuple(rng.choice(symbols) for _ in range(rng.randint(1, 3)))
        exponent = rng.choice((0, 0, 1, 2, 3, 10**9))
        atoms.append(SuccinctAtom(rng.choice(pool), word, exponent, rng.choice(pool)))
    return SuccinctCQ(pool, tuple(atoms))


def test_normalize_succinct_identifies_like_collapse():
    # a zero-length atom identifies its endpoints, as an equality atom does
    rng = random.Random(31)
    for _ in range(300):
        lam = _raw_succinct_cq(rng)
        if all(a.length == 0 for a in lam.atoms):
            continue  # collapse needs an edge atom
        query = CRPQ(
            tuple(
                EdgeAtom(a.src, Power(a.word, a.exponent), a.dst)
                if a.length
                else EqualityAtom(a.src, a.dst)
                for a in lam.atoms
            )
        )
        want = {(a.src, a.label, a.dst) for a in collapse(query).edge_atoms}
        norm = normalize_succinct(lam)
        assert {(a.src, Power(a.word, a.exponent), a.dst) for a in norm.atoms} == want, lam


def test_succinct_text_roundtrips_with_quoted_symbols():
    rng = random.Random(32)
    for _ in range(300):
        norm = normalize_succinct(_raw_succinct_cq(rng))
        text = render_succinct_cq(norm)
        back = normalize_succinct(succinct_cq_from_crpq(parse_ucrpq(text).disjuncts[0]))
        # the text names only the variables that atoms touch
        assert back.atoms == norm.atoms, text
        assert set(back.variables) <= set(norm.variables), text
    quoted = SuccinctCQ(("x", "y"), (SuccinctAtom("x", ("x1", "a"), 2, "y"),))
    assert render_succinct_cq(quoted) == "?x -[('x1' a)^2]-> ?y"


def test_normalize_succinct_drops_zero_exponents():
    lam = SuccinctCQ(
        ("x", "y", "z"),
        (SuccinctAtom("x", ("a",), 0, "y"), SuccinctAtom("y", ("b",), 2, "z")),
    )
    norm = normalize_succinct(lam)
    assert all(a.exponent > 0 for a in norm.atoms)
    # x and y merged
    assert len(norm.variables) == 2


def test_star_free_choice_count_matches_enumeration():
    for text, want in [
        ("?x -[a]-> ?y", 1),
        ("?x -[a^<=4]-> ?y", 5),
        ("?x -[a+b]-> ?y", 2),
        ("?x -[(a+b)(a+b)]-> ?y", 4),
        ("?x -[a^9]-> ?y", 1),
    ]:
        q = parse_ucrpq(text).disjuncts[0]
        label = q.atoms[0].label
        assert star_free_choice_count(label) == want
        assert len(list(enumerate_expansions(q, {}))) == want
    # counted without listing, so a word spelled twice counts twice
    q = parse_ucrpq("?x -[a+a]-> ?y").disjuncts[0]
    assert star_free_choice_count(q.atoms[0].label) == 2
    assert len(list(enumerate_expansions(q, {}))) == 1


def test_concat_language_cap_fires_before_the_product_is_built():
    # the full product holds (n+1)^2 words of up to 2n+1 letters; at n=3000
    # even listing each bounded power's words alone would take 69 MB
    for n in (350, 3000):
        label = _single_label(parse_ucrpq(f"?x -[a^<={n} b^<={n} c]-> ?y"))
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="concat language too large"):
                ssf_words(label)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, n


def test_concat_word_length_cap():
    label = _single_label(parse_ucrpq("?x -[a^6 b^5]-> ?y"))
    with pytest.raises(CapExceeded, match="concat word too long"):
        ssf_words(label, replace(DEFAULT_CAPS, max_word_len=10))
    assert ssf_words(label, replace(DEFAULT_CAPS, max_word_len=11)) == [
        ("a",) * 6 + ("b",) * 5
    ]


def test_bound_query_monotone_expansion_sets():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    small = bound_query(q, 1).disjuncts[0]
    large = bound_query(q, 3).disjuncts[0]
    lam_small = {
        render_succinct_cq(lam)
        for lam in enumerate_expansions(small, {})
    }
    lam_large = {
        render_succinct_cq(lam)
        for lam in enumerate_expansions(large, {})
    }
    assert lam_small <= lam_large


def test_rendered_queries_stay_parseable():
    q = parse_ucrpq("?x -[(ab)^<=3]-> ?y | ?x -[c*]-> ?z")
    assert parse_ucrpq(render_ucrpq(bound_query(q, 2))) == bound_query(q, 2)
