"""Succinct automata: products, length reachability, membership."""

import random
from dataclasses import replace
from graphlib import CycleError, TopologicalSorter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen_random_snfa, gen_random_word
from crpqbound.config import DEFAULT_CAPS
from crpqbound.errors import CapExceeded, ParseError
from crpqbound.oracle import nfa_membership_brute
from crpqbound.succinct_nfa import (
    SNFATransition,
    SuccinctNFA,
    _cycle_head,
    _reachable,
    build_product,
    length_reach,
    membership,
    normalize,
    parse_nfa,
)


def _nfa(transitions, initial, finals, states=None):
    if states is None:
        states = tuple(
            dict.fromkeys(
                [initial, *finals]
                + [t.src for t in transitions]
                + [t.dst for t in transitions]
            )
        )
    return SuccinctNFA(tuple(states), tuple(transitions), initial, tuple(finals))



def test_build_product_exact_match():
    nfa = _nfa([SNFATransition("p", ("a", "b"), 2, "f")], "p", ["f"])
    product = build_product(nfa, ("a", "b"))
    assert membership(nfa, ("a", "b"), 2)
    phase_zero = [s for s in product.states if s.endswith("@0")]
    assert phase_zero


def test_build_product_wrong_letter_prunes():
    nfa = _nfa([SNFATransition("p", ("b",), 1, "f")], "p", ["f"])
    product = build_product(nfa, ("a",))
    assert not product.transitions


def test_build_product_even_power_split():
    nfa = _nfa([SNFATransition("p", ("a",), 6, "f")], "p", ["f"])
    assert membership(nfa, ("a", "a"), 3)


def _reads_along(w, n, i, v):
    """Read w^n copy by copy, letter by letter, along v's stream from phase
    i.  Once a copy starts at a phase some earlier copy started at, the
    rest repeats what was read already."""
    started = set()
    for _ in range(n):
        if i in started:
            return True
        started.add(i)
        for s in w:
            if s != v[i]:
                return False
            i = (i + 1) % len(v)
    return True


def test_build_product_matches_a_letter_by_letter_read():
    rng = random.Random(18)
    deep = {True: 0, False: 0}  # past the Fine-Wilf window, by answer
    for _ in range(400):
        v = tuple(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        transitions = set()
        for src, dst in (("p", "q"), ("q", "q"), ("q", "f")):
            # words cut from v's stream, one letter sometimes flipped
            start, size = rng.randrange(len(v)), rng.randint(1, 7)
            w = [v[(start + k) % len(v)] for k in range(size)]
            if rng.random() < 0.4:
                k = rng.randrange(size)
                w[k] = "b" if w[k] == "a" else "a"
            n = rng.randint(1, 12) if rng.random() < 0.5 else rng.randint(1, 10**9)
            transitions.add(SNFATransition(src, tuple(w), n, dst))
        nfa = _nfa(sorted(transitions), "p", ["f"])
        want = set()
        for t in nfa.transitions:
            window = len(t.word) + len(v) - gcd(len(t.word), len(v))
            for i in range(len(v)):
                ok = _reads_along(t.word, t.exponent, i, v)
                if t.length > window:
                    deep[ok] += 1
                if ok:
                    j = (i + t.length) % len(v)
                    want.add(SNFATransition(f"{t.src}@{i}", t.word, t.exponent, f"{t.dst}@{j}"))
        assert set(build_product(nfa, v).transitions) == want, (nfa, v)
    assert min(deep.values()) > 100, deep


def test_product_soundness_sampled():
    rng = random.Random(5)
    for _ in range(60):
        nfa = gen_random_snfa(rng, max_states=3, max_word=2, max_exp=4)
        v = gen_random_word(rng, max_len=2)
        for m in range(5):
            got = membership(nfa, v, m)
            want = nfa_membership_brute(nfa, v, m)
            assert got == want, (repr(nfa), v, m)


def test_membership_examples():
    one = _nfa([SNFATransition("p", ("a", "b"), 2, "f")], "p", ["f"])
    assert membership(one, ("a", "b"), 2)
    six = _nfa([SNFATransition("p", ("a",), 6, "f")], "p", ["f"])
    assert membership(six, ("a", "a"), 3)
    three = _nfa([SNFATransition("p", ("a", "b"), 3, "f")], "p", ["f"])
    assert not membership(three, ("a", "b"), 2)
    chain = _nfa(
        [
            SNFATransition("p", ("a", "b"), 2, "q"),
            SNFATransition("q", ("a",), 1, "r"),
            SNFATransition("r", ("b",), 1, "f"),
        ],
        "p",
        ["f"],
    )
    assert membership(chain, ("a", "b"), 3)


def test_membership_zero_exponent_is_epsilon_test():
    eps_in = _nfa([SNFATransition("p", ("a",), 0, "f")], "p", ["f"])
    assert membership(eps_in, ("a",), 0)
    eps_out = _nfa([SNFATransition("p", ("a",), 2, "f")], "p", ["f"])
    assert not membership(eps_out, ("a",), 0)


def test_membership_huge_exponent_stays_symbolic():
    nfa = _nfa([SNFATransition("p", ("a",), 10**12, "f")], "p", ["f"])
    assert membership(nfa, ("a",), 10**12)
    assert not membership(nfa, ("a",), 10**12 + 1)


def test_length_reach_examples():
    single = _nfa([SNFATransition("p", ("a",), 6, "f")], "p", ["f"])
    assert length_reach(single, 6)
    assert not length_reach(single, 5)
    loop = _nfa([SNFATransition("p", ("a", "a"), 1, "p")], "p", ["p"])
    assert not length_reach(loop, 7)
    assert length_reach(loop, 8)
    coin = _nfa(
        [
            SNFATransition("p", ("a",), 3, "p"),
            SNFATransition("p", ("a",), 5, "p"),
        ],
        "p",
        ["p"],
    )
    assert not length_reach(coin, 7)
    assert length_reach(coin, 8)


def _self_loops(gens):
    """One state whose self-loops have lengths ``gens``: it accepts exactly
    the lengths of the numerical semigroup those lengths generate."""
    return _nfa([SNFATransition("p", ("a",), g, "p") for g in gens], "p", ["p"])


def test_length_reach_matches_semigroup_dp():
    generators = (3, 5)
    loops = _self_loops(generators)
    reachable = {0}
    for _ in range(40):
        reachable |= {r + g for r in reachable for g in generators}
    for target in range(0, 50):
        assert length_reach(loops, target) == (target in reachable)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=60),
)
def test_semigroup_membership_is_sound(gens, target):
    loops = _self_loops(gens)
    sums = {0}
    for _ in range(70):
        new = {s + g for s in sums for g in gens if s + g <= 70}
        if new <= sums:
            break
        sums |= new
    assert length_reach(loops, target) == (target in sums)


def test_normalize_removes_zero_transitions():
    nfa = _nfa(
        [
            SNFATransition("p", (), 0, "q"),
            SNFATransition("q", ("a",), 1, "f"),
        ],
        "p",
        ["f"],
    )
    norm = normalize(nfa)
    assert all(t.exponent > 0 for t in norm.transitions)
    assert membership(nfa, ("a",), 1)


def test_parse_render_roundtrip():
    text = "initial: p\nfinals: q r\np -[(ab)^13]-> q\nq -[a]-> r\nr -[eps]-> p\n"
    want = _nfa(
        [
            SNFATransition("p", ("a", "b"), 13, "q"),
            SNFATransition("q", ("a",), 1, "r"),
            SNFATransition("r", (), 0, "p"),
        ],
        "p",
        ["q", "r"],
        states=("p", "q", "r"),
    )
    assert parse_nfa(text) == want


def test_label_error_names_its_place_in_the_file():
    text = "initial: p\nfinals: q\n# a label with an open parenthesis\nq -[(ab]-> p\n"
    with pytest.raises(ParseError) as err:
        parse_nfa(text)
    assert (err.value.line, err.value.col) == (4, 8)
    assert str(err.value) == "expected ')' (at end of input) (line 4, col 8)"


@pytest.mark.parametrize(
    "text, want",
    [
        ("initial: p q\nfinals: f\np -[a]-> f\n", "bad state name 'p q' (line 1, col 10)"),
        ("initial: p\nfinals: f$\np -[a]-> f\n", "bad state name 'f$' (line 2, col 9)"),
        ("initial: p\n  finals: q, f$ # c\np -[a]-> f\n", "bad state name 'f$' (line 2, col 14)"),
        ("initial: l:\nfinals: f\nl -[a]-> f\n", "bad state name 'l:' (line 1, col 10)"),
        (
            "initial: p\nfinals: f\n  p -[a*]-> f\n",
            "transition label must be a word, a power, or eps (line 3, col 7)",
        ),
    ],
)
def test_automaton_errors_name_their_place_on_the_line(text, want):
    with pytest.raises(ParseError) as err:
        parse_nfa(text)
    assert str(err.value) == want


def test_differential_mini():
    rng = random.Random(1234)
    for _ in range(150):
        nfa = gen_random_snfa(rng)
        v = gen_random_word(rng)
        m = rng.randint(0, 16)
        assert membership(nfa, v, m) == nfa_membership_brute(nfa, v, m)


def test_seeded_differential_up_to_m_2000():
    rng = random.Random(2024)
    for _ in range(200):
        nfa = gen_random_snfa(rng)
        v = gen_random_word(rng)
        m = rng.randint(0, 2000)
        assert membership(nfa, v, m) == nfa_membership_brute(nfa, v, m), (repr(nfa), v, m)


def test_length_reach_matches_brute_force_on_unary_cycles():
    # one letter, so the product is the automaton itself and every m poses
    # length_reach directly; short transitions make cycles through
    # several states, self-loops and walks that avoid a cycle common
    rng = random.Random(77)
    for _ in range(300):
        states = [f"q{i}" for i in range(rng.randint(1, 4))]
        transitions = [
            SNFATransition(rng.choice(states), ("a",), rng.randint(1, 6), rng.choice(states))
            for _ in range(rng.randint(1, 3 * len(states)))
        ]
        finals = [q for q in states if rng.random() < 0.4] or [states[-1]]
        nfa = _nfa(transitions, rng.choice(states), finals, states=states)
        for m in range(40):
            want = nfa_membership_brute(nfa, ("a",), m)
            assert membership(nfa, ("a",), m) == want, (repr(nfa), m)


def test_membership_answers_and_stops_as_the_named_product_search():
    # membership searches an integer product, length_reach the named one
    # build_product makes: the same answer, or a cap stop on both
    rng = random.Random(29)
    seen = {True: 0, False: 0, None: 0}  # decided yes, decided no, cap stop
    for k in range(300):
        # one-letter words and v in every other draw, so cycles match v often
        nfa = gen_random_snfa(rng, max_word=3 if k % 2 else 1)
        v = gen_random_word(rng, max_len=3 if k % 2 else 1)
        m = rng.randint(0, 40)
        want = nfa_membership_brute(nfa, v, m)
        for cap in (1, 2, 3, None):
            caps = DEFAULT_CAPS if cap is None else replace(DEFAULT_CAPS, max_length_dp=cap)
            got = []
            for ask in (
                lambda: membership(nfa, v, m, caps),
                lambda: length_reach(build_product(nfa, v), m * len(v), caps),
            ):
                try:
                    got.append(ask())
                except CapExceeded:
                    got.append(None)
            assert got[0] == got[1], (repr(nfa), v, m, cap)
            assert got[0] in (want, None), (repr(nfa), v, m, cap)
            seen[got[0]] += 1
    assert min(seen.values()) >= 5, seen


def test_cycle_head_finds_a_state_on_a_cycle_exactly_when_there_is_one():
    # graphlib only says whether the live graph has a cycle; the state
    # returned must be live and reach itself by at least one edge
    rng = random.Random(41)
    found = 0
    for _ in range(2000):
        size = rng.randint(1, 8)
        pairs = rng.randint(0, 2 * size)
        edges = [(rng.randrange(size), rng.randrange(size)) for _ in range(pairs)]
        live = set(rng.sample(range(size), rng.randint(1, size)))
        adj = {q: [(x, 1) for u, x in edges if u == q and x in live] for q in live}
        try:
            TopologicalSorter({q: [x for x, _ in adj[q]] for q in live}).prepare()
            cyclic = False
        except CycleError:
            cyclic = True
        p = _cycle_head(adj)
        assert (p is not None) == cyclic, (edges, live)
        if p is not None:
            found += 1
            assert p in live and p in _reachable([x for x, _ in adj[p]], adj, live)
    assert found > 500


def test_membership_cap_surfaces():
    # the accepted lengths are k*(10**12 + 1) + 1: the cycle is far longer
    # than the residue cap, yet both answers are exact and no cap is hit
    nfa = _nfa(
        [
            SNFATransition("p", ("a",), 10**12, "q"),
            SNFATransition("q", ("a",), 1, "p"),
            SNFATransition("p", ("a",), 1, "f"),
        ],
        "p",
        ["f"],
    )
    assert membership(nfa, ("a",), 10**11) is False
    assert membership(nfa, ("a",), 10**12 + 2) is True


def test_residue_table_cap_fires():
    # p's shortest closed walk is 3, and the loops reach p at lengths 0, 7
    # and 14, one per residue mod 3; the target 15 = 14 + 1 is found only
    # after p's residue table holds all three, past a cap of 2
    nfa = _nfa(
        [
            SNFATransition("p", ("a",), 7, "p"),
            SNFATransition("p", ("a",), 3, "p"),
            SNFATransition("p", ("a",), 1, "f"),
        ],
        "p",
        ["f"],
    )
    with pytest.raises(CapExceeded, match="residue table too large"):
        length_reach(nfa, 15, replace(DEFAULT_CAPS, max_length_dp=2))
    assert length_reach(nfa, 15, replace(DEFAULT_CAPS, max_length_dp=3)) is True


def test_acyclic_length_set_cap_fires():
    # f is reached with lengths 1 and 2: the target 3 is neither, so the
    # answer no comes only after f holds both, past a cap of 1
    nfa = _nfa(
        [SNFATransition("i", ("a",), 1, "f"), SNFATransition("i", ("a",), 2, "f")],
        "i",
        ["f"],
    )
    with pytest.raises(CapExceeded, match="residue table too large"):
        length_reach(nfa, 3, replace(DEFAULT_CAPS, max_length_dp=1))
    assert length_reach(nfa, 3, replace(DEFAULT_CAPS, max_length_dp=2)) is False
    # the target 2 is met as f's second length is found, before f holds it
    assert length_reach(nfa, 2, replace(DEFAULT_CAPS, max_length_dp=1)) is True


def test_acyclic_membership_matches_brute_force_under_both_caps():
    # chains with parallel transitions and skip edges: every length comes
    # from the initial state's search, whose lengths max_length_dp bounds
    rng = random.Random(31)
    tight = replace(DEFAULT_CAPS, max_length_dp=3)
    decided = skipped = 0
    for _ in range(300):
        steps = rng.randint(1, 5)
        transitions = []
        for i in range(steps):
            targets = [i + 1] * rng.randint(1, 3)
            if i + 2 <= steps and rng.random() < 0.5:
                targets.append(i + 2)
            transitions += [
                SNFATransition(f"q{i}", ("a",), rng.randint(0, 20), f"q{j}") for j in targets
            ]
        nfa = _nfa(transitions, "q0", [f"q{steps}"], states=[f"q{i}" for i in range(steps + 1)])
        for m in rng.sample(range(101), 10):
            want = nfa_membership_brute(nfa, ("a",), m)
            assert membership(nfa, ("a",), m) == want, (repr(nfa), m)
            try:
                assert membership(nfa, ("a",), m, tight) == want, (repr(nfa), m)
                decided += 1
            except CapExceeded:
                skipped += 1
    assert decided and skipped
