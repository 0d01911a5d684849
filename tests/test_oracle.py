"""Brute-force ground truth: evaluation, sampling, and the QBF solver."""

import hashlib
import json
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    _JOIN_LABELS,
    gen_random_crpq_astar,
    gen_random_graph,
    gen_random_label,
    join_case_problems,
    relation_case_problems,
)
from crpqbound.config import DEFAULT_CAPS
from crpqbound.errors import CapExceeded
from crpqbound.expansion import (
    CQ,
    CQAtom,
    SuccinctAtom,
    SuccinctCQ,
    cq_hom,
    enumerate_expansions,
    materialize,
)
from crpqbound.oracle import (
    GraphDB,
    _atom_relation,
    _star_ceiling,
    eval_on_graph,
    graph_of_cq,
    load_graph_csv,
    nfa_membership_brute,
    qbf_satisfiable,
    sampled_equivalence,
)
from crpqbound.expansion import bound_query
from crpqbound.qbfgen import QBF
from crpqbound.succinct_nfa import SNFATransition, SuccinctNFA
from crpqbound.syntax import parse_regex, parse_ucrpq, render_regex


def _nfa(transitions, initial, finals):
    states = tuple(
        dict.fromkeys(
            [initial, *finals]
            + [t.src for t in transitions]
            + [t.dst for t in transitions]
        )
    )
    return SuccinctNFA(states, tuple(transitions), initial, tuple(finals))


def test_brute_membership_examples():
    six = _nfa([SNFATransition("p", ("a",), 6, "f")], "p", ["f"])
    assert nfa_membership_brute(six, ("a", "a"), 3)
    assert nfa_membership_brute(six, ("a",), 0) is False
    loopless = _nfa([SNFATransition("p", ("a", "b"), 3, "f")], "p", ["f"])
    assert not nfa_membership_brute(loopless, ("a", "b"), 2)


def test_brute_membership_epsilon():
    nfa = _nfa([SNFATransition("p", ("a",), 1, "p")], "p", ["p"])
    assert nfa_membership_brute(nfa, ("a",), 0)


def test_eval_single_edge_star_holds():
    db = GraphDB(("u", "v"), (("u", "a", "v"),))
    assert eval_on_graph(parse_ucrpq("?x -[a*]-> ?y"), db)


def test_eval_single_edge_wrong_letter():
    db = GraphDB(("u", "v"), (("u", "a", "v"),))
    assert not eval_on_graph(parse_ucrpq("?x -[b]-> ?y"), db)


def test_eval_cycle_with_chord():
    db = GraphDB(
        ("c0", "c1", "c2"),
        (
            ("c0", "a", "c1"),
            ("c1", "a", "c2"),
            ("c2", "a", "c0"),
            ("c0", "b", "c0"),
        ),
    )
    assert eval_on_graph(parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y"), db)


def test_eval_empty_graph_never_holds():
    db = GraphDB((), ())
    assert not eval_on_graph(parse_ucrpq("?x -[a*]-> ?y"), db)


def test_eval_handles_equalities_and_unions():
    db = GraphDB(("u",), (("u", "a", "u"),))
    q = parse_ucrpq("?x -[a]-> ?y, ?x = ?y | ?x -[b]-> ?y")
    assert eval_on_graph(q, db)


def test_join_matches_naive_enumeration():
    # eval_on_graph and cq_hom share one join; both must match trying every assignment
    rng = random.Random(13)
    problems = [p for _ in range(300) for p in join_case_problems(rng)]
    assert not problems, problems[:3]


def test_atom_relations_match_relation_algebra():
    # the oracle reads a label over vertex sets; naive_relation composes relations
    rng = random.Random(19)
    problems = [p for _ in range(300) for p in relation_case_problems(rng)]
    assert not problems, problems[:3]


def test_join_backtracks_past_an_arc_consistent_dead_end():
    # with x = p0, y and z keep two values each and every pair stays arc
    # consistent, yet b (equal) and c (unequal) leave no solution
    edges = (
        ("p0", "a", "q0"), ("p0", "a", "q1"), ("q0", "b", "q0"), ("q1", "b", "q1"),
        ("q0", "c", "q1"), ("q1", "c", "q0"), ("p1", "a", "r"), ("r", "b", "r"),
        ("r", "c", "r"),
    )
    db = GraphDB(("p0", "p1", "q0", "q1", "r"), edges)
    atoms = (["x", "a", "y"], ["x", "a", "z"], ["y", "b", "z"], ["y", "c", "z"])
    assert eval_on_graph(parse_ucrpq(", ".join(f"?{x} -[{s}]-> ?{y}" for x, s, y in atoms)), db)
    src = CQ(("x", "y", "z"), tuple(CQAtom(*a) for a in atoms))
    dst = CQ(db.vertices, tuple(CQAtom(*e) for e in edges))
    assert cq_hom(src, dst) == {"x": "p1", "y": "r", "z": "r"}


def test_long_cycle_query_is_evaluated_by_propagation():
    # ten alternating a/b atoms closed by (ab)*: tens of seconds without propagation
    rng = random.Random(5)
    vertices = tuple(f"v{i}" for i in range(60))
    edges = set()
    while len(edges) < 150:
        edges.add((rng.choice(vertices), rng.choice("ab"), rng.choice(vertices)))
    atoms = [f"?x{i} -[{'ab'[i % 2]}]-> ?x{i + 1}" for i in range(10)]
    q = parse_ucrpq(", ".join(atoms + ["?x10 -[(ab)*]-> ?x0"]))
    t0 = time.perf_counter()
    assert eval_on_graph(q, GraphDB(vertices, tuple(edges)))
    assert time.perf_counter() - t0 < 1.0


GOLDEN_RELATIONS = Path(__file__).parent / "data" / "atom_relations.json"


def _golden_graphs(rng):
    """Random graphs over a, b and 'x1' of 1-9 vertices at densities
    0.05-0.5, then paths and cycles materialized from word powers of up to
    about 200 vertices, the last two over bcc."""
    graphs = [gen_random_graph(rng, 9) for _ in range(40)]
    words = [tuple(rng.choice(("a", "b", "x1")) for _ in range(rng.randint(1, 3)))
             for _ in range(10)] + [("b", "c", "c")] * 2
    for i, word in enumerate(words):
        end = "x" if i % 2 else "y"
        atom = SuccinctAtom("x", word, rng.randint(1, 200 // len(word)), end)
        graphs.append(graph_of_cq(materialize(SuccinctCQ(("x", "y"), (atom,)))))
    return graphs


def _golden_relation_cases():
    """Seeded (label, graph index) pairs: each random label on three random
    graphs and one power graph, the join labels on every graph, and three
    long powers on the power graphs and on five random graphs."""
    rng = random.Random(23)
    graphs = _golden_graphs(rng)
    cases = []
    for _ in range(250):
        label = gen_random_label(rng)
        for g in rng.sample(range(40), 3) + [rng.randrange(40, len(graphs))]:
            cases.append((label, g))
    cases += [(parse_regex(t), g) for t in _JOIN_LABELS for g in range(len(graphs))]
    cases += [
        (parse_regex(t), g)
        for t in ("(bcc)^<=576", "(bcc)*", "a^2000")
        for g in list(range(5)) + list(range(40, len(graphs)))
    ]
    return graphs, cases


def _relation_outcome(label, db, max_length_dp):
    """The pair count and the first 16 hex digits of the SHA-256 of the
    sorted pairs, or the cap message."""
    try:
        rel = _atom_relation(label, db, replace(DEFAULT_CAPS, max_length_dp=max_length_dp))
    except CapExceeded as exc:
        return str(exc)
    pairs = sorted([u, v] for u, vs in rel.items() for v in vs)
    return [len(pairs), hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16]]


def _golden_relation_records():
    """Per case, the rendered label, the graph index and the outcome under
    max_length_dp 4, 10 and 10^6."""
    graphs, cases = _golden_relation_cases()
    return [
        [render_regex(label), g, [_relation_outcome(label, graphs[g], c) for c in (4, 10, 10**6)]]
        for label, g in cases
    ]


def test_atom_relations_match_the_golden_file():
    # written by _golden_relation_records from the letter-automaton
    # product search; rewriting it from the current code would pin nothing
    want = json.loads(GOLDEN_RELATIONS.read_text())
    got = json.loads(json.dumps(_golden_relation_records()))
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (i, g, w)
    outcomes = [o for r in want for o in r[2]]
    assert sum(isinstance(o, str) for o in outcomes) > 300
    assert sum(isinstance(o, list) and o[0] > 0 for o in outcomes) > 3000


def test_canonical_database_property():
    rng = random.Random(31)
    for _ in range(25):
        q = gen_random_crpq_astar(rng)
        d = q.disjuncts[0]
        star_idx = [
            i for i, a in enumerate(d.atoms) if a.label.__class__.__name__ == "Star"
        ]
        dom = dict.fromkeys(star_idx, (0, 1, 3))
        for lam in enumerate_expansions(d, dom):
            db = graph_of_cq(materialize(lam))
            if not db.vertices:
                continue
            assert eval_on_graph(q, db), (q, lam)


def test_csv_roundtrip(tmp_path):
    db = GraphDB(("v1", "v0"), (("v1", "a", "v0"), ("v0", "b", "v1")))
    path = tmp_path / "g.csv"
    path.write_text("src,label,dst\nv1,a,v0\nv0,b,v1\n")
    assert load_graph_csv(path) == db


def test_csv_header_optional(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("u,a,v\nv,b,u\n")
    db = load_graph_csv(path)
    assert set(db.vertices) == {"u", "v"}
    assert ("u", "a", "v") in db.edges


def test_graphdb_canonicalizes_order():
    a = GraphDB(("v1", "v0"), (("v1", "a", "v0"), ("v0", "b", "v1")))
    b = GraphDB(("v0", "v1"), (("v0", "b", "v1"), ("v1", "a", "v0")))
    assert a == b


def test_sampled_equivalence_self():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    verdict = sampled_equivalence(q, q, trials=20, graph_size=4, seed=1)
    assert verdict.kind == "agree"


def test_sampled_equivalence_detects_unbounded_gap():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    verdict = sampled_equivalence(q, bound_query(q, 16), trials=5, graph_size=4, seed=1)
    assert verdict.kind == "disagree"
    db = verdict.instance
    assert eval_on_graph(q, db) != eval_on_graph(bound_query(q, 16), db)
    # the separating graph is the canonical database of the a^17 expansion
    assert sum(1 for (_, s, _) in db.edges if s == "a") == 17


def test_sampled_equivalence_disagreement_replays():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    v1 = sampled_equivalence(q, bound_query(q, 16), trials=5, graph_size=4, seed=9)
    v2 = sampled_equivalence(q, bound_query(q, 16), trials=5, graph_size=4, seed=9)
    assert v1.kind == v2.kind == "disagree"
    assert v1.instance == v2.instance


def test_star_ceiling_falls_back_on_nested_stars():
    # compute_bounds refuses a star inside a concatenation; the ceiling
    # then assumes Z = 8 for that query
    nested = parse_ucrpq("?x -[a b*]-> ?y")
    assert _star_ceiling(nested, nested) == 10
    assert _star_ceiling(nested, parse_ucrpq("?x -[a]-> ?y")) == 10


def test_qbf_examples():
    sat = QBF(1, 1, ((1, 2, 2),))
    unsat = QBF(1, 1, ((1, 1, 1),))
    empty = QBF(1, 1, ())
    assert qbf_satisfiable(sat)
    assert not qbf_satisfiable(unsat)
    assert qbf_satisfiable(empty)


def test_qbf_negative_literals():
    # forall x exists y (~x or ~y or ~y): y := ~x satisfies
    assert qbf_satisfiable(QBF(1, 1, ((-1, -2, -2),)))
    # forall x (~x or ~x or ~x) fails at x = true
    assert not qbf_satisfiable(QBF(1, 0, ((-1, -1, -1),)))


def test_qbf_size_limit():
    with pytest.raises(ValueError):
        qbf_satisfiable(QBF(15, 15, ((1, 2, 3),)))
