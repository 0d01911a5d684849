"""Brute-force ground truth: evaluation, sampling, and the QBF solver."""

import random
import time

import pytest

from conftest import gen_random_crpq_astar, join_case_problems
from crpqbound.expansion import CQ, CQAtom, ExponentDomain, cq_hom, enumerate_expansions, materialize
from crpqbound.oracle import (
    GraphDB,
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
from crpqbound.syntax import parse_ucrpq


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


def test_canonical_database_property():
    rng = random.Random(31)
    for _ in range(25):
        q = gen_random_crpq_astar(rng)
        d = q.disjuncts[0]
        star_idx = [
            i for i, a in enumerate(d.atoms) if a.label.__class__.__name__ == "Star"
        ]
        dom = ExponentDomain(tuple((i, (0, 1, 3)) for i in star_idx))
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
