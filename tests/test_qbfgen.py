"""QBF instances, the query pair they compile to, and the low-exponent check."""

import itertools

import pytest

from crpqbound.boundedness import is_bounded
from crpqbound.expansion import bound_query, enumerate_expansions
from crpqbound.homomorphism import Contained, expansion_contained
from crpqbound.oracle import qbf_satisfiable, sampled_equivalence
from crpqbound.qbfgen import (
    QBF,
    build_q1,
    build_q2,
    capped_containment,
    clause_gadget,
    parse_qbf,
    reduction,
)
from crpqbound.syntax import (
    Letter,
    ParseError,
    Star,
    UCRPQ,
    render_ucrpq,
    parse_ucrpq,
)

PHI = QBF(1, 1, ((1, 2, 2),))


def test_parse_render_roundtrip():
    assert parse_qbf("forall 1..1\nexists 2..2\n1 2 2 0\n") == PHI


def test_parse_count_form_header():
    text = "forall 1..2\nexists 1..1\n1 3 -2 0\n"
    assert parse_qbf(text) == QBF(2, 1, ((1, 3, -2),))


def test_parse_comments_and_blank_lines():
    text = "# instance\nforall 1..1\n\nexists 2..2  # one y\n1 2 2\n"
    assert parse_qbf(text) == PHI


def test_parse_rejects_clause_before_headers():
    with pytest.raises(ParseError):
        parse_qbf("1 2 2 0\nforall 1..1\nexists 2..2\n")


@pytest.mark.parametrize("clause, literal", [("1 0 2", 0), ("1 2 -3 0", -3)])
def test_parse_rejects_literal_out_of_range_on_its_line(clause, literal):
    with pytest.raises(ParseError) as err:
        parse_qbf(f"forall 1..1\nexists 2..2\n1 2 2\n{clause}\n")
    assert err.value.line == 4
    assert str(err.value) == f"literal out of range: {literal} (line 4, col 1)"


def test_qbf_validates_literals():
    with pytest.raises(ValueError):
        QBF(1, 1, ((1, 2, 5),))
    with pytest.raises(ValueError):
        QBF(1, 1, ((1, 2),))


def test_q1_shape():
    q1 = build_q1(PHI)
    assert len(q1.atoms) == 75
    labels = [a.label for a in q1.atoms]
    assert sum(1 for s in labels if isinstance(s, Star)) == PHI.n
    # five roots, each with an s self-loop
    loops = [a for a in q1.atoms if a.src == a.dst]
    assert len(loops) == 5


def test_clause_gadget_ports():
    atoms = clause_gadget(PHI, 1, (1, 2, 2))
    # each literal's variable edge leaves one point of the root's j-chain
    literal_edges = [
        a for a in atoms if isinstance(a.label, Letter) and a.label.symbol[0] in "xy"
    ]
    assert [(a.src, a.label.symbol) for a in literal_edges] == [
        ("c1", "x1"), ("c1_j1", "y1"), ("c1_j2", "y1")
    ]
    ports = [a.dst for a in literal_edges]
    assert ports == ["c1_p1", "c1_p2", "c1_p3"]
    # and ends in a port that a pattern's b-edge enters
    assert all(any(a.dst == p and a.label == Letter("b") for a in atoms) for p in ports)


def test_q2_one_gadget_per_clause():
    phi = QBF(1, 1, ((1, 2, 2), (-1, 2, 2)))
    q2 = build_q2(phi)
    single = len(clause_gadget(phi, 1, phi.clauses[0]))
    assert len(q2.atoms) == 2 * single


def test_q2_requires_clauses():
    with pytest.raises(ValueError):
        build_q2(QBF(1, 1, ()))


def test_reduction_is_disjoint_union():
    q = reduction(PHI)
    assert len(q.atoms) == 88
    assert q.atoms[: len(build_q1(PHI).atoms)] == build_q1(PHI).atoms


def test_reduction_without_clauses_is_q1():
    phi = QBF(1, 1, ())
    assert reduction(phi) == build_q1(phi)


def test_reduction_stays_in_fragment():
    q = reduction(PHI)
    for a in q.atoms:
        assert isinstance(a.label, Letter) or (
            isinstance(a.label, Star) and len(a.label.word) == 1
        )


def test_reduction_renders_and_reparses():
    q = reduction(PHI)
    text = render_ucrpq(UCRPQ((q,)))
    back = parse_ucrpq(text)
    assert len(back.disjuncts[0].atoms) == len(q.atoms)


def _all_clause_multisets():
    lits = (1, -1, 2, -2)
    seen = set()
    for combo in itertools.combinations_with_replacement(lits, 3):
        seen.add(tuple(sorted(combo)))
    return sorted(seen)


def test_capped_containment_matches_solver_on_all_single_clauses():
    multisets = _all_clause_multisets()
    assert len(multisets) == 20
    for clause in multisets:
        phi = QBF(1, 1, (clause,))
        assert capped_containment(phi) == qbf_satisfiable(phi), clause


def test_q1_alone_is_bounded_evidence():
    q1 = UCRPQ((build_q1(PHI),))
    d = q1.disjuncts[0]
    star_idx = [i for i, a in enumerate(d.edge_atoms) if isinstance(a.label, Star)]
    rhs = bound_query(q1, 1)
    for m in range(5):
        dom = dict.fromkeys(star_idx, (m,))
        for lam in enumerate_expansions(d, dom):
            assert isinstance(expansion_contained(lam, rhs), Contained), m


def test_q1_sampled_equivalence_with_bound_one():
    q1 = UCRPQ((build_q1(PHI),))
    verdict = sampled_equivalence(
        q1,
        bound_query(q1, 1),
        trials=10,
        graph_size=5,
        seed=2,
        canonical_exponents=(0, 1, 2),
    )
    assert verdict.kind == "agree"


def test_reduction_scale_is_inconclusive_not_wrong():
    report = is_bounded(UCRPQ((reduction(PHI),)))
    assert report.verdict == "inconclusive"
    assert "budget" in report.inconclusive_reason
