"""The boundedness decision, bounds arithmetic, and letter analyses."""

import itertools
import random
from dataclasses import replace

import pytest

from conftest import gen_random_crpq_astar, some_stars_over_b
from crpqbound import boundedness
from crpqbound.config import DEFAULT_CAPS
from crpqbound.expansion import (
    ExponentDomain,
    bound_letters,
    bound_query,
    enumerate_expansions,
    materialize,
    render_succinct_cq,
)
from crpqbound.homomorphism import Contained, NotContained, expansion_contained
from crpqbound.boundedness import (
    compute_bounds,
    is_bounded,
    is_bounded_in,
    maximal_bounded_letters,
    per_disjunct_bounds,
)
from crpqbound.oracle import eval_on_graph, graph_of_cq
from crpqbound.syntax import (
    Star,
    alphabet,
    collapse,
    parse_ucrpq,
    star_letters,
)

TIGHT = replace(DEFAULT_CAPS, max_expansions=2000)


def test_bounds_profile_a_star_b():
    b = compute_bounds(parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y"))
    assert (b.nratoms, b.nrvars, b.n_len) == (2, 2, 1)
    assert b.rec_words == (("a",),)
    assert (b.z_red, b.z_col, b.z, b.z_plus) == (1, 4, 16, 33)


def test_bounds_profile_star_free_empty_product():
    b = compute_bounds(parse_ucrpq("?x -[ab]-> ?y, ?y -[c]-> ?z"))
    assert b.rec_words == ()
    assert b.z_red == 1
    assert b.z == b.nratoms**3 * b.n_len * b.nrvars


def test_bounds_profile_figure_shape():
    b = compute_bounds(parse_ucrpq("?x -[(aba)*]-> ?y, ?x -[(aba)^3]-> ?z"))
    assert (b.nratoms, b.nrvars, b.n_len, b.z_red) == (2, 3, 9, 3)
    assert b.z == 648


def test_bounds_union_takes_max_disjunct():
    q = parse_ucrpq("?x -[a]-> ?y | ?x -[(aba)*]-> ?y, ?x -[(aba)^3]-> ?z")
    per = per_disjunct_bounds(q)
    assert len(per) == 2
    assert compute_bounds(q).z == max(p.z for p in per)


def test_claim_query_bounded_with_rewriting():
    report = is_bounded(parse_ucrpq("?x -[a]-> ?y, ?x -[a*]-> ?z, ?z -[b]-> ?w"))
    assert report.verdict == "bounded"
    assert report.bounds.z == 108
    assert report.rewriting is not None
    assert not star_letters(report.rewriting)


def test_a_star_b_unbounded_witness():
    report = is_bounded(parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y"))
    assert report.verdict == "unbounded"
    assert report.bounds.z == 16
    assert report.bounds.z_plus == 33
    exps = sorted(a.exponent for a in report.witness.atoms)
    assert exps == [1, 33]


def test_star_free_query_bounded_identity_rewriting():
    q = parse_ucrpq("?x -[ab]-> ?y")
    report = is_bounded(q)
    assert report.verdict == "bounded"
    assert report.rewriting == q


def test_single_star_atom_bounded():
    report = is_bounded(parse_ucrpq("?x -[a*]-> ?y"))
    assert report.verdict == "bounded"
    assert report.mode["shortcut"] == "nullable-disjunct"


def test_rewrite_returns_bound_query():
    q = parse_ucrpq("?x -[a]-> ?y, ?x -[a*]-> ?z, ?z -[b]-> ?w")
    assert is_bounded(q).rewriting == bound_query(q, 108)


def test_witness_reconfirmed_by_materialized_oracle():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    report = is_bounded(q)
    db = graph_of_cq(materialize(report.witness))
    assert eval_on_graph(q, db)
    assert not eval_on_graph(bound_query(q, report.bounds.z), db)


def test_bounded_side_soundness_probe_past_z():
    q = parse_ucrpq("?x -[a]-> ?y, ?x -[a*]-> ?z, ?z -[b]-> ?w")
    report = is_bounded(q)
    assert report.verdict == "bounded"
    z = report.bounds.z
    rhs = bound_query(q, z)
    d = q.disjuncts[0]
    star_idx = [i for i, a in enumerate(d.atoms) if a.label.__class__.__name__ == "Star"]
    for m in range(z + 1, z + 6):
        dom = ExponentDomain(tuple((i, (m,)) for i in star_idx))
        for lam in enumerate_expansions(d, dom):
            assert isinstance(expansion_contained(lam, rhs), Contained), m


def test_is_bounded_in_empty_set_trivial():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    report = is_bounded_in(q, set())
    assert report.verdict == "bounded"
    assert report.rewriting == q


def test_is_bounded_in_parallel_stars_not_single_bounded():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b*]-> ?y")
    report = is_bounded_in(q, {"a"})
    assert report.verdict == "bounded"  # the all-zero expansion maps anywhere
    assert maximal_bounded_letters(q).letters == frozenset({"a", "b"})


def test_is_bounded_in_leaf_star():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y, ?x -[c*]-> ?w")
    assert is_bounded_in(q, {"c"}).verdict == "bounded"
    assert is_bounded_in(q, {"a"}).verdict == "unbounded"


def test_maximal_letters_examples():
    disjoint = parse_ucrpq("?x -[a*]-> ?y, ?z -[b*]-> ?w")
    assert maximal_bounded_letters(disjoint).letters == frozenset({"a", "b"})
    leafy = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y, ?x -[c*]-> ?w")
    assert maximal_bounded_letters(leafy).letters == frozenset({"c"})
    star_free = parse_ucrpq("?x -[ab]-> ?y")
    assert maximal_bounded_letters(star_free).letters == frozenset(alphabet(star_free))


def test_letter_monotonicity_on_samples():
    rng = random.Random(21)
    for _ in range(25):
        q = gen_random_crpq_astar(rng)
        full = is_bounded_in(q, {"a"}, TIGHT)
        if full.verdict == "bounded":
            sub = is_bounded_in(q, set(), TIGHT)
            assert sub.verdict == "bounded"


def test_full_alphabet_consistency_on_samples():
    rng = random.Random(22)
    checked = 0
    for _ in range(40):
        q = gen_random_crpq_astar(rng)
        stars = star_letters(q)
        a = is_bounded(q, TIGHT)
        b = is_bounded_in(q, stars, TIGHT)
        if "inconclusive" in (a.verdict, b.verdict):
            continue
        assert a.verdict == b.verdict, q
        checked += 1
    assert checked >= 30


def test_confluence_union_of_bounded_letters():
    rng = random.Random(23)
    for _ in range(25):
        q = gen_random_crpq_astar(rng)
        result = maximal_bounded_letters(q, TIGHT)
        if result.inconclusive:
            continue
        union_report = is_bounded_in(q, result.letters, TIGHT)
        assert union_report.verdict == "bounded", q


def test_maximal_letters_report_keeps_each_letter_run():
    rng = random.Random(24)
    verdicts = set()
    for _ in range(40):
        q = some_stars_over_b(gen_random_crpq_astar(rng, 4, 0.6), rng)
        report = maximal_bounded_letters(q, TIGHT)
        assert [a for a, _ in report.per_letter] == sorted(star_letters(q))
        for a, run in report.per_letter:
            fresh = is_bounded_in(q, {a}, TIGHT)
            assert (run.verdict, run.witness, run.rewriting) == (
                fresh.verdict, fresh.witness, fresh.rewriting
            ), q
            assert run.stats.expansions_checked == fresh.stats.expansions_checked
        letter_verdicts = [run.verdict for _, run in report.per_letter]
        if "inconclusive" in letter_verdicts:
            want = "inconclusive"
        elif "unbounded" in letter_verdicts:
            want = "unbounded"
        else:
            want = "bounded"
        assert report.verdict == want, q
        verdicts.add(want)
        bounded = {a for a, run in report.per_letter if run.verdict == "bounded"}
        assert report.letters == (bounded if report.per_letter else alphabet(q))
        assert report.inconclusive == {
            a for a, run in report.per_letter if run.verdict == "inconclusive"
        }
        assert report.stats.expansions_checked == sum(
            run.stats.expansions_checked for _, run in report.per_letter
        )
        assert (report.rewriting, report.witness) == (None, None)
        assert report.bounds == compute_bounds(q)
    assert verdicts == {"bounded", "unbounded", "inconclusive"}


def test_maximal_letters_verdict_is_the_gravest_letter_verdict(monkeypatch):
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b*]-> ?y")
    run = is_bounded_in(q, {"a"})
    grave = ("inconclusive", "unbounded", "bounded")
    for va, vb in itertools.product(grave, repeat=2):
        given = {"a": va, "b": vb}
        monkeypatch.setattr(
            boundedness,
            "is_bounded_in",
            lambda q, letters, *args: replace(run, verdict=given[min(letters)]),
        )
        report = maximal_bounded_letters(q)
        assert report.verdict == min((va, vb), key=grave.index)
        assert report.letters == {a for a, v in given.items() if v == "bounded"}
        assert report.inconclusive == {a for a, v in given.items() if v == "inconclusive"}


def test_trivial_direction_expansions_of_bound_are_expansions():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    z = 3
    rhs = bound_query(q, z)
    d_orig = q.disjuncts[0]
    dom = ExponentDomain(
        tuple(
            (i, tuple(range(z + 1)))
            for i, a in enumerate(d_orig.atoms)
            if a.label.__class__.__name__ == "Star"
        )
    )
    of_q = {render_succinct_cq(lam) for lam in enumerate_expansions(d_orig, dom)}
    of_rhs = {
        render_succinct_cq(lam)
        for d in rhs.disjuncts
        for lam in enumerate_expansions(d, ExponentDomain(()))
    }
    assert of_rhs <= of_q


def test_zplus_safe_mode_agrees_on_examples():
    for text, want in [
        ("?x -[a]-> ?y, ?x -[a*]-> ?z, ?z -[b]-> ?w", "bounded"),
        ("?x -[a*]-> ?y, ?x -[b]-> ?y", "unbounded"),
        ("?x -[ab]-> ?y", "bounded"),
    ]:
        report = is_bounded(parse_ucrpq(text), zplus_mode="safe")
        assert report.verdict == want
        assert report.bounds.z_plus == is_bounded(parse_ucrpq(text)).bounds.z_plus


def test_safe_probe_is_larger_and_recorded_in_mode():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    paper = is_bounded(q)
    safe = is_bounded(q, zplus_mode="safe")
    assert safe.mode["probe"] > paper.mode["probe"]
    assert safe.witness.atoms[0].exponent == safe.mode["probe"]


def test_full_enumeration_agrees_and_finds_earliest_witness():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    restricted = is_bounded(q)
    full = is_bounded(q, full_enumeration=True)
    assert restricted.verdict == full.verdict == "unbounded"
    full_exp = max(a.exponent for a in full.witness.atoms)
    restricted_exp = max(a.exponent for a in restricted.witness.atoms)
    assert full_exp == restricted.bounds.z + 1
    assert restricted_exp == restricted.bounds.z_plus


def test_unknown_zplus_mode_rejected():
    q = parse_ucrpq("?x -[a]-> ?y")
    with pytest.raises(ValueError):
        is_bounded(q, zplus_mode="fast")
    with pytest.raises(ValueError):
        is_bounded_in(q, {"a"}, zplus_mode="fast")


def test_budget_overflow_is_inconclusive_with_reason():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    report = is_bounded(q, replace(DEFAULT_CAPS, max_expansions=3))
    assert report.verdict == "inconclusive"
    assert "budget" in report.inconclusive_reason


def test_huge_bounds_precheck_is_instant_and_inconclusive():
    # ten anchored star atoms give a raw count far past any budget; the
    # arithmetic precheck must refuse without materializing domains
    atoms = ", ".join(f"?x -[a*]-> ?y{i}" for i in range(10))
    q = parse_ucrpq(atoms + ", ?x -[b]-> ?y0")
    report = is_bounded(q)
    assert report.verdict == "inconclusive"
    assert "budget" in report.inconclusive_reason


def test_verdicts_never_contradict_between_modes():
    rng = random.Random(29)
    for _ in range(20):
        q = gen_random_crpq_astar(rng)
        verdicts = {
            is_bounded(q, TIGHT).verdict,
            is_bounded(q, TIGHT, zplus_mode="safe").verdict,
        }
        concrete = verdicts - {"inconclusive"}
        assert len(concrete) <= 1, q


def test_star_free_cap_in_budget_count_is_inconclusive():
    # the budget count lists the star-free language, which can hit a cap
    q = parse_ucrpq("?x -[a^<=20 b^<=20 c]-> ?y, ?x -[c*]-> ?y")
    caps = replace(DEFAULT_CAPS, max_expansions=100)
    for report in (is_bounded(q, caps), is_bounded_in(q, {"c"}, caps)):
        assert report.verdict == "inconclusive"
        assert "concat language too large" in report.inconclusive_reason


def _enumerate_then_skip(q, letters, z, probe, full):
    """Reference loop: enumerate every combination, skip the trivial ones.

    An expansion is trivial when every atom over a capped word has an
    exponent of at most z.  Returns (verdict, witness, checks made).
    """
    qc = collapse(q)
    rhs = bound_letters(qc, letters, z)
    values = tuple(range(probe + 1)) if full else tuple(range(z + 1)) + (probe,)
    checks = 0
    for d in qc.disjuncts:
        dom = ExponentDomain(
            tuple(
                (i, values)
                for i, a in enumerate(d.edge_atoms)
                if isinstance(a.label, Star)
            )
        )
        for lam in enumerate_expansions(d, dom):
            if all(
                a.exponent <= z
                for a in lam.atoms
                if letters is None or (len(a.word) == 1 and a.word[0] in letters)
            ):
                continue
            checks += 1
            if isinstance(expansion_contained(lam, rhs), NotContained):
                return "unbounded", lam, checks
    return "bounded", None, checks


def test_probe_generator_matches_enumerate_then_skip():
    rng = random.Random(31)
    queries = [some_stars_over_b(gen_random_crpq_astar(rng), rng) for _ in range(60)]
    # one variable keeps Z small enough for two stars within the budget
    queries += [
        parse_ucrpq("?x -[a*]-> ?x, ?x -[b*]-> ?x, ?x -[c]-> ?x"),
        parse_ucrpq("?x -[a*]-> ?x, ?x -[c]-> ?x, ?x -[b*]-> ?x"),
    ]
    seen = set()
    for q in queries:
        runs = [
            (None, is_bounded(q, TIGHT)),
            (None, is_bounded(q, TIGHT, full_enumeration=True)),
        ]
        for a in sorted(star_letters(q)):
            runs.append((frozenset(a), is_bounded_in(q, {a}, TIGHT)))
        for letters, report in runs:
            if report.verdict == "inconclusive" or report.mode["shortcut"]:
                continue
            want = _enumerate_then_skip(
                q,
                letters,
                report.mode["z"],
                report.mode["probe"],
                report.mode["full_enumeration_effective"],
            )
            got = (report.verdict, report.witness, report.stats.expansions_checked)
            assert got == want, (q, letters)
            full = report.mode["full_enumeration_effective"]
            seen.add((letters is None, full, want[0]))
    # restricted, full and single-letter runs, each with both verdicts
    assert len(seen) == 6, seen
