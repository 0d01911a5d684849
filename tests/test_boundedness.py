"""The boundedness decision, bounds arithmetic, and letter analyses."""

import inspect
import itertools
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from conftest import (
    enumerate_then_skip,
    gen_pendant_crpq,
    gen_random_crpq_astar,
    pendant_stars,
    some_stars_over_b,
)
from crpqbound import boundedness, homomorphism
from crpqbound.config import DEFAULT_CAPS
from crpqbound.expansion import (
    bound_letters,
    bound_query,
    choice_lists,
    enumerate_expansions,
    materialize,
    normalize_succinct,
    render_succinct_cq,
)
from crpqbound.homomorphism import Contained, expansion_contained
from crpqbound.boundedness import (
    compute_bounds,
    is_bounded,
    is_bounded_in,
    maximal_bounded_letters,
)
from crpqbound.oracle import eval_on_graph, graph_of_cq
from crpqbound.syntax import (
    UCRPQ,
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
    per = [compute_bounds(UCRPQ((d,))) for d in q.disjuncts]
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


def test_right_side_is_prepared_only_for_a_check(monkeypatch):
    # a union with one nullable disjunct takes the shortcut, and a run whose
    # only star is pendant probes nothing: neither prepares a disjunct
    prepared = []
    init = homomorphism._PreparedDisjunct.__init__

    def counted(self, d):
        prepared.append(d)
        init(self, d)

    monkeypatch.setattr(homomorphism._PreparedDisjunct, "__init__", counted)
    report = is_bounded(parse_ucrpq("?x -[a]-> ?y, ?x -[a*]-> ?z, ?z -[b]-> ?w | ?x -[b*]-> ?y"))
    assert report.mode["shortcut"] == "nullable-disjunct" and not prepared
    report = is_bounded(parse_ucrpq("?x -[a]-> ?y, ?y -[b*]-> ?z"))
    assert report.verdict == "bounded" and report.stats.expansions_checked == 0 and not prepared
    assert is_bounded(parse_ucrpq("?x -[a]-> ?y, ?x -[a*]-> ?z, ?z -[b]-> ?w")).verdict == "bounded"
    assert prepared


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
        dom = dict.fromkeys(star_idx, (m,))
        for lam in enumerate_expansions(d, dom):
            assert isinstance(expansion_contained(lam, rhs), Contained), m


def test_analysis_normalizes_each_left_side_once(monkeypatch):
    # the walk builds normalized left sides; the engine must
    # not normalize them again
    calls = []

    def counted(scq):
        calls.append(scq)
        return normalize_succinct(scq)

    monkeypatch.setattr(homomorphism, "normalize_succinct", counted)
    for text in (
        "?x -[a]-> ?y, ?x -[a*]-> ?z, ?z -[b]-> ?w",
        "?x -[a*]-> ?y, ?x -[b]-> ?y, ?x -[c*]-> ?w",
    ):
        report = is_bounded(parse_ucrpq(text))
        assert report.stats.expansions_checked > 0, text
    assert calls == []


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
            assert (run.mode, run.inconclusive_reason) == (
                fresh.mode, fresh.inconclusive_reason
            ), q
            # every counter, wall time aside
            assert replace(run.stats, wall_ms=0) == replace(fresh.stats, wall_ms=0), q
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
    bind = inspect.signature(boundedness._decide).bind
    grave = ("inconclusive", "unbounded", "bounded")
    for va, vb in itertools.product(grave, repeat=2):
        given = {"a": va, "b": vb}
        monkeypatch.setattr(
            boundedness,
            "_decide",
            lambda *args: (given[min(bind(*args).arguments["letters"])], None, None),
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
    dom = {
        i: range(z + 1)
        for i, a in enumerate(d_orig.atoms)
        if a.label.__class__.__name__ == "Star"
    }
    of_q = {render_succinct_cq(lam) for lam in enumerate_expansions(d_orig, dom)}
    of_rhs = {
        render_succinct_cq(lam)
        for d in rhs.disjuncts
        for lam in enumerate_expansions(d, {})
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
    # no star letter, so no letter run: the mode is still checked
    with pytest.raises(ValueError):
        maximal_bounded_letters(q, zplus_mode="fast")


def test_each_analysis_prepares_its_query_once(monkeypatch):
    # q is collapsed and bounded once per call, whatever the letter runs
    # that follow, and each run caps q once, for its right side and its
    # rewriting alike
    q = parse_ucrpq(
        "?x -[a*]-> ?y, ?y = ?z, ?z -[b*]-> ?w, ?x -[c]-> ?w | ?x -[a*]-> ?x"
    )
    calls = Counter()

    def counting(name):
        original = getattr(boundedness, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in ("collapse", "_disjunct_profile", "bound_letters"):
        monkeypatch.setattr(boundedness, name, counting(name))
    for analyze, runs in (
        (lambda: is_bounded(q), 1),
        (lambda: is_bounded_in(q, {"a"}), 1),
        (lambda: is_bounded_in(q, set()), 1),
        (lambda: maximal_bounded_letters(q), 2),
    ):
        calls.clear()
        assert analyze().verdict != "inconclusive"
        assert calls == {"collapse": 1, "_disjunct_profile": 2, "bound_letters": runs}


def test_budget_overflow_is_inconclusive_with_reason():
    q = parse_ucrpq("?x -[a*]-> ?y, ?x -[b]-> ?y")
    report = is_bounded(q, replace(DEFAULT_CAPS, max_expansions=3))
    assert report.verdict == "inconclusive"
    assert "budget" in report.inconclusive_reason


def test_huge_bounds_precheck_is_instant_and_inconclusive():
    # ten star atoms, none into a leaf, give a raw count far past any
    # budget; the arithmetic precheck must refuse without materializing
    # domains
    atoms = ", ".join(f"?x -[a*]-> ?y{i}, ?y{i} -[b]-> ?x" for i in range(10))
    q = parse_ucrpq(atoms + ", ?x -[b]-> ?y0")
    tracemalloc.start()
    try:
        report = is_bounded(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == "inconclusive"
    assert "budget" in report.inconclusive_reason
    assert report.mode["raw_combos"] == (report.bounds.z + 2) ** 10
    assert report.stats.expansions_checked == 0
    assert peak < 8 * 2**20


def test_stars_into_leaves_leave_one_star_to_probe():
    # nine of the ten stars end in a leaf and sit at exponent 0, so the
    # grid probes only the star into y0, whose first probe is the witness
    atoms = ", ".join(f"?x -[a*]-> ?y{i}" for i in range(10))
    q = parse_ucrpq(atoms + ", ?x -[b]-> ?y0")
    tracemalloc.start()
    try:
        report = is_bounded(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict == "unbounded"
    assert report.stats.expansions_checked == 1
    assert report.mode["raw_combos"] == report.bounds.z + 2
    assert peak < 8 * 2**20


def test_a_large_z_is_probed_without_listing_its_exponents():
    # Z = 64,000: listing the star's z + 2 choices would take megabytes,
    # while the one probe vector is found by indexing
    q = parse_ucrpq("?x -[(ab)*]-> ?y, ?x -[(ab)^1000]-> ?y")
    tracemalloc.start()
    try:
        report = is_bounded(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.bounds.z == 64000
    assert report.verdict == "bounded"
    assert report.stats.expansions_checked == 1
    assert report.mode["raw_combos"] == report.bounds.z + 2
    assert peak < 2**20


@pytest.mark.parametrize("z, probe", [(0, 1), (2, 7), (64000, 128001)])
def test_probe_axis_behaves_like_the_tuple_it_replaces(z, probe):
    axis = boundedness._ProbeAxis(z, probe)
    assert len(axis) == z + 2
    assert (axis[0], axis[1], axis[-1], axis[-2]) == (0, 1 if z else probe, probe, z)
    for i in (z + 2, -(z + 3)):
        with pytest.raises(IndexError):
            axis[i]
    if z < 100:
        want = (*range(z + 1), probe)
        assert tuple(axis) == want
        assert [axis[i] for i in range(-(z + 2), z + 2)] == [*want, *want]


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


def _plain_loop(q, letters, report, caps=DEFAULT_CAPS):
    """Check a report against the plain probe loop and return the loop's
    verdict, or None where neither the loop's grid nor its sub-grid with
    each pendant star at 0, 1 and the probe exponent fits caps.

    The report checks only the vectors with every pendant star at 0, so
    its count is the loop's count of those.
    """
    mode = report.mode
    grid = (q, letters, mode["z"], mode["probe"], mode["full_enumeration_effective"], caps)
    want = enumerate_then_skip(*grid)
    if want is None:
        want = enumerate_then_skip(*grid, pendant_values=(0, 1, mode["probe"]))
    if want is None:
        return None
    verdict, witness, _, pinned = want
    got = (report.verdict, report.witness, report.stats.expansions_checked)
    assert got == (verdict, witness, pinned), (q, letters)
    return verdict


LEAFY = "?x -[a*]-> ?y, ?x -[b]-> ?y, ?x -[c*]-> ?w"
TWO_STAR = "?x -[a]-> ?y, ?y -[a*]-> ?z, ?z -[b]-> ?w, ?x -[b*]-> ?u"
THREE_STARS = "?x -[c*]-> ?y, ?x -[a*]-> ?y, ?x -[a]-> ?y, ?y -[c*]-> ?x"
# a star beside w^<=n; the first is bounded, the second unbounded
BESIDE_POWER_LE = (
    "?x -[a]-> ?y, ?y -[a^<=2]-> ?z, ?x -[a*]-> ?z",
    "?x -[b]-> ?y, ?y -[b^<=1]-> ?x, ?y -[a*]-> ?x",
)


def _counts(report):
    s = report.stats
    return s.expansions_checked, s.covered, s.cover_checks


def test_probe_generator_matches_enumerate_then_skip():
    rng = random.Random(31)
    queries = [some_stars_over_b(gen_random_crpq_astar(rng), rng) for _ in range(60)]
    # one variable keeps Z small enough for two stars within the budget
    queries += [
        parse_ucrpq("?x -[a*]-> ?x, ?x -[b*]-> ?x, ?x -[c]-> ?x"),
        parse_ucrpq("?x -[a*]-> ?x, ?x -[c]-> ?x, ?x -[b*]-> ?x"),
    ]
    queries += [parse_ucrpq(text) for text in BESIDE_POWER_LE]
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
            want = _plain_loop(q, letters, report, TIGHT)
            if want is None:
                continue
            seen.add((letters is None, report.mode["full_enumeration_effective"], want))
    # restricted, full and single-letter runs, each with both verdicts
    assert len(seen) == 6, seen

    # three stars need a wider budget; their witnesses come early enough
    # for the plain loop
    wide = replace(DEFAULT_CAPS, max_expansions=3 * 10**6)
    q = parse_ucrpq(THREE_STARS)
    for letters, report in (
        (None, is_bounded(q, wide)),
        (frozenset("c"), is_bounded_in(q, {"c"}, wide)),
    ):
        assert _plain_loop(q, letters, report, wide) == "unbounded"
        assert report.stats.covered > 0


def test_covers_keep_the_full_enumeration_witness():
    q = parse_ucrpq(LEAFY)
    report = is_bounded(q, full_enumeration=True)
    assert report.mode["full_enumeration_effective"]
    assert _plain_loop(q, None, report) == "unbounded"
    # c* ends in the leaf w and sits at 0, so the first probe of a* is
    # the witness
    assert _counts(report) == (1, 0, 0)


def test_covers_decide_the_two_star_query():
    q = parse_ucrpq(TWO_STAR)
    report = is_bounded(q)
    assert report.verdict == "bounded"
    # the plain loop's own grid is over the budget, so it walks b* at 0,
    # 1 and the probe only
    assert _plain_loop(q, None, report) == "bounded"
    # b* ends in the leaf u and sits at 0: one probe check, a* at the
    # probe exponent, decides the query
    assert _counts(report) == (1, 0, 0)


# the leaf a sorts before x, so the merged vertex of the probe takes its name
LEAF_FIRST = "?x -[a*]-> ?y, ?x -[b]-> ?y, ?x -[c*]-> ?a"


def test_a_leaf_whose_name_sorts_first_names_the_witness():
    q = parse_ucrpq(LEAF_FIRST)
    restricted, full = is_bounded(q), is_bounded(q, full_enumeration=True)
    assert _plain_loop(q, None, restricted) == "unbounded"
    # the plain loop's full-enumeration witness, 13,367 checks in
    assert full.mode["full_enumeration_effective"]
    for report, exponent in ((restricted, 244), (full, 82)):
        assert render_succinct_cq(report.witness) == f"?a -[a^{exponent}]-> ?y, ?a -[b^1]-> ?y"


# the a* atom and the a atom both end in u, so u is no leaf of the disjunct
SAME_WORD_BESIDE = "?x -[a*]-> ?u, ?x -[a]-> ?u, ?x -[a]-> ?y, ?y -[b*]-> ?x"


def test_a_star_beside_a_same_word_atom_is_not_pendant():
    q = parse_ucrpq(SAME_WORD_BESIDE)
    report = is_bounded(q)
    _plain_loop(q, None, report)
    z, probe = report.mode["z"], report.mode["probe"]
    d = collapse(q).disjuncts[0]
    stars = [i for i, a in enumerate(d.edge_atoms) if isinstance(a.label, Star)]
    assert boundedness._pendant(d) == frozenset()
    lists = choice_lists(d, dict.fromkeys(stars, boundedness._ProbeAxis(z, probe)))
    walk = boundedness._Walk(d, lists, None, DEFAULT_CAPS, None)
    # at a = 1 the star and the a atom normalize to one atom, whose end u
    # no other atom touches; were the star judged pendant there, the
    # contained vector with a = 0 would decide this uncontained probe
    a = next(i for i in stars if d.edge_atoms[i].label.word == ("a",))
    v = tuple(choices[1 if i == a else -1] for i, choices in enumerate(lists))
    rhs = bound_query(q, z)
    probe_cq = walk.expansion(v)
    assert [atom.dst for atom in probe_cq.atoms].count("u") == 1
    assert expansion_contained(probe_cq, rhs) is None
    zero = v[:a] + (lists[a][0],) + v[a + 1:]
    assert isinstance(expansion_contained(walk.expansion(zero), rhs), Contained)


def test_pendant_stars_are_those_into_a_leaf_of_the_disjunct():
    d = collapse(parse_ucrpq(
        "?x -[a*]-> ?u, ?v -[(ab)*]-> ?x, ?x -[b*]-> ?y, ?y -[a]-> ?x, ?w -[c*]-> ?w"
    )).disjuncts[0]
    pendant = boundedness._pendant(d)
    assert {d.edge_atoms[i].label.word for i in pendant} == {("a",), ("a", "b")}
    assert sorted(pendant) == pendant_stars(d)


def test_every_probe_a_cover_decides_is_contained(monkeypatch):
    # covers decide probes without a check, and pendant stars sit at 0 so
    # that the probes above 0 are never walked: both must be contained
    decided, checked = [], []
    covers, expansion = boundedness._Walk.covers, boundedness._Walk.expansion

    def recording(walk, v):
        hit = covers(walk, v)
        if hit:
            decided.append(expansion(walk, v))
        return hit

    def probed(walk, v, drop=None):
        if drop is None:
            checked.append((walk, v))
        return expansion(walk, v, drop)

    monkeypatch.setattr(boundedness._Walk, "covers", recording)
    monkeypatch.setattr(boundedness._Walk, "expansion", probed)
    rng = random.Random(37)
    # atoms sort by their words, so leafy comes in two letter orders
    leafy_orders = (LEAFY, "?x -[c*]-> ?y, ?x -[b]-> ?y, ?x -[b*]-> ?w")
    texts = (*leafy_orders, *BESIDE_POWER_LE, SAME_WORD_BESIDE)
    queries = [parse_ucrpq(text) for text in texts]
    while len(queries) < 15:
        q = gen_random_crpq_astar(rng)
        if sum(isinstance(a.label, Star) for a in q.disjuncts[0].atoms) > 1:
            queries.append(some_stars_over_b(q, rng))
    # leaf variables, with word stars such as (ab)*
    queries += [gen_pendant_crpq(rng) for _ in range(12)]
    wide = replace(DEFAULT_CAPS, max_expansions=10**4)
    # short probes only, so that some cover checks hit the cap
    short = replace(wide, max_materialized_atoms=120)
    verdicts = set()
    kinds = Counter()
    lifted = 0
    for q, caps in itertools.product(queries, (wide, short)):
        pendant = boundedness._pendant(collapse(q).disjuncts[0])
        runs = [(None, False), (None, True)]
        stars = [a.label for a in q.disjuncts[0].atoms if isinstance(a.label, Star)]
        if all(len(s.word) == 1 for s in stars):
            runs += [(frozenset(a), False) for a in sorted(star_letters(q))]
        for letters, full in runs:
            if letters is None:
                report = is_bounded(q, caps, full_enumeration=full)
            else:
                report = is_bounded_in(q, letters, caps)
            rhs = bound_letters(collapse(q), letters, report.mode["z"])
            for lam in decided:
                assert isinstance(expansion_contained(lam, rhs), Contained), (q, letters, lam)
            assert report.stats.covered == len(decided)
            # each contained probe stays contained with a pendant star
            # raised from 0
            raised = 0
            for walk, v in checked:
                if not isinstance(expansion_contained(expansion(walk, v), rhs), Contained):
                    continue
                for i in pendant:
                    for e in (1, report.mode["probe"]):
                        up = expansion(walk, v[:i] + ((v[i][0], e),) + v[i + 1:])
                        assert isinstance(expansion_contained(up, rhs), Contained), (q, up)
                        raised += 1
            decided.clear()
            checked.clear()
            if report.stats.covered or raised:
                verdicts.add((caps.max_materialized_atoms, report.verdict))
                kinds[letters is None, report.mode.get("full_enumeration_effective")] += 1
            lifted += raised
    # covers or pendant stars decided probes under both caps in runs of
    # every verdict they can reach; only the short cap makes a run
    # inconclusive
    assert len(verdicts) == 5, verdicts
    # and in restricted, full and letter runs
    assert len(kinds) == 3, kinds
    assert lifted > 0
