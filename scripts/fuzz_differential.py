#!/usr/bin/env python3
"""Fuzz the succinct algorithms against their brute-force counterparts.

Six rounds: NFA membership (small exponents and exponents up to 10^4)
vs materialized membership, asked again under tight length caps where a
decided answer must match and a cap hit counts as skipped, succinct CQ
containment (the reachability engine behind ``crpqbound contains`` and
the boundedness checks) vs cq_hom on both materialized sides, with each
prepared right side reused for several left sides and each left side
also read back from its rendered text, plus a quarter as many pairs of a
cyclic right side against longer left atoms, the join that cq_hom and
query evaluation share vs trying every assignment on graphs of up to
four vertices, and the oracle's relation for a random label vs relation
algebra on graphs of up to eight vertices (as many cases of each as
containment pairs), probe expansions
of random a-star queries, a third of them with stars into leaf
variables, against their bounded right sides (some stars left whole) vs
evaluation on the materialized probe, where a probe whose pendant star
at exponent 0 gives a contained probe must be contained too (the walk
pins pendant stars at 0 and never visits it), and boundedness
verdicts cross-checked by oracle evaluation on witness databases or on
expansions just past the threshold, against the full-enumeration
verdict, and, restricted and full, against the plain probe loop that
checks every probe without covers or pinned stars, where its grid fits
the budget, and otherwise over its pendant stars at 0, 1 and the probe
exponent only; the letter analysis's per-letter
runs are compared with fresh single-letter analyses (verdict, witness,
rewriting and counters), their witnesses are replayed the same way and
the maximal set is checked for confluence; and the parsers
on token soups and on rendered random queries and automata with one
character changed (as many texts as containment pairs), where anything
but a value or a ParseError placed inside the text is an internal fault.
Any disagreement prints a replay line and the script exits nonzero.
"""

import argparse
import itertools
import random
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import (  # noqa: E402
    VAR_POOL,
    enumerate_then_skip,
    gen_cycle,
    gen_cyclic_succinct_cq,
    gen_pendant_crpq,
    gen_random_crpq_astar,
    gen_random_snfa,
    gen_random_succinct_cq,
    gen_random_ucrpq,
    gen_random_word,
    gen_rotated_cycle_word,
    gen_token_soup,
    join_case_problems,
    mutate_text,
    pendant_stars,
    relation_case_problems,
    some_stars_over_b,
)
from crpqbound.boundedness import (  # noqa: E402
    compute_bounds,
    is_bounded,
    is_bounded_in,
    maximal_bounded_letters,
)
from crpqbound.config import DEFAULT_CAPS  # noqa: E402
from crpqbound.errors import CapExceeded, ParseError  # noqa: E402
from crpqbound.expansion import (  # noqa: E402
    SuccinctAtom,
    SuccinctCQ,
    bound_letters,
    bound_query,
    choice_lists,
    enumerate_expansions,
    expansion_of,
    materialize,
    normalize_succinct,
    render_succinct_cq,
    succinct_cq_from_crpq,
)
from crpqbound.homomorphism import (  # noqa: E402
    Contained,
    RightSide,
    cq_hom,
    expansion_contained,
    succinct_containment,
)
from crpqbound.oracle import (  # noqa: E402
    eval_on_graph,
    graph_of_cq,
    nfa_membership_brute,
)
from crpqbound.succinct_nfa import membership, parse_nfa  # noqa: E402
from crpqbound.syntax import (  # noqa: E402
    Power,
    Star,
    parse_ucrpq,
    render_regex,
    render_ucrpq,
)


# the largest Z of a pendant query in the boundedness round, which keeps
# it to at most three atoms: the oracle evaluates each label's whole
# relation, so a database just past the threshold takes it 0.5 s at a Z
# of 216 and 1.5 to 3 s at a Z of 384 to 640 (1,500 to 2,100 vertices),
# and at a Z of 192 the plain loop's full-enumeration sub-grid of a
# self-loop star beside two pendant stars takes 2.7 s
PENDANT_MAX_Z = 162


@dataclass
class FuzzConfig:
    seed: int = 0
    nfa_trials: int = 2000
    containment_pairs: int = 1000
    probe_queries: int = 300
    boundedness_queries: int = 100


def fuzz_membership(cfg: FuzzConfig) -> int:
    """Each automaton is asked about a small m and about an m up to 10^4.

    Each question is asked again under caps tight enough that the length
    search often stops: a decided answer must still be the right one.
    """
    rng = random.Random(cfg.seed)
    tight = replace(DEFAULT_CAPS, max_length_dp=2)
    bad = decided = skipped = 0
    for i in range(cfg.nfa_trials):
        nfa = gen_random_snfa(rng)
        v = gen_random_word(rng)
        for m in (rng.randint(0, 16), rng.randint(0, 10**4)):
            want = nfa_membership_brute(nfa, v, m)
            if membership(nfa, v, m) != want:
                bad += 1
                print(f"  membership mismatch at trial {i}: v={v} m={m} nfa={nfa}")
            try:
                got = membership(nfa, v, m, tight)
            except CapExceeded:
                skipped += 1
                continue
            decided += 1
            if got != want:
                bad += 1
                print(f"  tight-cap membership mismatch at trial {i}: v={v} m={m} nfa={nfa}")
    print(f"  (tight caps: {decided} decided, {skipped} skipped)")
    return bad


def fuzz_containment(cfg: FuzzConfig) -> int:
    """Each right side, read as a query, is prepared once and reused for
    the next four left sides; each answer must also match a fresh check
    and succinct_containment.  Each left side is also rendered, parsed and
    normalized back: the atoms must return unchanged (the text omits
    isolated variables).

    Then a quarter as many pairs again, from a stream of their own: right
    sides that close a directed cycle of short powers (exponents up to 4)
    against one loop reading the cycle's word one to three times from a
    rotation (one letter at times changed), or a random left side with
    exponents up to 30, most of them cyclic too.  So left atoms fall on
    both sides of the closed-walk bound by which the search skips
    positions, and on it."""
    rng = random.Random(cfg.seed + 1)
    bad = 0
    contained = [0, 0]  # plain pairs, cyclic pairs

    def check(i, left, right, query, prepared):
        want = cq_hom(materialize(right), materialize(left)) is not None
        got = (
            isinstance(expansion_contained(left, prepared), Contained),
            isinstance(expansion_contained(left, query), Contained),
            succinct_containment(left, right),
        )
        if got != (want,) * 3:
            print(f"  containment mismatch at pair {i}: {left} vs {right}: {got}, want {want}")
            return 1
        contained[i >= cfg.containment_pairs] += want
        return 0

    for i in range(cfg.containment_pairs):
        if i % 4 == 0:
            right = gen_random_succinct_cq(rng)
            query = parse_ucrpq(render_succinct_cq(right))
            prepared = RightSide(query)
        left = gen_random_succinct_cq(rng)
        text = render_succinct_cq(left)
        back = normalize_succinct(succinct_cq_from_crpq(parse_ucrpq(text).disjuncts[0]))
        if back.atoms != left.atoms or not set(back.variables) <= set(left.variables):
            bad += 1
            print(f"  text round trip mismatch at pair {i}: {text!r} read back as {back}")
        bad += check(i, left, right, query, prepared)

    cyclic = random.Random(cfg.seed + 8)
    for i in range(cfg.containment_pairs, cfg.containment_pairs + cfg.containment_pairs // 4):
        cycle = gen_cycle(cyclic, 4)
        right = normalize_succinct(SuccinctCQ(VAR_POOL[: len(cycle)], cycle))
        query = parse_ucrpq(render_succinct_cq(right))
        pick = cyclic.random()
        if pick < 0.4:
            # one loop that reads the cycle's word k times from a rotation,
            # at times with one letter changed: it holds the cycle for k = 1
            word = list(gen_rotated_cycle_word(cyclic, cycle))
            if cyclic.random() < 0.3:
                j = cyclic.randrange(len(word))
                word[j] = "b" if word[j] == "a" else "a"
            loop = SuccinctAtom("x", tuple(word), cyclic.randint(1, 3), "x")
            left = SuccinctCQ(("x",), (loop,))
        elif pick < 0.8:
            left = gen_cyclic_succinct_cq(cyclic, max_exp=30)
        else:
            left = gen_random_succinct_cq(cyclic, max_exp=30)
        bad += check(i, left, right, query, RightSide(query))
    print(f"  ({cfg.containment_pairs // 4} cyclic pairs; contained: "
          f"{contained[0]} plain, {contained[1]} cyclic)")
    return bad


def fuzz_join(cfg: FuzzConfig) -> int:
    """eval_on_graph and cq_hom against naive enumeration, and the relation
    of a random label against relation algebra, one case each per pair."""
    rng = random.Random(cfg.seed + 5)
    labels_rng = random.Random(cfg.seed + 7)
    bad = 0
    for i in range(cfg.containment_pairs):
        for problem in join_case_problems(rng) + relation_case_problems(labels_rng):
            bad += 1
            print(f"  join mismatch at case {i}: {problem}")
    return bad


def fuzz_probes(cfg: FuzzConfig) -> int:
    """Probe expansions against q(z), as the boundedness checks pose them.

    Each query's stars get exponents around z (at least one above it);
    the right side caps every star, or only the a-stars so that b-stars
    stay whole-label stars.  Every third query has one or two pendant
    stars, into a leaf variable, some over the word ab, and a z of at most
    8 instead of its threshold.  The engine's answer must match evaluating
    the right side on the materialized probe.  A probe whose pendant star,
    set to exponent 0, gives a probe that evaluation finds contained is
    one the boundedness walk never visits, since it pins pendant stars at
    0: it must be contained too.
    """
    rng = random.Random(cfg.seed + 3)
    bad = pairs = pendant = 0
    for i in range(cfg.probe_queries):
        if i % 3 == 2:
            # a z far below the threshold keeps the oracle's graphs small
            q, z = gen_pendant_crpq(rng), rng.randint(1, 8)
        else:
            q = some_stars_over_b(gen_random_crpq_astar(rng), rng)
            z = compute_bounds(q).z
        rhs = bound_query(q, z) if rng.random() < 0.5 else bound_letters(q, {"a"}, z)
        d = q.disjuncts[0]
        atoms, variables = d.edge_atoms, d.variables()
        stars = [j for j, a in enumerate(atoms) if isinstance(a.label, Star)]
        leaves = pendant_stars(d)

        def contained(v):
            return eval_on_graph(rhs, graph_of_cq(materialize(expansion_of(atoms, v, variables))))

        for _ in range(4 if stars else 1):
            values = [rng.choice((0, 1, 2, z, z + 1, 2 * z + 1)) for _ in stars]
            if stars and max(values) <= z:
                values[rng.randrange(len(values))] = z + 1
            dom = {j: (v,) for j, v in zip(stars, values)}
            for v in itertools.product(*choice_lists(d, dom)):
                pairs += 1
                lam = expansion_of(atoms, v, variables)
                want = eval_on_graph(rhs, graph_of_cq(materialize(lam)))
                if isinstance(expansion_contained(lam, rhs), Contained) != want:
                    bad += 1
                    print(f"  probe mismatch at query {i}: {lam} vs {rhs}")
                if any(
                    v[j][1] and contained(v[:j] + ((v[j][0], 0),) + v[j + 1:]) for j in leaves
                ):
                    pendant += 1
                    if not want:
                        bad += 1
                        print(f"  uncontained probe above a pinned one at query {i}: {lam}")
    print(f"  ({pairs} probe pairs, {pendant} left out by pinning pendant stars at 0)")
    return bad


def fuzz_boundedness(cfg: FuzzConfig) -> int:
    """Confirm each conclusive verdict with the evaluation oracle.

    Unbounded verdicts replay the witness on its own canonical database.
    Bounded verdicts are probed just past the threshold: the canonical
    database of every expansion at exponents z+1 and z+2 must still
    satisfy the star-free rewriting.  Every query is also decided with
    full enumeration, whose conclusive verdict must agree.  Both runs must
    give the verdict and witness of the plain probe loop, which builds and
    checks every probe vector itself instead of deciding some by covers
    and pinning pendant stars at 0, and as many probes as it checks with
    every pendant star at 0.  Where the loop's grid is over the budget,
    it walks the sub-grid in which each pendant star takes only 0, 1 and
    the probe exponent, and where that is over the budget too, the run is
    counted and not compared.  Every third query has one or two pendant
    stars, into a leaf variable, some over the word ab, and a Z of at
    most PENDANT_MAX_Z.

    The letter analysis runs on each query without a word star, with some
    stars renamed to b*.
    Each letter run must give the verdict, witness, rewriting and
    counters of a fresh is_bounded_in(q, {a}), since the analysis
    prepares q once for all its letter runs.  Every unbounded letter's
    witness is replayed against q with only that letter's stars capped,
    and when no letter is inconclusive the query must be bounded in the
    maximal set (confluence).
    """

    def outcome(run):
        return run.verdict, run.witness, run.rewriting, replace(run.stats, wall_ms=0)

    rng = random.Random(cfg.seed + 2)
    letters_rng = random.Random(cfg.seed + 4)
    caps = replace(DEFAULT_CAPS, max_expansions=20000)
    bad = inconclusive = letter_runs = covered = pendant_only = unchecked = 0
    for i in range(cfg.boundedness_queries):
        q = gen_pendant_crpq(rng) if i % 3 == 2 else gen_random_crpq_astar(rng)
        while i % 3 == 2 and compute_bounds(q).z > PENDANT_MAX_Z:
            q = gen_pendant_crpq(rng)
        report = is_bounded(q, caps)
        full_report = is_bounded(q, caps, full_enumeration=True)
        full = full_report.verdict
        if "inconclusive" not in (report.verdict, full) and full != report.verdict:
            bad += 1
            print(f"  full enumeration says {full} at query {i}: {q}")
        for run in (report, full_report):
            covered += run.stats.covered
            if run.verdict == "inconclusive" or run.mode["shortcut"]:
                continue
            mode = run.mode
            grid = (q, None, mode["z"], mode["probe"], mode["full_enumeration_effective"], caps)
            plain = enumerate_then_skip(*grid)
            if plain is None:
                plain = enumerate_then_skip(*grid, pendant_values=(0, 1, mode["probe"]))
                pendant_only += plain is not None
            if plain is None:
                unchecked += 1
                continue
            got = (run.verdict, run.witness, run.stats.expansions_checked)
            want = (plain[0], plain[1], plain[3])
            if got != want:
                bad += 1
                differ = ", ".join(
                    f"{name} {g} where the plain probe loop has {w}"
                    for name, g, w in zip(("verdict", "witness", "probes"), got, want)
                    if g != w
                )
                print(f"  {differ} at query {i}: {q}")
        d = q.disjuncts[0]
        if report.verdict == "inconclusive":
            inconclusive += 1
        elif report.verdict == "unbounded":
            db = graph_of_cq(materialize(report.witness))
            if not eval_on_graph(q, db) or eval_on_graph(
                bound_query(q, report.bounds.z), db
            ):
                bad += 1
                print(f"  witness not confirmed at query {i}: {q}")
        else:
            z = report.bounds.z
            star_idx = [
                j
                for j, a in enumerate(d.edge_atoms)
                if isinstance(a.label, Star)
            ]
            for exponent in (z + 1, z + 2):
                dom = dict.fromkeys(star_idx, (exponent,))
                for lam in enumerate_expansions(d, dom, caps=caps):
                    db = graph_of_cq(materialize(lam, caps=caps))
                    if db.vertices and not eval_on_graph(report.rewriting, db):
                        bad += 1
                        print(f"  rewriting refuted at query {i}: {q}")

        if any(isinstance(a.label, Star) and len(a.label.word) > 1 for a in d.edge_atoms):
            continue  # the letter analysis takes single-letter stars only
        lq = some_stars_over_b(q, letters_rng)
        letters = maximal_bounded_letters(lq, caps)
        letter_runs += len(letters.per_letter)
        for a, run in letters.per_letter:
            if outcome(run) != outcome(is_bounded_in(lq, {a}, caps)):
                bad += 1
                print(f"  letter {a} run differs from is_bounded_in at query {i}: {lq}")
            if run.verdict != "unbounded":
                continue
            db = graph_of_cq(materialize(run.witness))
            if not eval_on_graph(lq, db) or eval_on_graph(
                bound_letters(lq, {a}, run.bounds.z), db
            ):
                bad += 1
                print(f"  letter {a} witness not confirmed at query {i}: {lq}")
        if not letters.inconclusive:
            if is_bounded_in(lq, letters.letters, caps).verdict != "bounded":
                bad += 1
                print(f"  not bounded in the maximal letters at query {i}: {lq}")
    print(
        f"  ({inconclusive} queries inconclusive under the fuzz budget, "
        f"{covered} probes decided without a check, {letter_runs} letter runs; "
        f"conclusive runs against the plain loop's pendant sub-grid: {pendant_only}, "
        f"against no plain loop: {unchecked})"
    )
    return bad


def _render_nfa(nfa) -> str:
    lines = [f"initial: {nfa.initial}", "finals: " + " ".join(nfa.finals)]
    for t in nfa.transitions:
        label = render_regex(Power(t.word, t.exponent)) if t.word else "eps"
        lines.append(f"{t.src} -[{label}]-> {t.dst}")
    return "\n".join(lines) + "\n"


def fuzz_parse(cfg: FuzzConfig) -> int:
    """Token soups and rendered random queries go to parse_ucrpq, rendered
    random automata to parse_nfa, the renderings with one character
    deleted, inserted or swapped.  A parser must return a value, and a
    query must read back unchanged from its rendering, or raise a
    ParseError whose line and column lie inside the text."""
    rng = random.Random(cfg.seed + 6)
    bad = errors = 0
    for i in range(cfg.containment_pairs):
        if i % 3 == 0:
            parse, text = parse_ucrpq, gen_token_soup(rng)
        elif i % 3 == 1:
            parse, text = parse_ucrpq, mutate_text(rng, render_ucrpq(gen_random_ucrpq(rng)))
        else:
            parse, text = parse_nfa, mutate_text(rng, _render_nfa(gen_random_snfa(rng)))
        lines = text.split("\n")
        try:
            got = parse(text)
            if parse is parse_ucrpq and parse_ucrpq(render_ucrpq(got)) != got:
                bad += 1
                print(f"  render round trip mismatch at text {i}: {text!r}")
        except ParseError as exc:
            errors += 1
            if exc.line is None or not (
                1 <= exc.line <= len(lines) and 1 <= exc.col <= len(lines[exc.line - 1]) + 1
            ):
                bad += 1
                print(f"  error placed outside text {i}: {text!r}: {exc}")
        except Exception as exc:
            bad += 1
            print(f"  internal fault at text {i}: {text!r}: {type(exc).__name__}: {exc}")
    print(f"  ({errors} parse errors)")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    for field in fields(FuzzConfig):
        parser.add_argument("--" + field.name.replace("_", "-"), type=int, default=field.default)
    cfg = FuzzConfig(**vars(parser.parse_args()))

    total = 0
    for name, round_fn, count in (
        ("membership", fuzz_membership, cfg.nfa_trials),
        ("containment", fuzz_containment, cfg.containment_pairs),
        ("join", fuzz_join, cfg.containment_pairs),
        ("probes", fuzz_probes, cfg.probe_queries),
        ("boundedness", fuzz_boundedness, cfg.boundedness_queries),
        ("parse", fuzz_parse, cfg.containment_pairs),
    ):
        t0 = time.monotonic()
        bad = round_fn(cfg)
        total += bad
        status = "ok" if bad == 0 else f"{bad} MISMATCHES"
        print(f"{name}: {count} instances, {status}, {time.monotonic() - t0:.1f}s")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
