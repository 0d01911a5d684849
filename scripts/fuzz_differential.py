#!/usr/bin/env python3
"""Fuzz the succinct algorithms against their brute-force counterparts.

Four rounds: NFA membership (small exponents and exponents up to 10^4)
vs materialized membership, succinct CQ containment (the reachability
engine behind ``crpqbound contains`` and the boundedness checks) vs
cq_hom on both materialized sides, probe expansions
of random a-star queries against their bounded right sides (some stars
left whole) vs evaluation on the materialized probe, and boundedness
verdicts cross-checked by oracle evaluation on witness databases or on
expansions just past the threshold, and against the full-enumeration
verdict; the letter analysis's per-letter witnesses are replayed the
same way and its maximal set is checked for confluence.  Any
disagreement prints a replay line and the script exits nonzero.
"""

import argparse
import random
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import (  # noqa: E402
    gen_random_crpq_astar,
    gen_random_snfa,
    gen_random_succinct_cq,
    gen_random_word,
    some_stars_over_b,
)
from crpqbound.boundedness import (  # noqa: E402
    compute_bounds,
    is_bounded,
    is_bounded_in,
    maximal_bounded_letters,
)
from crpqbound.config import DEFAULT_CAPS  # noqa: E402
from crpqbound.expansion import (  # noqa: E402
    ExponentDomain,
    bound_letters,
    bound_query,
    enumerate_expansions,
    materialize,
)
from crpqbound.homomorphism import (  # noqa: E402
    Contained,
    cq_hom,
    expansion_contained,
    succinct_containment,
)
from crpqbound.oracle import (  # noqa: E402
    eval_on_graph,
    graph_of_cq,
    nfa_membership_brute,
)
from crpqbound.succinct_nfa import membership  # noqa: E402
from crpqbound.syntax import Star  # noqa: E402


@dataclass
class FuzzConfig:
    seed: int = 0
    nfa_trials: int = 2000
    containment_pairs: int = 1000
    probe_queries: int = 300
    boundedness_queries: int = 100


def fuzz_membership(cfg: FuzzConfig) -> int:
    """Each automaton is asked about a small m and about an m up to 10^4."""
    rng = random.Random(cfg.seed)
    bad = 0
    for i in range(cfg.nfa_trials):
        nfa = gen_random_snfa(rng)
        v = gen_random_word(rng)
        for m in (rng.randint(0, 16), rng.randint(0, 10**4)):
            if membership(nfa, v, m) != nfa_membership_brute(nfa, v, m):
                bad += 1
                print(f"  membership mismatch at trial {i}: v={v} m={m} nfa={nfa}")
    return bad


def fuzz_containment(cfg: FuzzConfig) -> int:
    rng = random.Random(cfg.seed + 1)
    bad = 0
    for i in range(cfg.containment_pairs):
        left = gen_random_succinct_cq(rng)
        right = gen_random_succinct_cq(rng)
        want = cq_hom(materialize(right), materialize(left)) is not None
        if succinct_containment(left, right) != want:
            bad += 1
            print(f"  containment mismatch at pair {i}: {left} vs {right}")
    return bad


def fuzz_probes(cfg: FuzzConfig) -> int:
    """Probe expansions against q(z), as the boundedness checks pose them.

    Each query's stars get exponents around z (at least one above it);
    the right side caps every star, or only the a-stars so that b-stars
    stay whole-label stars.  The engine's answer must match evaluating
    the right side on the materialized probe.
    """
    rng = random.Random(cfg.seed + 3)
    bad = pairs = 0
    for i in range(cfg.probe_queries):
        q = some_stars_over_b(gen_random_crpq_astar(rng), rng)
        z = compute_bounds(q).z
        rhs = bound_query(q, z) if rng.random() < 0.5 else bound_letters(q, {"a"}, z)
        d = q.disjuncts[0]
        stars = [j for j, a in enumerate(d.edge_atoms) if isinstance(a.label, Star)]
        for _ in range(4 if stars else 1):
            values = [rng.choice((0, 1, 2, z, z + 1, 2 * z + 1)) for _ in stars]
            if stars and max(values) <= z:
                values[rng.randrange(len(values))] = z + 1
            dom = ExponentDomain(tuple((j, (v,)) for j, v in zip(stars, values)))
            for lam in enumerate_expansions(d, dom):
                pairs += 1
                got = isinstance(expansion_contained(lam, rhs), Contained)
                if got != eval_on_graph(rhs, graph_of_cq(materialize(lam))):
                    bad += 1
                    print(f"  probe mismatch at query {i}: {lam} vs {rhs}")
    print(f"  ({pairs} probe pairs)")
    return bad


def fuzz_boundedness(cfg: FuzzConfig) -> int:
    """Confirm each conclusive verdict with the evaluation oracle.

    Unbounded verdicts replay the witness on its own canonical database.
    Bounded verdicts are probed just past the threshold: the canonical
    database of every expansion at exponents z+1 and z+2 must still
    satisfy the star-free rewriting.  Every query is also decided with
    full enumeration, whose conclusive verdict must agree.

    The letter analysis runs on each query with some stars renamed to b*.
    Every unbounded letter's witness is replayed against q with only that
    letter's stars capped, and when no letter is inconclusive the query
    must be bounded in the maximal set (confluence).
    """
    rng = random.Random(cfg.seed + 2)
    letters_rng = random.Random(cfg.seed + 4)
    caps = replace(DEFAULT_CAPS, max_expansions=20000)
    bad = inconclusive = letter_runs = 0
    for i in range(cfg.boundedness_queries):
        q = gen_random_crpq_astar(rng)
        report = is_bounded(q, caps)
        full = is_bounded(q, caps, full_enumeration=True).verdict
        if "inconclusive" not in (report.verdict, full) and full != report.verdict:
            bad += 1
            print(f"  full enumeration says {full} at query {i}: {q}")
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
            d = q.disjuncts[0]
            star_idx = [
                j
                for j, a in enumerate(d.edge_atoms)
                if isinstance(a.label, Star)
            ]
            for exponent in (z + 1, z + 2):
                dom = ExponentDomain.uniform(star_idx, (exponent,))
                for lam in enumerate_expansions(d, dom, caps=caps):
                    db = graph_of_cq(materialize(lam, caps=caps))
                    if db.vertices and not eval_on_graph(report.rewriting, db):
                        bad += 1
                        print(f"  rewriting refuted at query {i}: {q}")

        lq = some_stars_over_b(q, letters_rng)
        letters = maximal_bounded_letters(lq, caps)
        letter_runs += len(letters.per_letter)
        for a, run in letters.per_letter:
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
        f"{letter_runs} letter runs)"
    )
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--nfa-trials", type=int, default=2000)
    parser.add_argument("--containment-pairs", type=int, default=1000)
    parser.add_argument("--probe-queries", type=int, default=300)
    parser.add_argument("--boundedness-queries", type=int, default=100)
    args = parser.parse_args()
    cfg = FuzzConfig(
        seed=args.seed,
        nfa_trials=args.nfa_trials,
        containment_pairs=args.containment_pairs,
        probe_queries=args.probe_queries,
        boundedness_queries=args.boundedness_queries,
    )

    total = 0
    for name, round_fn, count in (
        ("membership", fuzz_membership, cfg.nfa_trials),
        ("containment", fuzz_containment, cfg.containment_pairs),
        ("probes", fuzz_probes, cfg.probe_queries),
        ("boundedness", fuzz_boundedness, cfg.boundedness_queries),
    ):
        t0 = time.monotonic()
        bad = round_fn(cfg)
        total += bad
        status = "ok" if bad == 0 else f"{bad} MISMATCHES"
        print(f"{name}: {count} instances, {status}, {time.monotonic() - t0:.1f}s")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
