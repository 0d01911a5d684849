"""Answer checks against references that do not come from the analyzer.

- analyze: the verdict and maximal letter set the template catalogue
  derived by hand.  An unbounded witness is also replayed: q must hold on
  the witness's canonical database and q(Z) must not.  The replay uses
  ``oracle.eval_on_graph``, which is slow on large databases, so
  witnesses over ``REPLAY_MAX_VERTICES`` vertices are only checked
  against the catalogue.
- contains: a homomorphism search between the materialized queries,
  ``cq_hom(materialize(right), materialize(left))``.
- member: ``oracle.nfa_membership_brute``, which unrolls everything.

Bounded verdicts are not sampled with ``sampled_equivalence``: on
``?z -[a]-> ?z, ?y -[a*]-> ?x, ?x -[a*]-> ?x`` it did not finish within a
minute.
"""

from __future__ import annotations

import json

REPLAY_MAX_VERTICES = 600

EXIT_OF = {
    "bounded": 0, "unbounded": 1, "inconclusive": 2,
    "contained": 0, "not-contained": 1,
    "member": 0, "not-member": 1,
}


def parse_output(line: str):
    """(exit code, [verdict, witness, rewriting, maximal letters]) or None."""
    rc, _, rest = line.partition("|")
    try:
        return int(rc), json.loads(rest)
    except ValueError:
        return None


class Checker:
    """Checks answers; ``modules`` are crpqbound modules loaded from src."""

    def __init__(self, modules: dict):
        self.m = modules
        self.replayed = 0
        self.replay_skipped = 0
        self._replays = {}

    def _scq(self, atoms):
        ex = self.m["expansion"]
        names = sorted({a[0] for a in atoms} | {a[3] for a in atoms})
        return ex.SuccinctCQ(
            tuple(names),
            tuple(ex.SuccinctAtom(s, tuple(w), e, d) for s, w, e, d in atoms),
        )

    def reference(self, item) -> bool:
        """The brute-force answer of a contains or member item."""
        x = item.expect
        if item.kind == "contains":
            materialize = self.m["expansion"].materialize
            left, right = self._scq(x["left"]), self._scq(x["right"])
            return self.m["homomorphism"].cq_hom(materialize(right), materialize(left)) is not None
        nfa_mod = self.m["succinct_nfa"]
        states = sorted({s for t in x["trans"] for s in (t[0], t[3])})
        nfa = nfa_mod.SuccinctNFA(
            tuple(states),
            tuple(nfa_mod.SNFATransition(s, tuple(w), e, d) for s, w, e, d in x["trans"]),
            x["initial"],
            tuple(x["finals"]),
        )
        return self.m["oracle"].nfa_membership_brute(nfa, tuple(x["v"]), x["m"])

    def _replay(self, query: str, witness: str):
        key = (query, witness)
        if key not in self._replays:
            syntax, ex, oracle = self.m["syntax"], self.m["expansion"], self.m["oracle"]
            q = syntax.parse_ucrpq(query)
            z = self.m["boundedness"].compute_bounds(q).z
            lam = ex.succinct_cq_from_crpq(syntax.collapse(syntax.parse_ucrpq(witness)).disjuncts[0])
            cq = ex.materialize(lam)
            if len(cq.variables) > REPLAY_MAX_VERTICES:
                self._replays[key] = None
            else:
                db = oracle.graph_of_cq(cq)
                self._replays[key] = oracle.eval_on_graph(q, db) and not oracle.eval_on_graph(
                    ex.bound_query(q, z), db
                )
        outcome = self._replays[key]
        if outcome is None:
            self.replay_skipped += 1
        else:
            self.replayed += 1
        return outcome

    def failure(self, item, line: str):
        """Why the answer in ``line`` is wrong, or None if it is right."""
        parsed = parse_output(line)
        if parsed is None:
            return f"no JSON report: {line[:120]}"
        rc, (verdict, witness, _rewriting, letters) = parsed
        if EXIT_OF.get(verdict) != rc:
            return f"exit {rc} does not match verdict {verdict!r}"
        if rc == 2:
            if item.kind == "analyze-max" and not set(letters or ()) <= set(item.expect["letters"]):
                return f"letters {letters} not within expected {item.expect['letters']}"
            return None
        if item.kind in ("contains", "member"):
            answer = rc == 0
            expected = item.expect["contained" if item.kind == "contains" else "member"]
            if self.reference(item) != expected:
                return "catalogue expectation disagrees with the brute-force reference"
            return None if answer == expected else f"answer {verdict}, reference says otherwise"
        if verdict != item.expect["verdict"]:
            return f"verdict {verdict}, expected {item.expect['verdict']}"
        if item.kind == "analyze-max":
            if "".join(letters) != item.expect["letters"]:
                return f"letters {letters}, expected {item.expect['letters']!r}"
            return None
        if verdict == "unbounded":
            if not witness:
                return "unbounded verdict without a witness"
            if self._replay(item.expect["query"], witness) is False:
                return "witness replay: q(Z) holds on the witness database"
        return None
