#!/usr/bin/env python3
"""Walk one quantified formula through the hardness pipeline.

Reads a formula (or uses a built-in satisfiable default), prints its
brute-force truth value, compiles it to the query whose boundedness
encodes that value, and shows what the analyzer can say about the result
at desk scale: the exact decision is inconclusive by budget, while the
low-exponent containment check recovers the truth value.
"""

import argparse
import sys

from crpqbound.boundedness import is_bounded
from crpqbound.oracle import qbf_satisfiable
from crpqbound.qbfgen import build_q1, build_q2, capped_containment, parse_qbf, reduction
from crpqbound.syntax import UCRPQ, render_ucrpq

DEFAULT_QBF = """\
forall 1..1
exists 2..2
1 2 2 0
"""


def run(path: str | None, show_query: bool) -> int:
    if path == "-":
        text = sys.stdin.read()
    elif path:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = DEFAULT_QBF
        print("using the built-in example formula")
    phi = parse_qbf(text)
    print(f"formula: n={phi.n} universal, l={phi.l} existential, "
          f"{len(phi.clauses)} clauses")

    sat = qbf_satisfiable(phi)
    print(f"brute-force satisfiability: {sat}")

    q = reduction(phi)
    q1, q2 = build_q1(phi), build_q2(phi) if phi.clauses else None
    parts = f"{len(q1.atoms)} quantifier-side atoms"
    if q2 is not None:
        parts += f" + {len(q2.atoms)} clause-side atoms"
    print(f"compiled query: {len(q.atoms)} atoms ({parts})")
    if show_query:
        print(render_ucrpq(UCRPQ((q,))))

    report = is_bounded(UCRPQ((q,)))
    print(f"exact analysis: {report.verdict}")
    if report.inconclusive_reason:
        print(f"  reason: {report.inconclusive_reason}")

    if phi.clauses:
        capped = capped_containment(phi)
        agree = "agrees with" if capped == sat else "CONTRADICTS"
        print(f"low-exponent containment: {capped} ({agree} the solver)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("qbf", nargs="?", help="formula file ('-' for stdin)")
    parser.add_argument("--show-query", action="store_true", help="print the compiled query")
    args = parser.parse_args()
    return run(args.qbf, args.show_query)


if __name__ == "__main__":
    sys.exit(main())
