"""Command-line front end.

Subcommands: ``analyze`` (boundedness and letter analyses with optional
JSON reports), ``contains`` (containment of a succinct CQ in a query,
decided on the left side's canonical database, indexed by positions),
``member`` (succinct NFA membership), ``qbfgen`` (formula-to-query
generator), and ``eval`` (query evaluation over a CSV edge list).

Exit codes: 0 yes / bounded / contained / member / satisfied, 1 the
negative counterpart, 2 inconclusive under the configured caps, 64 usage
or input error, 70 an --oracle-verify cross-check contradicted the
verdict, 71 an internal error.  JSON reports with the same inputs and
seed are byte-identical (the human report prints the wall time).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import replace

from crpqbound.boundedness import (
    AnalysisReport,
    is_bounded,
    is_bounded_in,
    maximal_bounded_letters,
)

# unused here; kept importable because the benchmark's layer trace patches it
from crpqbound.boundedness import compute_bounds  # noqa: F401
from crpqbound.config import DEFAULT_CAPS, Caps
from crpqbound.errors import CapExceeded, ParseError, UnsupportedFragment
from crpqbound.expansion import (
    bound_letters,
    materialize,
    render_succinct_cq,
    succinct_cq_from_crpq,
)
from crpqbound.homomorphism import Contained, expansion_contained

# unused here; kept importable because the benchmark's layer trace patches it
from crpqbound.homomorphism import succinct_containment  # noqa: F401
from crpqbound.oracle import (
    eval_on_graph,
    graph_of_cq,
    load_graph_csv,
    sampled_equivalence,
)
from crpqbound.qbfgen import build_q1, build_q2, parse_qbf, reduction
from crpqbound.succinct_nfa import membership, parse_nfa
from crpqbound.syntax import (
    UCRPQ,
    alphabet,
    collapse,
    parse_ucrpq,
    render_ucrpq,
)

EX_YES = 0
EX_NO = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_VERIFY_FAILED = 70
EX_INTERNAL = 71

_VERDICT_EXIT = {
    "bounded": EX_YES,
    "unbounded": EX_NO,
    "inconclusive": EX_INCONCLUSIVE,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # whole flags only: --cap never means --cap-atoms
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse would sys.exit(2); route through the documented code instead
    def error(self, message):
        raise _UsageError(message)


# ------------------------------------------------------------------ helpers


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# each cap flag: the Caps field it sets and its help text
_CAP_FLAGS = {
    "--cap": (
        "max_expansions", "exponent combinations (all, not only the probes checked); words per label"
    ),
    "--cap-atoms": (
        "max_materialized_atoms", "longest expansion (letters) checked or materialized"
    ),
    "--cap-length": (
        "max_length_dp",
        "lengths per state in member's length search, both its pivot residues and its"
        " acyclic length sets; longest word the oracles unroll",
    ),
    "--cap-word-len": ("max_word_len", "longest word a star-free label spells when listed"),
}


def _caps_from(ns) -> Caps:
    values = vars(ns)  # a field is absent where its flag is not registered
    overrides = {f: values[f] for f, _ in _CAP_FLAGS.values() if values.get(f) is not None}
    if any(v <= 0 for v in overrides.values()):
        raise _UsageError("caps must be positive integers")
    return replace(DEFAULT_CAPS, **overrides) if overrides else DEFAULT_CAPS


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _answer(ns, holds: bool, verdict: str, **extra) -> int:
    """Print verdict, or not-verdict, as text or JSON; exit 0 or 1 to match."""
    if not holds:
        verdict = f"not-{verdict}"
    if ns.json:
        _emit_json({"schema": 1, "verdict": verdict, **extra})
    else:
        print(verdict)
    return EX_YES if holds else EX_NO


# ------------------------------------------------------------------ analyze


def _bounds_dict(b) -> dict:
    return {
        "nratoms": b.nratoms,
        "nrvars": b.nrvars,
        "N": b.n_len,
        "Zred": b.z_red,
        "Zcol": b.z_col,
        "Z": b.z,
        "Zplus": b.z_plus,
    }


def _report_json(report: AnalysisReport, seed: int, cli_mode: dict) -> dict:
    mode = dict(report.mode)
    mode.update(cli_mode)
    if report.inconclusive_reason:
        mode["inconclusive_reason"] = report.inconclusive_reason
    return {
        "schema": 1,
        "verdict": report.verdict,
        "bounds": _bounds_dict(report.bounds),
        "rewriting": render_ucrpq(report.rewriting) if report.rewriting else None,
        "witness": render_succinct_cq(report.witness) if report.witness else None,
        "maximal_letters": None if report.per_letter is None else sorted(report.letters),
        "stats": {
            "expansions_checked": report.stats.expansions_checked,
            "nfa_calls": report.stats.nfa_calls,
            # wall time is pinned so identical runs stay byte-identical
            "wall_ms": 0,
            "seed": seed,
        },
        "mode": mode,
    }


def _print_report(report: AnalysisReport) -> None:
    b = report.bounds
    words = " * ".join(str(len(w)) for w in b.rec_words) or "1"
    print(f"verdict: {report.verdict}")
    print("bounds: " + " ".join(f"{k}={v}" for k, v in _bounds_dict(b).items()))
    print(
        f"Z derivation: nratoms^3 * N * nrvars * prod|w| = "
        f"{b.nratoms}^3 * {b.n_len} * {b.nrvars} * {words} = {b.z}"
    )
    if report.per_letter is not None:
        print(f"maximal_letters: {','.join(sorted(report.letters)) or '(none)'}")
        for letter, letter_report in report.per_letter:
            print(f"  {letter}: {letter_report.verdict}")
    elif report.mode.get("letters") is not None:
        print(f"letters: {report.mode['letters']}")
    if report.mode.get("shortcut"):
        print(f"shortcut: {report.mode['shortcut']}")
    if report.rewriting is not None:
        print(f"rewriting: {render_ucrpq(report.rewriting)}")
    if report.witness is not None:
        print(f"witness: {render_succinct_cq(report.witness)}")
    if report.inconclusive_reason:
        print(f"reason: {report.inconclusive_reason}")
    print(
        "stats: "
        f"expansions_checked={report.stats.expansions_checked} "
        f"nfa_calls={report.stats.nfa_calls} "
        f"wall_ms={report.stats.wall_ms:.1f}"
    )


def _verify_report(q: UCRPQ, report: AnalysisReport, caps: Caps, seed: int):
    """Yield (subject, outcome) for each verdict --oracle-verify replays.

    A bounded rewriting is sampled for equivalence with q; an unbounded
    witness is evaluated on its own canonical database.  The outcome is
    False when the oracle contradicts the verdict and None when a cap
    stopped the replay.  A --letters max report replays the rewriting of
    each bounded letter's own run.
    """
    if report.per_letter is None:
        runs = [("verdict", report)]
    else:
        runs = [(f"letter {a}", r) for a, r in report.per_letter if r.verdict == "bounded"]
    for subject, run in runs:
        try:
            if run.verdict == "bounded":
                sample = sampled_equivalence(
                    q, run.rewriting, trials=40, graph_size=5, seed=seed, caps=caps
                )
                outcome = None if sample.kind == "skipped" else sample.kind == "agree"
            elif run.verdict == "unbounded":
                db = graph_of_cq(materialize(run.witness, caps=caps))
                rhs = bound_letters(q, run.letters, run.bounds.z)
                in_q, in_rhs = eval_on_graph(q, db, caps), eval_on_graph(rhs, db, caps)
                outcome = in_q and not in_rhs
            else:
                continue
        except CapExceeded:
            outcome = None
        yield subject, outcome


def cmd_analyze(ns) -> int:
    q = parse_ucrpq(_read_text(ns.file))
    caps = _caps_from(ns)
    if ns.letters is None:
        report = is_bounded(q, caps, ns.full_enumeration, ns.zplus_mode)
    elif ns.letters == "max":
        report = maximal_bounded_letters(q, caps, ns.full_enumeration, ns.zplus_mode)
    else:
        if ns.letters == "all":
            letters = frozenset(alphabet(q))
        else:
            letters = frozenset(part for part in ns.letters.split(",") if part)
        report = is_bounded_in(q, letters, caps, ns.full_enumeration, ns.zplus_mode)

    if ns.json:
        cli_mode = {"oracle_verify": bool(ns.oracle_verify), "cap": caps.max_expansions}
        _emit_json(_report_json(report, ns.seed, cli_mode))
    else:
        _print_report(report)

    if ns.oracle_verify:
        for subject, outcome in _verify_report(q, report, caps, ns.seed):
            if outcome is False:
                print(f"oracle verify: {subject} contradicted by sampling", file=sys.stderr)
                return EX_VERIFY_FAILED
            if outcome is None:
                print(f"oracle verify: {subject} skipped (caps)", file=sys.stderr)
    return _VERDICT_EXIT[report.verdict]


# ------------------------------------------------------- other subcommands


def cmd_contains(ns) -> int:
    left = parse_ucrpq(_read_text(ns.left))
    right = parse_ucrpq(_read_text(ns.right))
    caps = _caps_from(ns)
    lam = None
    if len(left.disjuncts) == 1:
        with contextlib.suppress(UnsupportedFragment):
            lam = succinct_cq_from_crpq(collapse(left).disjuncts[0])
    if lam is None:
        raise UnsupportedFragment("left side must be one conjunction of word and w^n atoms")
    contained = isinstance(expansion_contained(lam, right, caps), Contained)
    return _answer(ns, contained, "contained")


def cmd_member(ns) -> int:
    nfa = parse_nfa(_read_text(ns.automaton))
    if ns.exponent < 0:
        raise _UsageError("exponent must be a natural number")
    caps = _caps_from(ns)
    word = tuple(ns.word) if ns.word != "eps" else ()
    accepted = membership(nfa, word, ns.exponent, caps)
    return _answer(ns, accepted, "member", word=ns.word, exponent=ns.exponent)


def cmd_qbfgen(ns) -> int:
    phi = parse_qbf(_read_text(ns.qbf))
    if ns.emit == "q1":
        d = build_q1(phi)
    elif ns.emit == "q2":
        d = build_q2(phi)
    else:
        d = reduction(phi)
    print(render_ucrpq(UCRPQ((d,))))
    return EX_YES


def cmd_eval(ns) -> int:
    db = load_graph_csv(ns.graph)
    q = parse_ucrpq(_read_text(ns.query))
    caps = _caps_from(ns)
    return _answer(ns, eval_on_graph(q, db, caps), "satisfied")


# ------------------------------------------------------------------ parser


def _add_caps_flags(sub, *flags) -> None:
    """Register the cap flags that the subcommand's code paths read."""
    for flag in flags:
        field, help_text = _CAP_FLAGS[flag]
        # stored under its Caps field; --help shows the metavar argparse derives from the flag
        metavar = flag[2:].replace("-", "_").upper()
        sub.add_argument(flag, type=int, dest=field, metavar=metavar, help=help_text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="crpqbound",
        description="Boundedness analysis for recursive graph queries.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="decide boundedness of a query file")
    analyze.add_argument("file", help="query file ('-' for stdin)")
    analyze.add_argument("--json", action="store_true", help="emit a JSON report")
    analyze.add_argument(
        "--letters",
        help="comma-separated letter set, 'all', or 'max' for the maximal bounded set",
    )
    analyze.add_argument(
        "--full-enumeration",
        action="store_true",
        help="probe every exponent up to Z+ instead of {0..Z} plus Z+",
    )
    analyze.add_argument(
        "--zplus-mode",
        choices=("paper", "safe"),
        default="paper",
        help="probe exponent formula",
    )
    analyze.add_argument(
        "--oracle-verify",
        action="store_true",
        help="cross-check the verdict against brute-force evaluation",
    )
    analyze.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    # --cap-length bounds the oracles' unrolling under --oracle-verify
    _add_caps_flags(analyze, "--cap", "--cap-atoms", "--cap-length", "--cap-word-len")

    contains = subs.add_parser("contains", help="succinct CQ containment in a query")
    contains.add_argument("left", help="contained query file")
    contains.add_argument("right", help="containing query file")
    contains.add_argument("--json", action="store_true")
    _add_caps_flags(contains, "--cap-atoms")

    member = subs.add_parser("member", help="succinct NFA membership of v^m")
    member.add_argument("automaton", help="automaton file ('-' for stdin)")
    member.add_argument("word", help="base word v, or 'eps'")
    member.add_argument("exponent", type=int, help="exponent m")
    member.add_argument("--json", action="store_true")
    _add_caps_flags(member, "--cap-length")

    qbfgen = subs.add_parser("qbfgen", help="emit the query reduction of a formula")
    qbfgen.add_argument("qbf", help="formula file ('-' for stdin)")
    qbfgen.add_argument("--emit", choices=("q", "q1", "q2"), default="q")

    evaluate = subs.add_parser("eval", help="evaluate a query over a CSV edge list")
    evaluate.add_argument("--graph", required=True, help="CSV file of src,label,dst rows")
    evaluate.add_argument("--query", required=True, help="query file ('-' for stdin)")
    evaluate.add_argument("--json", action="store_true")
    _add_caps_flags(evaluate, "--cap-length")

    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        # looked up per call, so a handler replaced on the module is the one run
        handler = {
            "analyze": cmd_analyze,
            "contains": cmd_contains,
            "member": cmd_member,
            "qbfgen": cmd_qbfgen,
            "eval": cmd_eval,
        }[ns.command]
        return handler(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (ParseError, UnsupportedFragment, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EX_USAGE
    except CapExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EX_INCONCLUSIVE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
