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

Arguments are declared once, in ``_COMMANDS``, and read in one walk from
left to right.  Flags are matched whole (no abbreviations) and take their
value as the next word or after ``=`` (``--cap=5``); a repeated flag keeps
its last value, ``--`` ends the flags, and ``-`` and negative numbers are
positionals.  A usage error (exit 64), bad caps and a negative exponent
included, comes before any input is read.  ``-h``/``--help`` prints the
help that argparse's formatter lays out from ``_COMMANDS`` for 80
columns, whatever the terminal's width, and exits 0; argparse is imported
only then.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from dataclasses import replace
from types import SimpleNamespace

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
from crpqbound.homomorphism import expansion_contained

# unused here; kept importable because the benchmark's layer trace patches it
from crpqbound.homomorphism import succinct_containment  # noqa: F401
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


class _HelpAsked(Exception):
    """-h or --help: main prints the help of the command named (None: the top level)."""


# ------------------------------------------------------------------ helpers


def _read_text(path: str) -> str:
    """The file's text, decoded as strict UTF-8 and with newlines translated
    as text mode does, from one unbuffered read; '-' reads stdin's bytes."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb", buffering=0) as fh:
            data = fh.readall()
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


# each cap flag: the Caps field it sets and its help text
_CAP_FLAGS = {
    "--cap": (
        "max_expansions",
        "exponent combinations (all, not only the probes checked; a pendant star counts once); "
        "words per label",
    ),
    "--cap-atoms": (
        "max_materialized_atoms", "longest expansion (letters) checked or materialized"
    ),
    "--cap-length": (
        "max_length_dp",
        "residues per state and pivot in member's length search, counted before"
        " and again after the walk passes the pivot;"
        " largest |w|*n of a power the oracles read",
    ),
    "--cap-word-len": ("max_word_len", "longest word a star-free label spells when listed"),
}


def _caps_from(ns) -> Caps:
    values = vars(ns)  # a field is absent where the subcommand has no such flag
    overrides = {f: values[f] for f, _ in _CAP_FLAGS.values() if values.get(f) is not None}
    return replace(DEFAULT_CAPS, **overrides) if overrides else DEFAULT_CAPS


_encode_str = json.encoder.encode_basestring_ascii
# how json.dumps writes the scalars a report holds; it writes any other itself
_SCALAR = {
    str: _encode_str,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _to_json(value, indent="\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for str-keyed payloads;
    the stdlib runs its pure-Python encoder whenever indent is set."""
    scalar = _SCALAR.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [_encode_str(k) + ": " + _to_json(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_to_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    return json.dumps(value)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(_to_json(payload) + "\n")


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
        # wall time is pinned so identical runs stay byte-identical
        "stats": {**vars(report.stats), "wall_ms": 0, "seed": seed},
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
    stats = dict(vars(report.stats))
    wall_ms = stats.pop("wall_ms")
    print("stats:", *(f"{k}={v}" for k, v in stats.items()), f"wall_ms={wall_ms:.1f}")


def _verify_report(q: UCRPQ, report: AnalysisReport, caps: Caps, seed: int):
    """Yield (subject, outcome) for each verdict --oracle-verify replays.

    A bounded rewriting is sampled for equivalence with q; an unbounded
    witness is evaluated on its own canonical database.  The outcome is
    False when the oracle contradicts the verdict and None when a cap
    stopped the replay.  A --letters max report replays the rewriting of
    each bounded letter's own run.
    """
    from crpqbound.oracle import eval_on_graph, graph_of_cq, sampled_equivalence

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
    contained = expansion_contained(lam, right, caps) is not None
    return _answer(ns, contained, "contained")


def cmd_member(ns) -> int:
    nfa = parse_nfa(_read_text(ns.automaton))
    caps = _caps_from(ns)
    word = tuple(ns.word) if ns.word != "eps" else ()
    accepted = membership(nfa, word, ns.exponent, caps)
    return _answer(ns, accepted, "member", word=ns.word, exponent=ns.exponent)


def cmd_qbfgen(ns) -> int:
    from crpqbound.qbfgen import build_q1, build_q2, parse_qbf, reduction

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
    from crpqbound.oracle import eval_on_graph, load_graph_csv

    db = load_graph_csv(ns.graph)
    q = parse_ucrpq(_read_text(ns.query))
    caps = _caps_from(ns)
    return _answer(ns, eval_on_graph(q, db, caps), "satisfied")


# -------------------------------------------------------------------- argv


def _cap(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise _UsageError("caps must be positive integers")
    return value


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise _UsageError("exponent must be a natural number")
    return value


def _cap_flags(*flags) -> list:
    """The rows of the cap flags that the subcommand's code paths read."""
    return [(flag, _CAP_FLAGS[flag][0], _cap, None, None, _CAP_FLAGS[flag][1]) for flag in flags]


_PROG = "crpqbound"
_DESCRIPTION = "Boundedness analysis for recursive graph queries."
_REQUIRED = object()  # the default of a flag that must be given

# The command line, declared once; _parse_argv and _help read it.  Each
# subcommand has its help line, its positionals as (name, value type, help)
# and its flags as (flag, dest, value type or None for a switch, default,
# choices, help).  Every value type but str reads an int and raises
# ValueError on other text.
_COMMANDS = {
    "analyze": (
        "decide boundedness of a query file",
        [("file", str, "query file ('-' for stdin)")],
        [
            ("--json", "json", None, False, None, "emit a JSON report"),
            ("--letters", "letters", str, None, None,
             "comma-separated letter set, 'all', or 'max' for the maximal bounded set"),
            ("--full-enumeration", "full_enumeration", None, False, None,
             "probe every exponent up to Z+ instead of {0..Z} plus Z+"),
            ("--zplus-mode", "zplus_mode", str, "paper", ("paper", "safe"),
             "probe exponent formula"),
            ("--oracle-verify", "oracle_verify", None, False, None,
             "cross-check the verdict against brute-force evaluation"),
            ("--seed", "seed", int, 0, None, "sampling seed (default 0)"),
            # --cap-length bounds the powers the oracles read under --oracle-verify
            *_cap_flags("--cap", "--cap-atoms", "--cap-length", "--cap-word-len"),
        ],
    ),
    "contains": (
        "succinct CQ containment in a query",
        [("left", str, "contained query file"), ("right", str, "containing query file")],
        [("--json", "json", None, False, None, None), *_cap_flags("--cap-atoms")],
    ),
    "member": (
        "succinct NFA membership of v^m",
        [
            ("automaton", str, "automaton file ('-' for stdin)"),
            ("word", str, "base word v, or 'eps'"),
            ("exponent", _natural, "exponent m"),
        ],
        [("--json", "json", None, False, None, None), *_cap_flags("--cap-length")],
    ),
    "qbfgen": (
        "emit the query reduction of a formula",
        [("qbf", str, "formula file ('-' for stdin)")],
        [("--emit", "emit", str, "q", ("q", "q1", "q2"), None)],
    ),
    "eval": (
        "evaluate a query over a CSV edge list",
        [],
        [
            ("--graph", "graph", str, _REQUIRED, None, "CSV file of src,label,dst rows"),
            ("--query", "query", str, _REQUIRED, None, "query file ('-' for stdin)"),
            ("--json", "json", None, False, None, None),
            *_cap_flags("--cap-length"),
        ],
    ),
}
_HELP = ("-h/--help", "help", None, None, None, None)  # argparse writes its help line
_TOP_FLAGS = {"-h": _HELP, "--help": _HELP}
# each subcommand's rows by flag, -h and --help included
_FLAGS = {
    name: {**_TOP_FLAGS, **{row[0]: row for row in rows}}
    for name, (_, _, rows) in _COMMANDS.items()
}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _read_flag(arg: str, flags: dict):
    """How an argv word before '--' reads: None for a positional ('-', a
    negative number, a word with a space or without a leading '-'), (row,
    attached value or None) for a flag, (None, None) for an unknown flag."""
    if arg[:1] != "-" or arg == "-":
        return None
    row = flags.get(arg)
    if row is not None:
        return row, None
    name, eq, attached = arg.partition("=")
    if eq and name in flags:
        return flags[name], attached
    if arg[1] != "-" and arg[:2] in flags:  # -hx: a one-letter flag with its value attached
        return flags[arg[:2]], arg[2:]
    if _NEGATIVE(arg) or " " in arg:
        return None
    return None, None


def _switch(arg: str, row, attached) -> None:
    """Refuse a value attached to a flag that takes none."""
    if attached is None:
        return
    if row is _HELP and arg[1] != "-":  # -hhx reads as -h -h -x
        if attached and not attached.lstrip("h"):
            return
        attached = attached.lstrip("h") or attached
    raise _UsageError(f"argument {row[0]}: ignored explicit argument {attached!r}")


def _value(name: str, kind, choices, text: str):
    try:
        value = kind(text)
    except ValueError:
        raise _UsageError(f"argument {name}: invalid int value: {text!r}") from None
    if choices and value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _UsageError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    return value


def _parse_argv(argv: list) -> SimpleNamespace:
    """The namespace argv names, read in one walk from left to right.
    Raises _UsageError, or _HelpAsked at -h or --help."""
    extras = []
    i, n = 0, len(argv)
    while True:  # the top level: -h, --help and unknown flags up to the subcommand
        if i == n:
            raise _UsageError("the following arguments are required: command")
        arg = argv[i]
        i += 1
        # a '--' that something follows is read as the subcommand's name
        read = None if arg == "--" and i < n else _read_flag(arg, _TOP_FLAGS)
        if read is None:
            break
        row, attached = read
        if row is None:
            extras.append(arg)
            continue
        _switch(arg, row, attached)
        raise _HelpAsked(None)
    command = _value("command", str, _COMMANDS, arg)
    _, positionals, rows = _COMMANDS[command]
    flags = _FLAGS[command]
    values = {row[1]: row[3] for row in rows if row[3] is not _REQUIRED}
    values["command"] = command
    slot = 0
    filled_at = -1  # the index of the last word read as a positional
    options = True  # until '--'
    while i < n:
        arg = argv[i]
        i += 1
        if options and arg == "--":
            options = False
            # a '--' next to a positional's word is dropped; any other is unrecognized
            if filled_at != i - 2 and slot == len(positionals):
                extras.append(arg)
            continue
        read = _read_flag(arg, flags) if options else None
        if read is None:
            if slot == len(positionals):
                extras.append(arg)
                continue
            name, kind, _ = positionals[slot]
            values[name] = _value(name, kind, None, arg)
            slot += 1
            filled_at = i - 1
            continue
        row, attached = read
        if row is None:
            extras.append(arg)
            continue
        flag, dest, kind, _, choices, _ = row
        if kind is None:
            _switch(arg, row, attached)
            if row is _HELP:
                raise _HelpAsked(command)
            values[dest] = True
            continue
        if attached is None:
            if i == n or argv[i] == "--" or _read_flag(argv[i], flags) is not None:
                raise _UsageError(f"argument {flag}: expected one argument")
            attached = argv[i]
            i += 1
        values[dest] = _value(flag, kind, choices, attached)
    missing = [name for name, _, _ in positionals[slot:]]
    missing += [row[0] for row in rows if row[3] is _REQUIRED and row[1] not in values]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise _UsageError("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def _help(command) -> str:
    """The --help text of a subcommand (None: the top level): argparse lays
    out _COMMANDS for 80 columns whatever the terminal's width."""
    import argparse

    def formatter(prog):  # two of the 80 columns stay free
        return argparse.HelpFormatter(prog, width=78)

    parser = argparse.ArgumentParser(_PROG, description=_DESCRIPTION, formatter_class=formatter)
    subparsers = parser.add_subparsers()
    for name, (text, positionals, rows) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=text, formatter_class=formatter)
        for positional, _, help_text in positionals:
            sub.add_argument(positional, help=help_text)
        for flag, dest, kind, default, choices, help_text in rows:
            if kind is None:
                sub.add_argument(flag, action="store_true", help=help_text)
            else:
                metavar = None if choices else flag[2:].replace("-", "_").upper()
                sub.add_argument(flag, dest=dest, choices=choices, metavar=metavar,
                                 required=default is _REQUIRED, help=help_text)
    return (subparsers.choices[command] if command else parser).format_help()


def main(argv=None) -> int:
    try:
        ns = _parse_argv(sys.argv[1:] if argv is None else argv)
        # looked up per call, so a handler replaced on the module is the one run
        handler = {
            "analyze": cmd_analyze,
            "contains": cmd_contains,
            "member": cmd_member,
            "qbfgen": cmd_qbfgen,
            "eval": cmd_eval,
        }[ns.command]
        return handler(ns)
    except _HelpAsked as asked:
        sys.stdout.write(_help(asked.args[0]))
        return EX_YES
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
