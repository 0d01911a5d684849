"""End-to-end command behaviour: exit codes, JSON shape, determinism."""

import argparse
import functools
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import (
    gen_random_graph,
    gen_random_snfa,
    gen_random_succinct_cq,
    gen_random_word,
    rewriting_corpus,
)

from crpqbound import boundedness, cli, oracle
from crpqbound.boundedness import is_bounded_in
from crpqbound.cli import main
from crpqbound.expansion import materialize, render_succinct_cq, succinct_cq_from_crpq
from crpqbound.homomorphism import cq_hom
from crpqbound.qbfgen import parse_qbf
from crpqbound.syntax import MAX_NESTING, Power, parse_ucrpq, render_regex, render_ucrpq

CLAIM = "?x -[(ab)*]-> ?y, ?x -[a]-> ?z, ?z -[b]-> ?w\n"
ASTARB = "?x -[a*]-> ?y, ?x -[b]-> ?y\n"
LEAFY = "?x -[a]-> ?y, ?y -[c*]-> ?z\n"
# two star letters: a is unbounded, c bounded
LEAFY2 = "?x -[a*]-> ?y, ?x -[b]-> ?y, ?x -[c*]-> ?w\n"


@pytest.fixture
def qfile(tmp_path):
    def write(text, name="q.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_analyze_bounded_exit_zero(qfile, capsys):
    assert main(["analyze", qfile(CLAIM)]) == 0
    out = capsys.readouterr().out
    assert "bounded" in out
    assert "Z derivation" in out


def test_analyze_unbounded_exit_one(qfile, capsys):
    assert main(["analyze", qfile(ASTARB)]) == 1
    out = capsys.readouterr().out
    assert "unbounded" in out


def test_analyze_inconclusive_exit_two(qfile):
    assert main(["analyze", qfile(ASTARB), "--cap", "1"]) == 2


def test_analyze_json_is_deterministic(qfile, capsys):
    path = qfile(ASTARB)
    assert main(["analyze", path, "--json"]) == 1
    first = capsys.readouterr().out
    assert main(["analyze", path, "--json"]) == 1
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["schema"] == 1
    assert report["verdict"] == "unbounded"
    assert report["bounds"]["Z"] == 16
    assert report["bounds"]["Zplus"] == 33
    assert report["stats"]["wall_ms"] == 0


def test_analyze_letters_max_json(qfile, capsys):
    assert main(["analyze", qfile(LEAFY), "--letters", "max", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["maximal_letters"] == ["c"]


def test_analyze_letters_max_reports_summed_stats(qfile, capsys):
    path = qfile(LEAFY2)
    assert main(["analyze", path, "--letters", "max", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    q = parse_ucrpq(LEAFY2)
    runs = [is_bounded_in(q, {a}) for a in "ac"]
    # c* ends in the leaf w and sits at 0: the a run checks its first
    # probe, the witness, and the c run has nothing to probe
    for field, total in (("expansions_checked", 1), ("covered", 0), ("cover_checks", 0)):
        assert report["stats"][field] == sum(getattr(r.stats, field) for r in runs) == total
    assert report["maximal_letters"] == ["c"]

    # loops have no leaf: each letter run reads 29 probes, 28 of them
    # decided by one cover check
    loops = "?x -[a*]-> ?x, ?x -[b*]-> ?x, ?x -[c]-> ?x\n"
    assert main(["analyze", qfile(loops, "loops.txt"), "--letters", "max", "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    runs = [is_bounded_in(parse_ucrpq(loops), {a}) for a in "ab"]
    for field, each in (("expansions_checked", 29), ("covered", 28), ("cover_checks", 1)):
        assert [getattr(r.stats, field) for r in runs] == [each, each]
        assert stats[field] == 2 * each
    assert report["mode"]["per_letter"] == [["a", "unbounded"], ["c", "bounded"]]

    assert main(["analyze", path, "--letters", "max"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verdict: unbounded"
    assert lines[1] == "bounds: nratoms=3 nrvars=3 N=1 Zred=1 Zcol=9 Z=81 Zplus=244"
    assert "maximal_letters: c" in lines
    assert "  a: unbounded" in lines and "  c: bounded" in lines
    assert lines[-1].startswith("stats: expansions_checked=1 covered=0 cover_checks=0 wall_ms=")


def test_letters_max_oracle_verify_runs_no_second_analysis(qfile, capsys, monkeypatch):
    calls = []
    decide = boundedness._decide
    bind = inspect.signature(decide).bind

    def counted(*args, **kwargs):
        calls.append(bind(*args, **kwargs).arguments["letters"])
        return decide(*args, **kwargs)

    monkeypatch.setattr(boundedness, "_decide", counted)
    sampled = []

    def agree(q, rewriting, **kwargs):
        sampled.append(rewriting)
        return SimpleNamespace(kind="agree")

    monkeypatch.setattr(oracle, "sampled_equivalence", agree)
    path = qfile(LEAFY2)
    assert main(["analyze", path, "--letters", "max", "--oracle-verify"]) == 1
    capsys.readouterr()
    assert calls == [frozenset("a"), frozenset("c")]
    # only the bounded letter's rewriting is sampled
    assert sampled == [is_bounded_in(parse_ucrpq(LEAFY2), {"c"}).rewriting]


def test_letters_max_oracle_verify_names_the_contradicted_letter(
    qfile, capsys, monkeypatch
):
    monkeypatch.setattr(
        oracle, "sampled_equivalence", lambda *a, **k: SimpleNamespace(kind="disagree")
    )
    assert main(["analyze", qfile(LEAFY2), "--letters", "max", "--oracle-verify"]) == 70
    err = capsys.readouterr().err
    assert "letter c contradicted" in err


def test_analyze_letters_set(qfile, capsys):
    assert main(["analyze", qfile(LEAFY), "--letters", "c"]) == 0
    assert main(["analyze", qfile(ASTARB), "--letters", "a"]) == 1


def test_analyze_letters_prints_the_set_comma_separated(qfile, capsys):
    # joined without commas, {x1, b} would read as the letters b, x and 1
    path = qfile("?x -['x1'*]-> ?y, ?x -[b]-> ?y, ?x -[b*]-> ?z\n")
    assert main(["analyze", path, "--letters", "x1,b"]) == 1
    assert "letters: b,x1" in capsys.readouterr().out.splitlines()
    assert main(["analyze", path, "--letters", "x1,b", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["mode"]["letters"] == "b,x1"


def test_analyze_oracle_verify(qfile, capsys):
    assert main(["analyze", qfile(ASTARB), "--oracle-verify", "--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["mode"]["oracle_verify"] is True
    # exit 70 with a stderr complaint would mean the cross-check failed
    assert "contradicted" not in captured.err


def test_analyze_star_free_cap_is_inconclusive_json(qfile, capsys):
    path = qfile("?x -[a^<=20 b^<=20 c]-> ?y, ?x -[c*]-> ?y\n")
    assert main(["analyze", path, "--cap", "100", "--json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "inconclusive"
    assert "concat language too large" in report["mode"]["inconclusive_reason"]


@pytest.mark.parametrize("text, code", [
    ("?x -[a^<=3000 b]-> ?y\n", 0),
    ("?x -[a^<=3000 b]-> ?y, ?x -[c*]-> ?y\n", 2),
])
def test_star_free_language_is_counted_without_listing(qfile, capsys, text, code):
    # listing the 3,001 words took 69 MB; the budget needs only their count
    tracemalloc.start()
    try:
        assert main(["analyze", qfile(text), "--json"]) == code
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    reason = json.loads(capsys.readouterr().out)["mode"].get("inconclusive_reason")
    assert reason is None if code == 0 else reason.startswith("needs 3001 containment checks")


@pytest.mark.parametrize("text", [
    "?x -[a^1000000]-> ?y\n",
    "?x -[a^1000000]-> ?y, ?x -[b*]-> ?w\n",
])
def test_a_grid_without_probed_stars_lists_no_exponents(qfile, capsys, text):
    # Z is in the millions; with no star probed, star-free or every star
    # into a leaf, no exponent value is listed
    tracemalloc.start()
    try:
        assert main(["analyze", qfile(text), "--json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert json.loads(capsys.readouterr().out)["stats"]["expansions_checked"] == 0


def test_human_report_names_its_shortcut(qfile, capsys):
    assert main(["analyze", qfile("?x -[a*]-> ?y | ?x -[eps]-> ?y\n")]) == 0
    assert "\nshortcut: nullable-disjunct\n" in capsys.readouterr().out
    assert main(["analyze", qfile(CLAIM)]) == 0
    assert "shortcut" not in capsys.readouterr().out


def test_analyze_and_eval_output_does_not_depend_on_the_hash_seed(tmp_path, qfile):
    claim = "?x -[a]-> ?y, ?x -[a*]-> ?z, ?z -[b]-> ?w\n"
    union = "?x -[a*]-> ?y | ?x -[b]-> ?y, ?y -[a*]-> ?x\n"
    paths = [qfile(text, f"q{i}.txt") for i, text in enumerate((claim, LEAFY2, union))]
    runs = [
        ["analyze", path, "--json", *extra]
        for path in paths
        for extra in ([], ["--letters", "max"], ["--oracle-verify"])
    ]
    # the claim's sampled replay alone takes a second per process
    runs.remove(["analyze", paths[0], "--json", "--oracle-verify"])
    graph = tmp_path / "g.csv"
    graph.write_text("u,a,v\nv,b,w\nw,a,u\nu,b,u\n")
    runs.append(["eval", "--graph", str(graph), "--query", paths[2], "--json"])
    phi = tmp_path / "phi.qbf"
    phi.write_text("forall 1..2\nexists 3..4\n1 -3 4 0\n-2 3 -4 0\n")
    runs += [["qbfgen", str(phi), "--emit", emit] for emit in ("q", "q1", "q2")]
    script = "import json, sys\nfrom crpqbound.cli import main\n"
    script += "for argv in json.loads(sys.argv[1]):\n    print(main(argv))\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(runs)],
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in range(4)
    ]
    outputs = {(*p.communicate(timeout=60), p.returncode) for p in procs}
    assert len(outputs) == 1, outputs
    out, err, code = outputs.pop()
    assert code == 0 and not err
    codes = [line for line in out.splitlines() if line.isdigit()]
    assert codes == ["0"] * 2 + ["1"] * 3 + ["0"] * 7 and out.count('"verdict"') == 9
    queries = out.splitlines()[-6::2]
    assert len(set(queries)) == 3 and all(q.startswith("?") for q in queries)


def test_missing_file_exit_64(capsys):
    assert main(["analyze", "/nonexistent/q.txt"]) == 64
    assert capsys.readouterr().err


def test_parse_error_exit_64(qfile, capsys):
    assert main(["analyze", qfile("?x -[(a*)*]-> ?y\n")]) == 64
    assert capsys.readouterr().err


def test_unknown_flag_exit_64(qfile, capsys):
    assert main(["analyze", qfile(CLAIM), "--bogus"]) == 64
    capsys.readouterr()


def test_contains_directions(qfile, capsys):
    left = qfile("?x -[a]-> ?y, ?y -[a]-> ?z\n", "l.txt")
    wide = qfile("?x -[a^<=4]-> ?y\n", "r.txt")
    narrow = qfile("?x -[a^3]-> ?y\n", "r2.txt")
    assert main(["contains", left, wide]) == 0
    assert main(["contains", left, narrow]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "left_text, right_text, code",
    [
        ("?x -[a b b]-> ?y\n", "?x -[a b*]-> ?y\n", 0),
        ("?x -[a b]-> ?x\n", "?x -[a b*]-> ?x\n", 0),
        ("?x -[a b]-> ?x\n", "?x -[a c*]-> ?x\n", 1),
        ("?x -[a b b]-> ?y, ?y -[a]-> ?x\n", "?x -[a b*]-> ?y, ?y -[a]-> ?x\n", 0),
        ("?x -[a b b]-> ?y\n", "?x -[a b*]-> ?y, ?y -[a]-> ?x\n", 1),
    ],
    ids=["path", "loop", "loop-fails", "cycle", "cycle-fails"],
)
def test_contains_reads_a_star_inside_a_right_side_label(qfile, capsys, left_text, right_text, code):
    # a label holding a star spells unbounded words, so no closed-walk bound counts it
    left, right = qfile(left_text, "l.txt"), qfile(right_text, "r.txt")
    assert main(["contains", left, right]) == code
    capsys.readouterr()


def test_contains_materializes_a_long_left_side(qfile, capsys):
    # 12,000 letters: decided within --cap-atoms, agreeing with cq_hom
    text = "?x -[(ab)^6000]-> ?y\n"
    left = qfile(text, "l.txt")
    lam = materialize(succinct_cq_from_crpq(parse_ucrpq(text).disjuncts[0]))
    for right_text, code in (("?u -[(ab)^2]-> ?v\n", 0), ("?u -[aa]-> ?v\n", 1)):
        right = qfile(right_text, "r.txt")
        rho = materialize(succinct_cq_from_crpq(parse_ucrpq(right_text).disjuncts[0]))
        assert main(["contains", left, right]) == code
        assert (cq_hom(rho, lam) is not None) == (code == 0)
    capsys.readouterr()


def test_contains_long_left_side_stays_small(qfile, capsys):
    # the left side is indexed by positions, not unrolled into named atoms
    left = qfile("?x -[a^100000]-> ?y\n", "l.txt")
    right = qfile("?u -[a^2]-> ?t\n", "r.txt")
    tracemalloc.start()
    try:
        assert main(["contains", left, right]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    capsys.readouterr()


def test_member_exit_codes(tmp_path, capsys):
    nfa = tmp_path / "m.nfa"
    nfa.write_text("initial: p\nfinals: f\np -[(ab)^3]-> f\n")
    assert main(["member", str(nfa), "ab", "3"]) == 0
    assert main(["member", str(nfa), "ab", "2"]) == 1
    # eps^3 is eps, which the automaton does not accept
    assert main(["member", str(nfa), "eps", "3"]) == main(["member", str(nfa), "eps", "0"]) == 1
    capsys.readouterr()


CYCLIC_NFA = (
    "initial: p\nfinals: f\n"
    "p -[a^7]-> q\nq -[a^5]-> p\nq -[(aa)^2]-> q\np -[a^3]-> f\n"
)


def test_member_cyclic_automaton_beyond_a_million(tmp_path, capsys):
    # accepted lengths: 3, and 3 + 12k + 4j for k >= 1, j >= 0
    nfa = tmp_path / "c.nfa"
    nfa.write_text(CYCLIC_NFA)
    assert main(["member", str(nfa), "a", "1999999"]) == 0
    assert main(["member", str(nfa), "a", "2000000"]) == 1
    capsys.readouterr()


def test_member_tight_cap_answer_does_not_depend_on_the_hash_seed(tmp_path):
    # the cap stops one pivot's table; which pivot is cut must not vary by process
    nfa = tmp_path / "c.nfa"
    nfa.write_text(CYCLIC_NFA)
    argv = [sys.executable, "-m", "crpqbound.cli", "member", str(nfa), "a", "1999999"]
    argv += ["--cap-length", "1"]
    src = str(Path(cli.__file__).resolve().parents[1])
    codes = {
        subprocess.run(
            argv,
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
            capture_output=True,
        ).returncode
        for seed in range(6)
    }
    assert len(codes) == 1, codes


def test_contains_answer_does_not_depend_on_the_hash_seed(qfile):
    left = qfile("?x -[a]-> ?y, ?y -[a]-> ?z\n", "l.txt")
    loop = qfile("?x -[aab]-> ?x, ?x -[b]-> ?y\n", "l2.txt")
    runs = [
        ["contains", left, qfile("?x -[a^<=4]-> ?y\n", "r1.txt"), "--json"],
        ["contains", left, qfile("?x -[a^3]-> ?y\n", "r2.txt"), "--json"],
        ["contains", loop, qfile("?u -[aba]-> ?u, ?u -[ab]-> ?v\n", "r3.txt"), "--json"],
    ]
    script = "import json, sys\nfrom crpqbound.cli import main\n"
    script += "for argv in json.loads(sys.argv[1]):\n    print(main(argv))\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(runs)],
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in range(4)
    ]
    outputs = {(*p.communicate(timeout=60), p.returncode) for p in procs}
    assert len(outputs) == 1, outputs
    out, err, code = outputs.pop()
    assert code == 0 and not err
    codes = [line for line in out.splitlines() if line.isdigit()]
    assert codes == ["0", "1", "0"]


def test_successive_calls_share_no_state(tmp_path, capsys):
    nfa = tmp_path / "m.nfa"
    nfa.write_text("initial: p\nfinals: f\np -[(ab)^3]-> f\n")
    assert main(["member", str(nfa), "ab", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "member"
    assert main(["member", str(nfa), "ab", "3"]) == 0
    assert capsys.readouterr().out == "member\n"


def test_eval_exit_codes(tmp_path, qfile, capsys):
    g = tmp_path / "g.csv"
    g.write_text("src,label,dst\nu,a,v\n")
    assert main(["eval", "--graph", str(g), "--query", qfile("?x -[a*]-> ?y\n")]) == 0
    assert main(["eval", "--graph", str(g), "--query", qfile("?x -[b]-> ?y\n")]) == 1
    capsys.readouterr()


def test_qbfgen_output_reparses(tmp_path, capsys):
    phi = tmp_path / "phi.qbf"
    phi.write_text("forall 1..1\nexists 2..2\n1 2 2 0\n")
    assert main(["qbfgen", str(phi)]) == 0
    text = capsys.readouterr().out
    q = parse_ucrpq(text)
    assert len(q.disjuncts[0].atoms) == 88


def test_qbfgen_emit_q1(tmp_path, capsys):
    phi = tmp_path / "phi.qbf"
    phi.write_text("forall 1..1\nexists 2..2\n1 2 2 0\n")
    assert main(["qbfgen", str(phi), "--emit", "q1"]) == 0
    q = parse_ucrpq(capsys.readouterr().out)
    assert len(q.disjuncts[0].atoms) == 75


def test_cap_flag_rejects_nonpositive(qfile, capsys):
    assert main(["analyze", qfile(CLAIM), "--cap", "0"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "/nonexistent/q.txt", "--cap", "0"], "caps must be positive integers"),
        (["member", "/nonexistent/m.nfa", "ab", "-1"], "exponent must be a natural number"),
    ],
)
def test_usage_errors_come_before_the_input_is_read(argv, message, capsys):
    assert main(argv) == 64
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_import_loads_only_what_a_decision_runs(qfile):
    query, automaton = qfile(ASTARB), qfile(AUTOMATON, "m.nfa")
    script = "import sys\nfrom crpqbound.cli import main\n"
    script += f"codes = main(['member', {automaton!r}, 'ab', '3']),"
    script += f" main(['analyze', {query!r}, '--json'])\n"
    script += "print(codes, sorted({'argparse', 'graphlib', 'crpqbound.oracle',"
    script += " 'crpqbound.qbfgen'} & set(sys.modules)))"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    member, *report, loaded = done.stdout.splitlines()
    assert member == "member"
    assert json.loads("\n".join(report))["verdict"] == "unbounded"
    assert loaded == "(0, 1) []"


@pytest.mark.parametrize("command", [[], *([name] for name in cli._COMMANDS)])
def test_help_ignores_the_terminal_width(command, capsys, monkeypatch):
    printed = []
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main([*command, "-h"]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1] == printed[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["contains", "{q}", "{q}", "--cap", "5"],
        ["member", "{nfa}", "a", "1", "--cap-atoms", "5"],
        ["member", "{nfa}", "a", "1", "--cap-semilinear", "1"],
        ["eval", "--graph", "{g}", "--query", "{q}", "--cap", "5"],
    ],
)
def test_cap_flag_a_subcommand_never_reads_is_refused(tmp_path, qfile, capsys, argv):
    nfa = tmp_path / "m.nfa"
    nfa.write_text("initial: p\nfinals: f\np -[a]-> f\n")
    g = tmp_path / "g.csv"
    g.write_text("src,label,dst\nu,a,v\n")
    paths = {"q": qfile("?x -[a]-> ?y\n"), "nfa": str(nfa), "g": str(g)}
    assert main([arg.format(**paths) for arg in argv]) == 64
    assert "unrecognized arguments" in capsys.readouterr().err


def test_each_cap_flag_turns_a_decided_answer_inconclusive(tmp_path, qfile, capsys):
    def runs(argv, flag, value):
        assert main(argv) in (0, 1), argv
        assert main(argv + [flag, value]) == 2, (argv, flag)

    word_len = qfile("?x -[b a^20 + c]-> ?y, ?x -[a*]-> ?y\n")
    runs(["analyze", word_len], "--cap-word-len", "5")
    runs(["analyze", qfile(ASTARB)], "--cap-atoms", "1")
    left = qfile("?x -[abcabcabcabc]-> ?y\n", "l.txt")
    right = qfile("?u -[(abc)^<=4]-> ?v\n", "r.txt")
    runs(["contains", left, right], "--cap-atoms", "3")
    # one pivot whatever the order: every cycle runs through p
    cyclic = tmp_path / "c.nfa"
    cyclic.write_text(
        "initial: p\nfinals: f\np -[a^7]-> p\np -[a^3]-> p\np -[a]-> f\n"
    )
    runs(["member", str(cyclic), "a", "15"], "--cap-length", "2")
    acyclic = tmp_path / "a.nfa"
    acyclic.write_text("initial: i\nfinals: f\ni -[a]-> f\ni -[a^2]-> f\n")
    runs(["member", str(acyclic), "a", "3"], "--cap-length", "1")
    assert main(["member", str(acyclic), "a", "3", "--cap-length", "2"]) == 1
    # a^2 is accepted as f's second length is found: decided under the cap
    assert main(["member", str(acyclic), "a", "2", "--cap-length", "1"]) == 0
    g = tmp_path / "g.csv"
    g.write_text("src,label,dst\n" + "".join(f"v{i},a,v{i + 1}\n" for i in range(5)))
    runs(["eval", "--graph", str(g), "--query", qfile("?x -[a^5]-> ?y\n")], "--cap-length", "1")
    capsys.readouterr()


def test_oracle_verify_cap_length_skips_the_replay(qfile, capsys):
    assert main(["analyze", qfile(ASTARB), "--oracle-verify", "--cap-length", "1"]) == 1
    assert capsys.readouterr().err == "oracle verify: verdict skipped (caps)\n"


def test_seed_is_set_by_the_flag_alone(qfile, capsys, monkeypatch):
    def seed(*flags):
        assert main(["analyze", qfile(CLAIM), "--json", *flags]) == 0
        return json.loads(capsys.readouterr().out)["stats"]["seed"]

    assert seed("--seed", "7") == 7
    # the environment never sets it: a report depends on its arguments and input
    monkeypatch.setenv("CRPQ_BOUND_SEED", "7")
    assert seed() == 0


@pytest.mark.parametrize("fault", [ValueError("bad state"), RuntimeError("lost")])
def test_internal_fault_exits_71(tmp_path, capsys, monkeypatch, fault):
    def broken(*args):
        raise fault

    monkeypatch.setattr(cli, "membership", broken)
    nfa = tmp_path / "m.nfa"
    nfa.write_text("initial: p\nfinals: f\np -[a]-> f\n")
    assert main(["member", str(nfa), "a", "1"]) == 71
    assert capsys.readouterr().err == f"internal error: {type(fault).__name__}: {fault}\n"


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("g.csv", "src,label,dst\nu,a\n", ["eval", "--graph", "{path}", "--query", "{q}"]),
        ("zero.qbf", "forall 1..1\nexists 2..2\n1 0 2\n", ["qbfgen", "{path}"]),
        ("range.qbf", "forall 1..1\nexists 2..2\n1 2 9\n", ["qbfgen", "{path}"]),
        ("wide.qbf", "forall 1.." + "9" * 5000 + "\n", ["qbfgen", "{path}"]),
        ("empty.qbf", "forall 1..1\nexists 2..2\n", ["qbfgen", "{path}", "--emit", "q2"]),
        ("latin1.txt", b"\xff?x -[a]-> ?y\n", ["analyze", "{path}"]),
        ("long.txt", "?x -[a^" + "9" * 5000 + "]-> ?y\n", ["analyze", "{path}"]),
        ("deep.txt", "?x -[" + "(" * 3000 + "a" + ")" * 3000 + "]-> ?y\n", ["analyze", "{path}"]),
        ("spaced.nfa", "initial: p q\nfinals: f\np -[a]-> f\n", ["member", "{path}", "a", "1"]),
        ("dollar.nfa", "initial: p\nfinals: f$\np -[a]-> f\n", ["member", "{path}", "a", "1"]),
    ],
)
def test_bad_input_exits_64(tmp_path, qfile, capsys, name, text, argv):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    paths = {"path": str(path), "q": qfile("?x -[a]-> ?y\n")}
    assert main([arg.format(**paths) for arg in argv]) == 64
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("?x -[a b*]-> ?y", [], "outside the supported fragment"),
        ("?x -[a* + b]-> ?y", [], "outside the supported fragment"),
        ("?x -[(ab)*]-> ?y", ["--letters", "max"], "needs single-letter stars"),
        ("?x -[(a+b)*]-> ?y", [], "star over non-word"),
    ],
)
def test_labels_outside_the_fragment_exit_64(qfile, capsys, text, argv, message):
    assert main(["analyze", qfile(text + "\n"), *argv]) == 64
    assert message in capsys.readouterr().err


def test_label_nested_to_the_limit_is_analyzed(qfile, capsys):
    # alternating union and concatenation, so every level stays in the tree
    label = "a"
    for i in range(MAX_NESTING):
        label = f"(b+{label})" if i % 2 == 0 else f"(a{label})"
    assert main(["analyze", qfile(f"?x -[a*]-> ?y, ?x -[{label}]-> ?y\n"), "--json"]) in (0, 1, 2)
    capsys.readouterr()
    assert main(["analyze", qfile(f"?x -[({label})]-> ?y\n")]) == 64
    assert f"nested deeper than {MAX_NESTING}" in capsys.readouterr().err


def test_long_literal_word_label_is_one_choice(qfile, capsys):
    # its one word is not listed, so --cap-word-len's listing limit does not apply
    assert main(["analyze", qfile("?x -[" + "a" * 10_001 + "]-> ?y\n"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "bounded"


# ------------------------------------------------------------ the front end


def _json_runs(tmp_path, count=10, seed=5):
    """argv of seeded runs of every subcommand that reports in JSON."""
    rng = random.Random(seed)
    runs = []
    for i, q in enumerate(rewriting_corpus(count, seed)):
        query = tmp_path / f"q{i}.txt"
        query.write_text(render_ucrpq(q) + "\n")
        for extra in ([], ["--letters", "a,b"], ["--letters", "max"]):
            runs.append(["analyze", str(query), "--json", *extra])
        left, right = tmp_path / f"l{i}.txt", tmp_path / f"r{i}.txt"
        left.write_text(render_succinct_cq(gen_random_succinct_cq(rng)) + "\n")
        right.write_text(render_succinct_cq(gen_random_succinct_cq(rng)) + "\n")
        runs.append(["contains", str(left), str(right), "--json"])
        nfa = gen_random_snfa(rng)
        automaton = tmp_path / f"m{i}.nfa"
        lines = [f"initial: {nfa.initial}", f"finals: {' '.join(nfa.finals)}"]
        for t in nfa.transitions:
            label = render_regex(Power(t.word, t.exponent)) if t.word else "eps"
            lines.append(f"{t.src} -[{label}]-> {t.dst}")
        automaton.write_text("\n".join(lines) + "\n")
        word = "".join(gen_random_word(rng))
        runs.append(["member", str(automaton), word, str(rng.randint(0, 20)), "--json"])
        graph = tmp_path / f"g{i}.csv"
        graph.write_text("".join(f"{u},{a},{v}\n" for u, a, v in gen_random_graph(rng, 4).edges))
        runs.append(["eval", "--graph", str(graph), "--query", str(query), "--json"])
    return runs


def test_json_reports_match_the_stdlib_encoder(tmp_path, capsys, monkeypatch):
    payloads = []
    emit = cli._emit_json

    def recorded(payload):
        payloads.append(payload)
        emit(payload)

    monkeypatch.setattr(cli, "_emit_json", recorded)
    kinds = set()
    for argv in _json_runs(tmp_path):
        main(argv)
        out = capsys.readouterr().out
        if out:
            assert out == json.dumps(payloads.pop(), indent=2, sort_keys=True) + "\n", argv
            kinds.add(argv[0] + ("-max" if "max" in argv else ""))
    assert kinds == {"analyze", "analyze-max", "contains", "member", "eval"}


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"empty": {}, "list": [], "tuple": (), "nested": {"deeper": {"leaf": [[], {}]}}},
        {"text": 'na\u00efve \u4e2d \U0001f600 "quoted" back\\slash \x00\x1f\x7f\n\t\r </b>'},
        {"\u00e9": 1, "Z": 2, "a": 3, "\\": 4, '"': 5},
        {"tuples": ((1, (2, ("x",))), [True, False, None]), "big": 2**100, "neg": -(10**30)},
        {"float": 0.1, "floats": [1.5, -0.0, 1e300, 2.5e-8]},
        ("top", 0, None),
        "a bare string",
    ],
)
def test_report_writer_matches_the_stdlib_encoder(payload):
    assert cli._to_json(payload) == json.dumps(payload, indent=2, sort_keys=True)


QUERY = "?x -[a]-> ?y, # one atom\n?x -[a*]-> ?z,\n\n?z -[b]-> ?w\n"
AUTOMATON = "initial: p\n# a comment\nfinals: f\np -[(ab)^2]-> q\nq -[ab]-> f\n"


@pytest.mark.parametrize(
    "text, argv, error",
    [
        (QUERY, ["analyze", "{}", "--json"], ""),
        (AUTOMATON, ["member", "{}", "ab", "3", "--json"], ""),
        (
            "?x -[a]-> ?y,\n?x -[a%]-> ?z\n",
            ["analyze", "{}"],
            "unexpected character '%' (line 2, col 7)",
        ),
        (
            "initial: p\nfinals: f\n\np -[a^]-> f\n",
            ["member", "{}", "a", "1"],
            "expected a number after the power operator (at end of input) (line 4, col 7)",
        ),
    ],
)
def test_input_is_read_with_text_mode_newlines(tmp_path, capsys, text, argv, error):
    # LF, CRLF and CR-only copies answer alike, and an error names one place
    for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", newline).encode())
        code = main([str(path) if a == "{}" else a for a in argv])
        out, err = capsys.readouterr()
        if error:
            assert (code, out, err) == (64, "", f"input error: {error}\n")
        elif name == "lf":
            answer = (code, out, err)
            assert code == 0 and not err
        else:
            assert (code, out, err) == answer


def test_invalid_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "q.txt"
    path.write_bytes(b"?x -[a]-> ?y\xff\n")
    assert main(["analyze", str(path)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "can't decode byte 0xff" in err


def test_input_over_64_kib_is_read_whole(tmp_path, capsys):
    comments = "# " + "p" * 1000 + "\n"
    path = tmp_path / "m.nfa"
    path.write_text("initial: p\n" + comments * 70 + "finals: f\np -[ab]-> f\n")
    assert path.stat().st_size > 64 * 1024
    assert main(["member", str(path), "ab", "1"]) == 0
    path = tmp_path / "q.txt"
    path.write_text("?x -[a]-> ?y\n" + comments * 70 + "%\n")
    assert main(["analyze", str(path)]) == 64
    assert capsys.readouterr().err.endswith("(line 72, col 1)\n")


def test_dash_reads_stdin(qfile, capsys, monkeypatch):
    assert main(["analyze", qfile(QUERY), "--json"]) == 0
    from_file = capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(QUERY.encode())))
    assert main(["analyze", "-", "--json"]) == 0
    assert capsys.readouterr() == from_file


def test_stdin_bytes_are_decoded_as_a_file_is(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"ab\xff")
    assert main(["analyze", str(bad)]) == 64
    from_file = capsys.readouterr().err
    assert "'utf-8' codec can't decode byte 0xff" in from_file
    # stdin's own text layer escapes undecodable bytes in UTF-8 mode
    stdin = io.TextIOWrapper(io.BytesIO(b"ab\xff"), "utf-8", "surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["analyze", "-"]) == 64
    assert capsys.readouterr().err == from_file


def test_graph_csv_is_read_as_utf8_under_an_ascii_locale(tmp_path, qfile):
    graph = tmp_path / "g.csv"
    graph.write_bytes("src,label,dst\ncaf\u00e9,a,u\n".encode())
    argv = [sys.executable, "-m", "crpqbound.cli", "eval", "--graph", str(graph)]
    argv += ["--query", qfile("?x -[a]-> ?y\n")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "LC_ALL": "C"}
    env.update(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    run = subprocess.run(argv, env=env, capture_output=True, text=True, errors="replace")
    assert (run.returncode, run.stderr) == (0, ""), run.stderr


# The reference for main's reading of argv: the argparse parser it replaced,
# with value types that refuse a cap below 1 and a negative exponent as main does.


class _ArgparseParser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # whole flags only: --cap never means --cap-atoms
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise cli._UsageError(message)


def _checked_int(holds, message):
    def read(text):
        value = int(text)
        if not holds(value):
            raise cli._UsageError(message)
        return value

    read.__name__ = "int"  # argparse names the type in "invalid int value"
    return read


_positive = _checked_int(lambda v: v > 0, "caps must be positive integers")
_natural = _checked_int(lambda v: v >= 0, "exponent must be a natural number")


def _add_caps_flags(sub, *flags):
    for flag in flags:
        field, help_text = cli._CAP_FLAGS[flag]
        metavar = flag[2:].replace("-", "_").upper()
        sub.add_argument(flag, type=_positive, dest=field, metavar=metavar, help=help_text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgparseParser(
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
    _add_caps_flags(analyze, "--cap", "--cap-atoms", "--cap-length", "--cap-word-len")

    contains = subs.add_parser("contains", help="succinct CQ containment in a query")
    contains.add_argument("left", help="contained query file")
    contains.add_argument("right", help="containing query file")
    contains.add_argument("--json", action="store_true")
    _add_caps_flags(contains, "--cap-atoms")

    member = subs.add_parser("member", help="succinct NFA membership of v^m")
    member.add_argument("automaton", help="automaton file ('-' for stdin)")
    member.add_argument("word", help="base word v, or 'eps'")
    member.add_argument("exponent", type=_natural, help="exponent m")
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


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "q.txt"],
        ["analyze", "--json", "q.txt", "--letters", "a,b", "--cap", "5", "--seed", "3"],
        ["analyze", "q.txt", "--letters", "max", "--full-enumeration", "--zplus-mode", "safe",
         "--oracle-verify", "--cap-atoms", "9", "--cap-length", "7", "--cap-word-len", "4"],
        ["analyze", "-", "--json"],
        ["analyze", "--", "-q.txt"],
        ["contains", "l.txt", "r.txt", "--json", "--cap-atoms", "10"],
        ["member", "m.nfa", "ab", "7", "--json", "--cap-length", "3"],
        ["member", "m.nfa", "eps", "-3"],
        ["qbfgen", "f.qbf", "--emit", "q1"],
        ["eval", "--query", "q.txt", "--graph", "g.csv", "--json"],
        ["analyze", "q.txt", "--bogus"],
        ["analyze"],
        ["contains", "l.txt"],
        ["eval", "--graph", "g.csv"],
        ["member", "m.nfa", "ab", "three"],
        ["analyze", "q.txt", "--ca", "3"],
        ["member", "m.nfa", "ab", "3", "--cap", "4"],
        ["analyze", "q.txt", "--zplus-mode", "other"],
        ["analyse", "q.txt"],
        ["--json", "analyze", "q.txt"],
        [],
        ["--help"],
        ["member", "--help"],
        ["analyze", "q.txt", "--cap=5"],
        ["analyze", "q.txt", "--json=x"],
        ["analyze", "q.txt", "--seed", "1", "--seed", "2"],
        ["analyze", "q.txt", "--cap"],
        ["analyze", "q.txt", "--cap", "-5"],
        ["analyze", "q.txt", "-x"],
        ["-x"],
        ["analyze", "-h", "--bogus"],
        ["analyze", "--zplus-mode", "other", "-h"],
        ["analyze", "--", "-"],
        ["-h"],
        *(
            [name, flag]
            for name in ("analyze", "contains", "qbfgen", "eval")
            for flag in ("-h", "--help")
        ),
        ["member", "-h"],
        ["analyze", "-hh"],
        ["analyze", "-hx"],
        ["--help=x"],
        ["--", "analyze", "q.txt"],
        ["analyze", "q.txt", "x", "--", "y"],
        ["analyze", "q.txt", "--json", "--"],
        ["member", "m.nfa", "--json", "--", "ab", "3"],
        ["analyze", "q.txt", "--letters", "--json"],
        ["analyze", "-3", "--letters=a b", "--zplus-mode=safe", "-1e5"],
        ["member", "m.nfa", "ab", "0", "--cap-length=0"],
    ],
)
def test_dispatch_matches_the_full_parser(argv, capsys, monkeypatch):
    # what main acts on: the namespace a handler gets, or what it prints and its exit code
    monkeypatch.setenv("COLUMNS", "80")
    seen = []
    for name in ("analyze", "contains", "member", "qbfgen", "eval"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda ns: seen.append(vars(ns)) or 0)
    got = (seen, main(list(argv)), *capsys.readouterr())
    try:
        expected = ([vars(build_parser().parse_args(list(argv)))], 0, "", "")
    except cli._UsageError as exc:
        expected = ([], 64, "", f"usage error: {exc}\n")
    except SystemExit as exc:
        expected = ([], exc.code, *capsys.readouterr())
    assert got == expected
