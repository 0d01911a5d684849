"""End-to-end command behaviour: exit codes, JSON shape, determinism."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from crpqbound import boundedness, cli
from crpqbound.boundedness import is_bounded_in
from crpqbound.cli import main
from crpqbound.expansion import materialize, succinct_cq_from_crpq
from crpqbound.homomorphism import cq_hom
from crpqbound.qbfgen import parse_qbf
from crpqbound.syntax import MAX_NESTING, parse_ucrpq

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
    assert report["stats"]["expansions_checked"] == sum(
        r.stats.expansions_checked for r in runs
    ) == 84
    assert report["stats"]["nfa_calls"] == sum(r.stats.nfa_calls for r in runs)
    assert report["maximal_letters"] == ["c"]
    assert report["mode"]["per_letter"] == [["a", "unbounded"], ["c", "bounded"]]

    assert main(["analyze", path, "--letters", "max"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verdict: unbounded"
    assert lines[1] == "bounds: nratoms=3 nrvars=3 N=1 Zred=1 Zcol=9 Z=81 Zplus=244"
    assert "maximal_letters: c" in lines
    assert "  a: unbounded" in lines and "  c: bounded" in lines
    assert lines[-1].startswith("stats: expansions_checked=84 nfa_calls=84 wall_ms=")


def test_letters_max_oracle_verify_runs_no_second_analysis(qfile, capsys, monkeypatch):
    calls = []
    decide = boundedness._decide

    def counted(*args):
        calls.append(args[4])  # the letter set
        return decide(*args)

    monkeypatch.setattr(boundedness, "_decide", counted)
    sampled = []

    def agree(q, rewriting, **kwargs):
        sampled.append(rewriting)
        return SimpleNamespace(kind="agree")

    monkeypatch.setattr(cli, "sampled_equivalence", agree)
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
        cli, "sampled_equivalence", lambda *a, **k: SimpleNamespace(kind="disagree")
    )
    assert main(["analyze", qfile(LEAFY2), "--letters", "max", "--oracle-verify"]) == 70
    err = capsys.readouterr().err
    assert "letter c contradicted" in err


def test_analyze_letters_set(qfile, capsys):
    assert main(["analyze", qfile(LEAFY), "--letters", "c"]) == 0
    assert main(["analyze", qfile(ASTARB), "--letters", "a"]) == 1


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
    assert codes == ["0"] * 2 + ["1"] * 3 + ["0"] * 4 and out.count('"verdict"') == 9


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
    runs(["member", str(acyclic), "a", "2"], "--cap-length", "1")
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
    ],
)
def test_bad_input_exits_64(tmp_path, qfile, capsys, name, text, argv):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    paths = {"path": str(path), "q": qfile("?x -[a]-> ?y\n")}
    assert main([arg.format(**paths) for arg in argv]) == 64
    assert capsys.readouterr().err.startswith("input error: ")


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
