"""End-to-end command behaviour: exit codes, JSON shape, determinism."""

import json
import tracemalloc
from types import SimpleNamespace

import pytest

from crpqbound import boundedness, cli
from crpqbound.boundedness import is_bounded_in
from crpqbound.cli import main
from crpqbound.expansion import materialize, succinct_cq_from_crpq
from crpqbound.homomorphism import cq_hom
from crpqbound.qbfgen import parse_qbf
from crpqbound.syntax import parse_ucrpq

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


def test_seed_env_fallback(qfile, capsys, monkeypatch):
    monkeypatch.setenv("CRPQ_BOUND_SEED", "7")
    assert main(["analyze", qfile(CLAIM), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stats"]["seed"] == 7
