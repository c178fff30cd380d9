"""The .hbd format and the command-line interface."""

import gc
import io
import json
import string
from importlib import import_module
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirbycalc import cli
from kirbycalc.acceptance import CLAIMS
from kirbycalc.cli import run_command
from kirbycalc.handles import HandleDecomposition
from kirbycalc.hbd import DiagramDocument, HbdParseError, parse_hbd, print_hbd
from kirbycalc.homology import is_homology_trivial
from kirbycalc.legendrian import FrontDiagram, parse_front, torus_knot_front
from kirbycalc.scenarios import CountLemmaReport, annotated_Dp_tilde_sum, build_Bp
from test_acceptance import PINNED

W1_TEXT = """manifold W1
1h a
2h k framing 0
rt k a 1
"""

C3_TEXT = """# linear chain, heavy end on u2
manifold C3
2h u1 framing -2
2h u2 framing -5
lk u1 u2 1
"""

CAPPED_TEXT = """manifold capped
1h a
2h k framing 0
rt k a 1
3h 2
"""

STEIN_TEXT = """manifold S
2h k framing 0
front k : L1 L2 X1 X1 X1 R2 R1
"""


# -- parsing ---------------------------------------------------------------------

def test_parse_w1():
    doc = parse_hbd(W1_TEXT)
    assert doc.name == "W1"
    assert is_homology_trivial(doc.decomposition)


def test_parse_rejects_self_link():
    with pytest.raises(HbdParseError, match="self-linking"):
        parse_hbd("manifold X\n2h k framing 0\nlk k k 1\n")


def test_parse_rejects_empty_file():
    with pytest.raises(HbdParseError, match="missing manifold header"):
        parse_hbd("")


def test_parse_error_carries_location():
    try:
        parse_hbd("manifold X\n2h k framing zero\n", source="bad.hbd")
    except HbdParseError as exc:
        assert exc.line == 2
        assert "bad.hbd:2" in str(exc)
    else:
        pytest.fail("expected a parse error")


def test_parse_requires_declaration_before_use():
    with pytest.raises(HbdParseError, match="undeclared"):
        parse_hbd("manifold X\nlk a b 1\n")


def test_duplicate_lk_warns_and_last_wins():
    text = "manifold X\n2h a framing 0\n2h b framing 0\nlk a b 1\nlk a b 2\n"
    with pytest.warns(UserWarning):
        doc = parse_hbd(text)
    assert doc.decomposition.link("a", "b") == 2


def test_front_lines_parse():
    doc = parse_hbd(STEIN_TEXT)
    assert "k" in doc.annotation
    assert doc.annotation["k"] == parse_front("L1 L2 X1 X1 X1 R2 R1")


@pytest.mark.parametrize("word,message", [
    ("L1 Q2 R1", "unrecognized front token 'Q2' (token 2)"),
    ("L1 R2", "invalid position R2 with 2 strands (event 2)"),
])
def test_repeated_bad_front_fails_on_its_first_line(word, message):
    text = ("manifold m\n2h a framing 0\n2h b framing 0\n"
            f"front a : {word}\nfront b : {word}\n")
    with pytest.raises(HbdParseError) as exc:
        parse_hbd(text, "m.hbd")
    assert (exc.value.line, str(exc.value)) == (4, f"m.hbd:4:1: {message}")


def test_print_parse_round_trip():
    for text in (W1_TEXT, C3_TEXT, STEIN_TEXT, CAPPED_TEXT):
        doc = parse_hbd(text)
        reparsed = parse_hbd(print_hbd(doc))
        assert reparsed.decomposition == doc.decomposition
        assert dict(reparsed.annotation) == dict(doc.annotation)
    assert parse_hbd(CAPPED_TEXT).decomposition.three_handles == 2


def test_print_renders_each_distinct_front_once(monkeypatch):
    word = FrontDiagram.word
    renders = []

    def counting(front):
        renders.append(front)
        return word.fget(front)
    monkeypatch.setattr(FrontDiagram, "word", property(counting))
    d, fronts = annotated_Dp_tilde_sum([22, 23, 24])
    text = print_hbd(DiagramDocument(d, fronts))
    # one torus front per summand, one shared unknot and one shared trefoil
    assert (len(fronts), len(renders)) == (135, 5)
    doc = parse_hbd(text)   # three torus fronts, one unknot, one trefoil
    renders.clear()
    assert print_hbd(doc) == text
    assert len(renders) == 5


def test_canonical_print_is_fixed_point():
    doc = parse_hbd(C3_TEXT)
    canonical = print_hbd(doc)
    assert print_hbd(parse_hbd(canonical)) == canonical


_ID_CHARS = string.ascii_letters + string.digits + "_.~+'-"
_FRONTS = (torus_knot_front(3, 2), parse_front("L1 R1"))   # trefoil, unknot


@st.composite
def documents(draw):
    # empty names are left out: they print as `manifold unnamed`
    ids = draw(st.lists(st.text(_ID_CHARS, min_size=1, max_size=4),
                        unique=True, max_size=7))
    n_ones = draw(st.integers(0, len(ids)))
    ones, two_ids = ids[:n_ones], ids[n_ones:]
    small = st.integers(-5, 5)
    d = HandleDecomposition(
        tuple(ones),
        tuple((k, draw(small)) for k in two_ids),
        {pair: draw(small) for pair in combinations(two_ids, 2) if draw(st.booleans())},
        {(k, h): draw(small) for k in two_ids for h in ones if draw(st.booleans())},
        draw(st.integers(0, 3)),
        draw(st.text(_ID_CHARS + "(),", min_size=1, max_size=8)))
    fronts = {k: draw(st.sampled_from(_FRONTS)) for k in two_ids
              if draw(st.booleans())}
    return DiagramDocument(d, fronts)


@settings(max_examples=100, deadline=None)
@given(documents())
def test_print_parse_round_trip_property(doc):
    text = print_hbd(doc)
    assert parse_hbd(text) == doc
    assert print_hbd(parse_hbd(text)) == text


def test_document_validates_annotation_ids():
    d = HandleDecomposition(two_handles=(("k", 0),))
    with pytest.raises(Exception):
        DiagramDocument(d, {"missing": torus_knot_front(3, 2)})


# -- CLI --------------------------------------------------------------------------

def run_json(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_homology_c3(tmp_path, capsys):
    f = tmp_path / "c3.hbd"
    f.write_text(C3_TEXT)
    code, payload = run_json(capsys, "homology", str(f))
    assert code == 0
    assert payload["schema"] == 1
    assert payload["h2"]["rank"] == 2
    assert payload["boundary"]["order"] == 9
    assert payload["boundary"]["invariant_factors"] == [9]


def test_cli_stein(tmp_path, capsys):
    f = tmp_path / "s.hbd"
    f.write_text(STEIN_TEXT)
    code, payload = run_json(capsys, "stein", str(f))
    assert code == 0
    assert payload["handles"] == [
        {"id": "k", "framing": 0, "tb": 1, "required_framing": 0, "ok": True}]


def test_cli_stein_failure_sets_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.hbd"
    f.write_text("manifold S\n2h k framing 5\nfront k : L1 R1\n")
    code, payload = run_json(capsys, "stein", str(f))
    assert code == 1
    assert payload["ok"] is False


def test_cli_slide_round_trip(tmp_path, capsys):
    f = tmp_path / "two.hbd"
    f.write_text("manifold T\n2h a framing -1\n2h b framing -1\n")
    code, payload = run_json(capsys, "slide", str(f), "a", "b", "--sign", "1")
    assert code == 0
    assert payload["framing_after"] == -2
    g = tmp_path / "slid.hbd"
    g.write_text(payload["document"])
    code, payload = run_json(capsys, "slide", str(g), "a", "b", "--sign", "-1")
    assert code == 0
    assert parse_hbd(payload["document"]).decomposition == parse_hbd(f.read_text()).decomposition


def test_cli_blowup_blowdown(tmp_path, capsys):
    f = tmp_path / "one.hbd"
    f.write_text("manifold U\n2h a framing 0\n")
    code, payload = run_json(capsys, "blowup", str(f), "--attach", "a=1", "--id", "e")
    assert code == 0
    assert payload["new_handle"] == "e"
    g = tmp_path / "up.hbd"
    g.write_text(payload["document"])
    code, payload = run_json(capsys, "blowdown", str(g), "e")
    assert code == 0
    assert parse_hbd(payload["document"]).decomposition == parse_hbd(f.read_text()).decomposition


@pytest.mark.parametrize("attach", [("a=0", "a=1"), ("a=1", "a=0")])
def test_cli_blowup_rejects_repeated_attachment(tmp_path, capsys, attach):
    f = tmp_path / "one.hbd"
    f.write_text("manifold U\n2h a framing 0\n")
    code, payload = run_json(capsys, "blowup", str(f), "--attach", attach[0],
                             "--attach", attach[1])
    assert code == 1
    assert payload["error"] == "duplicate attachment for 'a'"


@pytest.mark.parametrize("handle", ["zz", "a"])
def test_cli_blowdown_names_the_unknown_handle(tmp_path, capsys, handle):
    f = tmp_path / "w.hbd"
    f.write_text("manifold W\n1h a\n2h k framing 0\n2h e framing -1\nlk e k 1\n")
    code, payload = run_json(capsys, "blowdown", str(f), handle)
    assert code == 1
    assert payload["error"] == f"unknown 2-handle {handle!r}"


@pytest.mark.parametrize("bad_id", ["q r", "e#1", "e*"])
def test_cli_blowup_rejects_ids_the_format_cannot_read(tmp_path, capsys, bad_id):
    f = tmp_path / "c3.hbd"
    f.write_text(C3_TEXT)
    code, payload = run_json(capsys, "blowup", str(f), "--id", bad_id)
    assert code == 1
    assert repr(bad_id) in payload["error"]
    code, payload = run_json(capsys, "blowup", str(f), "--id", "e")
    assert code == 0
    out = parse_hbd(payload["document"])
    assert out.decomposition.framing("e") == -1
    assert print_hbd(out) == payload["document"]


def test_cli_computes_each_boundary_snf_once(tmp_path, capsys, monkeypatch):
    H = import_module("kirbycalc.homology")
    eliminate = H._diagonalize
    calls = []

    def counting(m, **wants):
        calls.append(m)
        return eliminate(m, **wants)
    monkeypatch.setattr(H, "_diagonalize", counting)
    f = tmp_path / "b3.hbd"
    f.write_text(print_hbd(DiagramDocument(build_Bp(3), {})))
    code, payload = run_json(capsys, "homology", str(f))
    assert code == 0 and payload["boundary"] == {"invariant_factors": [9], "order": 9}
    assert len(calls) == 2  # one for homology(), one for the boundary
    calls.clear()
    code, payload = run_json(capsys, "boundary", str(f))
    assert code == 0 and payload["order"] == 9
    assert len(calls) == 1


def test_cli_verbose_belongs_to_check_alone(tmp_path, capsys):
    f = tmp_path / "c3.hbd"
    f.write_text(C3_TEXT)
    assert run_command(["homology", "--verbose", str(f)]) == 1
    assert run_command(["--verbose", "homology", str(f)]) == 1
    capsys.readouterr()


def test_cli_corktwist(tmp_path, capsys):
    f = tmp_path / "w1.hbd"
    f.write_text(W1_TEXT)
    code, payload = run_json(capsys, "corktwist", str(f), "a", "k")
    assert code == 0
    twisted = parse_hbd(payload["document"]).decomposition
    assert twisted.one_handles == ("k",)
    assert is_homology_trivial(twisted)


def test_cli_rbd(tmp_path, capsys):
    f = tmp_path / "c3.hbd"
    f.write_text(C3_TEXT)
    code, payload = run_json(capsys, "rbd", str(f), "--chain", "u2,u1", "--p", "3")
    assert code == 0
    out = parse_hbd(payload["document"]).decomposition
    assert out.one_handles == ("b0",)
    assert out.framing("b1") == 2


def test_cli_scenario_count_matches_contract(capsys):
    code, payload = run_json(capsys, "scenario", "count", "--p", "2", "--count", "2")
    assert code == 0
    assert payload == {"schema": 1, "N0": 2, "Ni": 4, "ok": True}


def test_cli_scenario_ok_is_the_reports_judgement(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_count_lemma",
                        lambda *args: CountLemmaReport(p=3, n0=2, ni=4, d_preserved=True))
    code, payload = run_json(capsys, "scenario", "count", "--p", "3", "--count", "2")
    assert code == 1
    assert payload == {"schema": 1, "N0": 2, "Ni": 4, "ok": False}


@pytest.mark.parametrize("argv", [
    ("count", "--p", "2", "--index", "3"),
    ("restriction", "--p", "2", "3", "--index", "-1"),
    ("count", "--p", "2", "3", "--index", "-1"),
], ids=["count-past-end", "restriction-negative", "count-negative"])
def test_cli_scenario_rejects_chain_index_out_of_range(capsys, argv):
    code, payload = run_json(capsys, "scenario", *argv)
    assert code == 1
    assert payload["error"].startswith(f"chain index {argv[-1]} is out of range")


def test_cli_scenario_restriction(capsys):
    code, payload = run_json(capsys, "scenario", "restriction", "--p", "3")
    assert code == 0
    assert payload["mayer_vietoris_index"] == 9
    assert payload["ok"] is True


def test_cli_sw_commands(capsys):
    code, payload = run_json(capsys, "sw", "blowup", "--n", "2")
    assert code == 0 and payload["count_after"] == 8
    code, payload = run_json(capsys, "sw", "descend", "--p", "4")
    assert code == 0 and payload["count_after"] == 2
    code, payload = run_json(capsys, "sw", "genusbound", "--n", "3", "--k", "2")
    assert code == 0 and payload["bound"] == 5
    code, payload = run_json(capsys, "sw", "adjunction", "--p", "2", "3")
    assert code == 0 and payload["torus_pairings_zero"] is True
    code, payload = run_json(capsys, "scenario", "knottedcork", "--knot", "2,3",
                             "--knot", "2,5")
    assert code == 0 and payload["pairwise_distinct"] is True


def test_cli_append_options_do_not_leak_between_calls(tmp_path, capsys):
    # one parser serves every run_command call in the process
    code, payload = run_json(capsys, "scenario", "knottedcork", "--knot", "2,3",
                             "--knot", "2,5")
    assert code == 0 and payload["knots"] == [[2, 3], [2, 5]]
    code, payload = run_json(capsys, "scenario", "knottedcork", "--knot", "2,7")
    assert payload["knots"] == [[2, 7]]
    f = tmp_path / "two.hbd"
    f.write_text("manifold V\n2h a framing 0\n2h b framing 0\n")
    code, payload = run_json(capsys, "blowup", str(f), "--attach", "a=1", "--id", "e")
    assert code == 0
    assert parse_hbd(payload["document"]).decomposition.framing("a") == -1
    code, payload = run_json(capsys, "blowup", str(f), "--attach", "b=1", "--id", "e")
    assert code == 0
    out = parse_hbd(payload["document"]).decomposition
    assert (out.framing("a"), out.framing("b")) == (0, -1)
    code, payload = run_json(capsys, "blowup", str(f), "--id", "e")
    out = parse_hbd(payload["document"]).decomposition
    assert (out.framing("a"), out.framing("b")) == (0, 0)


def test_cli_scenario_stein_and_corkhomology(capsys):
    code, payload = run_json(capsys, "scenario", "run", "--name", "stein")
    assert code == 0 and payload["ok"] is True
    code, payload = run_json(capsys, "scenario", "run", "--name", "cork-homology")
    assert code == 0 and payload["ok"] is True


def test_cli_user_error_exit_code(tmp_path, capsys):
    code, payload = run_json(capsys, "homology", str(tmp_path / "missing.hbd"))
    assert code == 1
    assert "error" in payload


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(d):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "homology", broken)
    f = tmp_path / "c3.hbd"
    f.write_text(C3_TEXT)
    code = run_command(["homology", str(f)])
    captured = capsys.readouterr()
    out = captured.out
    assert code == 2
    assert "in broken" in captured.err and "RuntimeError: boom" in captured.err
    assert json.loads(out) == {"schema": 1, "internal_error": "RuntimeError('boom')",
                               "ok": False}
    assert out == '{\n  "schema": 1,\n  "internal_error": "RuntimeError(\'boom\')",' \
        '\n  "ok": false\n}\n'


def test_cli_parse_error_reports_location(tmp_path, capsys):
    f = tmp_path / "bad.hbd"
    f.write_text("manifold X\nnonsense line\n")
    code, payload = run_json(capsys, "homology", str(f))
    assert code == 1
    assert "2" in payload["error"]


def test_cli_output_is_deterministic(tmp_path, capsys):
    f = tmp_path / "c3.hbd"
    f.write_text(C3_TEXT)
    run_command(["homology", str(f)])
    first = capsys.readouterr().out
    run_command(["homology", str(f)])
    second = capsys.readouterr().out
    assert first == second


def test_cli_leaves_no_reference_cycles(tmp_path, capsys):
    f = tmp_path / "s.hbd"
    f.write_text(print_hbd(DiagramDocument(*annotated_Dp_tilde_sum([2, 3]))))
    for argv in (["stein", str(f)], ["homology", str(f)], ["scenario", "list"]):
        gc.collect()
        assert run_command(argv) == 0
        assert gc.collect() == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("payload", [
    {}, {"a": [], "b": {}}, {"a": [{}, []]}, {"a": [[1, [2.5, None]], {"x": {"y": True}}]},
    {"é\n\"": "tab\t", 3: -7, 2.5: False, None: float("nan"), True: float("-inf")},
    {"a": (1, (2,)), "b": -0.0},
])
def test_cli_json_text_is_the_stdlib_indent_2_text(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2)


def test_cli_scenario_list_export_run(capsys):
    code, payload = run_json(capsys, "scenario", "list")
    assert code == 0
    names = [s["name"] for s in payload["scenarios"]]
    assert names == [c.name for c in CLAIMS]
    code, payload = run_json(capsys, "scenario", "export", "--name", "lens-orders")
    assert code == 0
    assert "C2" in payload["documents"]
    code, payload = run_json(capsys, "scenario", "run", "--name", "knottedcork")
    assert code == 0 and payload["ok"] is True


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.name for c in CLAIMS])
def test_cli_scenario_run_every_claim(capsys, claim):
    code, payload = run_json(capsys, "scenario", "run", "--name", claim.name)
    assert code == 0
    assert payload == {"schema": 1, "name": claim.name, "ok": True,
                       "detail": PINNED[claim.number][1]}


@pytest.mark.parametrize("name", [c.name for c in CLAIMS])
def test_cli_scenario_export_every_claim(capsys, name):
    code, payload = run_json(capsys, "scenario", "export", "--name", name)
    assert code == 0
    assert next(iter(payload)) == "schema"
    assert payload["name"] == name and payload["expected"]
    assert all("basis" in e for e in payload["expected"])
    for doc_name, text in payload["documents"].items():
        assert print_hbd(parse_hbd(text)) == text, doc_name


@pytest.mark.parametrize("command", ["run", "export"])
def test_cli_scenario_unknown_name(capsys, command):
    code, payload = run_json(capsys, "scenario", command, "--name", "nope")
    assert code == 1
    assert all(c.name in payload["error"] for c in CLAIMS)


def test_cli_check_runs_acceptance(capsys):
    code = run_command(["check", "--seed", "7", "--verbose"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert [line.split()[:2] for line in captured.err.splitlines()] == \
        [["PASS", str(n)] for n in PINNED]
    assert code == 0
    assert payload["ok"] is True
    assert [(c["number"], c["title"], c["ok"], c["detail"])
            for c in payload["criteria"]] == \
        [(n, title, True, detail) for n, (title, detail) in PINNED.items()]


def test_cli_matches_golden(tmp_path, capsys, monkeypatch):
    # argv, exit code and stdout of every subcommand but `check`, recorded from
    # the CLI before its payload envelope moved into `run_command`
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    for name, text in golden["files"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for run in golden["runs"]:
        if "stdin" in run:
            monkeypatch.setattr("sys.stdin", io.StringIO(golden["files"][run["stdin"]]))
        code = run_command(run["argv"])
        assert (code, capsys.readouterr().out) == (run["code"], run["stdout"]), run["argv"]
