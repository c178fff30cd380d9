"""Fronts: parsing, tb/rotation, torus-knot generators, Stein verdicts."""

import dataclasses
import json
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirbycalc import legendrian
from kirbycalc.handles import HandleDecomposition
from kirbycalc.hbd import DiagramDocument, parse_hbd, print_hbd
from kirbycalc.legendrian import (
    FrontDiagram,
    FrontError,
    FrontEvent,
    component_count,
    max_tb_torus_knot,
    parse_front,
    reverse_orientation,
    rotation_number,
    seifert_genus_torus_knot,
    stein_check,
    thurston_bennequin,
    torus_knot_front,
    writhe,
)
from kirbycalc.scenarios import annotated_Dp_tilde_sum

from _oracles import analyse_by_segments, torus_knot_front_by_event

UNKNOT = "L1 R1"
KINK = "L1 X1 R1"
TREFOIL = "L1 L2 X1 X1 X1 R2 R1"


def test_parse_unknot():
    f = parse_front(UNKNOT)
    assert len(f.events) == 2
    assert component_count(f) == 1


def test_parse_trefoil_structure():
    f = parse_front(TREFOIL)
    kinds = [e.kind for e in f.events]
    assert kinds.count("X") == 3
    assert kinds.count("R") == 2
    assert component_count(f) == 1


def test_parse_rejects_invalid_position():
    with pytest.raises(FrontError):
        parse_front("L1 R2")


def test_parse_rejects_unknown_token():
    with pytest.raises(FrontError):
        parse_front("L1 Q3 R1")


def test_parse_rejects_open_strands():
    with pytest.raises(FrontError):
        parse_front("L1 L1")


def test_marker_must_follow_its_cusp():
    with pytest.raises(FrontError):
        parse_front("L1 R1 O1+")
    f = parse_front("L1 O1- R1")
    assert f.events[0].orientation == "-"


def test_repeated_tokens_keep_marker_semantics():
    f = parse_front("L1 O1+ R1 L1 R1")
    assert [(e.kind, e.orientation) for e in f.events] == \
        [("L", "+"), ("R", None), ("L", None), ("R", None)]
    assert f.word == "L1 O1+ R1 L1 R1"
    assert f.events[1] is f.events[3]        # one event per distinct token
    assert rotation_number(f, component=1) == 0
    # a repeated marker token marks the left cusp right before it
    g = parse_front("L1 O1+ R1 L1 L1 O1+ R1 R1")
    assert [e.orientation for e in g.events if e.kind == "L"] == ["+", None, "+"]


@pytest.mark.parametrize("word,message", [
    ("L1 O1+ O1+ R1", "duplicate marker at token 3"),
    ("L1 O1+ R1 L1 O1- O1- R1", "duplicate marker at token 6"),
    ("L1 O1+ R1 O1+", "marker 'O1+' must directly follow L1 (token 4)"),
    ("L1 O1+ R1 L1 L2 O1+ R2 R1", "marker 'O1+' must directly follow L1 (token 6)"),
    ("L1 R1 L1 R1 Q3", "unrecognized front token 'Q3' (token 5)"),
    ("L1 Q3 R1 Q3", "unrecognized front token 'Q3' (token 2)"),
])
def test_repeated_tokens_raise_at_their_own_index(word, message):
    with pytest.raises(FrontError) as exc:
        parse_front(word)
    assert str(exc.value) == message


def test_word_round_trip():
    for w in (UNKNOT, KINK, TREFOIL, "L1 O1+ X1 R1"):
        assert parse_front(w).word == w


def test_events_are_the_only_field():
    # the analysis is kept beside the fields: equality, hash and repr see
    # only the events
    assert [f.name for f in dataclasses.fields(FrontDiagram)] == ["events"]
    f, g = parse_front(TREFOIL), parse_front(TREFOIL)
    assert f == g and hash(f) == hash(g)
    assert repr(f) == f"FrontDiagram({TREFOIL!r})"


def test_fronts_match_pinned():
    """Every query on a seeded corpus of fronts, against recorded answers."""
    pinned = json.loads((Path(__file__).parent / "fronts.json").read_text())
    for entry in pinned:
        try:
            f = parse_front(entry["word"])
        except FrontError as exc:
            got = {"word": entry["word"], "error": str(exc)}
        else:
            n = component_count(f)
            got = {"word": entry["word"], "components": n,
                   "writhe": [writhe(f, c) for c in range(n)],
                   "tb": [thurston_bennequin(f, c) for c in range(n)],
                   "rotation": [rotation_number(f, c) for c in range(n)],
                   "reversed": reverse_orientation(f).word}
        assert got == entry


@st.composite
def front_events(draw):
    """A closed front, marked at random, then perhaps mutated: one position
    moved, one event dropped (which leaves strands open or breaks a later
    position), or a marker on every left cusp (which often conflicts)."""
    events, count = [], 0
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from("LXXR" if count else "L"))
        if kind == "L":
            pos = draw(st.integers(1, count + 1))
            events.append(FrontEvent("L", pos, draw(st.sampled_from((None, None, "+", "-")))))
            count += 2
        else:
            events.append(FrontEvent(kind, draw(st.integers(1, count - 1))))
            count -= 2 if kind == "R" else 0
    while count:
        events.append(FrontEvent("R", draw(st.integers(1, count - 1))))
        count -= 2
    mutation = draw(st.sampled_from(("none", "position", "drop", "markers")))
    if events and mutation in ("position", "drop"):
        j = draw(st.integers(0, len(events) - 1))
        if mutation == "drop":
            del events[j]
        else:
            events[j] = dataclasses.replace(events[j], pos=draw(st.integers(0, 9)))
    elif mutation == "markers":
        events = [FrontEvent("L", e.pos, draw(st.sampled_from("+-"))) if e.kind == "L" else e
                  for e in events]
    return tuple(events)


def _outcome(analyse, events):
    try:
        return analyse(events)
    except FrontError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(front_events())
def test_strand_analysis_matches_the_segment_walk(events):
    """Components, writhe, tb, rotation and reversal, or the same error."""
    def by_strands(evs):
        an = legendrian._Analysis(evs)
        return an.components, an.reversal

    assert _outcome(by_strands, events) == _outcome(analyse_by_segments, events)


def test_conflicting_markers_on_one_component():
    with pytest.raises(FrontError,
                       match="^conflicting orientation markers on one component$"):
        parse_front("L1 O1+ L2 O2- X1 X1 X1 R2 R1")
    # marking the second cusp + instead agrees with the first marker
    assert rotation_number(parse_front("L1 O1+ L2 O2+ X1 X1 X1 R2 R1")) == 0


def test_tb_unknot():
    assert thurston_bennequin(parse_front(UNKNOT)) == -1


def test_tb_trefoil_is_max():
    f = parse_front(TREFOIL)
    assert writhe(f) == 3
    assert thurston_bennequin(f) == 1
    assert thurston_bennequin(f) == max_tb_torus_knot(3, 2)


def test_tb_kink_is_stabilized_unknot():
    f = parse_front(KINK)
    assert writhe(f) == -1
    assert thurston_bennequin(f) == -2


def test_multi_component_needs_selector():
    f = parse_front("L1 R1 L1 R1")
    assert component_count(f) == 2
    with pytest.raises(FrontError):
        thurston_bennequin(f)
    assert thurston_bennequin(f, component=0) == -1
    assert thurston_bennequin(f, component=1) == -1


def test_crossings_between_components_count_toward_neither_writhe():
    # a kink, then an unknot whose lower strand crosses the kink twice
    f = parse_front("L1 X1 L1 X2 X2 R1 R1")
    assert [e.kind for e in f.events].count("X") == 3
    assert component_count(f) == 2
    assert (writhe(f, component=0), writhe(f, component=1)) == (-1, 0)
    assert (thurston_bennequin(f, component=0),
            thurston_bennequin(f, component=1)) == (-2, -1)


def test_rotation_of_each_component():
    f = parse_front("L1 O1- X1 R1 L1 X1 R1")     # two kinks, the first reversed
    assert (rotation_number(f, component=0), rotation_number(f, component=1)) == (1, -1)
    with pytest.raises(FrontError, match="pass component=<index>"):
        rotation_number(f)
    with pytest.raises(FrontError, match="no component 2"):
        rotation_number(f, component=2)


@pytest.mark.parametrize("word,reversed_word", [
    ("L1 O1- X1 R1 L1 X1 R1", "L1 O1+ X1 R1 L1 O1- X1 R1"),
    # the marker sits on the trefoil's second left cusp; the reversal marks
    # the first left cusp of every component
    ("L1 L2 O2- X1 X1 X1 R2 R1 L1 O1+ R1", "L1 O1+ L2 X1 X1 X1 R2 R1 L1 O1- R1"),
])
def test_reverse_orientation_of_marked_multi_component_front(word, reversed_word):
    f = parse_front(word)
    g = reverse_orientation(f)
    assert g.word == reversed_word
    for c in range(component_count(f)):
        assert thurston_bennequin(g, c) == thurston_bennequin(f, c)
        assert rotation_number(g, c) == -rotation_number(f, c)
    assert [rotation_number(reverse_orientation(g), c) for c in range(2)] == \
        [rotation_number(f, c) for c in range(2)]


def test_rotation_standard_unknot():
    assert rotation_number(parse_front(UNKNOT)) == 0


def test_rotation_kink_is_odd():
    f = parse_front(KINK)
    r = rotation_number(f)
    assert r in (-1, 1)
    assert rotation_number(reverse_orientation(f)) == -r


def test_reversal_fixes_tb_and_negates_rotation():
    for w in (UNKNOT, KINK, TREFOIL):
        f = parse_front(w)
        g = reverse_orientation(f)
        assert thurston_bennequin(g) == thurston_bennequin(f)
        assert rotation_number(g) == -rotation_number(f)


@pytest.mark.parametrize("p,q", [(3, 2), (5, 2), (4, 3), (5, 3), (5, 4), (7, 2)])
def test_torus_front_realizes_max_tb(p, q):
    f = torus_knot_front(p, q)
    assert component_count(f) == 1
    assert thurston_bennequin(f) == p * q - p - q
    # parity constraint for Legendrian knots
    assert (thurston_bennequin(f) + rotation_number(f)) % 2 == 1


def test_torus_front_matches_event_by_event_builder():
    pairs = [(p, q) for p in range(2, 13) for q in range(2, 13) if gcd(p, q) == 1]
    for p, q in pairs:
        f, oracle = torus_knot_front(p, q), torus_knot_front_by_event(p, q)
        assert f == oracle and f.word == oracle.word, (p, q)


@pytest.mark.parametrize("p", range(2, 9))
def test_p_plus_one_p_torus_tb(p):
    assert thurston_bennequin(torus_knot_front(p + 1, p)) == p * p - p - 1


def test_torus_formulas():
    assert max_tb_torus_knot(3, 2) == 1
    assert seifert_genus_torus_knot(3, 2) == 1
    assert max_tb_torus_knot(2, 3) == max_tb_torus_knot(3, 2)
    assert seifert_genus_torus_knot(2, 3) == seifert_genus_torus_knot(3, 2)
    p = 5
    assert max_tb_torus_knot(p + 1, p) == p * p - p - 1
    assert seifert_genus_torus_knot(p + 1, p) == p * (p - 1) // 2
    with pytest.raises(FrontError):
        max_tb_torus_knot(4, 2)
    with pytest.raises(FrontError):
        seifert_genus_torus_knot(6, 3)


def test_stein_check_passes_on_contact_minus_one():
    d = HandleDecomposition(two_handles=(("k", 0),))
    report = stein_check(d, {"k": torus_knot_front(3, 2)})
    assert report.ok
    assert report.verdicts[0].tb == 1


def test_stein_check_fails_on_wrong_framing():
    d = HandleDecomposition(two_handles=(("k", 0),))
    report = stein_check(d, {"k": parse_front(UNKNOT)})
    assert not report.ok


@pytest.mark.parametrize("p", range(2, 6))
def test_stein_check_torus_handles(p):
    d = HandleDecomposition(two_handles=(("w", p * p - p - 2),))
    assert stein_check(d, {"w": torus_knot_front(p + 1, p)}).ok


def test_stein_check_requires_full_annotation():
    d = HandleDecomposition(two_handles=(("k", 0), ("m", -2)))
    with pytest.raises(FrontError):
        stein_check(d, {"k": parse_front(TREFOIL)})


@pytest.fixture
def analyses(monkeypatch):
    """The events of every front analysis run during the test, in order."""
    built = []

    class Counting(legendrian._Analysis):
        __slots__ = ()

        def __init__(self, events):
            built.append(events)
            super().__init__(events)

    monkeypatch.setattr(legendrian, "_Analysis", Counting)
    return built


def test_stein_check_runs_no_front_analysis(analyses):
    d, annotation = annotated_Dp_tilde_sum([2, 3])
    analyses.clear()
    assert len(annotation) == 8
    assert stein_check(d, annotation).ok
    assert analyses == []


def test_each_distinct_front_is_analysed_once_per_call(analyses):
    d, annotation = annotated_Dp_tilde_sum([22, 23, 24])
    assert len(annotation) == 135
    # one torus front per summand; the unknot and trefoil are shared constants
    assert len(analyses) == 3
    assert len({id(f) for f in annotation.values()}) == 5
    text = print_hbd(DiagramDocument(d, annotation))
    analyses.clear()
    doc = parse_hbd(text)
    words = {f.word for f in annotation.values()}
    assert len(words) == 5 and len(analyses) == 5
    assert len({id(f) for f in doc.annotation.values()}) == 5
    assert dict(doc.annotation) == annotation
