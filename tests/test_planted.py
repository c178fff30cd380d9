"""Planted defects: a broken computation that a claim rests on must fail it.

Each test patches one move the claim's diagrams are built from, not the
claim's judge, and asserts that the criterion fails with a detail naming the
broken case.
"""

from dataclasses import replace

from kirbycalc import handles, scenarios
from kirbycalc.acceptance import run_criterion


def test_splice_with_one_run_through_too_many_fails_claim_1(monkeypatch):
    def splice(d, chain, p):
        out = handles.rational_blowdown_splice(d, chain, p)
        return replace(out, run_through={k: v + 1 for k, v in out.run_through.items()})

    monkeypatch.setattr(scenarios, "rational_blowdown_splice", splice)
    result = run_criterion(1)
    assert not result.ok
    assert result.detail.startswith("|H1(bd B_2)| != 4;")


def test_blow_down_with_a_framing_off_by_one_fails_claim_6(monkeypatch):
    def blow_down(d, e):
        linked = {x for pair in d.links if e in pair for x in pair} - {e}
        out = handles.blow_down(d, e)
        return replace(out, two_handles=tuple((k, f + (k in linked))
                                              for k, f in out.two_handles))

    monkeypatch.setattr(scenarios, "blow_down", blow_down)
    result = run_criterion(6)
    assert not result.ok
    assert result.detail.startswith("D~(2) fails framing = tb - 1 on d1.w;")
