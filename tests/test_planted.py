"""Planted defects: a broken computation that a claim rests on must fail it.

Each test patches one computation the claim rests on (a move its diagrams
are built from, a genus bound, the Smith elimination), not the claim's judge,
and asserts that the criterion fails with a detail naming the broken case.
"""

from dataclasses import replace
from importlib import import_module

import pytest

from kirbycalc import acceptance, handles, legendrian, scenarios, swledger
from kirbycalc.acceptance import run_criterion

# a patched computation must reach every model a claim builds
pytestmark = pytest.mark.usefixtures("cold_models")


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


def test_torus_front_with_one_zig_zag_fails_claim_6(monkeypatch):
    # L2 R1 right after the first L1 is a stabilization: one component, tb - 1
    def torus_knot_front(p, q):
        word = legendrian.torus_knot_front(p, q).word
        return legendrian.parse_front(word.replace("L1", "L1 L2 R1", 1))

    monkeypatch.setattr(scenarios, "torus_knot_front", torus_knot_front)
    result = run_criterion(6)
    assert not result.ok
    assert result.detail.startswith("D~(2) fails framing = tb - 1 on d1.w;")


def test_genus_bound_off_by_one_fails_claim_7(monkeypatch):
    def min_genus_bound(model, beta, alpha):
        return swledger.min_genus_bound(model, beta, alpha) - 1

    monkeypatch.setattr(scenarios, "min_genus_bound", min_genus_bound)
    result = run_criterion(7)
    assert not result.ok
    assert result.detail.startswith("bound 5 != |k|(n - 1) + 1 for n=2, k=-5;")


def test_identity_descent_fails_claims_4_and_11(monkeypatch):
    # claim 5 cannot catch it by design: the restriction lemma never descends
    def descend(model, beta, chain, complement):
        return model, beta

    monkeypatch.setattr(scenarios, "rational_blowdown_descend", descend)
    monkeypatch.setattr(acceptance, "rational_blowdown_descend", descend)
    result = run_criterion(4)
    assert not result.ok
    assert result.detail.startswith("descent dropped rank by 0, not p - 1, for p=2, N0=2; "
                                    "descent raised signature by 0, not p - 1, for p=2, N0=2;")
    result = run_criterion(11)
    assert not result.ok
    assert result.detail.startswith("descent from rank 15 gave 15, not 11, for p=5;")


def test_slide_that_keeps_the_run_throughs_fails_claim_9(monkeypatch):
    def handle_slide(d, a, b, sign):
        return replace(handles.handle_slide(d, a, b, sign), run_through=d.run_through)

    monkeypatch.setattr(acceptance, "handle_slide", handle_slide)
    result = run_criterion(9)
    assert not result.ok
    assert result.detail == "boundary invariant factors changed by slide 11 (k4 over k2, sign -1)"


def test_smith_form_without_the_divisibility_sweep_fails_claim_10(monkeypatch):
    # the package re-exports the function `homology` over the submodule name
    H = import_module("kirbycalc.homology")
    monkeypatch.setattr(H, "_first_offender", lambda s, t, pivot: None)
    result = run_criterion(10)
    assert not result.ok
    case = ("draw 47, [[3, 0, -5, -9, 9, 0], [-7, 6, 4, 5, -9, -9], [-8, -4, -8, 1, 5, -6], "
            "[-6, 7, 7, 4, 4, 4], [-5, 4, -9, 5, -8, -3], [-3, 2, 9, 7, 5, -1]]")
    assert result.detail == (f"divisibility chain (1, 1, 1, 1, 3, 410033) broken for {case}; "
                             f"gcd of 5x5 minors mismatch for {case}")
