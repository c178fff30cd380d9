"""Planted defects: a broken computation that a claim rests on must fail it.

Each test patches one computation the claim rests on (a move its diagrams
are built from, a genus bound, the Smith elimination), not the claim's judge,
and asserts that the criterion fails with a detail naming the broken case.
A claim that no planted defect can fail yet sits in `UNPLANTED`, with the
reason.
"""

import json
import re
from dataclasses import replace
from importlib import import_module

import pytest

from kirbycalc import acceptance, handles, legendrian, scenarios, swledger
from kirbycalc.acceptance import run_criterion
from kirbycalc.cli import run_command
from kirbycalc.homology import _pairings
from kirbycalc.swledger import LaurentPolynomial

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


def test_blow_up_cube_without_its_last_sign_combination_fails_claim_3(monkeypatch):
    # the cube is checked per core, so a member dropped from every core
    # passes construction; only the enumeration sees it
    sign_sums = swledger._sign_sums

    def dropped(base, gens):
        sums = sign_sums(base, gens)
        return sums[:-1] if gens else sums

    monkeypatch.setattr(swledger, "_sign_sums", dropped)
    for seed, case in ((2026, "trial 1 (n=3, |beta|=8)"), (7, "trial 1 (n=3, |beta|=2)")):
        result = run_criterion(3, seed)
        assert not result.ok
        assert result.detail.startswith(f"brute-force enumeration mismatch in {case};")


def test_genus_bound_off_by_one_fails_claim_7(monkeypatch):
    def min_genus_bound(model, beta, alpha):
        return swledger.min_genus_bound(model, beta, alpha) - 1

    monkeypatch.setattr(scenarios, "min_genus_bound", min_genus_bound)
    result = run_criterion(7)
    assert not result.ok
    assert result.detail.startswith("bound 5 != |k|(n - 1) + 1 for n=2, k=-5;")


def test_cube_maximum_without_its_last_generator_fails_claim_7(monkeypatch):
    def largest_pairing(beta, alpha):
        cores, gens = beta._cube
        return (max(map(abs, _pairings(cores, alpha)))
                + sum(map(abs, _pairings(gens[:-1], alpha))))

    monkeypatch.setattr(swledger, "_largest_pairing", largest_pairing)
    monkeypatch.setattr(scenarios, "_largest_pairing", largest_pairing)
    result = run_criterion(7)
    assert not result.ok
    assert result.detail.startswith("max pairing 0 != |k|(2n - 2) for n=2, k=-5; "
                                    "bound 1 != |k|(n - 1) + 1 for n=2, k=-5;")


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


def test_blow_up_with_its_euler_number_off_by_two_fails_claim_11(monkeypatch):
    def blow_up_basic_classes(model, beta, n):
        out, classes = swledger.blow_up_basic_classes(model, beta, n)
        return replace(out, euler=out.euler + 2), classes

    monkeypatch.setattr(acceptance, "blow_up_basic_classes", blow_up_basic_classes)
    for seed, case in ((2026, "draw 0 (rank 3, blow-up count 1): d [2] -> [1]"),
                       (7, "draw 0 (rank 1, blow-up count 1): d [0] -> [-1]")):
        result = run_criterion(11, seed)
        assert not result.ok
        assert result.detail.startswith(f"d changed under blow-up in {case};")


def _identity_failure(p, q):
    shift = (p - 1) * (q - 1) // 2
    return (f"Delta of ({p},{q}) is not t^-{shift} (t^{p * q} - 1)(t - 1) / "
            f"((t^{p} - 1)(t^{q} - 1))")


def _alexander_of_the_next_knot(p, q):
    knots = acceptance.KNOTS
    return swledger.alexander_polynomial_torus(*knots[(knots.index((p, q)) + 1) % len(knots)])


def _negated_alexander(p, q):
    return LaurentPolynomial({0: -1}) * swledger.alexander_polynomial_torus(p, q)


def _outer_coefficients_negated(p, q):
    # symmetric still, with Delta(1) = -3 off the trefoil
    delta = swledger.alexander_polynomial_torus(p, q)
    top = max(delta.coeffs)
    return LaurentPolynomial({e: -c if abs(e) == top and (p, q) != (2, 3) else c
                              for e, c in delta.coeffs.items()})


@pytest.mark.parametrize("alexander,knots", [
    (_alexander_of_the_next_knot, acceptance.KNOTS),
    (_negated_alexander, acceptance.KNOTS),
    (_outer_coefficients_negated, acceptance.KNOTS[1:]),
], ids=["next-knot", "negated", "outer-negated"])
def test_wrong_alexander_polynomial_fails_claim_8(monkeypatch, alexander, knots):
    monkeypatch.setattr(scenarios, "alexander_polynomial_torus", alexander)
    result = run_criterion(8)
    assert not result.ok
    assert result.detail == "; ".join(_identity_failure(p, q) for p, q in knots)


def test_alexander_of_the_next_knot_fails_the_knottedcork_command(monkeypatch, capsys):
    monkeypatch.setattr(scenarios, "alexander_polynomial_torus", _alexander_of_the_next_knot)
    code = run_command(["scenario", "knottedcork", "--knot", "2,3", "--knot", "2,5"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_knot_surgery_that_keeps_the_weights_fails_claim_8(monkeypatch):
    # each new class K + 2jT keeps the weight w of K in place of w * a_j
    def knot_surgery_basic_classes(model, beta, torus, alexander):
        ones = LaurentPolynomial(dict.fromkeys(alexander.coeffs, 1))
        return swledger.knot_surgery_basic_classes(model, beta, torus, ones)

    monkeypatch.setattr(scenarios, "knot_surgery_basic_classes", knot_surgery_basic_classes)
    result = run_criterion(8)
    assert not result.ok
    assert result.detail.startswith(
        "total weight 6 of the (2,3) output is not Delta(1) = 1 times the input's 2;")


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


# claims that no planted defect can fail yet, each with the reason
UNPLANTED = {
    2: "W_n is modelled as a cancelling pair, a dotted circle with a 0-framed "
       "circle through it once, so a broken W_n, even an empty one, keeps the "
       "trivial homology the claim checks; it waits for W_n's real diagram",
    5: "its judge checks that the restriction profiles are distinct, not that "
       "they are the evaluations on the chain complement",
}


def test_every_claim_has_a_planted_defect_or_a_reason():
    planted = set()
    for name in globals():
        m = re.fullmatch(r"test_\w+_fails_claims?_(\d+(?:_and_\d+)*)", name)
        if m:
            planted.update(map(int, m.group(1).split("_and_")))
    assert not planted & UNPLANTED.keys()
    assert sorted(planted | UNPLANTED.keys()) == [c.number for c in acceptance.CLAIMS]
