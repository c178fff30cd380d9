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
from kirbycalc.homology import IntMatrix, _pairings, smith_normal_form
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


def test_chain_with_its_heavy_end_off_by_one_fails_claim_1(monkeypatch):
    # only the C_p that criterion 1 builds itself: B_p is spliced from the
    # chain `scenarios` builds
    def build_Cp(p):
        c_p = scenarios.build_Cp(p)
        return replace(c_p, two_handles=c_p.two_handles[:-1] + ((f"u{p - 1}", -(p + 1)),))

    monkeypatch.setattr(acceptance, "build_Cp", build_Cp)
    result = run_criterion(1)
    assert not result.ok
    assert result.detail == "; ".join(f"|H1(bd C_{p})| != {p * p}" for p in range(2, 11))


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


def _torus_front_with_one_zig_zag(p, q):
    # L2 R1 right after the first L1 is a stabilization: one component, tb - 1
    word = legendrian.torus_knot_front(p, q).word
    return legendrian.parse_front(word.replace("L1", "L1 L2 R1", 1))


def test_torus_front_with_one_zig_zag_fails_claim_6(monkeypatch):
    monkeypatch.setattr(scenarios, "torus_knot_front", _torus_front_with_one_zig_zag)
    result = run_criterion(6)
    assert not result.ok
    assert result.detail.startswith("D~(2) fails framing = tb - 1 on d1.w;")


def test_torus_front_checked_alone_with_one_zig_zag_fails_claim_6(monkeypatch):
    # the catalog keeps its own fronts, so only the tb rung fails
    monkeypatch.setattr(acceptance, "torus_knot_front", _torus_front_with_one_zig_zag)
    result = run_criterion(6)
    assert not result.ok
    assert result.detail == "; ".join(f"tb - 1 != p^2 - p - 2 for p={p}" for p in range(2, 9))


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
    # the identity keeps every class and its d, so only the rank names the fault
    # and no class is named
    assert result.detail == ("descent from rank 15 gave 15, not 11, for p=5; "
                             "descent from rank 13 gave 13, not 10, for p=4; "
                             "descent from rank 11 gave 11, not 10, for p=2")


def test_identity_descent_fails_the_count_command(monkeypatch, capsys):
    def descend(model, beta, chain, complement):
        return model, beta

    monkeypatch.setattr(scenarios, "rational_blowdown_descend", descend)
    claim_4 = [f for f in run_criterion(4).detail.split("; ") if f.endswith("p=3, N0=2")]
    assert claim_4 == ["descent dropped rank by 0, not p - 1, for p=3, N0=2",
                       "descent raised signature by 0, not p - 1, for p=3, N0=2"]
    code = run_command(["scenario", "count", "--p", "3"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == claim_4 and payload["ok"] is False


def test_blow_up_with_its_euler_number_off_by_two_fails_claim_11(monkeypatch):
    def blow_up_basic_classes(model, beta, n):
        out, classes = swledger.blow_up_basic_classes(model, beta, n)
        return replace(out, euler=out.euler + 2), classes

    monkeypatch.setattr(acceptance, "blow_up_basic_classes", blow_up_basic_classes)
    for seed, case in ((2026, "draw 0 (rank 3, blow-up count 1): d [2] -> [1], "
                              "first at class (-9, -3, 0, -1) with d 1"),
                       (7, "draw 0 (rank 1, blow-up count 1): d [0] -> [-1], "
                           "first at class (-9, -1) with d -1")):
        result = run_criterion(11, seed)
        assert not result.ok
        assert result.detail.startswith(f"d changed under blow-up in {case};")


def test_descent_with_its_euler_number_off_by_two_fails_claim_11(monkeypatch):
    def descend(model, beta, chain, complement):
        out, classes = swledger.rational_blowdown_descend(model, beta, chain, complement)
        return replace(out, euler=out.euler + 2), classes

    monkeypatch.setattr(acceptance, "rational_blowdown_descend", descend)
    for seed, case in ((2026, "draw 0 (p=5, N0=4): d [0] -> [-1], first at class "
                              "(-1, -1, -1, 1, 1, 1, 0, 0, 0, -4, -5) with d -1"),
                       (7, "draw 0 (p=2, N0=4): d [0] -> [-1], first at class "
                           "(-1, -1, -1, 1, 1, 1, 0, 0, -1, -2) with d -1")):
        result = run_criterion(11, seed)
        assert not result.ok
        assert result.detail.startswith(f"d changed under descent in {case};")


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


def test_blow_down_with_the_framing_change_negated_fails_claim_9(monkeypatch):
    # f - lk^2 in place of f + lk^2: the round trip subtracts lk^2 twice
    def blow_down(d, e):
        out = handles.blow_down(d, e)
        return replace(out, two_handles=tuple((k, 2 * d.framing(k) - f)
                                              for k, f in out.two_handles))

    monkeypatch.setattr(acceptance, "blow_down", blow_down)
    result = run_criterion(9)
    assert not result.ok
    assert result.detail == "blow-up/blow-down round trip differs with attachments k0=-1, k1=-1"


def test_swap_that_drops_the_pairing_of_the_swapped_pair_fails_claim_9(monkeypatch):
    def dot_zero_swap(d, h, k):
        out = handles.dot_zero_swap(d, h, k)
        return replace(out, run_through={key: v for key, v in out.run_through.items()
                                         if key != (h, k)})

    monkeypatch.setattr(acceptance, "dot_zero_swap", dot_zero_swap)
    result = run_criterion(9)
    assert not result.ok
    assert result.detail == "dot-zero swap of hh and kk is not an involution in case 1"


def test_restriction_profile_replaced_by_the_class_index_fails_claim_5(monkeypatch):
    # distinct indices pass the distinctness judge; a class shifted by the
    # chain's duals must restrict like the class itself
    restrictions = scenarios._restrictions

    def indexed(classes, chain, complement):
        return [(lift, (k,)) for k, (lift, _) in
                enumerate(restrictions(classes, chain, complement))]

    monkeypatch.setattr(scenarios, "_restrictions", indexed)
    result = run_criterion(5)
    assert not result.ok
    assert result.detail.startswith(
        "restrictions disagree with the span of the chain duals for p=2;")


def test_smith_form_without_the_divisibility_sweep_fails_claim_10(monkeypatch):
    # the package re-exports the function `homology` over the submodule name
    H = import_module("kirbycalc.homology")
    # the elimination ends without restoring the chain: the pivots stay as
    # they were deleted, units first
    monkeypatch.setattr(H, "_chain", lambda d, u, vt: tuple(x for x in d if x > 1))
    result = run_criterion(10)
    assert not result.ok
    case = "draw 6, [[-1, -9, 9, 6], [2, 0, -4, -2], [-6, -6, -1, 1], [-3, 2, 9, 4]]"
    assert result.detail == (f"divisibility chain (1, 1, 3, 4) broken for {case}; "
                             f"gcd of 3x3 minors mismatch for {case}")


def _smith_form_scaled(u, s):
    """smith_normal_form with U multiplied by u and S by s."""
    def scaled(m, c):
        return IntMatrix.from_rows([[c * x for x in row] for row in m.entries], m.cols)

    def smith_form(m):
        snf = smith_normal_form(m)
        return replace(snf, u=scaled(snf.u, u), s=scaled(snf.s, s))
    return smith_form


def test_smith_form_with_u_negated_fails_claim_10(monkeypatch):
    # -U is still unimodular, but -U M V = -S
    monkeypatch.setattr(acceptance, "smith_normal_form", _smith_form_scaled(-1, 1))
    result = run_criterion(10)
    assert not result.ok
    assert result.detail == "U M V != S for draw 1, [[9, 9, 4, -9, -5]]"


def test_smith_form_with_u_and_s_doubled_fails_claim_10(monkeypatch):
    # 2U M V = 2S holds, but det 2U is +-2^rows
    monkeypatch.setattr(acceptance, "smith_normal_form", _smith_form_scaled(2, 2))
    result = run_criterion(10)
    assert not result.ok
    assert result.detail == "transform not unimodular for draw 1, [[9, 9, 4, -9, -5]]"


# claims that no planted defect can fail yet, each with the reason
UNPLANTED = {
    2: "W_n is modelled as a cancelling pair, a dotted circle with a 0-framed "
       "circle through it once, so a broken W_n, even an empty one, keeps the "
       "trivial homology the claim checks; it waits for W_n's real diagram",
}


def test_every_claim_has_a_planted_defect_or_a_reason():
    planted = set()
    for name in globals():
        m = re.fullmatch(r"test_\w+_fails_claims?_(\d+(?:_and_\d+)*)", name)
        if m:
            planted.update(map(int, m.group(1).split("_and_")))
    assert not planted & UNPLANTED.keys()
    assert sorted(planted | UNPLANTED.keys()) == [c.number for c in acceptance.CLAIMS]
