"""Catalog builders and the lemma-level verification pipelines."""

import hashlib
import json
import time
from pathlib import Path

import pytest

from kirbycalc import scenarios
from kirbycalc.handles import blow_down, dot_zero_swap, handle_slide
from kirbycalc.homology import boundary_group_order, homology, is_homology_trivial
from kirbycalc.scenarios import (
    ScenarioError,
    _closed_model,
    annotated_Dp_tilde,
    build_Bp,
    build_Cp,
    build_Dp,
    build_Mn_Nn,
    build_Wn,
    build_Wsum,
    build_X0_model,
    build_genus_model,
    genus_obstruction_Nn,
    knotted_cork_scenario,
    verify_contractibility,
    verify_count_lemma,
    verify_restriction_lemma,
    verify_stein_catalog,
)
from kirbycalc.swledger import (
    adjunction_check,
    IntersectionLattice,
    knot_surgery_basic_classes,
    LaurentPolynomial,
    rbd_lift_eligible,
)

from _oracles import genus_seeds, x0_seeds


# -- handle-level builders ------------------------------------------------------

def test_build_cp2_is_single_minus_four():
    d = build_Cp(2)
    assert d.two_handles == (("u1", -4),)
    assert boundary_group_order(d) == 4


def test_build_cp_rejects_small_p():
    with pytest.raises(ScenarioError):
        build_Cp(1)


@pytest.mark.parametrize("p", range(2, 8))
def test_build_bp_boundary_order(p):
    assert boundary_group_order(build_Bp(p)) == p * p


@pytest.mark.parametrize("p", range(2, 7))
def test_dp_contains_cp_subchain(p):
    d, c = build_Dp(p), build_Cp(p)
    for uid, framing in c.two_handles:
        assert d.framing(uid) == framing
    for (a, b), v in c.links.items():
        assert d.link(a, b) == v


@pytest.mark.parametrize("p", range(2, 7))
def test_dp_blow_down_yields_torus_knot_framing(p):
    out = blow_down(build_Dp(p), "e")
    assert out.framing(f"u{p - 1}") == p * p - p - 2
    if p > 2:
        assert out.link(f"u{p - 1}", f"u{p - 2}") == 1
    # matches the declared blown-down diagram data
    dt, _ = annotated_Dp_tilde(p)
    assert dt.framing("w") == out.framing(f"u{p - 1}")


@pytest.mark.parametrize("n", range(1, 11))
def test_wn_contractible(n):
    d = build_Wn(n)
    assert is_homology_trivial(d)
    assert boundary_group_order(d) == 1


def test_wsum_contractible():
    d = build_Wsum((1, 2, 3, 4, 5))
    assert d.name == "W(1,2,3,4,5)"
    assert is_homology_trivial(d)
    assert boundary_group_order(d) == 1


def test_contractibility_catalog():
    report = verify_contractibility()
    assert report.ok and report.failed == ()


# -- twist pair -------------------------------------------------------------------

def test_mn_nn_profiles():
    m_n, n_n, alpha = build_Mn_Nn(3)
    assert (m_n.name, n_n.name) == ("M3", "N3")
    pm, pn = homology(m_n), homology(n_n)
    assert pm.h1_trivial and pn.h1_trivial
    assert pm.h2_rank == 1 and pn.h2_rank == 1
    assert pn.intersection_form.to_lists() == [[0]]   # square-zero generator
    assert alpha == (-3, 1)


def test_nn_generator_reached_by_slides():
    n = 4
    _, n_n, _ = build_Mn_Nn(n)
    d = n_n
    for _ in range(n):
        d = handle_slide(d, "K", "c1", -1)
    assert d.run_through_count("K", "c2") == 0
    assert d.framing("K") == 0


def test_swap_involution_on_mn():
    m_n, n_n, _ = build_Mn_Nn(2)
    again = dot_zero_swap(n_n, "c2", "c1")
    assert again.one_handles == m_n.one_handles
    assert again.two_handles == m_n.two_handles
    assert dict(again.links) == dict(m_n.links)
    assert dict(again.run_through) == dict(m_n.run_through)


# -- Stein catalog ------------------------------------------------------------------

def test_stein_catalog_all_pass():
    report = verify_stein_catalog()
    assert report.ok
    names = [name for name, _ in report.reports]
    assert any(name.startswith("W") for name in names)
    assert any(name.startswith("D~") for name in names)
    assert any(name.startswith("N~") for name in names)


def test_catalog_fronts_satisfy_parity():
    from kirbycalc.legendrian import rotation_number, thurston_bennequin
    from kirbycalc.scenarios import stein_catalog
    for _, _, fronts in stein_catalog():
        for front in fronts.values():
            assert (thurston_bennequin(front) + rotation_number(front)) % 2 == 1


# -- synthetic closed models -----------------------------------------------------------

@pytest.mark.parametrize("p", range(2, 7))
def test_x0_seeds_are_eligible_lifts(p):
    x0 = build_X0_model((p,), 4)
    chain = x0.chain_vectors(0)
    for kappa in x0.classes.members:
        assert rbd_lift_eligible(kappa, chain)


def test_x0_minimal_model_pairing_pattern():
    x0 = build_X0_model((2,), 2)
    assert x0.classes.count == 2
    u1 = x0.lattice.names["u1_1"]
    e1 = x0.lattice.names["e1"]
    pairings = sorted(sum(a * b for a, b in zip(kappa, u1))
                      for kappa in x0.classes.members)
    assert pairings == [-2, 2]
    for kappa in x0.classes.members:
        k_u = sum(a * b for a, b in zip(kappa, u1))
        k_e = sum(a * b for a, b in zip(kappa, e1))
        assert k_u == -2 * k_e


def test_x0_adjunction_forces_zero_torus_pairing():
    x0 = build_X0_model((2, 3), 2)
    report = adjunction_check(x0.model, x0.classes, x0.torus(), 1)
    assert report.ok   # pass means every class pairs to 0 with the torus


def test_x0_rejects_bad_parameters():
    with pytest.raises(ScenarioError):
        build_X0_model((1,), 2)
    with pytest.raises(ScenarioError):
        build_X0_model((2,), 3)


def test_x0_b2plus_counts_blocks():
    x0 = build_X0_model((2, 4, 5), 2)
    assert x0.model.b2plus == 4 + 3


# -- closed models: pinned outputs and the guards of the closing step -----------------------

# Recorded from build_X0_model and build_genus_model before the two builders
# shared one closing step; vectors and the upper triangle of the pairing are
# stored sparsely as [index, value] and [row, col, value].
PINNED_MODELS = json.loads(Path(__file__).with_name("closed_models.json").read_text())


def _sparse(v):
    return [[i, x] for i, x in enumerate(v) if x]


def _model_summary(model, classes) -> dict:
    lat = model.lattice
    g = lat.pairing
    members = json.dumps(sorted([list(k), w] for k, w in classes.weights.items()))
    return {
        "rank": lat.rank, "euler": model.euler, "signature": model.signature,
        "b2plus": model.b2plus, "count": classes.count,
        "classes_sha256": hashlib.sha256(members.encode()).hexdigest(),
        "names": {k: _sparse(v) for k, v in lat.names.items()},
        "pairing": [[i, j, g[i, j]] for i in range(lat.rank)
                    for j in range(i, lat.rank) if g[i, j]],
    }


@pytest.mark.parametrize("pinned", PINNED_MODELS["X0"],
                         ids=lambda m: f"{m['p_list']}-{m['seed_count']}")
def test_x0_model_matches_pinned(pinned):
    x0 = build_X0_model(tuple(pinned["p_list"]), pinned["seed_count"])
    assert {"p_list": list(x0.p_list), "seed_count": pinned["seed_count"],
            "chain_indices": [list(c) for c in x0.chain_indices],
            **_model_summary(x0.model, x0.classes)} == pinned


@pytest.mark.parametrize("pinned", PINNED_MODELS["genus"], ids=lambda m: f"n{m['n']}")
def test_genus_model_matches_pinned(pinned):
    model, classes, alpha = build_genus_model(pinned["n"])
    assert {"n": pinned["n"], "alpha": _sparse(alpha),
            **_model_summary(model, classes)} == pinned


@pytest.mark.parametrize("p_list", [(), (2,), (2, 3), (2, 4, 5)], ids=str)
def test_x0_model_matches_bitmask_seeds(p_list):
    # every realizable seed count, against the enumeration the builder replaced
    limit = 1 << (len(p_list) + 3)
    for seed_count in range(2, limit + 1, 2):
        x0 = build_X0_model(p_list, seed_count)
        lat = x0.lattice
        seeds = x0_seeds(p_list, lat.rank, seed_count)
        oracle = _closed_model([lat.pairing.entries], dict(lat.names), seeds)
        assert _model_summary(x0.model, x0.classes) == _model_summary(*oracle)
    message = f"cannot realize {limit + 2} distinct seed classes"
    with pytest.raises(ScenarioError, match=message):
        x0_seeds(p_list, lat.rank, limit + 2)
    with pytest.raises(ScenarioError, match=message):
        build_X0_model(p_list, limit + 2)


@pytest.mark.parametrize("n", range(2, 11))
def test_genus_model_seeds_match_bitmask_seeds(n, monkeypatch):
    closed = []
    close = scenarios._closed_model

    def recording(blocks, names, seeds):
        closed.append(list(seeds))
        return close(blocks, names, seeds)

    monkeypatch.setattr(scenarios, "_closed_model", recording)
    build_genus_model.__wrapped__(n)         # bypassing the cache
    assert closed == [genus_seeds(n)]


@pytest.mark.parametrize("blocks, seeds, message", [
    ([[[1]], [[2]]], [(1, 0), (0, 1)], "seed squares disagree"),
    ([[[0]]], [(1,), (-1,)], "degenerate synthetic pairing"),
    ([[[2]]], [(1,), (-1,)], "parity corrector failed"),
    ([[[1]]], [(1,), (-1,), (1,), (-1,)], "seed classes collided"),
], ids=["squares", "degenerate", "parity", "collision"])
def test_closed_model_guards(blocks, seeds, message):
    with pytest.raises(ScenarioError, match=message):
        _closed_model(blocks, {}, seeds)


def test_closed_model_takes_one_dual_per_seed(monkeypatch):
    calls = []
    dual = IntersectionLattice.dual

    def counting(lat, x):
        calls.append(x)
        return dual(lat, x)

    monkeypatch.setattr(IntersectionLattice, "dual", counting)
    build_genus_model.__wrapped__(6)         # 2^6 seeds, bypassing the cache
    assert len(calls) == 64


def test_closed_model_rejects_classes_off_dimension_zero(monkeypatch):
    # The Euler number puts the primal seed squares at d = 0, so only a ledger
    # whose dual squares disagree with them reaches this guard.
    exact = IntersectionLattice.dual_square
    monkeypatch.setattr(IntersectionLattice, "dual_square",
                        lambda lat, k: exact(lat, k) + 8)
    with pytest.raises(ScenarioError, match="not in dimension zero"):
        _closed_model([[[1]]], {}, [(1,), (-1,)])


# -- count lemma -------------------------------------------------------------------------

@pytest.mark.parametrize("p", range(2, 7))
@pytest.mark.parametrize("seed", (2, 4))
def test_count_lemma_single_chain(p, seed):
    report = verify_count_lemma((p,), 0, seed)
    assert report.ok
    assert report.n0 == seed
    assert report.ni == (1 << (p - 1)) * seed


@pytest.mark.parametrize("p_list,index", [((2, 3), 1), ((3, 4, 2), 2), ((5, 2), 0)])
def test_count_lemma_multi_chain(p_list, index):
    report = verify_count_lemma(p_list, index, 2)
    assert report.ok
    assert report.ni == (1 << (p_list[index] - 1)) * 2


def test_count_lemma_counts_distinguish_distinct_p():
    counts = {verify_count_lemma((p,), 0, 2).ni for p in (2, 3, 4, 5)}
    assert len(counts) == 4


@pytest.mark.parametrize("run", [
    lambda: verify_count_lemma((11,), 0, 4),
    lambda: genus_obstruction_Nn(11, 2),
], ids=["count-p11", "genus-n11"])
def test_ledger_ladder_rung_within_budget(run):
    # 2^11 classes on a cold lattice: one exact adjugate per lattice keeps
    # each rung well under 2 s, where Fraction squares took 3-8 s
    start = time.perf_counter()
    report = run()
    assert report.ok
    assert time.perf_counter() - start < 2.0


# -- restriction lemma ----------------------------------------------------------------------

@pytest.mark.parametrize("p", range(2, 7))
def test_restriction_lemma(p):
    report = verify_restriction_lemma((p,), 0, 4)
    assert report.ok
    assert report.mayer_vietoris_index == p * p


def test_restriction_lemma_takes_one_dual_for_alpha(monkeypatch):
    calls = []
    dual = IntersectionLattice.dual

    def counting(lat, x):
        calls.append(x)
        return dual(lat, x)

    monkeypatch.setattr(IntersectionLattice, "dual", counting)
    assert verify_restriction_lemma((9,), 0, 4).ok
    # 4 seeds, alpha once, then one per vector of the chain (8) and of its
    # complement (rank 19 - 8 = 11) in their Gram matrices
    assert len(calls) == 4 + 1 + 8 + 11


def test_restriction_lemma_multi_block():
    report = verify_restriction_lemma((3, 4), 1, 4)
    assert report.ok
    assert report.mayer_vietoris_index == 16


# -- genus obstruction -----------------------------------------------------------------------

def test_genus_model_pairings():
    model, classes, alpha = build_genus_model(4)
    assert model.lattice.square(alpha) == 0
    e1 = model.lattice.names["e1"]
    assert model.lattice.pair(alpha, e1) == 4
    for i in range(1, 4):
        e_i = model.lattice.names[f"e{i}"]
        assert model.lattice.square(e_i) == -1
        if i > 1:
            assert model.lattice.pair(alpha, e_i) == 1


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("k", (-5, -2, -1, 0, 1, 3, 5))
def test_genus_obstruction(n, k):
    report = genus_obstruction_Nn(n, k)
    assert report.ok
    if k == 0:
        assert report.genus_bound == 1
    else:
        assert report.max_pairing == abs(k) * (2 * n - 2)
        assert report.genus_bound == abs(k) * (n - 1) + 1
        assert report.genus_bound >= n


def test_genus_obstruction_specific_values():
    r = genus_obstruction_Nn(2, 1)
    assert r.max_pairing == 2 and r.genus_bound == 2
    r = genus_obstruction_Nn(5, 3)
    assert r.max_pairing == 24 and r.genus_bound == 13


# -- knotted cork -------------------------------------------------------------------------------

def test_knotted_cork_distinct_outputs():
    report = knotted_cork_scenario([(2, 3), (2, 5), (2, 7)])
    assert report.ok
    assert report.counts == (6, 10, 14)


def test_knotted_cork_unknot_gives_no_distinction():
    base = build_X0_model((), 2)
    out = knot_surgery_basic_classes(base.model, base.classes, base.torus(),
                                     LaurentPolynomial.one())
    assert out == base.classes


def test_knotted_cork_rejects_non_coprime():
    with pytest.raises(Exception):
        knotted_cork_scenario([(4, 2)])


# -- exportable catalog -------------------------------------------------------------

CATALOG = ("lens-orders", "cork-homology", "stein", "count", "restriction",
           "genus", "knottedcork")


def test_catalog_entries_all_verify():
    from kirbycalc.acceptance import claim_named
    for name in CATALOG:
        ok, detail = claim_named(name).check(2026)
        assert ok, (name, detail)


def test_catalog_export_round_trips():
    from kirbycalc.acceptance import claim_named
    from kirbycalc.hbd import parse_hbd
    payload = claim_named("stein").export()
    assert payload["expected"]
    for name, text in payload["documents"].items():
        doc = parse_hbd(text)
        assert doc.decomposition.two_handles, name


def test_catalog_unknown_name():
    from kirbycalc.acceptance import claim_named
    with pytest.raises(ScenarioError, match="known: lens-orders, cork-homology"):
        claim_named("nope")
