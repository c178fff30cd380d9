"""Catalog builders and the lemma-level verification pipelines."""

import hashlib
import json
import pkgutil
import re
import time
from importlib import import_module
from pathlib import Path

from dataclasses import fields, is_dataclass, replace

import pytest

import kirbycalc
from kirbycalc import scenarios, swledger
from kirbycalc.acceptance import run_criterion
from kirbycalc.handles import (
    HandleDecomposition,
    HandleError,
    blow_down,
    dot_zero_swap,
    handle_slide,
    rational_blowdown_splice,
)
from kirbycalc.homology import (
    boundary_group_order,
    homology,
    inertia,
    is_homology_trivial,
    linking_matrix,
)
from kirbycalc.legendrian import FrontError, SteinReport, SteinVerdict, torus_knot_front
from kirbycalc.scenarios import (
    CountLemmaReport,
    GenusObstructionReport,
    KnottedCorkReport,
    RestrictionLemmaReport,
    ScenarioError,
    TransformReport,
    _closed_model,
    annotated_Dp_tilde,
    annotated_Dp_tilde_sum,
    annotated_Nn_tilde,
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
    verify_count_lemma,
    verify_restriction_lemma,
)
from kirbycalc.swledger import (
    AdjunctionReport,
    adjunction_check,
    alexander_polynomial_torus,
    blow_up_basic_classes,
    IntersectionLattice,
    knot_surgery_basic_classes,
    LaurentPolynomial,
    LedgerError,
    _lift_ok,
)

from _oracles import genus_seeds, hand_written_Bp, hand_written_Dp_tilde, x0_seeds


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
    from kirbycalc.acceptance import claim_named
    claim = claim_named("cork-homology")
    assert claim.check(2026) == (True, claim.summary)


# -- twist pair -------------------------------------------------------------------

def test_mn_nn_profiles():
    for n in (2, 3, 5):
        m_n, n_n = build_Mn_Nn(n)
        assert (m_n.name, n_n.name) == (f"M{n}", f"N{n}")
        pm, pn = homology(m_n), homology(n_n)
        assert pm.h1_trivial and pn.h1_trivial
        assert pm.h2_rank == 1 and pn.h2_rank == 1
        # the generator is computed, in the (c1, K) basis, and has square zero
        assert pn.h2_basis == ((n, -1),)
        assert pn.intersection_form.to_lists() == [[0]]


def test_nn_generator_reached_by_slides():
    n = 4
    _, n_n = build_Mn_Nn(n)
    d = n_n
    for _ in range(n):
        d = handle_slide(d, "K", "c1", -1)
    assert d.run_through_count("K", "c2") == 0
    assert d.framing("K") == 0


def test_swap_involution_on_mn():
    m_n, n_n = build_Mn_Nn(2)
    again = dot_zero_swap(n_n, "c2", "c1")
    assert again.one_handles == m_n.one_handles
    assert again.two_handles == m_n.two_handles
    assert dict(again.links) == dict(m_n.links)
    assert dict(again.run_through) == dict(m_n.run_through)


# -- Stein catalog ------------------------------------------------------------------

def test_stein_catalog_all_pass():
    from kirbycalc.legendrian import stein_check
    from kirbycalc.scenarios import stein_catalog
    catalog = stein_catalog()
    assert all(stein_check(d, fronts).ok for _, d, fronts in catalog)
    names = [name for name, _, _ in catalog]
    assert any(name.startswith("W") for name in names)
    assert any(name.startswith("D~") for name in names)
    assert any(name.startswith("N~") for name in names)


def test_nn_tilde_is_nn_renamed():
    for n in range(2, 12):
        d, fronts = annotated_Nn_tilde(n)
        assert d == replace(build_Mn_Nn(n)[1], name=f"N~{n}")
        # the hand-written statement it replaced, handle order included
        assert d.one_handles == ("c2",) and d.two_handles == (("c1", 0), ("K", 0))
        assert dict(d.run_through) == {("c1", "c2"): 1, ("K", "c2"): n} and not d.links
        assert list(fronts) == ["c1", "K"]


def test_bp_is_the_splice_of_cp():
    for p in range(2, 40):
        assert build_Bp(p) == hand_written_Bp(p)       # handle order included
    with pytest.raises(ScenarioError, match=r"^C_p needs p >= 2$"):
        build_Bp(1)


def test_dp_tilde_is_the_blow_down_of_dp():
    for p in range(2, 25):
        for prefix in ("", "d2."):
            assert annotated_Dp_tilde(p, prefix) == hand_written_Dp_tilde(p, prefix)
    with pytest.raises(ScenarioError, match=r"^C_p needs p >= 2$"):
        annotated_Dp_tilde(1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: HandleDecomposition(three_handles=1.5), HandleError,
     "three_handles must be an integer, got 1.5"),
    (lambda: HandleDecomposition(three_handles="2"), HandleError,
     "three_handles must be an integer, got '2'"),
    (lambda: rational_blowdown_splice(build_Cp(3), ("u2", "u1"), 3.0), HandleError,
     "p must be an integer, got 3.0"),
    (lambda: handle_slide(build_Cp(3), "u1", "u2", 1.0), HandleError,
     "sign must be an integer, got 1.0"),
    (lambda: adjunction_check(*build_genus_model(2), 1.5), LedgerError,
     "genera must be integers, got 1.5"),
    (lambda: blow_up_basic_classes(*build_genus_model(2)[:2], 1.0), LedgerError,
     "blow-up counts must be integers, got 1.0"),
    (lambda: build_Cp(2.5), ScenarioError, "p must be an integer, got 2.5"),
    (lambda: build_Wn(2.5), ScenarioError, "n must be an integer, got 2.5"),
    (lambda: build_X0_model((2,), 2.0), ScenarioError,
     "the seed count must be an integer, got 2.0"),
    (lambda: build_genus_model(3.0), ScenarioError, "n must be an integer, got 3.0"),
    (lambda: build_Mn_Nn(2.5), ScenarioError, "n must be an integer, got 2.5"),
    (lambda: genus_obstruction_Nn(3, 1.5), ScenarioError, "k must be an integer, got 1.5"),
    (lambda: verify_count_lemma((2,), 0.0), ScenarioError,
     "the chain index must be an integer, got 0.0"),
    (lambda: torus_knot_front(2.0, 3), FrontError, "p must be an integer, got 2.0"),
    (lambda: alexander_polynomial_torus(3.0, 2), LedgerError,
     "torus-knot parameters must be integers, got 3.0"),
], ids=["three-handles", "three-handles-str", "splice-p", "slide-sign", "genus",
        "blow-ups", "Cp", "Wn", "seed-count", "genus-model", "twist-pair", "genus-k",
        "chain-index", "torus-front", "torus-alexander"])
def test_counts_take_integers_only(call, error, message):
    # rejected with the layer's own error, never truncated or carried as a float
    build_genus_model(3)              # a cached n = 3 must not answer n = 3.0
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_slide_takes_true_as_plus_one():
    c3 = build_Cp(3)
    assert handle_slide(c3, "u1", "u2", True) == handle_slide(c3, "u1", "u2", 1)


def test_boundary_sums_need_a_summand():
    for build in (build_Wsum, annotated_Dp_tilde_sum):
        with pytest.raises(ScenarioError, match="^boundary sum needs at least one summand$"):
            build([])


def test_x0_model_takes_integer_p_only():
    # rejected, never truncated (p = 2.5 does not build the p = 2 model)
    with pytest.raises(ScenarioError, match="every p must be an integer"):
        build_X0_model((2.5,))


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
        assert _lift_ok([sum(a * b for a, b in zip(kappa, u)) for u in chain])


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


def _x0_summary(x0, seed_count) -> dict:
    return {"p_list": list(x0.p_list), "seed_count": seed_count,
            "chain_indices": [list(c) for c in x0.chain_indices],
            **_model_summary(x0.model, x0.classes)}


@pytest.mark.parametrize("pinned", PINNED_MODELS["X0"],
                         ids=lambda m: f"{m['p_list']}-{m['seed_count']}")
def test_x0_model_matches_pinned(pinned):
    x0 = build_X0_model(tuple(pinned["p_list"]), pinned["seed_count"])
    assert _x0_summary(x0, pinned["seed_count"]) == pinned


def test_x0_chain_blocks_are_read_from_dp(monkeypatch, cold_models):
    def variant(p):
        d = build_Dp(p)
        return replace(d, two_handles=tuple((h, -4 if h == "u0" else f)
                                            for h, f in d.two_handles))

    monkeypatch.setattr(scenarios, "build_Dp", variant)
    x0 = build_X0_model((2, 3))
    lat = x0.lattice
    for i, p in enumerate((2, 3)):
        d = variant(p)
        # D_p's linking matrix, permuted to the handle order e, u0, ..., u{p-1}
        g = linking_matrix(d)
        at = [d.two_handle_ids.index(h) for h in ["e"] + [f"u{j}" for j in range(p)]]
        vecs = [lat.names[f"e{i + 1}"]] + [lat.names[f"u{i + 1}_{j}"] for j in range(p)]
        assert [[lat.pair(x, y) for y in vecs] for x in vecs] == \
            [[g[a, b] for b in at] for a in at]
        assert lat.square(lat.names[f"u{i + 1}_0"]) == -4


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


@pytest.mark.parametrize("n", range(2, 13))
def test_genus_model_seeds_match_bitmask_seeds(n):
    # the class set is the duals of the bitmask seeds, each of weight 1
    model, classes, _ = build_genus_model(n)
    expected = {model.lattice.dual(s): 1 for s in genus_seeds(n)}
    assert len(expected) == 1 << n
    assert list(classes.weights.items()) == sorted(expected.items())


@pytest.mark.parametrize("blocks, seeds, message", [
    ([[[1]], [[2]]], [(1, 0), (0, 1)], "seed squares disagree"),
    ([[[0]]], [(1,), (-1,)], "degenerate synthetic pairing"),
    ([[[2]]], [(1,), (-1,)], "parity corrector failed"),
    ([[[1]]], [(1,), (-1,), (1,), (-1,)], "seed classes collided"),
], ids=["squares", "degenerate", "parity", "collision"])
def test_closed_model_guards(blocks, seeds, message):
    with pytest.raises(ScenarioError, match=message):
        _closed_model(blocks, {}, seeds)


def test_genus_model_takes_one_dual_per_generator(monkeypatch):
    calls = []
    dual = IntersectionLattice.dual

    def counting(lat, x):
        calls.append(x)
        return dual(lat, x)

    monkeypatch.setattr(IntersectionLattice, "dual", counting)
    build_genus_model.__wrapped__(6)         # 2^6 classes, bypassing the cache
    assert len(calls) == 6                   # core, e_1 ... e_5; the base is 0


def test_closed_model_rejects_classes_off_dimension_zero(monkeypatch):
    # The Euler number puts the primal seed squares at d = 0, and the class
    # set reads those squares, so only a ledger whose d-invariants disagree
    # with them reaches this guard.
    exact = swledger._d
    monkeypatch.setattr(swledger, "_d", lambda model, square: exact(model, square) + 2)
    with pytest.raises(ScenarioError, match="not in dimension zero"):
        _closed_model([[[1]]], {}, [(1,), (-1,)])


def test_closed_model_signature_matches_the_whole_pairing():
    # the builder sums inertia over its blocks; check it against the direct sum
    models = [build_X0_model((p,), 2).model for p in range(2, 10)]
    models += [build_X0_model(pl, 2).model for pl in ((7, 3), (6, 4), (5, 5))]
    models += [build_X0_model((), c).model for c in (2, 4, 6, 8)]
    models += [build_genus_model(n)[0] for n in range(2, 13)]
    for model in models:
        pos, neg, zero = inertia(model.lattice.pairing)
        assert (model.b2plus, model.signature, zero) == (pos, pos - neg, 0)


def test_closed_model_hands_seed_squares_to_the_class_set(monkeypatch, cold_models):
    calls = []
    exact = IntersectionLattice._dual_square

    def counting(lat, k):
        calls.append(k)
        return exact(lat, k)

    monkeypatch.setattr(IntersectionLattice, "_dual_square", counting)
    model, classes, _ = build_genus_model(8)
    assert calls == []
    assert classes.squares() == {k: exact(model.lattice, k) for k in classes.members}


# -- the X0 memo -----------------------------------------------------------------------------

def test_x0_memo_returns_the_model_it_built(cold_models):
    first = build_X0_model((2, 3), 2)
    assert build_X0_model((2, 3), 2) is first
    assert build_X0_model((2, 3)) is first
    assert build_X0_model((2, 3), 4) is not first


def test_x0_memo_keys_lists_and_tuples_alike(cold_models):
    assert build_X0_model([3]) is build_X0_model((3,))
    assert scenarios._x0_model.cache_info().currsize == 1


@pytest.mark.parametrize("args, message", [
    (((3.0,), 2), "every p must be an integer, got 3.0"),
    (((1,), 2), "every p must be >= 2"),
    (((3,), 3), "seed count must be even and >= 2"),
    (((3,), 2.0), "the seed count must be an integer, got 2.0"),
    (((3,), 18), "cannot realize 18 distinct seed classes"),
], ids=["float-p", "small-p", "odd-count", "float-count", "too-many-seeds"])
def test_x0_memo_never_answers_invalid_input(args, message, cold_models):
    # a cached (3,) must not answer (3.0,) or 2.0, and a failed build stores nothing
    build_X0_model((3,))
    for _ in range(2):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            build_X0_model(*args)
    assert scenarios._x0_model.cache_info().currsize == 1


def test_x0_memo_is_bounded(cold_models):
    maxsize = scenarios._x0_model.cache_info().maxsize
    assert maxsize == 32
    pinned = PINNED_MODELS["X0"][2]
    key = (tuple(pinned["p_list"]), pinned["seed_count"])
    first = build_X0_model(*key)
    others = [((p,), c) for p in range(3, 23) for c in (2, 4)]
    assert len(others) == 40 and key not in others
    for p_list, seed_count in others:
        build_X0_model(p_list, seed_count)
    assert scenarios._x0_model.cache_info().currsize <= maxsize
    again = build_X0_model(*key)        # evicted: built afresh, and equal
    assert again is not first
    assert _x0_summary(again, key[1]) == pinned


def test_memoised_lattices_hold_only_their_seed_squares(cold_models):
    # a square memo holds the members of one set (README), so no transform
    # may write into a model's lattice, which every caller of its key shares
    verify_count_lemma((3,), 0, 4)
    verify_count_lemma((2, 3), 1, 2)
    verify_restriction_lemma((3,), 0, 4)
    verify_restriction_lemma((2, 3), 0, 2)
    knotted_cork_scenario([(2, 3), (2, 5), (3, 4)])
    keys = [((3,), 4), ((2, 3), 2), ((), 2)]
    assert scenarios._x0_model.cache_info().currsize == len(keys)
    hits = scenarios._x0_model.cache_info().hits
    for key in keys:
        x0 = build_X0_model(*key)
        fresh = IntersectionLattice(x0.lattice.pairing)
        assert x0.lattice._squares == {k: fresh.dual_square(k) for k in x0.classes.members}
    assert scenarios._x0_model.cache_info().hits == hits + len(keys)


def test_every_library_memo_is_bounded():
    memos = {}
    for info in pkgutil.iter_modules(kirbycalc.__path__):
        for obj in vars(import_module(f"kirbycalc.{info.name}")).values():
            if hasattr(obj, "cache_info"):
                memos[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
    assert memos.keys() >= {"kirbycalc.legendrian._front_of_word",
                            "kirbycalc.scenarios.build_genus_model",
                            "kirbycalc.scenarios._x0_model",
                            "kirbycalc.cli._build_parser"}
    assert {name: size for name, size in memos.items() if not isinstance(size, int)} == {}


def test_no_report_stores_its_verdict():
    # a report's ok is read from its failures(), never stored beside its data
    reports = {}
    for info in pkgutil.iter_modules(kirbycalc.__path__):
        for obj in vars(import_module(f"kirbycalc.{info.name}")).values():
            if isinstance(obj, type) and is_dataclass(obj) and hasattr(obj, "failures"):
                reports[obj.__qualname__] = {f.name for f in fields(obj)}
    assert reports.keys() >= {"AdjunctionReport", "CountLemmaReport", "GenusObstructionReport",
                              "KnottedCorkReport", "RestrictionLemmaReport", "SteinReport",
                              "TransformReport"}
    assert [name for name, names in reports.items() if "ok" in names] == []


# -- count lemma -------------------------------------------------------------------------

@pytest.mark.parametrize("p", range(2, 7))
@pytest.mark.parametrize("seed", (2, 4))
def test_count_lemma_single_chain(p, seed):
    report = verify_count_lemma((p,), 0, seed)
    assert list(report.failures()) == []
    assert report.n0 == seed
    assert report.ni == (1 << (p - 1)) * seed


@pytest.mark.parametrize("p_list,index", [((2, 3), 1), ((3, 4, 2), 2), ((5, 2), 0)])
def test_count_lemma_multi_chain(p_list, index):
    report = verify_count_lemma(p_list, index, 2)
    assert list(report.failures()) == []
    assert report.ni == (1 << (p_list[index] - 1)) * 2


def test_count_lemma_counts_distinguish_distinct_p():
    counts = {verify_count_lemma((p,), 0, 2).ni for p in (2, 3, 4, 5)}
    assert len(counts) == 4


@pytest.mark.parametrize("run,budget", [
    (lambda: verify_count_lemma((11,), 0, 4), 2.0),
    (lambda: genus_obstruction_Nn(11, 2), 2.0),
    (lambda: verify_count_lemma((13,), 0, 4), 1.0),
    (lambda: genus_obstruction_Nn(14, 2), 1.0),
], ids=["count-p11", "genus-n11", "count-p13", "genus-n14"])
def test_ledger_ladder_rung_within_budget(run, budget):
    # 2^11 classes on a cold lattice: one exact adjugate per connected block
    # keeps each rung well under 2 s, where Fraction squares took 3-8 s; sets
    # built per sign cube keep 2^14 classes under 1 s
    start = time.perf_counter()
    report = run()
    assert list(report.failures()) == []
    assert time.perf_counter() - start < budget


# -- restriction lemma ----------------------------------------------------------------------

@pytest.mark.parametrize("p", range(2, 7))
def test_restriction_lemma(p):
    report = verify_restriction_lemma((p,), 0, 4)
    assert list(report.failures()) == []
    assert report.mayer_vietoris_index == report.boundary_order == p * p


def test_restriction_lemma_takes_one_dual_for_alpha(monkeypatch, cold_models):
    calls = []
    dual = IntersectionLattice._dual

    def counting(lat, x):
        calls.append(x)
        return dual(lat, x)

    monkeypatch.setattr(IntersectionLattice, "_dual", counting)
    assert list(verify_restriction_lemma((9,), 0, 4).failures()) == []
    # 4 seeds, alpha once, one per chain vector (8) for the span test, then
    # one per vector of the chain (8) and of its complement (rank 19 - 8 = 11)
    # in their Gram matrices
    assert len(calls) == 4 + 1 + 8 + 8 + 11


def test_restriction_lemma_multi_block():
    report = verify_restriction_lemma((3, 4), 1, 4)
    assert list(report.failures()) == []
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
    assert list(report.failures()) == []
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
    assert list(report.failures()) == []
    assert report.counts == (6, 10, 14)


def test_knotted_cork_names_the_knots_whose_outputs_coincide():
    report = knotted_cork_scenario([(3, 2), (2, 5), (2, 3), (3, 2)])
    assert report.coinciding == ((0, 2), (0, 3), (2, 3))
    assert list(report.failures()) == [
        "surgery outputs of (3,2) and (2,3) coincide",
        "surgery outputs of (3,2) and (3,2) coincide",
        "surgery outputs of (2,3) and (3,2) coincide"]


# -- one judge per lemma ---------------------------------------------------------------------

_COUNT = CountLemmaReport(p=3, n0=2, ni=8, d_preserved=True, rank_drop=2, signature_rise=2)
_RESTRICTION = RestrictionLemmaReport(3, True, True, True, True, True,
                                      mayer_vietoris_index=9, boundary_order=9)
# n = 4, k = -2: pairing 2 * 6, bound 2 * 3 + 1 = 7 = n|k| - (|k| - 1)
_GENUS = GenusObstructionReport(4, -2, max_pairing=12, genus_bound=7,
                                forces_zero_below_n=True)
_CORK = KnottedCorkReport(((2, 3), (2, 5)), (6, 10),
                          (LaurentPolynomial({1: 1, 0: -1, -1: 1}),
                           LaurentPolynomial({2: 1, 1: -1, 0: 1, -1: -1, -2: 1})),
                          input_weight=2, output_weights=(2, 2), coinciding=())
_TRANSFORM = TransformReport(count_before=2, count_after=8, factor=4, d_preserved=True)


@pytest.mark.parametrize("report,expected", [
    pytest.param(_COUNT, [], id="count-pass"),
    pytest.param(replace(_COUNT, ni=4), ["count lemma failed for p=3, N0=2"], id="count-ni"),
    pytest.param(replace(_COUNT, d_preserved=False), ["d not preserved for p=3, N0=2"],
                 id="count-d"),
    pytest.param(_RESTRICTION, [], id="restriction-pass"),
    pytest.param(replace(_RESTRICTION, alpha_orthogonal=False),
                 ["alpha not orthogonal to the chain for p=3"], id="restriction-orthogonal"),
    pytest.param(replace(_RESTRICTION, evaluation_identity=False),
                 ["alpha evaluation identity broken for p=3"], id="restriction-evaluation"),
    pytest.param(replace(_RESTRICTION, all_eligible=False),
                 ["a class fails the lift condition for p=3"], id="restriction-eligible"),
    pytest.param(replace(_RESTRICTION, restrictions_distinct=False),
                 ["restrictions not distinct for p=3"], id="restriction-distinct"),
    pytest.param(replace(_RESTRICTION, restrictions_match_span=False),
                 ["restrictions disagree with the span of the chain duals for p=3"],
                 id="restriction-span"),
    pytest.param(replace(_RESTRICTION, mayer_vietoris_index=3),
                 ["index != |H1(bd C_p)| for p=3"], id="restriction-index"),
    # the index is judged against C_p's boundary order, not against p^2
    pytest.param(replace(_RESTRICTION, boundary_order=4),
                 ["index != |H1(bd C_p)| for p=3"], id="restriction-boundary-order"),
    pytest.param(_GENUS, [], id="genus-pass"),
    pytest.param(GenusObstructionReport(4, 0, 0, 1, True), [], id="genus-k0-pass"),
    pytest.param(replace(_GENUS, max_pairing=10),
                 ["max pairing 10 != |k|(2n - 2) for n=4, k=-2"], id="genus-pairing"),
    # n|k| - |k| = 6 is below the claim's n|k| - (|k| - 1) = 7, though not below n
    pytest.param(replace(_GENUS, genus_bound=6),
                 ["bound 6 != |k|(n - 1) + 1 for n=4, k=-2"], id="genus-bound-low"),
    pytest.param(replace(_GENUS, genus_bound=8),
                 ["bound 8 != |k|(n - 1) + 1 for n=4, k=-2"], id="genus-bound-high"),
    pytest.param(_CORK, [], id="cork-pass"),
    pytest.param(replace(_CORK, counts=(0, 10)),
                 ["surgery output of (2,3) is empty"], id="cork-zero"),
    pytest.param(replace(_CORK, coinciding=((0, 1),)),
                 ["surgery outputs of (2,3) and (2,5) coincide"], id="cork-alike"),
    pytest.param(replace(_CORK, counts=(0, 0), coinciding=((0, 1),)),
                 ["surgery output of (2,3) is empty", "surgery output of (2,5) is empty",
                  "surgery outputs of (2,3) and (2,5) coincide"],
                 id="cork-both"),
    pytest.param(replace(_CORK, alexander=(_CORK.alexander[0],) * 2),
                 ["Delta of (2,5) is not t^-2 (t^10 - 1)(t - 1) / ((t^2 - 1)(t^5 - 1))"],
                 id="cork-delta"),
    pytest.param(replace(_CORK, output_weights=(2, 10)),
                 ["total weight 10 of the (2,5) output is not Delta(1) = 1 times the input's 2"],
                 id="cork-weight"),
    pytest.param(_TRANSFORM, [], id="transform-pass"),
    pytest.param(replace(_TRANSFORM, count_after=4), ["class count 4 != 4 x 2"],
                 id="transform-count"),
    pytest.param(replace(_TRANSFORM, d_preserved=False), ["d not preserved"], id="transform-d"),
    pytest.param(AdjunctionReport(1, 0, ()), [], id="adjunction-pass"),
    pytest.param(AdjunctionReport(1, 0, (((0, 2), 2), ((0, -2), -2))),
                 ["2 class(es) break alpha^2 + |<K, alpha>| <= 2g - 2 for g=1, "
                  "first (0, 2) with <K, alpha> = 2"], id="adjunction-violators"),
    pytest.param(SteinReport((SteinVerdict("k", 0, 1),)), [], id="stein-pass"),
    pytest.param(SteinReport((SteinVerdict("a", 5, 1), SteinVerdict("k", 0, 1),
                              SteinVerdict("b", -1, 1))),
                 ["fails framing = tb - 1 on a, b"], id="stein-framing"),
])
def test_report_failures_name_each_broken_condition(report, expected):
    assert list(report.failures()) == expected
    # a report that keeps an ok property derives it from the same condition
    assert getattr(report, "ok", not expected) is (not expected)


@pytest.mark.parametrize("change,expected", [
    ({"rank_drop": 0}, "descent dropped rank by 0, not p - 1, for p=3, N0=2"),
    ({"signature_rise": -2}, "descent raised signature by -2, not p - 1, for p=3, N0=2"),
], ids=["rank", "signature"])
def test_count_report_judges_the_size_of_the_descent(change, expected):
    assert list(replace(_COUNT, **change).failures()) == [expected]


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


# -- user-facing errors ----------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_Wn(0), ScenarioError, "W_n needs n >= 1"),
    (lambda: build_Mn_Nn(1), ScenarioError, "the twist pair needs n >= 2"),
    (lambda: build_genus_model(1), ScenarioError, "genus model needs n >= 2"),
    (lambda: run_criterion(99), ValueError, "no acceptance criterion 99"),
    (lambda: build_X0_model((2, 3)).chain_vectors(-1), ScenarioError,
     "chain index -1 is out of range for 2 chain(s)"),
    (lambda: build_X0_model((2, 3)).complement_basis(2), ScenarioError,
     "chain index 2 is out of range for 2 chain(s)"),
    (lambda: build_X0_model((2, 3)).alpha(-1), ScenarioError,
     "chain index -1 is out of range for 2 chain(s)"),
], ids=["Wn", "twist-pair", "genus-model", "criterion", "chain-vectors-index",
        "complement-index", "alpha-index"])
def test_builder_and_registry_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
