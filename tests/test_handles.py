"""Kirby moves: frozen examples plus boundary-invariance oracles."""

import random
import time
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirbycalc.acceptance import _random_decomposition

from kirbycalc.handles import (
    HandleDecomposition,
    HandleError,
    blow_down,
    blow_up,
    boundary_sum,
    dot_zero_swap,
    fresh_id,
    handle_slide,
    rational_blowdown_splice,
)
from kirbycalc.homology import (
    IntMatrix,
    boundary_first_homology,
    boundary_group_order,
    homology,
    is_homology_trivial,
    linking_matrix,
    run_through_matrix,
)
from kirbycalc.scenarios import build_Cp
from _oracles import surgery_presentation_by_blocks


def two_unknots(fa=-1, fb=-1, lk=0):
    return HandleDecomposition(two_handles=(("a", fa), ("b", fb)),
                               links={("a", "b"): lk})


def wn_model(n=1):
    """One dotted circle, one 0-framed 2-handle through it once."""
    return HandleDecomposition(one_handles=("h",), two_handles=(("k", 0),),
                               run_through={("k", "h"): 1}, name=f"W{n}")


def nn_model(n):
    """Dotted circle c2, 0-framed c1 through it once, 0-framed K through it n times."""
    return HandleDecomposition(one_handles=("c2",),
                               two_handles=(("c1", 0), ("K", 0)),
                               run_through={("c1", "c2"): 1, ("K", "c2"): n},
                               name=f"N{n}")


def cp_chain(p):
    two = tuple((f"u{p - 1 - i}", -(p + 2) if i == 0 else -2) for i in range(p - 1))
    links = {(f"u{j}", f"u{j + 1}"): 1 for j in range(1, p - 1)}
    return HandleDecomposition(two_handles=two, links=links, name=f"C{p}")


def random_decomposition(rng, max_two=8):
    n1 = rng.randrange(0, 3)
    n2 = rng.randrange(2, max_two + 1)
    ones = tuple(f"h{i}" for i in range(n1))
    twos = tuple((f"k{i}", rng.randrange(-9, 10)) for i in range(n2))
    links = {}
    for i in range(n2):
        for j in range(i + 1, n2):
            if rng.random() < 0.4:
                links[(f"k{i}", f"k{j}")] = rng.randrange(-3, 4)
    rt = {}
    for i in range(n2):
        for h in range(n1):
            if rng.random() < 0.3:
                rt[(f"k{i}", f"h{h}")] = rng.randrange(-2, 3)
    return HandleDecomposition(ones, twos, links, rt)


# -- construction invariants -------------------------------------------------

def test_duplicate_ids_rejected():
    with pytest.raises(HandleError):
        HandleDecomposition(one_handles=("a",), two_handles=(("a", 0),))


def test_self_link_rejected():
    with pytest.raises(HandleError):
        HandleDecomposition(two_handles=(("a", 0),), links={("a", "a"): 1})


@pytest.mark.parametrize("kwargs, what", [
    ({"two_handles": (("a", 1.7),)}, "framing of 'a'"),
    ({"two_handles": (("a", 0), ("b", 0)), "links": {("a", "b"): 0.5}}, "link 'a'-'b'"),
    ({"one_handles": ("h",), "two_handles": (("a", 0),), "run_through": {("a", "h"): 2.0}},
     "run-through 'a'-'h'"),
], ids=["framing", "link", "run-through"])
def test_non_integer_data_rejected(kwargs, what):
    # rejected, never truncated (a 1.7 framing is not read as 1)
    with pytest.raises(HandleError, match=f"{what} must be an integer"):
        HandleDecomposition(**kwargs)


@pytest.mark.parametrize("name", ["x y", "x#y", "x\ty", " x", "x\n", "#"])
def test_names_the_hbd_header_cannot_hold_rejected(name):
    # `manifold x y` does not parse, and `manifold x#y` reads back as `x`
    with pytest.raises(HandleError, match="whitespace or '#'"):
        HandleDecomposition(name=name)


def test_zero_entries_normalized_away():
    d = HandleDecomposition(two_handles=(("a", 0), ("b", 1)), links={("a", "b"): 0})
    assert dict(d.links) == {}


# -- handle slide -------------------------------------------------------------

def test_lookup_tables_leave_equality_repr_and_replace_alone():
    d = HandleDecomposition(("h",), (("a", -1), ("b", 2)), {("b", "a"): 3},
                            {("a", "h"): 1})
    assert [f.name for f in fields(d)] == [
        "one_handles", "two_handles", "links", "run_through", "three_handles", "name"]
    assert repr(d) == ("HandleDecomposition(name='', one=['h'], two=[('a', -1), ('b', 2)], "
                       "links={('a', 'b'): 3}, rt={('a', 'h'): 1})")
    same = HandleDecomposition(("h",), (("a", -1), ("b", 2)), {("a", "b"): 3},
                               {("a", "h"): 1, ("b", "h"): 0})
    assert same == d and replace(d) == d
    assert d != replace(d, name="x")
    # replace() rebuilds the tables from the new fields
    e = replace(d, one_handles=("g",), two_handles=(("a", 5), ("c", 0)),
                links={}, run_through={})
    assert e.framing("a") == 5 and e.is_two_handle("c") and not e.is_two_handle("b")
    assert e.is_one_handle("g") and not e.is_one_handle("h")
    assert d.framing("a") == -1 and d.link("a", "b") == 3 and d.run_through_count("a", "h") == 1
    for call, message in ((lambda: e.framing("b"), "unknown 2-handle 'b'"),
                          (lambda: e.link("a", "b"), "link requires two 2-handles"),
                          (lambda: e.run_through_count("a", "h"), "unknown 1-handle 'h'"),
                          (lambda: e.run_through_count("g", "g"), "unknown 2-handle 'g'")):
        with pytest.raises(HandleError, match=message):
            call()


def test_slide_framing_update():
    d = two_unknots()
    out = handle_slide(d, "a", "b", +1)
    assert out.framing("a") == -2
    assert out.framing("b") == -1
    # the slid handle picks up a copy of b, so their pairing shifts by b's framing
    assert out.link("a", "b") == -1


def test_slide_then_unslide_is_identity():
    rng = random.Random(7)
    for _ in range(50):
        d = random_decomposition(rng)
        ids = d.two_handle_ids
        a, b = rng.sample(ids, 2)
        assert handle_slide(handle_slide(d, a, b, +1), a, b, -1) == d


def test_slide_boundary_invariance():
    rng = random.Random(11)
    for _ in range(60):
        d = random_decomposition(rng)
        a, b = rng.sample(d.two_handle_ids, 2)
        out = handle_slide(d, a, b, rng.choice((1, -1)))
        assert boundary_first_homology(out) == boundary_first_homology(d)


def test_slide_unlinks_nn_run_through():
    n = 4
    d = nn_model(n)
    for _ in range(n):
        d = handle_slide(d, "K", "c1", -1)
    assert d.run_through_count("K", "c2") == 0
    assert d.framing("K") == 0


def test_slide_errors():
    d = two_unknots()
    with pytest.raises(HandleError):
        handle_slide(d, "a", "a", 1)
    with pytest.raises(HandleError):
        handle_slide(d, "a", "zz", 1)


# -- blow up / blow down -------------------------------------------------------

def test_blow_up_empty_diagram():
    d = HandleDecomposition()
    out = blow_up(d)
    assert out.two_handles == (("e1", -1),)


def test_blow_up_through_zero_framed_handle():
    d = HandleDecomposition(two_handles=(("a", 0),))
    out = blow_up(d, [("a", 1)], new_id="e")
    prof = homology(out)
    assert prof.h2_rank == 2
    # canonical basis is the handle basis (a, e); the new class squares to -1
    assert prof.intersection_form.to_lists() == [[-1, 1], [1, -1]]
    assert boundary_first_homology(out) == boundary_first_homology(d)


def test_blow_up_blow_down_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        d = random_decomposition(rng)
        attach = [(k, rng.randrange(-2, 3)) for k in d.two_handle_ids
                  if rng.random() < 0.5]
        out = blow_up(d, attach, new_id="e*")
        assert blow_down(out, "e*") == d


def test_blow_down_matches_slide_oracle():
    # a: framing 0 linking e once; slide a over e, then delete the split unknot
    d = HandleDecomposition(two_handles=(("a", 0), ("e", -1)), links={("a", "e"): 1})
    slid = handle_slide(d, "a", "e", +1)
    assert slid.link("a", "e") == 0
    assert slid.framing("a") == 1
    assert blow_down(d, "e").framing("a") == 1


def test_blow_down_preserves_boundary():
    rng = random.Random(3)
    for _ in range(40):
        d = random_decomposition(rng)
        out = blow_up(d, [(d.two_handle_ids[0], rng.randrange(-2, 3))], new_id="e*")
        assert boundary_first_homology(blow_down(out, "e*")) == boundary_first_homology(out)


def test_blow_down_preconditions():
    d = HandleDecomposition(one_handles=("h",), two_handles=(("e", -1), ("f", 0)),
                            run_through={("e", "h"): 1})
    with pytest.raises(HandleError):
        blow_down(d, "f")  # wrong framing
    with pytest.raises(HandleError):
        blow_down(d, "e")  # runs through the dotted circle
    for bad in ("zz", "h"):
        with pytest.raises(HandleError, match=f"unknown 2-handle {bad!r}"):
            blow_down(d, bad)


@pytest.mark.parametrize("attach", [[("a", 0), ("a", 1)], [("a", 1), ("a", 0)],
                                    [("a", 0), ("a", 0)]])
def test_blow_up_rejects_repeated_attachment_in_any_order(attach):
    with pytest.raises(HandleError, match="duplicate attachment for 'a'"):
        blow_up(two_unknots(), attach)


def test_blow_up_multiplicities_take_integers_only():
    # rejected, never truncated (a multiplicity of 1.5 is not read as 1)
    with pytest.raises(HandleError, match="multiplicity of 'u1' must be an integer, got 1.5"):
        blow_up(build_Cp(3), [("u1", 1.5)])
    assert blow_up(build_Cp(3), [("u1", True)]) == blow_up(build_Cp(3), [("u1", 1)])


def _transpose(m):
    return IntMatrix.from_rows([list(col) for col in zip(*m.entries)], m.rows)


def _minus_one_sum(q):
    """Q plus a -1-framed unknot split from it: Q ⊕ <-1>."""
    n = q.rows
    return IntMatrix.from_rows([list(row) + [0] for row in q.entries] + [[0] * n + [-1]])


def _blow_up_basis(m):
    """P with x -> x + m_x e on the old handles and e -> -e on the new one."""
    n = len(m)
    rows = [[int(i == j) for j in range(n)] + [0] for i in range(n)]
    return IntMatrix.from_rows(rows + [list(m) + [-1]])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32).map(random.Random))
def test_moves_are_congruences(rng):
    # each move is a change of basis of H_2, checked by matrix products alone
    d = _random_decomposition(rng)
    ids, n = d.two_handle_ids, len(d.two_handles)
    q, r = linking_matrix(d), run_through_matrix(d)

    a, b = rng.sample(range(n), 2)
    s = rng.choice((1, -1))
    e = IntMatrix.from_rows([[int(i == j) + s * ((i, j) == (b, a)) for j in range(n)]
                             for i in range(n)])
    slid = handle_slide(d, ids[a], ids[b], s)
    assert linking_matrix(slid) == _transpose(e) @ q @ e
    assert run_through_matrix(slid) == r @ e

    m = [rng.randrange(-2, 3) if rng.random() < 0.6 else 0 for _ in ids]
    up = blow_up(d, list(zip(ids, m)))
    p = _blow_up_basis(m)
    assert linking_matrix(up) == _transpose(p) @ _minus_one_sum(q) @ p
    assert run_through_matrix(up) == IntMatrix.from_rows(
        [list(row) + [0] for row in r.entries], n + 1)
    assert blow_down(up, up.two_handle_ids[-1]) == d

    k = ids[-1]
    dk = HandleDecomposition(d.one_handles, d.two_handles[:-1] + ((k, -1),), d.links,
                             {key: v for key, v in d.run_through.items() if key[0] != k})
    down = blow_down(dk, k)
    p = _blow_up_basis([dk.link(x, k) for x in ids[:-1]])
    assert linking_matrix(dk) == _transpose(p) @ _minus_one_sum(linking_matrix(down)) @ p
    assert run_through_matrix(down) == IntMatrix.from_rows(
        [row[:-1] for row in run_through_matrix(dk).entries], n - 1)


def _boundary_by_sympy(m):
    """H_1 of the boundary from sympy's invariant factors of a presentation."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    if not m.rows:
        return ()
    factors = [abs(int(x)) for x in invariant_factors(sympy.Matrix(m.to_lists()),
                                                       domain=sympy.ZZ)]
    return tuple(x for x in factors if x >= 2) + (0,) * factors.count(0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32).map(random.Random))
def test_move_sequences_keep_the_boundary(rng):
    # a boundary sum with C_p adds its Z/p^2, and the splice of that C_p keeps
    # it; sympy judges the start, each sum and the end, from the block assembly
    d = _random_decomposition(rng)
    expected = _boundary_by_sympy(surgery_presentation_by_blocks(d))
    assert boundary_first_homology(d) == expected
    for step in range(8):
        move = rng.choice(("slide", "blow-up", "blow-down", "swap", "sum"))
        if move == "slide":
            if len(d.two_handles) >= 2:
                a, b = rng.sample(d.two_handle_ids, 2)
                sign = rng.choice((1, -1))
                out = handle_slide(d, a, b, sign)
                assert handle_slide(out, a, b, -sign) == d
                d = out
        elif move == "blow-up":
            d = blow_up(d, [(k, rng.randrange(-2, 3)) for k in d.two_handle_ids
                            if rng.random() < 0.5])
        elif move == "blow-down":
            free = [k for k, f in d.two_handles if f == -1
                    and not any(d.run_through_count(k, h) for h in d.one_handles)]
            if free:
                d = blow_down(d, rng.choice(free))
        elif move == "swap":
            swaps = [(h, k) for h in d.one_handles for k, f in d.two_handles if f == 0
                     and all(g == h or not d.run_through_count(k, g) for g in d.one_handles)]
            if swaps:
                d = dot_zero_swap(d, *rng.choice(swaps))
        else:
            p = rng.randrange(2, 5)
            d = boundary_sum(d, build_Cp(p))
            expected = _boundary_by_sympy(IntMatrix.diagonal(expected + (p * p,)))
            assert boundary_first_homology(d) == expected, (step, move)
            d = rational_blowdown_splice(d, d.two_handle_ids[:-p:-1], p)
        assert boundary_first_homology(d) == expected, (step, move)
    assert _boundary_by_sympy(surgery_presentation_by_blocks(d)) == expected


def test_chain_moves_within_budget():
    # the moves touch only the handles they involve, so a 399-handle chain is cheap
    d = build_Cp(400)
    start = time.perf_counter()
    up = blow_up(d, [("u399", 1), ("u398", 1)], new_id="e")
    down = blow_down(up, "e")
    assert time.perf_counter() - start < 0.02
    assert down == d


# -- dot-zero swap -------------------------------------------------------------

def test_swap_preserves_wn_homology():
    d = wn_model()
    out = dot_zero_swap(d, "h", "k")
    assert is_homology_trivial(d) and is_homology_trivial(out)
    assert boundary_first_homology(out) == boundary_first_homology(d)


def test_swap_is_involution():
    d = HandleDecomposition(one_handles=("h",),
                            two_handles=(("k", 0), ("x", 3)),
                            links={("k", "x"): 2},
                            run_through={("k", "h"): 1, ("x", "h"): -1})
    once = dot_zero_swap(d, "h", "k")
    assert dot_zero_swap(once, "k", "h") == d


def test_swap_requires_zero_framing():
    d = HandleDecomposition(one_handles=("h",), two_handles=(("k", 1),))
    with pytest.raises(HandleError):
        dot_zero_swap(d, "h", "k")


def test_swap_rejects_extra_dotted_linking():
    d = HandleDecomposition(one_handles=("h", "g"), two_handles=(("k", 0),),
                            run_through={("k", "h"): 1, ("k", "g"): 2})
    with pytest.raises(HandleError):
        dot_zero_swap(d, "h", "k")


# -- boundary sum ---------------------------------------------------------------

def test_boundary_sum_with_empty_is_identity():
    d = wn_model()
    assert boundary_sum(d, HandleDecomposition()) == HandleDecomposition(
        d.one_handles, d.two_handles, dict(d.links), dict(d.run_through), 0, d.name)


def test_boundary_sum_homology_is_blockwise():
    d1 = cp_chain(3)
    d2 = wn_model()
    prof = homology(boundary_sum(d1, d2))
    p1, p2 = homology(d1), homology(d2)
    assert prof.h2_rank == p1.h2_rank + p2.h2_rank
    assert prof.h1_free_rank == p1.h1_free_rank + p2.h1_free_rank
    assert prof.h1_invariant_factors == p1.h1_invariant_factors + p2.h1_invariant_factors


def test_boundary_sum_renames_collisions():
    d = wn_model()
    out = boundary_sum(d, d)
    assert len(set(out.all_ids)) == 4
    assert is_homology_trivial(out)


def test_boundary_sum_renames_past_chained_collisions():
    assert fresh_id("x", ["x", "x_2"]) == "x_3"
    d1 = HandleDecomposition(two_handles=(("x", 1), ("x_2", 2)))
    d2 = HandleDecomposition(two_handles=(("x", 3), ("x_3", 4)), links={("x", "x_3"): 1})
    out = boundary_sum(d1, d2)
    # d2's x skips x_2 (taken by d1) to x_3, so d2's own x_3 moves on to x_3_2
    assert out.two_handles == (("x", 1), ("x_2", 2), ("x_3", 3), ("x_3_2", 4))
    assert dict(out.links) == {("x_3", "x_3_2"): 1}


def test_boundary_sum_associative_on_disjoint_ids():
    a = HandleDecomposition(two_handles=(("a", 1),))
    b = HandleDecomposition(one_handles=("b",))
    c = HandleDecomposition(two_handles=(("c", -3),))
    assert boundary_sum(boundary_sum(a, b), c) == boundary_sum(a, boundary_sum(b, c))


def test_successive_blow_ups_all_minus_one_framed():
    d = HandleDecomposition(two_handles=(("a", 0),))
    for _ in range(3):
        d = blow_up(d, [("a", 1)])
    new = [f for i, f in d.two_handles if i != "a"]
    assert new == [-1, -1, -1]
    prof = homology(d)
    assert prof.h2_rank == 4


# -- rational blowdown ----------------------------------------------------------

@pytest.mark.parametrize("p", range(2, 8))
def test_cp_boundary_order(p):
    assert boundary_group_order(cp_chain(p)) == p * p


@pytest.mark.parametrize("p", range(2, 8))
def test_splice_boundary_order_and_h1(p):
    d = cp_chain(p)
    chain = [f"u{j}" for j in range(p - 1, 0, -1)]
    out = rational_blowdown_splice(d, chain, p)
    assert boundary_group_order(out) == p * p
    prof = homology(out)
    assert prof.h1_invariant_factors == (p,)
    assert prof.h2_rank == 0


def test_splice_rejects_bad_pattern():
    d = cp_chain(3)
    with pytest.raises(HandleError):
        rational_blowdown_splice(d, ["u1", "u2"], 3)  # wrong orientation
    with pytest.raises(HandleError):
        rational_blowdown_splice(d, ["u2"], 2)  # framings do not match


def test_splice_rejects_external_links():
    d = cp_chain(2)
    d = HandleDecomposition(two_handles=d.two_handles + (("x", 0),),
                            links={("u1", "x"): 1})
    with pytest.raises(HandleError):
        rational_blowdown_splice(d, ["u1"], 2)


def test_splice_reads_the_pattern_from_the_links(monkeypatch):
    p = 120
    calls = []
    link = HandleDecomposition.link

    def counting(self, a, b):
        calls.append((a, b))
        return link(self, a, b)
    monkeypatch.setattr(HandleDecomposition, "link", counting)
    d = build_Cp(p)
    out = rational_blowdown_splice(d, [f"u{j}" for j in range(p - 1, 0, -1)], p)
    assert calls == []
    assert out.two_handles == (("b1", p - 1),) and out.run_through == {("b1", "b0"): p}


def test_splice_reports_the_first_fault_in_chain_order():
    chain = ["u4", "u3", "u2", "u1"]

    def splice(links=(), twos=(), ones=(), rt=()):
        base = cp_chain(5)
        d = HandleDecomposition(ones, base.two_handles + tuple(twos),
                                {**base.links, **dict(links)}, dict(rt))
        with pytest.raises(HandleError) as err:
            rational_blowdown_splice(d, chain, 5)
        return str(err.value)
    # a missing consecutive link and two extra ones: the earliest pair in chain order
    assert splice({("u1", "u4"): 1, ("u2", "u4"): -1, ("u2", "u3"): 0}) == \
        "chain linking pattern broken between 'u4' and 'u2'"
    assert splice({("u2", "u3"): 0, ("u1", "u3"): 2}) == \
        "chain linking pattern broken between 'u3' and 'u2'"
    # per member in chain order: its run-through first, then the first external
    # handle in diagram order
    twos, ones = (("y", 0), ("x", 1)), ("h",)
    assert splice({("u2", "x"): 1, ("u2", "y"): 1, ("u1", "x"): 1}, twos, ones,
                  {("u1", "h"): 1}) == "external handle 'y' links the excised chain at 'u2'"
    assert splice({("u2", "x"): 1}, twos, ones, {("u2", "h"): 1}) == \
        "chain member 'u2' runs through a 1-handle"
