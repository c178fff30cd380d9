"""Smith normal form against a gcd-of-minors oracle; homology profiles."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from importlib import import_module
from itertools import combinations
from math import gcd, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kirbycalc import scenarios as S
from kirbycalc.acceptance import _minor_gcds
from kirbycalc.handles import HandleDecomposition
from kirbycalc.homology import (
    IntMatrix,
    _form,
    _pairings,
    adjugate,
    boundary_first_homology,
    boundary_group_order,
    cokernel_invariants,
    det,
    hermite_row_basis,
    homology,
    inertia,
    is_homology_trivial,
    kernel_basis,
    linking_matrix,
    run_through_matrix,
    smith_normal_form,
    surgery_presentation,
)
from _oracles import (det_rational, diagonalize_stepwise, hermite_by_scans, inertia_by_bareiss,
                      invert_rational, rank_mod, surgery_presentation_by_blocks, tree_det,
                      tree_inertia, tree_plumbing)
from test_handles import cp_chain, nn_model, wn_model


def minor_gcds(m: IntMatrix) -> list[int]:
    """gcd of all k x k minors, k = 1..rank bound; the independent SNF oracle."""
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix.from_rows([[m[i, j] for j in cols] for i in rows], k)
                g = gcd(g, det(sub))
        out.append(abs(g))
    return out


def assert_valid_snf(m: IntMatrix, nonzero: list[int] | None = None):
    """U M V = S with U, V unimodular and S a diagonal chain; its nonzero
    entries are `nonzero` when given, else the quotients of the minor gcds."""
    snf = smith_normal_form(m)
    assert snf.u @ m @ snf.v == snf.s
    assert abs(det(snf.u)) == 1
    assert abs(det(snf.v)) == 1
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for i in range(snf.s.rows):
        for j in range(snf.s.cols):
            if i != j:
                assert snf.s[i, j] == 0
    if nonzero is not None:
        assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
        return snf
    gcds = minor_gcds(m)
    prod = 1
    for k, d in enumerate(diag):
        prod *= d
        assert prod == gcds[k]
    return snf


def test_snf_diag_2_3():
    snf = assert_valid_snf(IntMatrix.diagonal([2, 3]))
    assert snf.diagonal == (1, 6)


@pytest.mark.parametrize("rows", [[[0.9]], [[1, 2.0]], [["3"]]],
                         ids=["float", "integral-float", "str"])
def test_int_matrix_takes_integers_only(rows):
    # rejected, never truncated ([[0.9]] does not hold 0)
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        IntMatrix.from_rows(rows)


def test_snf_zero_matrix():
    snf = smith_normal_form(IntMatrix.zeros(2, 3))
    assert snf.s == IntMatrix.zeros(2, 3)
    assert snf.u == IntMatrix.identity(2)
    assert snf.v == IntMatrix.identity(3)


def test_snf_bp_boundary_presentation():
    snf = assert_valid_snf(IntMatrix.from_rows([[0, 2], [2, 1]]))
    assert snf.diagonal == (1, 4)


def test_snf_random_small():
    rng = random.Random(2026)
    for _ in range(120):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        m = IntMatrix.from_rows([[rng.randrange(-9, 10) for _ in range(c)]
                                 for _ in range(r)], c)
        assert_valid_snf(m)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-30, 30), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
def test_snf_properties_hypothesis(rows):
    assert_valid_snf(IntMatrix.from_rows(rows, len(rows[0])))


def test_criterion_10_minors_match_bareiss_minors():
    """Claim 10's Laplace-expansion minors against `det` minors, up to 6 x 6."""
    rng = random.Random(16)
    for t in range(120):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        density = (0.3, 0.7, 1)[t % 3]
        rows = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)]
        if t % 4 == 0 and r >= 2:
            rows[-1] = [2 * x for x in rows[0]]      # rank below min(r, c)
        m = IntMatrix.from_rows(rows, c)
        assert _minor_gcds(m) == minor_gcds(m), rows


def test_det_examples():
    assert det(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix.from_rows([[2, 1], [1, 2]])) == 3
    assert det(IntMatrix.identity(0)) == 1
    assert det(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0


def test_inertia_examples():
    assert inertia(IntMatrix.diagonal([3, -1, 0])) == (1, 1, 1)
    assert inertia(IntMatrix.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)
    assert inertia(IntMatrix.from_rows([[0, 1], [1, -2]])) == (1, 1, 0)
    # negative definite chain
    m = IntMatrix.from_rows([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert inertia(m) == (0, 3, 0)


def _inertia_by_charpoly(rows):
    """(pos, neg, zero) from sympy's characteristic polynomial.

    A symmetric matrix has only real eigenvalues, so Descartes' rule of signs
    is exact: sign changes of p(x) count the positive roots, sign changes of
    p(-x) the negative ones, and the trailing zero coefficients the root 0.
    """
    sympy = pytest.importorskip("sympy")
    n = len(rows)
    coeffs = [int(c) for c in sympy.Matrix(rows).charpoly().all_coeffs()] if n else [1]

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    zero = next(k for k, c in enumerate(reversed(coeffs)) if c)
    flipped = [c * (-1) ** (n - k) for k, c in enumerate(coeffs)]
    return changes(coeffs), changes(flipped), zero


def _seeded_forms(count, seed):
    """Symmetric forms, n <= 12: dense, zero-diagonal, hyperbolic, singular."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randrange(0, 13)
        kind = t % 4
        if kind == 2:
            # hyperbolic blocks plus a diagonal, hidden by a unimodular congruence
            a = [[0] * n for _ in range(n)]
            for i in range(0, n - 1, 2):
                if rng.random() < 0.7:
                    a[i][i + 1] = a[i + 1][i] = 1
                else:
                    a[i][i] = rng.choice((-1, 1, 2))
            e = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(n):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    e[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(e[i], e[j])]
            a = [[sum(e[i][k] * a[k][l] * e[j][l] for k in range(n) for l in range(n))
                  for j in range(n)] for i in range(n)]
        elif kind == 3:
            # B^T D B has rank at most k < n
            k = rng.randrange(0, max(n, 1))
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            dd = [rng.choice((-3, -1, 1, 2)) for _ in range(k)]
            a = [[sum(b[r][i] * dd[r] * b[r][j] for r in range(k)) for j in range(n)]
                 for i in range(n)]
        else:
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(-4, 4)
                if kind == 1:
                    a[i][i] = 0
        yield a


def test_inertia_matches_charpoly_on_seeded_forms():
    kinds = [0, 0, 0]
    for a in _seeded_forms(300, 2026):
        n = len(a)
        expected = _inertia_by_charpoly(a)
        assert sum(expected) == n
        assert inertia(IntMatrix.from_rows(a, n)) == expected, a
        kinds[0] += expected[2] > 0
        kinds[1] += n > 0 and all(a[i][i] == 0 for i in range(n))
        kinds[2] += expected[0] > 0 and expected[1] > 0
    # the draw really contains singular, zero-diagonal and indefinite forms
    assert min(kinds) >= 50, kinds


def test_inertia_matches_charpoly_on_catalog_forms():
    decompositions = [S.build_Cp(p) for p in range(2, 9)]
    decompositions += [S.build_Bp(p) for p in range(2, 9)]
    decompositions += [S.build_Dp(p) for p in range(2, 9)]
    decompositions += [S.build_Wn(n) for n in range(1, 4)]
    decompositions += [S.build_Wsum((1, 2, 3)), *S.build_Mn_Nn(3)]
    decompositions += [d for _, d, _ in S.stein_catalog()]
    forms = [homology(d).intersection_form for d in decompositions]
    forms += [linking_matrix(d) for d in decompositions]
    forms += [S.build_X0_model((2, 3)).model.lattice.pairing,
              S.build_genus_model(4)[0].lattice.pairing]
    for m in forms:
        assert inertia(m) == _inertia_by_charpoly(m.to_lists()), m


def test_inertia_dense_60_within_budget():
    rng = random.Random(60)
    n = 60
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(-9, 9)
    m = IntMatrix.from_rows(a, n)
    start = time.perf_counter()
    pos, neg, zero = inertia(m)
    assert time.perf_counter() - start < 0.5
    assert pos + neg + zero == n and zero == 0  # |det| != 0 for this draw
    assert det(m) != 0


def _forest(rng, n, framings):
    """A `tree_plumbing` draw with about a fifth of its links cut."""
    d = tree_plumbing(rng, n, framings)
    return HandleDecomposition(two_handles=d.two_handles,
                               links={k: v for k, v in d.links.items() if rng.random() > 0.2})


def test_inertia_matches_index_order_bareiss():
    """The pivot order, dict rows, lazy rows, one triangle and hyperbolic
    pairs change no triple: the index-order Bareiss loop agrees on the
    seeded forms, on plumbing trees with and without 0 framings, on
    zero-framed and mixed forests, and on dense forms shaped like the
    benchmark's (a + a^T, entries of a in [-9, 9]).  `det` reads the same
    elimination's last pivot, and agrees with the Gauss-Jordan loop on
    every form up to 30 vertices and with the subtree recursion on trees."""
    H = import_module("kirbycalc.homology")
    forms = [IntMatrix.from_rows(a, len(a)) for a in _seeded_forms(400, 36)]
    trees = []
    for n in range(10, 61):
        trees.append(tree_plumbing(random.Random(n), n))
        trees.append(tree_plumbing(random.Random(n), n, range(-6, 7)))
        trees.append(tree_plumbing(random.Random(n), n, (-1, 0, 0, 1)))
        trees.append(tree_plumbing(random.Random(n), n, (0,)))
    forms += [linking_matrix(_forest(random.Random(n), n, framings))
              for n in range(10, 31) for framings in ((0,), (-1, 0, 0, 1), (-2, 0, 2))]
    rng = random.Random(36)
    for n in range(4, 21):
        for _ in range(5):
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            forms.append(IntMatrix.from_rows([[a[i][j] + a[j][i] for j in range(n)]
                                              for i in range(n)]))
    for m in forms:
        assert inertia(m) == inertia_by_bareiss(m), m
        assert det(m) == H._gauss_jordan(m.to_lists(), m.rows), m
    for d in trees:
        m = linking_matrix(d)
        assert inertia(m) == inertia_by_bareiss(m), d
        assert det(m) == tree_det(d), d


def test_tree_inertia_oracle_matches_charpoly_and_inertia():
    """The leaf-peeling oracle against sympy on small trees, 0 framings
    included, then `inertia` against the oracle on trees of 10 to 60."""
    for seed in range(60):
        rng = random.Random(seed)
        d = tree_plumbing(rng, rng.randint(1, 10), (-2, -1, 0, 0, 1, 2))
        assert tree_inertia(d) == _inertia_by_charpoly(linking_matrix(d).to_lists()), d
    zero = 0
    for n in range(10, 61):
        for framings in (range(-6, 7), (-1, 0, 0, 1)):
            d = tree_plumbing(random.Random(n), n, framings)
            expected = tree_inertia(d)
            assert inertia(linking_matrix(d)) == expected, d
            zero += expected[2] > 0
    assert zero >= 10  # singular trees are among them


def test_inertia_tree_200_within_budget():
    """A 200-vertex plumbing tree in under 0.1 s, best of 3: the leaf-first
    order rewrites one row per pivot where index order rewrote the whole
    trailing block (0.5-0.8 s)."""
    d = tree_plumbing(random.Random(200), 200)
    m = linking_matrix(d)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        got = inertia(m)
        times.append(time.perf_counter() - start)
    assert got == tree_inertia(d)
    assert min(times) < 0.1, times


def test_zero_framed_tree_200_within_budget():
    """The all-zero-framed 200-vertex tree in under 0.02 s, best of 3: each
    zero leaf leaves with its neighbour as a hyperbolic pair, where the
    congruence that makes a diagonal nonzero joined whole neighbourhoods
    (0.06 s)."""
    d = tree_plumbing(random.Random(200), 200, framings=(0,))
    m = linking_matrix(d)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        got = inertia(m)
        times.append(time.perf_counter() - start)
    assert got == tree_inertia(d)
    assert min(times) < 0.02, times


@pytest.mark.parametrize("n", [200, 400])
def test_tree_det_within_budget(n):
    """det of an n-vertex plumbing tree in under 0.05 s, best of 3: a
    symmetric matrix takes the inertia elimination, leaf first, where
    Gauss-Jordan Bareiss took over a second at n = 200."""
    d = tree_plumbing(random.Random(n), n)
    m = linking_matrix(d)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        got = det(m)
        times.append(time.perf_counter() - start)
    assert got == tree_det(d)
    assert min(times) < 0.05, times


# The Smith layer's budget rung: each call must finish in under 1 s.  It runs
# in a child process killed after 20 s, so an elimination that has lost its
# bound fails the suite in seconds, not after minutes.
BUDGET_RUNG = """
import json, random, time
from _oracles import tree_plumbing
from kirbycalc.homology import (IntMatrix, boundary_first_homology,
                                cokernel_invariants, kernel_basis, smith_normal_form,
                                surgery_presentation)
rng = random.Random(40)
dense = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)])
tree = tree_plumbing(random.Random(150), 150)
calls = [
    ("dense 40x40 cokernel_invariants", cokernel_invariants, dense),
    ("dense 40x40 kernel_basis", kernel_basis, dense),
    ("dense 40x40 smith_normal_form", smith_normal_form, dense),
    ("150-vertex tree boundary_first_homology", boundary_first_homology, tree),
    ("150-vertex tree smith_normal_form", smith_normal_form, surgery_presentation(tree)),
    ("200-vertex tree boundary_first_homology", boundary_first_homology,
     tree_plumbing(random.Random(200), 200)),
]
for name, call, arg in calls:
    start = time.perf_counter()
    call(arg)
    print(json.dumps([name, time.perf_counter() - start]), flush=True)
"""


def test_smith_layer_budget_rung():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    try:
        done = subprocess.run([sys.executable, "-c", BUDGET_RUNG], capture_output=True,
                              text=True, timeout=20, check=True,
                              env=dict(os.environ, PYTHONPATH=path))
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"budget rung killed after {exc.timeout} s; finished: {exc.stdout!r}")
    times = dict(json.loads(line) for line in done.stdout.splitlines())
    assert len(times) == 6
    assert {name: t for name, t in times.items() if t >= 1} == {}


def test_invert_rational_round_trip():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    inv = invert_rational(m)
    n = m.rows
    prod = [[sum(inv[i][k] * m[k, j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[1, 0], [0, 1]]


def test_adjugate_against_rational_inverse():
    rng = random.Random(17)
    checked = 0
    for trial in range(150):
        n = rng.randrange(1, 8)
        m = IntMatrix.from_rows([[rng.randrange(-5, 6) for _ in range(n)]
                                 for _ in range(n)], n)
        if trial % 4 == 0:
            m = IntMatrix.from_rows([(0,) + m.row(0)[1:]] + list(m.entries[1:]), n)
        try:
            inv = invert_rational(m)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="singular"):
                adjugate(m)
            assert det(m) == det_rational(m) == 0
            continue
        d, adj = adjugate(m)
        assert d == det(m) == det_rational(m)    # an elimination over Q, not Bareiss
        assert [[d * x for x in row] for row in inv] == [list(row) for row in adj]
        assert (m @ IntMatrix.from_rows(adj, n)).to_lists() == \
            IntMatrix.diagonal([d] * n).to_lists()
        checked += 1
    assert checked >= 100


def test_adjugate_edge_cases():
    assert adjugate(IntMatrix.identity(0)) == (1, ())
    assert adjugate(IntMatrix.from_rows([[0, 1], [1, 0]])) == (-1, ((0, -1), (-1, 0)))
    with pytest.raises(ValueError, match="singular"):
        adjugate(IntMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError, match="non-square"):
        adjugate(IntMatrix.zeros(2, 3))


def test_hermite_basis_is_canonical():
    a = hermite_row_basis([(2, 4), (3, 6)], 2)
    b = hermite_row_basis([(3, 6), (2, 4), (5, 10)], 2)
    assert a == b == ((1, 2),)


@st.composite
def _vector_lists(draw):
    """(width, vectors, more vectors), width 0 to 8: dense, sparse (about
    three entries in ten nonzero) or no vectors, the last of them the sum
    of the first two when there are three or more (rank-deficient)."""
    width = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("dense", "sparse", "empty")))
    entry = st.integers(-6, 6)
    if kind == "sparse":
        entry = entry.map(lambda x: x if abs(x) > 4 else 0)
    rows = st.lists(st.lists(entry, min_size=width, max_size=width),
                    max_size=0 if kind == "empty" else 8)
    vectors, more = draw(rows), draw(rows)
    if len(vectors) >= 3:
        vectors[-1] = [x + y for x, y in zip(vectors[0], vectors[1])]
    return width, vectors, more


@settings(max_examples=200, deadline=None)
@given(_vector_lists())
@example((0, [[], []], [[]]))
@example((3, [], [[1, 2, 3]]))
def test_form_matches_pairings(case):
    _, vectors, duals = case
    assert _form(vectors, duals) == [_pairings(vectors, d) for d in duals]
    assert _form(vectors, vectors) == [_pairings(vectors, d) for d in vectors]


@settings(max_examples=200, deadline=None)
@given(_vector_lists())
@example((0, [[], []], []))
@example((4, [[0, 2, 4, 6], [0, 3, 6, 9], [0, 5, 10, 15]], []))
def test_hermite_matches_the_scanning_loop(case):
    width, vectors, more = case
    assert hermite_row_basis(vectors, width) == hermite_by_scans(vectors, width)
    assert hermite_row_basis(vectors + more, width) == hermite_by_scans(vectors + more, width)


def test_kernel_of_zero_row_matrix_is_identity():
    assert kernel_basis(IntMatrix.zeros(0, 3)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_kernel_members_annihilate():
    rng = random.Random(9)
    for _ in range(40):
        r, c = rng.randrange(1, 5), rng.randrange(1, 6)
        m = IntMatrix.from_rows([[rng.randrange(-4, 5) for _ in range(c)]
                                 for _ in range(r)], c)
        for v in kernel_basis(m):
            assert all(sum(m[i, j] * v[j] for j in range(c)) == 0
                       for i in range(m.rows))


# -- homology of decompositions ------------------------------------------------

def test_wn_homology_trivial():
    prof = homology(wn_model())
    assert prof.h1_trivial and prof.h2_rank == 0
    assert is_homology_trivial(wn_model())
    assert boundary_first_homology(wn_model()) == ()


def test_c2_profile():
    d = HandleDecomposition(two_handles=(("u1", -4),))
    prof = homology(d)
    assert prof.h2_rank == 1
    assert prof.intersection_form.to_lists() == [[-4]]
    assert not is_homology_trivial(d)


def test_nn_homology():
    prof = homology(nn_model(3))
    assert prof.h1_trivial
    assert prof.h2_rank == 1
    assert prof.intersection_form.to_lists() == [[0]]


def test_no_one_handles_form_is_linking_matrix():
    rng = random.Random(13)
    for _ in range(20):
        n2 = rng.randrange(1, 5)
        twos = tuple((f"k{i}", rng.randrange(-5, 6)) for i in range(n2))
        links = {(f"k{i}", f"k{j}"): rng.randrange(-3, 4)
                 for i in range(n2) for j in range(i + 1, n2)}
        d = HandleDecomposition(two_handles=twos, links=links)
        prof = homology(d)
        assert prof.h2_rank == n2
        assert prof.intersection_form.to_lists() == [
            [d.framing(a) if a == b else d.link(a, b)
             for b in d.two_handle_ids] for a in d.two_handle_ids]


def test_homology_runs_one_smith_normal_form(monkeypatch):
    # the package re-exports the function `homology` over the submodule name
    H = import_module("kirbycalc.homology")
    eliminate = H._eliminate
    calls = []

    def counting(rows, cols, want_v):
        # homology() hands over plain rows, which the elimination overwrites
        calls.append(IntMatrix.from_rows(rows, cols))
        return eliminate(rows, cols, want_v)
    monkeypatch.setattr(H, "_eliminate", counting)
    for d in (wn_model(), nn_model(3), cp_chain(4), HandleDecomposition()):
        calls.clear()
        prof = homology(d)
        assert len(calls) == 1
        # the one elimination gives the same answer as the separate entry points
        r = calls[0]
        assert prof.h2_basis == kernel_basis(r)
        assert (prof.h1_invariant_factors, prof.h1_free_rank) == cokernel_invariants(r)


@pytest.mark.parametrize("p", range(2, 11))
def test_cp_boundary_is_cyclic_p_squared(p):
    factors = boundary_first_homology(cp_chain(p))
    assert factors == (p * p,)


def test_bp_block_boundary():
    d = HandleDecomposition(one_handles=("b0",), two_handles=(("b1", 1),),
                            run_through={("b1", "b0"): 2})
    assert boundary_group_order(d) == 4


def test_zero_framed_unknot_boundary_is_free():
    d = HandleDecomposition(two_handles=(("a", 0),))
    assert boundary_first_homology(d) == (0,)
    assert boundary_group_order(d) is None


@st.composite
def decompositions(draw):
    """Up to 3 dotted circles and 6 2-handles, either count possibly zero,
    with the 2-handles listed out of name order."""
    n1, n2 = draw(st.integers(0, 3)), draw(st.integers(0, 6))
    ones = tuple(f"h{i}" for i in range(n1))
    two_ids = draw(st.permutations([f"k{i}" for i in range(n2)]))
    small = st.integers(-4, 4)
    return HandleDecomposition(
        ones,
        tuple((k, draw(st.integers(-9, 9))) for k in two_ids),
        {pair: draw(small) for pair in combinations(two_ids, 2) if draw(st.booleans())},
        {(k, h): draw(small) for k in two_ids for h in ones if draw(st.booleans())})


@settings(max_examples=150, deadline=None)
@given(decompositions())
@example(HandleDecomposition())
@example(HandleDecomposition(one_handles=("h0", "h1")))
@example(cp_chain(5))
def test_presentation_matches_the_block_assembly(d):
    m = surgery_presentation(d)
    assert m == surgery_presentation_by_blocks(d)
    n2, rows = len(d.two_handles), m.to_lists()
    assert linking_matrix(d).to_lists() == [row[:n2] for row in rows[:n2]]
    assert run_through_matrix(d).to_lists() == [row[:n2] for row in rows[n2:]]
    torsion, free = cokernel_invariants(m)
    assert boundary_first_homology(d) == torsion + (0,) * free


# -- pinned outputs of the whole layer -------------------------------------------


def _int_bytes(x):
    """Length-prefixed two's-complement bytes: no decimal conversion, whatever the size."""
    b = x.to_bytes((x.bit_length() + 8) // 8, "big", signed=True)
    return len(b).to_bytes(4, "big") + b


def _digest(*grids):
    """SHA-256 over (rows, cols, entries) grids, shapes included."""
    h = hashlib.sha256()
    for rows, cols, entries in grids:
        h.update(_int_bytes(rows) + _int_bytes(cols))
        for row in entries:
            h.update(b"".join(map(_int_bytes, row)))
    return h.hexdigest()


def _grid(m):
    return m.rows, m.cols, m.entries


def _pinned_matrices(rng):
    """Dense n x m, 0 <= n, m <= 16: uniform, small-entry, sparse, rank-deficient, scaled."""
    shapes = [(0, 0), (0, 3), (4, 0), (1, 1), (16, 16), (16, 1), (1, 16)]
    shapes += [(rng.randint(0, 16), rng.randint(0, 16)) for _ in range(153)]
    for t, (n, m) in enumerate(shapes):
        kind = t % 5
        if kind == 0:
            rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        elif kind == 1:
            rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        elif kind == 2:
            rows = [[rng.randint(-5, 5) if rng.random() < 0.3 else 0 for _ in range(m)]
                    for _ in range(n)]
        elif kind == 3:
            rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            if n >= 2:
                rows[rng.randrange(1, n)] = list(rows[0])
                rows[rng.randrange(n)] = [0] * m
        else:
            rows = [[rng.choice((2, 3, 6)) * rng.randint(-3, 3) for _ in range(m)]
                    for _ in range(n)]
        yield f"{('uniform', 'small', 'sparse', 'deficient', 'scaled')[kind]} {n}x{m}", \
            IntMatrix.from_rows(rows, m)


def _pinned_plumbing(rng, n2, n1):
    """Random plumbing tree of n2 framed unknots, with n1 dotted circles run through."""
    twos = tuple((f"k{i}", rng.randint(-7, 3)) for i in range(n2))
    links = {(f"k{rng.randrange(i)}", f"k{i}"): rng.choice((1, -1)) for i in range(1, n2)}
    ones = tuple(f"h{j}" for j in range(n1))
    rt = {(f"k{i}", h): rng.choice((-2, -1, 1, 2))
          for h in ones for i in rng.sample(range(n2), min(3, n2))}
    return HandleDecomposition(ones, twos, links, rt)


def _pinned_diagrams(rng):
    for t in range(24):
        n2, n1 = rng.randint(1, 30), rng.randint(1, 3)
        yield f"plumbing {t}: {n2} framed, {n1} dotted", _pinned_plumbing(rng, n2, n1)
    catalog = [S.build_Cp(p) for p in range(2, 9)]
    catalog += [S.build_Bp(p) for p in range(2, 9)]
    catalog += [S.build_Dp(p) for p in range(2, 9)]
    catalog += [S.build_Wn(n) for n in range(1, 4)]
    catalog += [S.build_Wsum((1, 2, 3)), *S.build_Mn_Nn(3)]
    catalog += [d for _, d, _ in S.stein_catalog()]
    for d in catalog:
        yield f"catalog {d.name}", d


def homology_layer_records():
    """What each entry point of the homology layer returns on a seeded corpus.

    Matrices pin S, U and V by digest, the cokernel literally and the kernel
    by digest; diagrams add their surgery presentation to the matrices and pin
    the homology profile by digest, H_1 and H_2 rank literally, and the
    boundary's invariant factors.  Digests hash integers as bytes, so no
    entry meets the decimal conversion limit, whatever its size.
    """
    rng = random.Random(1979)
    matrices = list(_pinned_matrices(rng))
    diagrams = list(_pinned_diagrams(rng))
    matrices += [(f"presentation of {label}", surgery_presentation(d))
                 for label, d in diagrams]
    out = []
    for label, m in matrices:
        snf = smith_normal_form(m)
        torsion, free = cokernel_invariants(m)
        kernel = kernel_basis(m)
        out.append({"matrix": label, "input": _digest(_grid(m)),
                    "snf": _digest(_grid(snf.s), _grid(snf.u), _grid(snf.v)),
                    "cokernel": [list(torsion), free],
                    "kernel": _digest((len(kernel), m.cols, kernel))})
    for label, d in diagrams:
        prof = homology(d)
        basis = prof.h2_basis
        out.append({"diagram": label, "input": _digest(_grid(surgery_presentation(d))),
                    "homology": _digest((1, len(prof.h1_invariant_factors),
                                         [prof.h1_invariant_factors]),
                                        (1, 2, [(prof.h1_free_rank, prof.h2_rank)]),
                                        _grid(prof.intersection_form),
                                        (len(basis), len(d.two_handles), basis)),
                    "h1": [list(prof.h1_invariant_factors), prof.h1_free_rank,
                           prof.h2_rank],
                    "boundary": list(boundary_first_homology(d))})
    return out


def test_homology_layer_matches_pinned():
    """Every entry point of the layer, against outputs recorded before it was last rewritten."""
    pinned = json.loads((Path(__file__).parent / "homology_pinned.json").read_text())
    got = homology_layer_records()
    assert len(got) == len(pinned)
    for record, expected in zip(got, pinned):
        assert record == expected


def test_invariant_factors_match_sympy():
    """Diagonal and cokernel against sympy's invariant factors, an independent SNF."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    rng = random.Random(1987)
    for t in range(90):
        n = rng.randint(1, 12)
        c = n if t % 3 == 0 else rng.randint(1, 12)
        rows = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(n)]
        if t % 3 == 2 and n >= 2:
            rows[-1] = [x - 2 * y for x, y in zip(rows[0], rows[1])]  # singular
        m = IntMatrix.from_rows(rows, c)
        expected = tuple(abs(int(x)) for x in
                         invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ))
        assert smith_normal_form(m).diagonal == expected, rows
        nonzero = [x for x in expected if x]
        assert cokernel_invariants(m) == (tuple(x for x in nonzero if x >= 2),
                                          n - len(nonzero)), rows


# -- invariant factors and kernels against ranks mod primes --------------------------

PRIMES_BELOW_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
MERSENNE_61 = 2 ** 61 - 1


def _dense_draw(n, cols):
    rng = random.Random(n * 100 + cols)
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(n)]


def test_invariant_factors_match_det_and_ranks_mod_primes():
    """The factors form a chain and multiply to |det| (by the subtree
    recursion on trees, over Q on dense draws), and as many are divisible by
    each prime l < 50 as M mod l has nullity."""
    cases = []
    for n in (60, 90, 120, 150, 200):
        d = tree_plumbing(random.Random(n), n)
        cases.append((f"tree {n}", surgery_presentation(d).to_lists(),
                      boundary_first_homology(d), tree_det(d)))
    for n in (30, 40):
        m = IntMatrix.from_rows(_dense_draw(n, n))
        torsion, free = cokernel_invariants(m)
        cases.append((f"dense {n}", m.to_lists(), torsion + (0,) * free, det_rational(m)))
    for name, rows, factors, d in cases:
        torsion = [f for f in factors if f]
        assert all(b % a == 0 for a, b in zip(torsion, torsion[1:])), name
        assert prod(factors) == abs(d), name
        for ell in PRIMES_BELOW_50:
            assert sum(f % ell == 0 for f in factors) == len(rows) - rank_mod(rows, ell), \
                (name, ell)


def test_kernel_basis_matches_the_rank_mod_a_large_prime():
    """Each kernel row solves M x = 0 and the rows have distinct leading
    columns, so they are independent: their count is at most the nullity over
    Q, which is at most the nullity mod 2^61 - 1, and equal counts pin both."""
    cases = []
    for n in (60, 120, 200):
        rows = surgery_presentation(tree_plumbing(random.Random(n), n)).to_lists()
        cases += [(f"tree {n}", rows), (f"tree {n} less two rows", rows[:-2]),
                  (f"tree {n}, last row dependent",
                   rows[:-1] + [[x - 2 * y for x, y in zip(rows[0], rows[1])]])]
    for n in (30, 40):
        rows = _dense_draw(n, n)
        cases += [(f"dense {n}", rows), (f"dense {n} less two rows", rows[:-2]),
                  (f"dense {n}, last row dependent",
                   rows[:-1] + [[x - 2 * y for x, y in zip(rows[0], rows[1])]])]
    for name, rows in cases:
        cols = len(rows[0])
        basis = kernel_basis(IntMatrix.from_rows(rows, cols))
        assert all(sum(map(mul, row, x)) == 0 for x in basis for row in rows), name
        leads = [next(j for j, a in enumerate(x) if a) for x in basis]
        assert len(set(leads)) == len(leads), name
        assert len(basis) == cols - rank_mod(rows, MERSENNE_61), name


def test_each_entry_point_builds_only_the_transforms_it_reads(monkeypatch):
    """Every entry point runs the one deleting elimination: with V only where
    it reads the kernel, and with U as well only for `smith_normal_form`."""
    H = import_module("kirbycalc.homology")
    eliminate = H._eliminate
    calls = []

    def counting(rows, cols, want_v, want_u=False):
        calls.append(("_eliminate", want_v, want_u))
        return eliminate(rows, cols, want_v, want_u)
    monkeypatch.setattr(H, "_eliminate", counting)
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])

    def built(call, *args):
        calls.clear()
        call(*args)
        return calls
    assert built(cokernel_invariants, m) == [("_eliminate", False, False)]
    assert built(boundary_first_homology, cp_chain(5)) == [("_eliminate", False, False)]
    assert built(kernel_basis, m) == [("_eliminate", True, False)]
    assert built(smith_normal_form, m) == [("_eliminate", True, True)]
    assert built(homology, nn_model(3)) == [("_eliminate", True, False)]


# -- the deleting elimination against the stepwise one --------------------------


def _fibonacci_matrix(rng, rows, cols):
    """Consecutive Fibonacci numbers down column 0, larger entries elsewhere.

    The pivot is the least of them, and clearing each of the others against
    it is a Euclid run as long as its index.
    """
    fib = [1, 2]
    while len(fib) < 30 + rows:
        fib.append(fib[-1] + fib[-2])
    big = fib[-1]
    return [[fib[-2 - i]] + [rng.choice((1, -1)) * rng.randint(big, 2 * big)
                             for _ in range(cols - 1)] for i in range(rows)]


def _differential_matrices(rng):
    """Random r x c, 1 <= r, c <= 22, at densities 0.15, 0.4 and 1, with a
    dependent last row on every third draw; zero and empty shapes; surgery
    presentations of plumbings up to 40 handles; Fibonacci columns and rows.
    Each comes with its kind."""
    for t in range(96):
        r, c = rng.randint(1, 22), rng.randint(1, 22)
        density = (0.15, 0.4, 1)[t // 3 % 3]
        rows = [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)]
        if t % 3 == 0 and r >= 3:
            rows[-1] = [x - 3 * y for x, y in zip(rows[0], rows[1])]
        yield "random", IntMatrix.from_rows(rows, c)
    for r, c in ((0, 0), (0, 5), (5, 0), (1, 1), (3, 4), (22, 22)):
        yield "zero", IntMatrix.zeros(r, c)
    for n2 in (5, 12, 20, 28, 34, 40):
        yield "plumbing", surgery_presentation(_pinned_plumbing(rng, n2, rng.randint(1, 3)))
    for r, c in ((2, 2), (6, 9), (14, 5)):
        rows = _fibonacci_matrix(rng, r, c)
        yield "fibonacci", IntMatrix.from_rows(rows, c)
        yield "fibonacci", IntMatrix.from_rows([list(col) for col in zip(*rows)], r)


def test_elimination_matches_the_stepwise_reference():
    """The deleting elimination, with its chain restored at the end, gives
    the stepwise reference's diagonal with valid U and V, and the same rank,
    torsion and kernel lattice with V and without."""
    H = import_module("kirbycalc.homology")
    for _, m in _differential_matrices(random.Random(1938)):
        diag, _, v_columns = diagonalize_stepwise(m, False, True)
        assert_valid_snf(m, diag)
        expected = (len(diag), tuple(d for d in diag if d >= 2))
        kernel = hermite_row_basis(v_columns[len(diag):], m.cols)
        rank, torsion, u, v = H._eliminate(m.to_lists(), m.cols, want_v=False)
        assert ((rank, torsion), u, v) == (expected, None, None), (m.rows, m.cols)
        rank, torsion, u, v = H._eliminate(m.to_lists(), m.cols, want_v=True)
        assert ((rank, torsion), u) == (expected, None), (m.rows, m.cols)
        assert hermite_row_basis(v, m.cols) == kernel, (m.rows, m.cols)


def test_smith_transforms_stay_within_1024_bits():
    """U and V entries of dense n x n draws, n = 4..22, and of the plumbing
    presentations above fit in 1,024 bits: the chain is restored once, at
    the end, so no pivot's row pull-ins compound."""
    def bits(x):
        return max((abs(e).bit_length() for row in x.entries for e in row), default=0)
    cases = [(f"dense {n}", IntMatrix.from_rows(_dense_draw(n, n))) for n in range(4, 23)]
    cases += [(f"plumbing presentation {m.rows}", m)
              for kind, m in _differential_matrices(random.Random(1938)) if kind == "plumbing"]
    for name, m in cases:
        snf = smith_normal_form(m)
        assert snf.u @ m @ snf.v == snf.s, name
        assert max(bits(snf.u), bits(snf.v)) <= 1024, name


def test_repr_of_entries_past_the_decimal_limit():
    """Entries past the int-to-str limit print as their bit length; repr never raises."""
    huge = 1 << 20000
    assert repr(IntMatrix.from_rows([[huge, -huge, 7]])) == \
        "IntMatrix(rows=1, cols=3, entries=((<+20001 bits>, <-20001 bits>, 7),))"
    assert repr(IntMatrix.from_rows([[1], [2]])) == \
        "IntMatrix(rows=2, cols=1, entries=((1,), (2,)))"
    assert repr(IntMatrix.zeros(0, 3)) == "IntMatrix(rows=0, cols=3, entries=())"


# -- user-facing errors ----------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: IntMatrix(2, 2, ((1, 2),)), ValueError, "entry grid does not match shape 2x2"),
    (lambda: IntMatrix.identity(2) @ IntMatrix.zeros(3, 1), ValueError,
     "shape mismatch in matrix product"),
    (lambda: det(IntMatrix.zeros(2, 3)), ValueError, "determinant of a non-square matrix"),
    (lambda: hermite_row_basis([(1, 2, 3)], 2), ValueError, "vector width mismatch"),
    (lambda: inertia(IntMatrix.from_rows([[0, 1], [2, 0]])), ValueError,
     "inertia needs a symmetric matrix"),
], ids=["shape", "matmul", "det", "hermite-width", "inertia"])
def test_matrix_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
