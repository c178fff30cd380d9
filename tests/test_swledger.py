"""SW ledger: characteristic classes, blow-up, descent, knot surgery."""

import random
import re
import warnings
from collections import Counter
from dataclasses import replace
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirbycalc import acceptance, scenarios, swledger
from kirbycalc.homology import IntMatrix, adjugate, det
from kirbycalc.swledger import (
    BasicClassSet,
    IntersectionLattice,
    LaurentPolynomial,
    LedgerError,
    ManifoldModel,
    adjunction_check,
    alexander_polynomial_torus,
    blow_up_basic_classes,
    d_invariant,
    is_simple_type,
    knot_surgery_basic_classes,
    min_genus_bound,
    random_characteristic_vector,
    rational_blowdown_descend,
)

from _oracles import adjunction_by_members, genus_bound_by_members, genus_seeds, invert_rational


def lat(rows, names=None):
    return IntersectionLattice(IntMatrix.from_rows(rows, len(rows[0]) if rows else 0),
                               names or {})


HYPERBOLIC = lat([[0, 1], [1, 0]])


def is_characteristic(L, k):
    """True iff the primal vector k pairs with each basis vector x as <x, x> mod 2."""
    return L.is_characteristic_dual(L.dual(k))


def hyperbolic_model(euler=0, signature=0, b2plus=2):
    return ManifoldModel(HYPERBOLIC, euler, signature, b2plus)


# -- characteristic elements ---------------------------------------------------

def test_characteristic_in_minus_one_lattice():
    L = lat([[-1]])
    assert is_characteristic(L, (1,))
    assert not is_characteristic(L, (0,))
    assert not L.is_characteristic_dual(())     # wrong length


def test_characteristic_in_c2_block():
    assert is_characteristic(lat([[-4]]), (2,))


def test_dual_square_matches_primal():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randrange(1, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(-4, 5)
        L = lat(rows)
        try:
            L.dual_square(tuple(0 for _ in range(n)))
        except LedgerError:
            continue            # degenerate pairing, skip
        v = tuple(rng.randrange(-3, 4) for _ in range(n))
        assert L.dual_square(L.dual(v)) == L.square(v)


def _check_dual_squares(L, inv, rng, tries):
    """Check L's adjugate table against the dense adjugate of the whole
    pairing, and dual squares of random primal and dual vectors against
    kappa^T inv kappa; returns how many squares were non-integral."""
    d, adj = adjugate(L.pairing)
    assert L._adjugate == (d, tuple(tuple((j, a) for j, a in enumerate(row) if a)
                                    for row in adj))
    non_integral = 0
    for _ in range(tries):
        v = tuple(rng.randrange(-3, 4) for _ in range(L.rank))
        for kappa in (v, L.dual(v)):
            q = sum(k * sum(x * y for x, y in zip(row, kappa))
                    for k, row in zip(kappa, inv))
            if q.denominator == 1:
                assert L.dual_square(kappa) == q
            else:
                non_integral += 1
                message = f"non-integral square {q} for {kappa}"
                with pytest.raises(LedgerError, match=f"^{re.escape(message)}$"):
                    L.dual_square(kappa)
    return non_integral


def test_dual_square_matches_rational_inverse():
    # independent oracle: kappa^T G^{-1} kappa in Fraction arithmetic
    rng = random.Random(4)
    swapped = big_det = 0
    for trial in range(120):
        n = rng.randrange(1, 13)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(-3, 4)
        if trial % 3 == 0:
            rows[0][0] = 0          # elimination must swap rows
        L = lat(rows)
        try:
            inv = invert_rational(L.pairing)
        except ZeroDivisionError:
            with pytest.raises(LedgerError, match="degenerate pairing"):
                L.dual_square((0,) * n)
            continue
        swapped += rows[0][0] == 0
        big_det += abs(det(L.pairing)) > 1
        _check_dual_squares(L, inv, rng, 3)
    assert swapped >= 10 and big_det >= 30


def test_dual_square_non_integral_message():
    with pytest.raises(LedgerError, match=r"^non-integral square 1/2 for \(1,\)$"):
        lat([[2]]).dual_square((1,))


def test_dual_square_degenerate_raises_on_first_use():
    L = lat([[0]])                  # constructing a degenerate pairing is fine
    assert L.rank == 1
    with pytest.raises(LedgerError, match="degenerate pairing has no dual squares"):
        L.dual_square((0,))


def test_lattice_runs_one_adjugate_per_block(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return adjugate(m)
    monkeypatch.setattr(swledger, "adjugate", counting)
    L = lat([[2, 1, 0], [1, -3, 1], [0, 1, 2]])
    for v in product(range(-2, 3), repeat=3):
        L.dual_square(L.dual(v))
    assert calls == [L.pairing]
    # blocks {0, 2}, {1}, {3}, each run once, ordered by least index
    calls.clear()
    L = lat([[2, 0, 1, 0], [0, -3, 0, 0], [1, 0, 2, 0], [0, 0, 0, -1]])
    for v in product(range(-1, 2), repeat=4):
        L.dual_square(L.dual(v))
    assert calls == [IntMatrix.from_rows([[2, 1], [1, 2]]),
                     IntMatrix.from_rows([[-3]]), IntMatrix.from_rows([[-1]])]


def _interleaved_blocks(rng, sizes, singular=None):
    """Random connected symmetric blocks of the given sizes, each on a random
    set of indices; block `singular` is made rank <= 1 instead."""
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for b, size in enumerate(sizes):
        idx = perm[off:off + size]
        off += size
        if b == singular:           # u u^T, connected since u has no zero entry
            u = [rng.choice((-2, -1, 1, 2)) for _ in idx] if size > 1 else [0]
            for a, i in enumerate(idx):
                for c, j in enumerate(idx):
                    rows[i][j] = u[a] * u[c]
            continue
        for a in range(size):
            for c in range(a, size):
                x = rng.randrange(-3, 4)
                if c == a + 1 and x == 0:
                    x = rng.choice((-1, 1))     # keep the block connected
                rows[idx[a]][idx[c]] = rows[idx[c]][idx[a]] = x
    return rows


def test_dual_square_on_interleaved_blocks_matches_rational_inverse():
    rng = random.Random(12)
    degenerate = non_integral = singletons = 0
    assert lat([]).dual_square(()) == 0
    for trial in range(150):
        sizes = [rng.randrange(1, 5) for _ in range(rng.randrange(0, 5))]
        singular = rng.randrange(len(sizes)) if sizes and trial % 5 == 0 else None
        rows = _interleaved_blocks(rng, sizes, singular)
        n = len(rows)
        singletons += sizes.count(1)
        L = lat(rows)
        assert L.rank == n and L.dual((1,) * n) == tuple(map(sum, rows))
        try:
            inv = invert_rational(L.pairing)
        except ZeroDivisionError:
            degenerate += 1
            with pytest.raises(LedgerError, match="^degenerate pairing has no dual squares$"):
                L.dual_square((0,) * n)
            continue
        non_integral += _check_dual_squares(L, inv, rng, 4)
    assert degenerate >= 20 and non_integral >= 100 and singletons >= 50


def test_x0_model_runs_one_adjugate_per_block(monkeypatch):
    sizes = []

    def recording(m):
        sizes.append(m.rows)
        return adjugate(m)
    monkeypatch.setattr(swledger, "adjugate", recording)
    x0 = scenarios.build_X0_model((9,), 4)
    # the seed squares come from the primal seeds, so building needs none
    assert sizes == []
    x0.lattice.dual_square(x0.classes.members[0])
    # six core singletons, the cusp, the parity sphere and the p = 9 chain;
    # the whole rank-19 pairing is never eliminated at once
    assert sorted(sizes) == [1] * 7 + [2, 10]


def test_gram_matches_pairs_with_one_dual_per_vector(monkeypatch):
    rng = random.Random(8)
    dual = IntersectionLattice.dual
    calls = []

    def counting(self, x):
        calls.append(x)
        return dual(self, x)
    for _ in range(20):
        n = rng.randrange(1, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(-4, 5)
        L = lat(rows)
        vectors = [tuple(rng.randrange(-3, 4) for _ in range(n))
                   for _ in range(rng.randrange(0, 5))]
        expected = [[L.pair(a, b) for b in vectors] for a in vectors]
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(IntersectionLattice, "dual", counting)
            g = L.gram(vectors)
        assert len(calls) == len(vectors)
        assert (g.rows, g.cols) == (len(vectors), len(vectors))
        assert g.to_lists() == expected


# -- d-invariant ----------------------------------------------------------------

def test_d_invariant_odd_value_warns():
    m = ManifoldModel(lat([]), euler=2, signature=0, b2plus=2)
    with pytest.warns(UserWarning):
        assert d_invariant(m, ()) == -1


def test_d_invariant_k3_numbers():
    m = ManifoldModel(lat([[-2]]), euler=24, signature=-16, b2plus=3)
    assert d_invariant(m, m.lattice.dual((0,))) == 0


def test_d_invariant_rejects_non_divisible():
    m = ManifoldModel(lat([[1]]), euler=0, signature=1, b2plus=2)
    with pytest.raises(LedgerError):
        d_invariant(m, m.lattice.dual((1,)))  # 1 - 0 - 3 = -2 not divisible by 4


def _count_pipeline(p, n0):
    """The count lemma's chain: X0, descent of its one chain, p - 1 blow-ups."""
    x0 = scenarios.build_X0_model((p,), n0)
    m1, b1 = rational_blowdown_descend(x0.model, x0.classes, x0.chain_vectors(0),
                                       x0.complement_basis(0))
    return blow_up_basic_classes(m1, b1, p - 1)


def test_d_invariants_after_a_blow_up_read_its_squares(monkeypatch):
    m2, b2 = _count_pipeline(9, 4)
    squares, adjugates = [], []
    exact = IntersectionLattice.dual_square
    monkeypatch.setattr(IntersectionLattice, "dual_square",
                        lambda L, k: squares.append(k) or exact(L, k))
    monkeypatch.setattr(swledger, "adjugate", lambda m: adjugates.append(m) or adjugate(m))
    assert [d_invariant(m2, k) for k in b2.members] == [0] * 1024
    # the blow-up stored every K^2 - n, so the blown-up lattice is never factored
    assert squares == [] and adjugates == []
    assert "_adjugate" not in vars(m2.lattice)


@pytest.mark.parametrize("n0", (2, 4))
def test_blown_up_d_invariants_match_a_memo_free_lattice(n0):
    for p in range(2, 10):
        m2, b2 = _count_pipeline(p, n0)
        fresh = ManifoldModel(IntersectionLattice(m2.lattice.pairing), m2.euler,
                              m2.signature, m2.b2plus)
        assert [d_invariant(m2, k) for k in b2.members] == \
            [d_invariant(fresh, k) for k in b2.members]
        # the memo holds exactly the members' squares, each a dual square
        assert m2.lattice._squares == {k: fresh.lattice.dual_square(k)
                                       for k in b2.members}
        assert fresh.lattice._squares == {}


def test_d_invariant_of_non_members_leaves_the_memo_alone():
    m2, b2 = _count_pipeline(5, 4)
    L = m2.lattice
    size = len(L._squares)
    fresh = IntersectionLattice(L.pairing)
    rng = random.Random(29)
    tried = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")           # some of these d are odd
        while tried < 100:
            # a member plus twice a dual: characteristic, of integral square
            x = L.dual([rng.randrange(-2, 3) for _ in range(L.rank)])
            kappa = tuple(k + 2 * g for k, g in zip(rng.choice(b2.members), x))
            if kappa in b2.weights:
                continue
            tried += 1
            num = fresh.dual_square(kappa) - 2 * m2.euler - 3 * m2.signature
            assert d_invariant(m2, kappa) == num // 4
    assert len(L._squares) == size


def test_d_invariant_takes_any_sequence():
    m2, b2 = _count_pipeline(4, 2)
    for kappa in b2.members:
        assert d_invariant(m2, list(kappa)) == d_invariant(m2, kappa)
    with pytest.raises(LedgerError, match="^vector length does not match lattice rank$"):
        d_invariant(m2, list(b2.members[0][:-1]))
    # a non-member list reaches the dual square and its message
    m = ManifoldModel(lat([[2]]), euler=0, signature=1, b2plus=2)
    BasicClassSet(m.lattice, {(2,): 1, (-2,): 1}).squares()
    with pytest.raises(LedgerError, match=re.escape("non-integral square 1/2 for (1,)")):
        d_invariant(m, [1])


def test_d_invariant_reads_the_memo_only_for_an_equal_class(monkeypatch):
    m2, b2 = _count_pipeline(3, 2)
    kappa = b2.members[0]

    class Asked(Exception):
        pass

    def refuse(L, k):
        raise Asked(k)
    monkeypatch.setattr(IntersectionLattice, "dual_square", refuse)
    # equal entries of another type name the same class
    assert d_invariant(m2, [float(x) for x in kappa]) == d_invariant(m2, kappa)
    # a non-integral entry is not truncated onto the member's key
    half = kappa[0] + (0.5 if kappa[0] >= 0 else -0.5)
    assert int(half) == kappa[0]
    with pytest.raises(Asked):
        d_invariant(m2, (half,) + kappa[1:])


def test_d_preserved_by_blow_up_identity():
    # K^2 drops by 1, e rises by 1, sigma drops by 1: net change -1 - 2 + 3 = 0
    rng = random.Random(3)
    for _ in range(20):
        m = ManifoldModel(HYPERBOLIC, euler=2 * rng.randrange(-3, 4),
                          signature=0, b2plus=2)
        k = (2 * rng.randrange(-2, 3), 2 * rng.randrange(-2, 3))
        if (HYPERBOLIC.square(k) - 2 * m.euler) % 4:
            continue
        beta = BasicClassSet.from_primal(HYPERBOLIC, [k, tuple(-x for x in k)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            before = {d_invariant(m, kk) for kk in beta.members}
            m2, beta2 = blow_up_basic_classes(m, beta, 3)
            # from fresh dual squares on the blown-up pairing, not the stored K^2 - n
            fresh = replace(m2, lattice=IntersectionLattice(m2.lattice.pairing))
            after = {d_invariant(fresh, kk) for kk in beta2.members}
        assert after == before


# -- simple type -----------------------------------------------------------------

def test_simple_type_vacuous_on_empty():
    m = hyperbolic_model()
    assert is_simple_type(m, BasicClassSet(HYPERBOLIC))


def test_simple_type_k3_like():
    m = ManifoldModel(lat([[-2]]), euler=24, signature=-16, b2plus=3)
    beta = BasicClassSet.from_primal(m.lattice, [(0,)])
    assert is_simple_type(m, beta)


def test_simple_type_fails_both_conventions():
    m = ManifoldModel(lat([[4]]), euler=4, signature=0, b2plus=2)
    beta = BasicClassSet.from_primal(m.lattice, [(1,), (-1,)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # d = -1 is odd, flagged
        assert not is_simple_type(m, beta)


def test_simple_type_warns_on_every_call():
    # squares are kept per set; the odd-d warning must not be kept with them
    m = ManifoldModel(lat([[4]]), euler=4, signature=0, b2plus=2)
    beta = BasicClassSet.from_primal(m.lattice, [(1,), (-1,)])
    for _ in range(2):
        with pytest.warns(UserWarning, match="d-invariant -1 is odd"):
            assert not is_simple_type(m, beta)
    assert beta.squares() == {(-4,): 4, (4,): 4}


def test_simple_type_passing_verdict_is_kept_per_key(monkeypatch):
    model, classes, _ = scenarios.build_genus_model(8)
    calls = []
    d_invariant = swledger.d_invariant

    def counting(m, kappa, **kw):
        calls.append(kappa)
        return d_invariant(m, kappa, **kw)
    monkeypatch.setattr(swledger, "d_invariant", counting)
    assert all(list(scenarios.genus_obstruction_Nn(8, k).failures()) == []
               for k in range(-5, 6))
    assert calls == []
    # another (e, sigma) with the same 2e + 3sigma reuses the verdict
    same = ManifoldModel(model.lattice, model.euler + 3, model.signature - 2,
                         model.b2plus)
    assert is_simple_type(same, classes) and calls == []
    # another 2e + 3sigma is checked again, and its failure is not kept
    other = ManifoldModel(model.lattice, model.euler - 4, model.signature,
                          model.b2plus)
    for _ in range(2):
        calls.clear()
        assert not is_simple_type(other, classes)
        assert calls == [classes.members[0]]


def test_ledger_refuses_a_set_on_another_pairing():
    # a passing verdict is kept by 2e + 3sigma alone, so a set checked on l1
    # must not answer for a model on l2, whatever ran before
    l1, l2 = lat([[1, 0], [0, 1]]), lat([[1, 0], [0, -1]])
    beta = BasicClassSet(l1, {(1, 1): 1, (-1, -1): 1})
    m1, m2 = ManifoldModel(l1, 1, 0, 2), ManifoldModel(l2, 1, 0, 2)
    with pytest.raises(LedgerError, match="different pairings"):
        is_simple_type(m2, beta)
    assert is_simple_type(m1, beta)
    for call in (lambda: is_simple_type(m2, beta),
                 lambda: blow_up_basic_classes(m2, beta, 1),
                 lambda: rational_blowdown_descend(m2, beta, [(1, 0)], [(0, 1)]),
                 lambda: knot_surgery_basic_classes(m2, beta, (1, 0),
                                                    LaurentPolynomial.one())):
        with pytest.raises(LedgerError, match="different pairings"):
            call()
    # an equal pairing on another lattice object is the same lattice
    assert is_simple_type(ManifoldModel(lat([[1, 0], [0, 1]]), 1, 0, 2), beta)


def test_simple_type_takes_one_d_per_distinct_square(monkeypatch):
    calls = []
    exact = swledger.d_invariant
    monkeypatch.setattr(swledger, "d_invariant",
                        lambda m, k, **kw: calls.append(k) or exact(m, k, **kw))
    _, classes, _ = scenarios.build_genus_model.__wrapped__(8)
    assert classes.count == 256 and calls == [classes.members[0]]
    # squares 9, 1, 1, 9 in member order: d(9) = 0, then d(1) = -2 fails
    m = ManifoldModel(lat([[1]]), euler=3, signature=1, b2plus=2)
    calls.clear()
    assert not is_simple_type(m, BasicClassSet(m.lattice, dict.fromkeys(
        [(3,), (1,), (-1,), (-3,)], 1)))
    assert calls == [(-3,), (-1,)]


# -- blow-up formula ---------------------------------------------------------------

def test_sign_sums_negate_generator_j_where_bit_j_is_set():
    assert swledger._sign_sums((0, 0), [(1, 0), (0, 1)]) == \
        [(1, 1), (-1, 1), (1, -1), (-1, -1)]


def test_blow_up_two_classes_once():
    k = (0, 2)
    beta = BasicClassSet.from_primal(HYPERBOLIC, [k, (0, -2)])
    m2, beta2 = blow_up_basic_classes(hyperbolic_model(), beta, 1)
    assert beta2.count == 4
    assert m2.euler == 1 and m2.signature == -1
    assert m2.lattice.rank == 3


def test_blow_up_zero_times_is_identity():
    beta = BasicClassSet.from_primal(HYPERBOLIC, [(0, 2), (0, -2)])
    m, beta2 = blow_up_basic_classes(hyperbolic_model(), beta, 0)
    assert beta2 is beta


def test_blow_up_rejects_empty():
    with pytest.raises(LedgerError):
        blow_up_basic_classes(hyperbolic_model(), BasicClassSet(HYPERBOLIC), 1)


def test_blow_up_matches_brute_force_enumeration():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randrange(1, 5)
        base = [(2 * rng.randrange(-3, 4), 2 * rng.randrange(-3, 4))
                for _ in range(rng.randrange(1, 4))]
        primal = []
        for v in base:
            primal.extend([v, tuple(-x for x in v)])
        beta = BasicClassSet.from_primal(HYPERBOLIC, primal)
        m2, beta2 = blow_up_basic_classes(hyperbolic_model(), beta, n)
        # oracle: enumerate K +- E_i directly in the extended lattice
        expected = set()
        for kappa in beta.members:
            for signs in product((1, -1), repeat=n):
                expected.add(kappa + tuple(-s for s in signs))
        assert set(beta2.members) == expected
        assert beta2.count == (1 << n) * beta.count
        for kappa in beta2.members:
            assert tuple(-x for x in kappa) in beta2.weights
            assert m2.lattice.is_characteristic_dual(kappa)


def test_blow_up_checks_parity_once_per_core_and_takes_no_dual(monkeypatch):
    beta = BasicClassSet.from_primal(HYPERBOLIC, [(0, 2), (0, -2), (2, 4), (-2, -4)])
    duals, parities = [], []
    dual = IntersectionLattice.dual
    parity = IntersectionLattice.is_characteristic_dual
    monkeypatch.setattr(IntersectionLattice, "dual",
                        lambda L, x: duals.append(x) or dual(L, x))
    monkeypatch.setattr(IntersectionLattice, "is_characteristic_dual",
                        lambda L, k: parities.append(k) or parity(L, k))
    m2, beta2 = blow_up_basic_classes(hyperbolic_model(), beta, 5)
    assert duals == []
    assert len(parities) == beta.count
    assert beta2.count == 32 * beta.count
    # the memo holds K^2 - n, which is each member's dual square
    assert beta2.squares() == {k: m2.lattice.dual_square(k) for k in beta2.members}


def test_blow_up_pads_the_names_and_adds_none():
    L = lat([[0, 1], [1, 0]], {"E2": (1, 0), "E": (0, 1)})
    beta = BasicClassSet.from_primal(L, [(0, 2), (0, -2)])
    m2, _ = blow_up_basic_classes(ManifoldModel(L, 0, 0, 2), beta, 2)
    assert dict(m2.lattice.names) == {"E2": (1, 0, 0, 0), "E": (0, 1, 0, 0)}


def test_blow_up_pads_a_name_starting_with_E_and_adds_no_E1():
    L = lat([[0, 1], [1, 0]], {"Euler_line": (1, 0)})
    beta = BasicClassSet.from_primal(L, [(0, 2), (0, -2)])
    m2, _ = blow_up_basic_classes(ManifoldModel(L, 0, 0, 2), beta, 1)
    assert dict(m2.lattice.names) == {"Euler_line": (1, 0, 0)}


# -- sign cubes --------------------------------------------------------------------

def _sign_cube(cores, gens):
    """(member, weight) for each core and sign vector, repeats kept."""
    return [(tuple(x + sum(s * g[j] for s, g in zip(signs, gens))
                   for j, x in enumerate(core)), w)
            for core, w in cores.items()
            for signs in product((1, -1), repeat=len(gens))]


def _named_class(message):
    inner = re.search(r"\(([-0-9, ]*)\)", message).group(1)
    return tuple(int(x) for x in inner.split(",") if x.strip())


def test_zero_generator_sets_keep_their_messages():
    with pytest.raises(LedgerError, match=r"^set is not closed under negation at \(0, 2\)$"):
        BasicClassSet(HYPERBOLIC, {(0, 2): 1})
    with pytest.raises(LedgerError, match=r"^class \(1, 0\) is not characteristic$"):
        BasicClassSet(HYPERBOLIC, {(1, 0): 1, (-1, 0): 1})


def test_ledger_vectors_take_integers_only():
    # rejected, never truncated ((1.5, 1) does not name the class (1, 1))
    odd = lat([[1, 0], [0, 1]])
    message = "vector entries must be integers"
    with pytest.raises(LedgerError, match=message):
        BasicClassSet(odd, {(1.5, 1): 1, (-1.5, -1): 1})
    with pytest.raises(LedgerError, match=message):
        lat([[1, 0], [0, 1]], {"x": (0.5, 1)})
    assert BasicClassSet(odd, {(True, 1): 1, (-1, -1): 1}).members == ((-1, -1), (1, 1))


def test_class_weights_take_integers_only():
    # rejected, never truncated (a weight of -0.7 is not stored as 0)
    odd = lat([[1, 0], [0, 1]])
    with pytest.raises(LedgerError, match="weights must be integers, got 1.5"):
        BasicClassSet(odd, {(1, 1): 1.5, (-1, -1): -0.7})
    with pytest.raises(LedgerError, match="weights must be integers, got -0.7"):
        BasicClassSet(odd, {(1, 1): 1, (-1, -1): -0.7})
    assert dict(BasicClassSet(odd, {(1, 1): True, (-1, -1): -1}).weights) == \
        {(-1, -1): -1, (1, 1): 1}


def test_laurent_polynomials_take_integers_only():
    # rejected, never truncated ({1.5: 2} is not read as 2t)
    with pytest.raises(LedgerError, match="coefficients must be integers, got 1.5"):
        LaurentPolynomial({0: 1.5})
    with pytest.raises(LedgerError, match="exponents must be integers, got 1.5"):
        LaurentPolynomial({1.5: 2})
    assert LaurentPolynomial({True: 2, 0: 0.0}) == LaurentPolynomial({1: 2})


def test_cube_built_sets_match_member_by_member_sets():
    rng = random.Random(1616)
    outcomes = Counter()
    for _ in range(600):
        rank = rng.randrange(1, 4)
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                rows[i][j] = rows[j][i] = rng.randrange(-2, 3)
        L = lat(rows)
        gens = [tuple(rng.randrange(-2, 3) for _ in range(rank))
                for _ in range(rng.randrange(0, 4))]
        # cores of the parity that makes c + sum g_i characteristic, mostly
        shift = [(rows[j][j] + sum(g[j] for g in gens)) % 2 for j in range(rank)]
        cores = {}
        for _ in range(rng.randrange(1, 4)):
            c = tuple(s + 2 * rng.randrange(-2, 3) for s in shift)
            if rng.random() < 0.1:
                c = (c[0] + 1,) + c[1:]
            cores[c] = rng.choice((1, -1, 2))
            if rng.random() < 0.9:
                cores[tuple(-x for x in c)] = rng.choice((1, -1, 2))
        members = _sign_cube(cores, gens)
        kappas = [k for k, _ in members]
        try:
            cube = BasicClassSet(L, cores, gens)
        except LedgerError as err:
            message = str(err)
            named = _named_class(message)
            if "occurs more than once" in message:
                assert kappas.count(named) > 1
                outcomes["collision"] += 1
                continue
            assert len(set(kappas)) == len(kappas)
            with pytest.raises(LedgerError):
                BasicClassSet(L, dict(members))
            assert named in kappas
            if "closed under negation" in message:
                assert tuple(-x for x in named) not in kappas
                outcomes["negation"] += 1
            else:
                assert message.endswith("is not characteristic")
                assert not L.is_characteristic_dual(named)
                outcomes["parity"] += 1
            continue
        assert len(set(kappas)) == len(kappas)
        by_member = BasicClassSet(L, dict(members))
        assert cube == by_member
        assert list(cube.weights.items()) == list(by_member.weights.items())
        outcomes["equal"] += 1
    assert min(outcomes[k] for k in ("collision", "negation", "parity", "equal")) >= 10, \
        outcomes


# -- adjunction --------------------------------------------------------------------

def test_adjunction_torus_forces_zero_pairing():
    m = hyperbolic_model()
    good = BasicClassSet.from_primal(HYPERBOLIC, [(0, 0)])
    torus = (1, 0)
    assert adjunction_check(m, good, torus, 1).ok
    bad = BasicClassSet.from_primal(HYPERBOLIC, [(0, 2), (0, -2)])
    report = adjunction_check(m, bad, torus, 1)
    assert not report.ok
    assert {abs(p) for _, p in report.violators} == {2}


def test_adjunction_zero_class_always_passes():
    m = hyperbolic_model()
    beta = BasicClassSet.from_primal(HYPERBOLIC, [(0, 2), (0, -2)])
    for g in (1, 2, 5):
        assert adjunction_check(m, beta, (0, 0), g).ok


def test_adjunction_rejects_nonpositive_genus():
    m = hyperbolic_model()
    with pytest.raises(LedgerError):
        adjunction_check(m, BasicClassSet(HYPERBOLIC), (1, 0), 0)


def test_adjunction_torus_knot_surface_bound():
    # class of square p^2 - p - 2 represented by a genus p(p-1)/2 surface
    for p in (2, 3, 4, 5):
        sq = p * p - p - 2
        L = lat([[sq, 1, 0], [1, 0, 0], [0, 0, -2]])
        m = ManifoldModel(L, euler=3, signature=-2, b2plus=2)
        beta = BasicClassSet.from_primal(L, [(0, 0, 0)])
        w = (1, 0, 0)
        g = p * (p - 1) // 2
        rep = adjunction_check(m, beta, w, g)
        assert rep.ok
        # and the bound is sharp: any class pairing nonzero with w violates it
        assert sq + 1 > 2 * g - 2


# -- minimal genus ------------------------------------------------------------------

def test_min_genus_bound_examples():
    m = hyperbolic_model()
    zero = BasicClassSet.from_primal(HYPERBOLIC, [(0, 0)])
    assert min_genus_bound(m, zero, (1, 0)) == 1          # no pairing, square 0
    paired = BasicClassSet.from_primal(HYPERBOLIC, [(0, 6), (0, -6)])
    # alpha^2 = 0, max pairing 6: 2g - 2 >= 6 forces g >= 4
    assert min_genus_bound(m, paired, (1, 0)) == 4


def test_min_genus_bound_no_constraint_for_negative_square():
    L = lat([[-2, 0, 0], [0, 0, 1], [0, 1, 0]])
    m = ManifoldModel(L, euler=3, signature=-2, b2plus=2)
    beta = BasicClassSet.from_primal(L, [(0, 0, 0)])
    with pytest.warns(UserWarning):
        assert min_genus_bound(m, beta, (1, 0, 0)) == 0


# -- genus queries on the cube, against the member-by-member oracle --------------------

_VACUOUS = "alpha^2 < 0: adjunction gives no genus constraint"


def _count_lemma_blow_up(rng):
    p = rng.randrange(2, 6)
    x0 = scenarios.build_X0_model((p,), rng.choice((2, 4)))
    m1, b1 = rational_blowdown_descend(x0.model, x0.classes, x0.chain_vectors(0),
                                       x0.complement_basis(0))
    return blow_up_basic_classes(m1, b1, p - 1)


def _knot_surgery_output(rng):
    base = scenarios.build_X0_model((), rng.choice((2, 4)))
    delta = alexander_polynomial_torus(*rng.choice(acceptance.KNOTS))
    return base.model, knot_surgery_basic_classes(base.model, base.classes,
                                                  base.torus(), delta)


def _primal_subset(rng):
    # some genus-model classes and their negatives, given as primal vectors
    n = rng.randrange(2, 8)
    model = scenarios.build_genus_model(n)[0]
    chosen = rng.sample(genus_seeds(n), rng.randrange(1, 5))
    return model, BasicClassSet.from_primal(
        model.lattice, chosen + [tuple(-x for x in v) for v in chosen])


GENUS_SETS = {
    "genus-model": lambda rng: scenarios.build_genus_model(rng.randrange(2, 11))[:2],
    "count-lemma-blow-up": _count_lemma_blow_up,
    "knot-surgery": _knot_surgery_output,
    "from-primal": _primal_subset,
}


def _genus_bound_and_warnings(model, beta, alpha):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bound = min_genus_bound(model, beta, alpha)
    return bound, [str(w.message) for w in caught]


@pytest.mark.parametrize("family", GENUS_SETS)
@settings(max_examples=25, deadline=None)
@given(rng=st.integers(0, 2 ** 32).map(random.Random))
def test_genus_queries_match_the_member_oracle(family, rng):
    model, beta = GENUS_SETS[family](rng)
    alpha = tuple(rng.randrange(-3, 4) if rng.random() < 0.4 else 0
                  for _ in range(model.lattice.rank))
    largest, want = genus_bound_by_members(model, beta, alpha)
    assert swledger._largest_pairing(beta, alpha) == largest
    bound, caught = _genus_bound_and_warnings(model, beta, alpha)
    assert (bound, caught) == (want, [_VACUOUS] * (want == 0))
    for genus in range(1, bound + 3):
        assert adjunction_check(model, beta, alpha, genus) == \
            adjunction_by_members(model, beta, alpha, genus)


@pytest.mark.parametrize("n", range(2, 11))
def test_genus_model_bounds_match_the_member_oracle_for_every_k(n):
    model, beta, alpha = scenarios.build_genus_model(n)
    for k in range(-5, 6):
        k_alpha = tuple(k * x for x in alpha)
        largest, bound = genus_bound_by_members(model, beta, k_alpha)
        assert (largest, bound) == (abs(k) * (2 * n - 2), abs(k) * (n - 1) + 1)
        assert min_genus_bound(model, beta, k_alpha) == bound
        for genus in range(1, bound + 3):
            assert adjunction_check(model, beta, k_alpha, genus) == \
                adjunction_by_members(model, beta, k_alpha, genus)


def test_a_generator_orthogonal_to_alpha_doubles_the_violators():
    # the genus model's first generator, f1 + f2 + f3 + g1 + g2 + g3, is
    # orthogonal to alpha; one genus below the bound the extreme classes
    # +-(e_1 + ... + e_{n-1}) violate with either sign of it
    model, beta, alpha = scenarios.build_genus_model(6)
    rank = model.lattice.rank
    free = model.lattice.dual((0,) * (rank - 6) + (1,) * 6)
    assert sum(f * a for f, a in zip(free, alpha)) == 0
    k_alpha = tuple(2 * x for x in alpha)
    bound = min_genus_bound(model, beta, k_alpha)
    assert adjunction_check(model, beta, k_alpha, bound).violators == ()
    report = adjunction_check(model, beta, k_alpha, bound - 1)
    assert report == adjunction_by_members(model, beta, k_alpha, bound - 1)
    pairs = {kappa: pairing for kappa, pairing in report.violators}
    assert sorted(pairs.values()) == [-20, -20, 20, 20]
    for kappa, pairing in pairs.items():
        twin = {tuple(k + 2 * s * f for k, f in zip(kappa, free)) for s in (1, -1)}
        assert [pairs.get(t) for t in twin if t in pairs] == [pairing]


def test_vacuous_genus_bound_warns_once_on_the_cube():
    model, beta, alpha = scenarios.build_genus_model(5)
    two_e1 = tuple(2 * x for x in model.lattice.names["e1"])    # square -4
    assert genus_bound_by_members(model, beta, two_e1) == (2, 0)
    assert _genus_bound_and_warnings(model, beta, two_e1) == (0, [_VACUOUS])


def test_genus_queries_on_the_empty_set():
    model, empty = hyperbolic_model(), BasicClassSet(HYPERBOLIC)
    with pytest.raises(LedgerError, match="^genus bound needs a non-empty basic-class set$"):
        min_genus_bound(model, empty, (1, 0))
    assert adjunction_check(model, empty, (1, 1), 1) == \
        adjunction_by_members(model, empty, (1, 1), 1) == \
        swledger.AdjunctionReport(1, 2, ())


def test_genus_queries_never_read_the_members(monkeypatch):
    # the builder reads the members; every query after it reads the cube
    model, beta, alpha = scenarios.build_genus_model(12)

    def members(self):
        raise AssertionError("a genus query iterated the members")
    monkeypatch.setattr(BasicClassSet, "members", property(members))
    k_alpha = tuple(3 * x for x in alpha)
    bound = min_genus_bound(model, beta, k_alpha)
    assert bound == 3 * 11 + 1
    assert adjunction_check(model, beta, k_alpha, bound).ok
    assert len(adjunction_check(model, beta, k_alpha, bound - 1).violators) == 4
    report = scenarios.genus_obstruction_Nn(12, 3)
    assert (report.max_pairing, report.genus_bound) == (3 * 22, bound)


# -- rational blowdown lifts and descent ----------------------------------------------

def test_lift_eligibility():
    # chain vectors enter only through their pairings with K
    assert swledger._lift_ok((2,))                 # p = 2, <K,u1> = 2
    assert swledger._lift_ok((-2,))
    assert swledger._lift_ok((0, 3))               # p = 3
    assert not swledger._lift_ok((1, 3))
    assert not swledger._lift_ok((0, 2))


# basis (e, u_0, u_1, u_2, z): the p = 3 chain pattern with e.u_2 = 3, plus a
# square -2 parity corrector z so an integer Euler number gives d = 0
P3_BLOCK = [[-1, 0, 0, 3, 0],
            [0, -2, 1, 0, 0],
            [0, 1, -2, 1, 0],
            [3, 0, 1, -5, 0],
            [0, 0, 0, 0, -2]]


def p3_setup():
    L = lat(P3_BLOCK)
    chain = [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0)]            # u_1, u_2
    complement = [(1, -6, -3, 0, 0), (0, 9, 5, 1, 0), (0, 0, 0, 0, 1)]
    return L, chain, complement


def p3_model(L):
    # K = -e has square -1; sigma(P3_BLOCK) = -3, so e(Z) = (-1 + 9)/2 = 4
    return ManifoldModel(L, euler=4, signature=-3, b2plus=2)


def test_p3_complement_is_orthogonal():
    L, chain, complement = p3_setup()
    for c in complement:
        for u in chain:
            assert L.pair(c, u) == 0


def test_p3_restrictions_distinguish_opposite_lifts():
    L, chain, complement = p3_setup()
    k_minus = L.dual((-1, 0, 0, 0, 0))     # -e
    k_plus = L.dual((1, 0, 0, 0, 0))       # +e
    (lift1, r1), (lift2, r2) = swledger._restrictions([k_minus, k_plus], chain, complement)
    assert swledger._lift_ok(lift1) and swledger._lift_ok(lift2)
    assert r1 != r2
    assert (lift1, r1) == ((0, -3), (1, -3, 0)) and (lift2, r2) == ((0, 3), (-1, 3, 0))
    # alpha = e + u_2 + 2 u_1 + 3 u_0 lies in the complement span and separates them
    alpha = (1, 3, 2, 1, 0)
    assert all(L.pair(alpha, u) == 0 for u in chain)
    assert sum(a * b for a, b in zip(k_minus, alpha)) == -2   # (1-p) <K, e>
    assert sum(a * b for a, b in zip(k_plus, alpha)) == 2


def test_p3_descend_preserves_d_honestly():
    L, chain, complement = p3_setup()
    model = p3_model(L)
    beta = BasicClassSet.from_primal(L, [(-1, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
    assert is_simple_type(model, beta)
    m2, beta2 = rational_blowdown_descend(model, beta, chain, complement)
    assert beta2.count == 2
    assert m2.euler == model.euler - 2
    assert m2.signature == model.signature + 2
    for kappa in beta2.members:
        assert m2.lattice.dual_square(kappa) == -1 + 2    # K^2 + (p-1), computed honestly
        assert d_invariant(m2, kappa) == 0
        assert m2.lattice.is_characteristic_dual(kappa)


def test_descend_empty_set():
    L, chain, complement = p3_setup()
    _, beta2 = rational_blowdown_descend(p3_model(L), BasicClassSet(L),
                                         chain, complement)
    assert beta2.count == 0


def test_descend_rejects_ineligible():
    L, chain, complement = p3_setup()
    # 3e is characteristic but evaluates to 9 (not +-3) on u_2
    beta = BasicClassSet.from_primal(L, [(3, 0, 0, 0, 0), (-3, 0, 0, 0, 0)])
    with pytest.raises(LedgerError):
        rational_blowdown_descend(p3_model(L), beta, chain, complement)
    not_orthogonal = complement[:2] + [(0, 0, 1, 0, 1)]    # pairs -2 with u_1
    with pytest.raises(LedgerError, match="pairs with the chain"):
        rational_blowdown_descend(p3_model(L), BasicClassSet(L), chain, not_orthogonal)


@pytest.mark.parametrize("which, vector", [
    ("complement", (1, -6, -3)), ("complement", (0, 0, 0, 0, 1, 0)),
    ("chain", (0, 0, 1, 0)), ("chain", (0, 0, 1, 0, 0, 0))])
def test_descend_rejects_vectors_of_the_wrong_length(which, vector):
    L, chain, complement = p3_setup()
    beta = BasicClassSet.from_primal(L, [(-1, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
    if which == "chain":
        chain = [chain[0], vector]
    else:
        complement = [vector] + complement[1:]
    with pytest.raises(LedgerError, match="^vector length does not match lattice rank$"):
        rational_blowdown_descend(p3_model(L), beta, chain, complement)


def test_empty_chain_is_rejected_like_the_splice():
    # p = 1: the message `rational_blowdown_splice` gives, not an IndexError
    L = lat([[-1]])
    beta = BasicClassSet.from_primal(L, [(1,), (-1,)])
    with pytest.raises(LedgerError, match=r"^rational blowdown needs p >= 2$"):
        rational_blowdown_descend(ManifoldModel(L, 0, -1, 2), beta, [], [(1,)])


def test_descend_requires_the_sw_hypotheses():
    # like the blow-up of the same model, a b2+ = 1 model does not descend
    L, chain, complement = p3_setup()
    model = ManifoldModel(L, euler=4, signature=-3, b2plus=1)
    beta = BasicClassSet.from_primal(L, [(-1, 0, 0, 0, 0), (1, 0, 0, 0, 0)])
    for transform in (lambda: rational_blowdown_descend(model, beta, chain, complement),
                      lambda: blow_up_basic_classes(model, beta, 1)):
        with pytest.raises(LedgerError, match=r"^SW operations require b2\+ > 1$"):
            transform()


def test_only_the_builders_store_squares():
    x0 = scenarios.build_X0_model((4,), 4)
    stored = dict(x0.lattice._squares)
    assert set(stored) == set(x0.classes.members)
    m1, b1 = rational_blowdown_descend(x0.model, x0.classes, x0.chain_vectors(0),
                                       x0.complement_basis(0))
    m2, b2 = blow_up_basic_classes(m1, b1, 3)
    # asking for squares and d-invariants reads them and stores none
    assert is_simple_type(m1, b1) and is_simple_type(m2, b2)
    fresh = IntersectionLattice(m1.lattice.pairing)
    assert b1.squares() == {k: fresh.dual_square(k) for k in b1.members}
    assert [d_invariant(m1, k) for k in b1.members] == [0] * b1.count
    assert m1.lattice._squares == {} and x0.lattice._squares == stored
    # each builder's memo holds the members of the one set it built
    assert set(m2.lattice._squares) == set(b2.members)
    beta = BasicClassSet.from_primal(HYPERBOLIC, [(0, 2), (0, -2)])
    assert beta.squares() == {(-2, 0): 0, (2, 0): 0}
    assert d_invariant(hyperbolic_model(), (2, 0)) == 0 and HYPERBOLIC._squares == {}


def test_descend_reports_the_first_failure_in_class_order():
    # with c_1 repeated, classes that differ only in z restrict alike
    L, chain, complement = p3_setup()
    complement = [complement[0], complement[1], complement[0]]

    def closed(weights):
        return BasicClassSet(L, {**weights, **{tuple(-x for x in k): w
                                               for k, w in weights.items()}})
    collide = {(1, 0, 0, 3, 0): 1, (1, 0, 0, 3, 2): 2}
    late, early = (1, 0, -2, 3, 0), (-3, 0, 2, 3, 0)      # <K, u_1> = -2 and 2
    with pytest.raises(LedgerError, match="^restriction collision"):
        rational_blowdown_descend(p3_model(L), closed({**collide, late: 1}),
                                  chain, complement)
    with pytest.raises(LedgerError, match=re.escape(f"class {early} is not eligible")):
        rational_blowdown_descend(p3_model(L), closed({**collide, early: 1}),
                                  chain, complement)
    _, beta = rational_blowdown_descend(p3_model(L), closed({(1, 0, 0, 3, 0): 1}),
                                        chain, complement)
    assert dict(beta.weights) == {(-1, -3, -1): 1, (1, 3, 1): 1}


# -- Alexander polynomials --------------------------------------------------------------

def test_trefoil_alexander():
    assert alexander_polynomial_torus(3, 2).coeffs == {1: 1, 0: -1, -1: 1}


def test_52_alexander():
    assert alexander_polynomial_torus(5, 2).coeffs == \
        {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}


@pytest.mark.parametrize("p,q", [(3, 2), (5, 2), (7, 2), (4, 3), (5, 3), (5, 4)])
def test_alexander_symmetric_and_unit(p, q):
    poly = alexander_polynomial_torus(p, q)
    assert poly.is_symmetric()
    assert poly(1) in (1, -1)


@pytest.mark.parametrize("p,q", [(p, q) for p in range(3, 21) for q in range(2, p)
                                 if gcd(p, q) == 1])
def test_alexander_against_multiplication_oracle(p, q):
    # independent route: multiply back by the denominator and compare
    poly = alexander_polynomial_torus(p, q)
    def tpow_minus_one(n):
        return LaurentPolynomial({n: 1, 0: -1})
    lhs = poly * tpow_minus_one(p) * tpow_minus_one(q)
    shift = (p - 1) * (q - 1) // 2
    rhs = LaurentPolynomial({p * q - shift: 1, -shift: -1}) * tpow_minus_one(1)
    assert lhs == rhs


def test_alexander_exact_at_plus_minus_one():
    trefoil = alexander_polynomial_torus(3, 2)
    assert trefoil(-1) == -3 and type(trefoil(-1)) is int
    for p in range(3, 21):
        for q in range(2, p):
            if gcd(p, q) != 1:
                continue
            poly = alexander_polynomial_torus(p, q)
            assert poly(1) in (1, -1), (p, q)
            # independent route: |Delta(-1)| is the determinant of T(p,q),
            # p when q is even, q when p is even and 1 when both are odd
            det_pq = p if q % 2 == 0 else q if p % 2 == 0 else 1
            assert abs(poly(-1)) == det_pq and type(poly(-1)) is int, (p, q)


@pytest.mark.parametrize("t", [2, 0, -2])
def test_laurent_evaluation_only_at_plus_minus_one(t):
    with pytest.raises(LedgerError, match="t = \\+-1"):
        alexander_polynomial_torus(3, 2)(t)


def test_alexander_rejects_non_coprime():
    with pytest.raises(LedgerError):
        alexander_polynomial_torus(4, 2)


def test_laurent_str():
    assert str(alexander_polynomial_torus(3, 2)) == "t - 1 + t^-1"


# -- knot surgery --------------------------------------------------------------------------

def surgery_setup():
    m = hyperbolic_model()
    beta = BasicClassSet.from_primal(HYPERBOLIC, [(0, 2), (0, -2)])
    return m, beta, (1, 0)


def test_surgery_with_unknot_is_identity():
    m, beta, torus = surgery_setup()
    assert knot_surgery_basic_classes(m, beta, torus, LaurentPolynomial.one()) == beta


def test_surgery_with_trefoil_gives_six_classes():
    m, beta, torus = surgery_setup()
    out = knot_surgery_basic_classes(m, beta, torus, alexander_polynomial_torus(3, 2))
    assert out.count == 6
    primal = [(0, 2), (2, 2), (-2, 2), (0, -2), (2, -2), (-2, -2)]
    expected = BasicClassSet(HYPERBOLIC, {HYPERBOLIC.dual(v): w for v, w in
                                          zip(primal, [-1, 1, 1, -1, 1, 1])})
    assert out == expected


def test_surgery_distinct_for_distinct_knots():
    m, beta, torus = surgery_setup()
    outs = [knot_surgery_basic_classes(m, beta, torus, alexander_polynomial_torus(p, q))
            for p, q in ((3, 2), (5, 2), (7, 2))]
    assert len({tuple(sorted(o.weights.items())) for o in outs}) == 3


def test_surgery_requires_square_zero_primitive_torus():
    m, beta, _ = surgery_setup()
    with pytest.raises(LedgerError):
        knot_surgery_basic_classes(m, beta, (1, 1), LaurentPolynomial.one())
    with pytest.raises(LedgerError):
        knot_surgery_basic_classes(m, beta, (2, 0), LaurentPolynomial.one())


def test_one_dual_per_vector(monkeypatch):
    m_k3 = ManifoldModel(lat([[-2]]), euler=24, signature=-16, b2plus=3)
    m, beta, torus = surgery_setup()
    dual = IntersectionLattice.dual
    calls = []

    def counting(self, x):
        calls.append(tuple(x))
        return dual(self, x)
    monkeypatch.setattr(IntersectionLattice, "dual", counting)
    assert d_invariant(m_k3, m_k3.lattice.dual((2,))) == -2
    assert calls == [(2,)]
    calls.clear()
    out = knot_surgery_basic_classes(m, beta, torus, alexander_polynomial_torus(3, 2))
    assert out.count == 6 and calls == [torus]


def test_surgery_weight_cancellation_removes_classes():
    # K - 2T and (-K) + 2T both land on (0, 0) with opposite weights
    m = hyperbolic_model()
    beta = BasicClassSet(HYPERBOLIC, {(0, 2): 1, (0, -2): 1})
    poly = LaurentPolynomial({1: 1, -1: -1})   # antisymmetric test polynomial
    out = knot_surgery_basic_classes(m, beta, (1, 0), poly)
    assert (0, 0) not in out.weights
    assert set(out.weights) == {(0, 4), (0, -4)}


# -- random characteristic vectors ------------------------------------------------------

def test_random_characteristic_vectors_are_characteristic():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randrange(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(-3, 4)
        L = lat(rows)
        v = random_characteristic_vector(L, rng)
        assert is_characteristic(L, v)
    # degenerate and even forms: zero and even pivots in the Smith form
    for rows in ([[0]], [[2]], [[0, 1], [1, 0]], [[0] * 3] * 3):
        L = lat(rows)
        for _ in range(5):
            assert is_characteristic(L, random_characteristic_vector(L, rng))


# -- user-facing errors ----------------------------------------------------------------

_NOT_SIMPLE = BasicClassSet(HYPERBOLIC, {(2, 0): 1, (-2, 0): 1})     # K^2 = 0
_FLOAT_ENTRY = "vector entries must be integers: 'float' object cannot be interpreted as an integer"


def _genus_query(query, *args):
    model, classes, alpha = scenarios.build_genus_model(3)
    return query(model, classes, tuple(1.5 * x for x in alpha), *args)


@pytest.mark.parametrize("call, error, message", [
    (lambda: lat([[0, 1], [2, 0]]), LedgerError, "pairing matrix must be symmetric"),
    (lambda: lat([[1, 0], [0, 1]], {"a": (1,)}), LedgerError,
     "vector length does not match lattice rank"),
    (lambda: HYPERBOLIC.dual((1,)), LedgerError,
     "vector length does not match lattice rank"),
    (lambda: BasicClassSet(HYPERBOLIC, {(2,): 1}), LedgerError,
     "class length does not match lattice rank"),
    (lambda: BasicClassSet(HYPERBOLIC, {}, [(1,)]), LedgerError,
     "generator length does not match lattice rank"),
    (lambda: blow_up_basic_classes(hyperbolic_model(), _NOT_SIMPLE, -1), LedgerError,
     "cannot blow up a negative number of times"),
    # 0 - 2e - 3sigma = -8: d = -2, not zero
    (lambda: adjunction_check(hyperbolic_model(euler=4), _NOT_SIMPLE, (1, 0), 1),
     LedgerError, "adjunction needs a simple-type model"),
    (lambda: min_genus_bound(hyperbolic_model(), BasicClassSet(HYPERBOLIC), (1, 0)),
     LedgerError, "genus bound needs a non-empty basic-class set"),
    (lambda: rational_blowdown_descend(hyperbolic_model(), _NOT_SIMPLE, [(1, 0)], []),
     LedgerError, "complement basis must have rank 1"),
    # an entry of 1.5 is rejected by every query, never computed as a float
    (lambda: HYPERBOLIC.dual((1.5, 0)), LedgerError, _FLOAT_ENTRY),
    (lambda: HYPERBOLIC.dual_square((1.5, 8)), LedgerError, _FLOAT_ENTRY),
    (lambda: HYPERBOLIC.pair((1.5, 0), (1, 0)), LedgerError, _FLOAT_ENTRY),
    (lambda: HYPERBOLIC.pair((1, 0), (1.5, 0)), LedgerError, _FLOAT_ENTRY),
    (lambda: HYPERBOLIC.square((1.5, 0)), LedgerError, _FLOAT_ENTRY),
    (lambda: HYPERBOLIC.gram([(1.5, 0)]), LedgerError, _FLOAT_ENTRY),
    (lambda: _genus_query(min_genus_bound), LedgerError, _FLOAT_ENTRY),
    (lambda: _genus_query(adjunction_check, 1), LedgerError, _FLOAT_ENTRY),
    (lambda: d_invariant(hyperbolic_model(), (1.5, 8)), LedgerError, _FLOAT_ENTRY),
], ids=["asymmetric", "name-length", "dual-length", "class-length", "generator-length",
        "negative-blow-up", "not-simple-type", "empty-genus-bound", "complement-rank",
        "dual-float", "dual-square-float", "pair-x-float", "pair-y-float", "square-float",
        "gram-float", "genus-bound-float", "adjunction-float", "d-invariant-float"])
def test_ledger_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_blow_up_on_a_degenerate_lattice_stores_no_squares():
    beta = BasicClassSet(lat([[0, 0], [0, 0]]), {(2, 0): 1, (-2, 0): 1})
    model, out = blow_up_basic_classes(ManifoldModel(beta.lattice, 0, 0, 2), beta, 1)
    assert out.count == 4 and model.lattice._squares == {}
    with pytest.raises(LedgerError, match="degenerate pairing has no dual squares"):
        out.squares()


def test_zero_polynomial_prints_as_zero():
    assert str(LaurentPolynomial()) == str(LaurentPolynomial({3: 0})) == "0"
