"""Independent checks for every benchmark op.

Nothing here imports kirbycalc: each oracle reaches its verdict by its own
route (modular arithmetic, Bareiss determinants, gcd of minors, closed-form
counts, polynomial multiplication) and never re-runs the code under test.
Every check returns None when the output is right and a short reason string
when it is wrong.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

# Two primes near 2^61; a wrong integer identity survives reduction modulo
# both only if the error is a multiple of their ~2^122 product.
PRIMES = (2305843009213693951, 2305843009213693921)
SMALL_PRIMES = (2, 3, 5, 7)


# -- exact and modular linear algebra -------------------------------------------


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
        prev = akk
    return sign * (a[n - 1][n - 1] if n else 1)


def leading_minors(rows: list[list[int]]) -> list[int] | None:
    """D_1, ..., D_n of a square matrix (Bareiss without pivoting), None if one is 0."""
    n = len(rows)
    a = [list(r) for r in rows]
    out, prev = [], 1
    for k in range(n):
        akk = a[k][k]
        if akk == 0:
            return None
        out.append(akk)
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
        prev = akk
    return out


def _reduce(rows, p: int) -> list[list[int]]:
    return [[x % p for x in r] for r in rows]


def _eliminate_mod(rows: list[list[int]], p: int) -> tuple[int, int]:
    """(rank, determinant if square) of a matrix already reduced mod p."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    rank, det = 0, 1
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if a[i][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        inv = pow(a[rank][c], -1, p)
        det = det * a[rank][c] % p
        for i in range(rank + 1, nr):
            f = a[i][c] * inv % p
            if f:
                ri, rr = a[i], a[rank]
                for j in range(c, nc):
                    ri[j] = (ri[j] - f * rr[j]) % p
        rank += 1
        if rank == nr:
            break
    if nr != nc or rank < nr:
        det = 0
    return rank, det % p


def rank_mod(rows, p: int) -> int:
    return _eliminate_mod(_reduce(rows, p), p)[0] if rows else 0


def rank_q(rows) -> int:
    """Rank over Q; exact unless a ~2^61 prime divides every maximal nonzero minor."""
    return rank_mod(rows, PRIMES[0])


def matmul_mod(a, b, p: int) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) % p for c in bt] for r in a]


def matvec(rows, v) -> list[int]:
    return [sum(x * y for x, y in zip(r, v)) for r in rows]


def chain_error(diag) -> str | None:
    """Divisibility chain d1 | d2 | ... with zeros only at the end, all >= 0."""
    for x, y in zip(diag, diag[1:]):
        if x < 0 or y < 0:
            return "negative diagonal entry"
        if (x == 0 and y != 0) or (x != 0 and y % x):
            return f"divisibility chain broken at {x}, {y}"
    return None


def minors_gcd(rows, k: int) -> int:
    """gcd of all k x k minors; stops early once the gcd reaches 1."""
    g = 0
    nr, nc = len(rows), len(rows[0]) if rows else 0
    for ri in combinations(range(nr), k):
        for ci in combinations(range(nc), k):
            g = gcd(g, bareiss_det([[rows[i][j] for j in ci] for i in ri]))
            if g == 1:
                return 1
    return g


def saturated(basis) -> bool:
    """Rows stay independent mod small primes (a saturated lattice does)."""
    if not basis:
        return True
    return all(rank_mod(basis, q) == len(basis) for q in SMALL_PRIMES)


def solve_q(rows, rhs) -> list[Fraction]:
    """x with rows @ x = rhs over Q, by Gauss-Jordan on Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [r[n] for r in a]


# -- presentations built straight from handle data --------------------------------


def run_through_rows(one_handles, two_ids, run_through) -> list[list[int]]:
    return [[run_through.get((k, h), 0) for k in two_ids] for h in one_handles]


def linking_rows(two_handles, links) -> list[list[int]]:
    ids = [k for k, _ in two_handles]
    frame = dict(two_handles)
    return [[frame[a] if a == b else links.get((min(a, b), max(a, b)), 0)
             for b in ids] for a in ids]


def presentation_rows(one_handles, two_handles, links, run_through) -> list[list[int]]:
    """Boundary linking matrix with every dotted circle traded for a 0-framed one."""
    ids = [k for k, _ in two_handles]
    q = linking_rows(two_handles, links)
    r = run_through_rows(one_handles, ids, run_through)
    n1 = len(one_handles)
    top = [q[i] + [r[h][i] for h in range(n1)] for i in range(len(ids))]
    return top + [r[h] + [0] * n1 for h in range(n1)]


# -- homology-layer oracles ------------------------------------------------------------


def check_snf(m, s, u, v) -> str | None:
    """U M V = S, |det U| = |det V| = 1, diagonal S with a divisibility chain."""
    nr, nc = len(m), len(m[0]) if m else 0
    if len(s) != nr or len(u) != nr or len(v) != nc:
        return "transform shapes do not match the input"
    diag = [s[i][i] for i in range(min(nr, nc))]
    if any(s[i][j] for i in range(nr) for j in range(nc) if i != j):
        return "S is not diagonal"
    err = chain_error(diag)
    if err:
        return err
    for p in PRIMES:
        up, vp = _reduce(u, p), _reduce(v, p)
        if matmul_mod(matmul_mod(up, _reduce(m, p), p), vp, p) != _reduce(s, p):
            return "U M V != S"
        if _eliminate_mod(up, p)[1] not in (1, p - 1) or \
                _eliminate_mod(vp, p)[1] not in (1, p - 1):
            return "transform not unimodular"
    if sum(1 for d in diag if d) != rank_q(m):
        return "invariant factor count differs from the rank"
    if nr == nc:
        prod = 1
        for d in diag:
            prod *= d
        if prod != abs(bareiss_det(m)):
            return "product of invariant factors differs from |det|"
    return None


def check_kernel(m, basis, width: int) -> str | None:
    """M x = 0 for every row, full nullity, saturated, in row Hermite form."""
    for b in basis:
        if len(b) != width or any(matvec(m, b)):
            return "basis vector is not in the kernel"
    if len(basis) != width - rank_q(m):
        return "kernel rank differs from the nullity"
    last = -1
    for k, b in enumerate(basis):
        lead = next((j for j, x in enumerate(b) if x), None)
        if lead is None or lead <= last or b[lead] <= 0:
            return "basis is not in row Hermite form"
        if any(not 0 <= basis[i][lead] < b[lead] for i in range(k)):
            return "entries above a pivot are not reduced"
        last = lead
    if not saturated(basis):
        return "kernel basis spans a sublattice of finite index"
    return None


def check_inertia(m, result) -> str | None:
    """p + q + z = n, z is the nullity, and q by Jacobi's rule when it applies.

    Jacobi: if every leading principal minor D_k is nonzero, q is the number
    of sign changes in 1, D_1, ..., D_n.
    """
    pos, neg, zero = result
    n = len(m)
    if min(result) < 0 or pos + neg + zero != n:
        return "p + q + z != n"
    if zero != n - rank_q(m):
        return "zero index differs from the nullity"
    minors = leading_minors(m) if zero == 0 else None
    if minors is not None:
        seq = [1] + minors
        if neg != sum(1 for x, y in zip(seq, seq[1:]) if (x < 0) != (y < 0)):
            return "negative index differs from the sign changes of leading minors"
    return None


def check_boundary(pres, factors) -> str | None:
    """Torsion chain, free part = nullity, order = |det| of the presentation."""
    factors = list(factors)
    torsion = [f for f in factors if f]
    if any(f < 2 for f in torsion) or chain_error(torsion):
        return "torsion factors do not form a chain of integers >= 2"
    n = len(pres)
    if factors.count(0) != n - rank_q(pres):
        return "free rank differs from the nullity of the presentation"
    if 0 not in factors:
        order = 1
        for f in torsion:
            order *= f
        if order != abs(bareiss_det(pres)):
            return "boundary order differs from |det| of the presentation"
    return None


def check_homology(r_rows, q_rows, n1: int, n2: int, h1_torsion, h1_free,
                   h2_rank, form, basis) -> str | None:
    """H1 = coker R by gcd of minors, H2 = ker R, form = B^T Q B."""
    rank = rank_q(r_rows) if n1 else 0
    if h1_free != n1 - rank or h2_rank != n2 - rank or len(basis) != h2_rank:
        return "homology ranks differ from the run-through rank"
    order = 1
    for f in h1_torsion:
        order *= f
    if any(f < 2 for f in h1_torsion) or chain_error(list(h1_torsion)):
        return "H1 torsion is not a chain of integers >= 2"
    if rank and order != minors_gcd(r_rows, rank):
        return "H1 torsion order differs from the gcd of maximal minors"
    for b in basis:
        if len(b) != n2 or (n1 and any(matvec(r_rows, b))):
            return "H2 basis vector is not a cycle"
    if not saturated(basis):
        return "H2 basis spans a sublattice of finite index"
    qb = [matvec(q_rows, b) for b in basis]
    want = [[sum(x * y for x, y in zip(qi, bj)) for bj in basis] for qi in qb]
    if [list(r) for r in form] != want:
        return "intersection form differs from B^T Q B"
    return None


def check_slide(q0, r0, q1, r1, a: int, b: int, s: int) -> str | None:
    """Sliding a over b is the congruence Q -> E Q E^T, R -> R E^T, E = I + s e_a e_b^T."""
    want = [list(row) for row in q0]
    for c in range(len(q0)):
        if c != a:
            want[a][c] = want[c][a] = q0[a][c] + s * q0[b][c]
    want[a][a] = q0[a][a] + 2 * s * q0[a][b] + q0[b][b]
    want_r = [list(row) for row in r0]
    for row in want_r:
        row[a] += s * row[b]
    if q1 != want or r1 != want_r:
        return "slide differs from the congruence E Q E^T"
    return None


# -- ledger oracles ---------------------------------------------------------------------


def check_count_lemma(p: int, n0: int, n_descended: int, members, d_values,
                      sample_square: tuple | None) -> str | None:
    """N0 classes descend, 2^(p-1) N0 after blow-up, closed under -K, all d = 0.

    `sample_square` is (pairing rows, class, euler, signature) for one class,
    whose d is recomputed from an independent rational solve.
    """
    if n_descended != n0:
        return f"descent kept {n_descended} of {n0} classes"
    if len(members) != (1 << (p - 1)) * n0:
        return f"{len(members)} classes after blow-up, expected {(1 << (p - 1)) * n0}"
    seen = set(members)
    if any(tuple(-x for x in k) not in seen for k in members):
        return "blown-up classes are not closed under negation"
    if len(d_values) != len(members) or any(d_values):
        return "a blown-up class has d != 0"
    if sample_square is not None:
        rows, kappa, euler, sig = sample_square
        x = solve_q(rows, kappa)
        sq = sum(k * xi for k, xi in zip(kappa, x))
        if sq.denominator != 1 or (sq - 2 * euler - 3 * sig) != 0:
            return "independent square gives d != 0"
    return None


def check_genus(n: int, k: int, bound: int, ok_at_bound: bool,
                ok_below: bool | None) -> str | None:
    """Adjunction bound |k|(n-1)+1; tight: it holds at the bound, fails below."""
    want = abs(k) * (n - 1) + 1
    if bound != want:
        return f"genus bound {bound}, expected {want}"
    if not ok_at_bound:
        return "adjunction fails at its own bound"
    if ok_below:
        return "adjunction holds below the bound"
    return None


def _dense(coeffs: dict[int, int], shift: int) -> list[int]:
    top = max(coeffs) + shift
    out = [0] * (top + 1)
    for e, c in coeffs.items():
        out[e + shift] = c
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _cyc(n: int) -> list[int]:
    out = [0] * (n + 1)
    out[0], out[n] = -1, 1
    return out


def check_alexander(p: int, q: int, coeffs: dict[int, int]) -> str | None:
    """Delta(1) = +-1, Delta symmetric, Delta (t^p-1)(t^q-1) = (t^pq-1)(t-1) up to t^s."""
    if not coeffs:
        return "empty Alexander polynomial"
    if sum(coeffs.values()) not in (1, -1):
        return "Delta(1) != +-1"
    if any(coeffs.get(-e, 0) != c for e, c in coeffs.items()):
        return "Delta is not symmetric"
    shift = (p - 1) * (q - 1) // 2
    if min(coeffs) != -shift:
        return "Delta has the wrong span"
    lhs = _mul(_mul(_dense(coeffs, shift), _cyc(p)), _cyc(q))
    if lhs != _mul(_cyc(p * q), _cyc(1)):
        return "Delta (t^p-1)(t^q-1) != (t^pq-1)(t-1)"
    return None


def check_knot_surgery(seed_count: int, coeffs: dict[int, int],
                       weights: dict) -> str | None:
    """One class per (seed, Alexander term) and total weight N0 * Delta(1)."""
    if len(weights) != seed_count * len(coeffs):
        return f"{len(weights)} surgered classes, expected {seed_count * len(coeffs)}"
    if sum(weights.values()) != seed_count * sum(coeffs.values()):
        return "surgered weights do not sum to N0 * Delta(1)"
    if any(tuple(-x for x in k) not in weights for k in weights):
        return "surgered classes are not closed under negation"
    return None


# -- diagram oracles --------------------------------------------------------------------


def tb_torus_front(p: int) -> int:
    """tb of the maximal (p+1, p) torus front: pq - p - q with q = p + 1."""
    return p * p - p - 1


def check_stein(p_list, verdicts) -> str | None:
    """Every handle passes, each (p+1,p) handle has tb = p^2 - p - 1."""
    by_id = {v[0]: v for v in verdicts}
    want = sum(2 * p - 1 for p in p_list)
    if len(verdicts) != want:
        return f"{len(verdicts)} verdicts, expected {want}"
    for i, p in enumerate(p_list):
        w = by_id.get(f"d{i + 1}.w")
        if w is None or w[2] != tb_torus_front(p) or w[1] != w[2] - 1:
            return f"torus handle of D~{p} has the wrong tb or framing"
    if not all(ok for _, _, _, ok in verdicts):
        return "a handle fails framing = tb - 1"
    return None
