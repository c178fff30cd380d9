"""Exact integer linear algebra over handle decompositions.

Everything here runs on arbitrary-precision Python integers: Smith normal
form with its unimodular transforms, canonical (Hermite) kernel bases,
Bareiss determinants and adjugates, exact inertia of symmetric forms, and
the homology of a handlebody presented by its run-through and linking data.

One elimination, `_diagonalize`, serves every Smith normal form entry point
and builds only the transforms its caller reads: `cokernel_invariants` (and
so `boundary_first_homology`) builds neither U nor V, `kernel_basis` and
`homology` build V alone, and only `smith_normal_form` builds both.  It
plays each Euclid run of quotient steps out on two scalars and applies the
run to S and to the transforms as one 2x2 step, skips the rows a column
step cannot change, and carries U and V as sparse rows; pivots, quotients
and swaps are those of one row or column operation per quotient, so S, U
and V are too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import index, mul
from typing import Iterable, Sequence

from .handles import HandleDecomposition


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; shape is explicit so 0xN matrices work."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            entries = tuple(tuple(map(index, row)) for row in self.entries)
        except TypeError as exc:
            raise ValueError(f"matrix entries must be integers: {exc}") from None
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.rows or any(len(r) != self.cols for r in entries):
            raise ValueError(f"entry grid does not match shape {self.rows}x{self.cols}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return cls(n, n, tuple(tuple(diag[i] if i == j else 0 for j in range(n))
                               for i in range(n)))

    def __repr__(self) -> str:
        """The dataclass repr, with any entry too long to print in decimal
        (past `sys.get_int_max_str_digits()`) written as its sign and bit
        length, so that repr never raises."""
        entries = _tuple_repr(_tuple_repr(map(_int_repr, row)) for row in self.entries)
        return f"IntMatrix(rows={self.rows}, cols={self.cols}, entries={entries})"

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        return self.entries[i][j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        rows = tuple(tuple(_dot(row, col) for col in ot) for row in self.entries)
        return IntMatrix(self.rows, other.cols, rows)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows) for j in range(i))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]


def _tuple_repr(items: Iterable[str]) -> str:
    """repr of a tuple whose items have these reprs."""
    parts = list(items)
    return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"


def _int_repr(x: int) -> str:
    try:
        return repr(x)
    except ValueError:
        return f"<{'-' if x < 0 else '+'}{x.bit_length()} bits>"


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def adjugate(m: IntMatrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det M, adj M) by fraction-free Gauss-Jordan elimination of [M | I].

    Each step divides exactly by the previous pivot (Bareiss), so every
    entry stays an integer minor of [M | I].  At the end the left block is
    d I and the right block d M^{-1}, where d = +-det M carries the sign of
    the row swaps.  Raises ValueError for a non-square or singular matrix.
    """
    if m.rows != m.cols:
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(m.entries)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ValueError("adjugate of a singular matrix")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k]
        d = pk[k]
        for i in range(n):
            if i != k:
                ai = a[i]
                f = ai[k]
                a[i] = [(d * x - f * y) // prev for x, y in zip(ai, pk)]
        prev = d
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


@dataclass(frozen=True)
class SmithNormalForm:
    """U @ M @ V = S with U, V unimodular and S diagonal, d1 | d2 | ..."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s[i, i] for i in range(n))


def _diagonalize(m: IntMatrix, want_u: bool, want_v: bool
                 ) -> tuple[list[int], list[list[int]] | None, list[list[int]] | None]:
    """The one Smith elimination: (diagonal, rows of U, columns of V).

    The diagonal lists the nonzero invariant factors d1 | d2 | ..., all
    positive; S is that diagonal padded with zeros.  U is carried only when
    `want_u` and V only when `want_v` (None otherwise): no transform feeds
    back into S, so dropping one changes nothing else.

    Each pivot is the first entry of least absolute value in row-major
    order, so the search stops at the first +-1; a unit pivot divides every
    entry, so its divisibility sweep is skipped.  Rows at or below t are zero
    left of column t and rows above t are zero right of it, so operations on
    S touch only the active block (rows and columns >= t).

    The pivot clears each entry of its column, then of its row, by a Euclid
    run: subtract the floor quotient times the pivot, swap the two if a
    remainder is left, repeat.  A run that ends after one exact quotient is
    one subtraction.  A longer run is played out on the two scalars alone
    (`_euclid_run`), and its 2x2 cofactor matrix is applied once to the two
    rows (or columns) of S and of U (or V); exact integers make that equal to
    the steps one by one.  Once the row sweep is done, column t is zero below
    the pivot (`clean`).  A column subtraction adds a multiple of column t,
    so while that holds it changes only the entry in row t, and the rows
    below are skipped.  Only a folded column run, which mixes another column
    into column t, can break it; column t is checked after each one, and if
    it is no longer zero below the pivot the row sweep runs again.  U rows
    and V columns are sparse {index: value} dicts, written out as lists once,
    at return.
    """
    nr, nc = m.rows, m.cols
    s = m.to_lists()
    u = [{i: 1} for i in range(nr)] if want_u else None
    vt = [{j: 1} for j in range(nc)] if want_v else None  # V, column by column
    diag: list[int] = []
    t = 0
    while t < min(nr, nc):
        best = _pivot(s, t)
        if best is None:
            break
        i, j = best
        if i != t:
            s[t], s[i] = s[i], s[t]
            if u is not None:
                u[t], u[i] = u[i], u[t]
        if j != t:
            for row in s[t:]:
                row[t], row[j] = row[j], row[t]
            if vt is not None:
                vt[t], vt[j] = vt[j], vt[t]
        st = s[t]
        while True:
            for i in range(t + 1, nr):
                si = s[i]
                if not si[t]:
                    continue
                q, r = divmod(si[t], st[t])
                if not r:
                    si[t:] = [x - q * y for x, y in zip(si[t:], st[t:])]
                    if u is not None:
                        _sub(u[i], u[t], q)
                    continue
                a, b, c, d = _euclid_run(st[t], si[t])
                x, y = st[t:], si[t:]
                st[t:] = [a * e + b * f for e, f in zip(x, y)]
                si[t:] = [c * e + d * f for e, f in zip(x, y)]
                if u is not None:
                    u[t], u[i] = _mix(u[t], u[i], a, b, c, d)
            clean = True  # column t is zero below the pivot
            for j in range(t + 1, nc):
                if not st[j]:
                    continue
                q, r = divmod(st[j], st[t])
                if not r:
                    if clean:
                        st[j] = 0
                    else:
                        for row in s[t:]:
                            row[j] -= q * row[t]
                    if vt is not None:
                        _sub(vt[j], vt[t], q)
                    continue
                a, b, c, d = _euclid_run(st[t], st[j])
                for row in s[t:]:
                    e, f = row[t], row[j]
                    row[t], row[j] = a * e + b * f, c * e + d * f
                clean = not any(row[t] for row in s[t + 1:])
                if vt is not None:
                    vt[t], vt[j] = _mix(vt[t], vt[j], a, b, c, d)
            if not clean:
                continue
            pivot = st[t]
            if pivot in (1, -1):
                break
            # columns <= t of the rows below t are zero by now
            offender = next((i for i in range(t + 1, nr)
                             if any(x % pivot for x in s[i][t + 1:])), None)
            if offender is None:
                break
            # pull the offending row into row t
            st[t:] = [x + y for x, y in zip(st[t:], s[offender][t:])]
            if u is not None:
                _sub(u[t], u[offender], -1)
        if st[t] < 0 and u is not None:
            u[t] = {k: -x for k, x in u[t].items()}
        diag.append(abs(st[t]))
        t += 1
    return diag, _dense(u, nr), _dense(vt, nc)


def _euclid_run(a: int, b: int) -> tuple[int, int, int, int]:
    """Cofactors (a', b', c', d') of the Euclid run that clears b against pivot a.

    The run subtracts floor(b / a) times the pivot from b and swaps the two
    while a remainder is left.  The pivot it ends with is a' a + b' b, and
    c' a + d' b = 0 is what is left of b.
    """
    p, q, r, s = 1, 0, 0, 1
    while b:
        k = b // a
        b -= k * a
        r -= k * p
        s -= k * q
        if b:
            a, b = b, a
            p, q, r, s = r, s, p, q
    return p, q, r, s


def _sub(x: dict[int, int], y: dict[int, int], q: int) -> None:
    """x -= q y on sparse rows, in place."""
    for k, v in y.items():
        x[k] = x.get(k, 0) - q * v


def _mix(x: dict[int, int], y: dict[int, int], a: int, b: int, c: int, d: int
         ) -> tuple[dict[int, int], dict[int, int]]:
    """(a x + b y, c x + d y) on sparse rows, zeros dropped."""
    gx, gy = x.get, y.get
    keys = x.keys() | y.keys()
    return ({k: z for k in keys if (z := a * gx(k, 0) + b * gy(k, 0))},
            {k: z for k in keys if (z := c * gx(k, 0) + d * gy(k, 0))})


def _dense(rows: list[dict[int, int]] | None, n: int) -> list[list[int]] | None:
    """Sparse rows written out as length-n lists; None stays None."""
    if rows is None:
        return None
    out = []
    for row in rows:
        z = [0] * n
        for k, x in row.items():
            z[k] = x
        out.append(z)
    return out


def _pivot(s: list[list[int]], t: int) -> tuple[int, int] | None:
    """First entry of least absolute value in rows and columns >= t, row-major."""
    best, least = None, 0
    for i in range(t, len(s)):
        row = s[i][t:]
        if 1 in row or -1 in row:
            return i, t + min(row.index(x) for x in (1, -1) if x in row)
        for j, x in enumerate(row, t):
            if x and (best is None or abs(x) < least):
                best, least = (i, j), abs(x)
    return best


def smith_normal_form(m: IntMatrix) -> SmithNormalForm:
    """Diagonalize over Z by unimodular row and column operations.

    The divisibility chain is enforced before each pivot is frozen, so the
    diagonal always satisfies d1 | d2 | ... and is non-negative.
    """
    diag, u, vt = _diagonalize(m, want_u=True, want_v=True)
    s = [[0] * m.cols for _ in range(m.rows)]
    for i, d in enumerate(diag):
        s[i][i] = d
    return SmithNormalForm(IntMatrix.from_rows(s, m.cols),
                           IntMatrix.from_rows(u, m.rows),
                           IntMatrix.from_rows(list(zip(*vt)), m.cols))


def cokernel_invariants(m: IntMatrix) -> tuple[tuple[int, ...], int]:
    """(torsion invariant factors >= 2, free rank) of Z^rows / im(M)."""
    diag, _, _ = _diagonalize(m, want_u=False, want_v=False)
    return _cokernel(m, diag)


def _cokernel(m: IntMatrix, factors: Sequence[int]) -> tuple[tuple[int, ...], int]:
    return tuple(d for d in factors if d >= 2), m.rows - len(factors)


def hermite_row_basis(vectors: Iterable[Sequence[int]], width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical row basis (row HNF) of the lattice spanned by `vectors`.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and rows are sorted by pivot column, so the result is a
    deterministic function of the spanned lattice.
    """
    rows: list[list[int]] = []
    pivots: list[int] = []
    for vec in vectors:
        v = list(vec)
        if len(v) != width:
            raise ValueError("vector width mismatch")
        while True:
            lead = next((j for j, x in enumerate(v) if x), None)
            if lead is None:
                break
            k = 0
            while k < len(pivots) and pivots[k] < lead:
                k += 1
            if k < len(pivots) and pivots[k] == lead:
                r = rows[k]
                a, b = r[lead], v[lead]
                if b % a == 0:
                    q = b // a
                    v = [x - q * y for x, y in zip(v, r)]
                else:
                    a, b, c, d = _euclid_run(a, b)
                    rows[k] = [a * x + b * y for x, y in zip(r, v)]
                    v = [c * x + d * y for x, y in zip(r, v)]
            else:
                rows.insert(k, v)
                pivots.insert(k, lead)
                break
    for k in range(len(rows)):
        if rows[k][pivots[k]] < 0:
            rows[k] = [-x for x in rows[k]]
    for k in range(len(rows)):
        for j in range(k):
            piv = rows[k][pivots[k]]
            q = rows[j][pivots[k]] // piv
            if q:
                rows[j] = [x - q * y for x, y in zip(rows[j], rows[k])]
    return tuple(tuple(r) for r in rows)


def kernel_basis(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Canonical basis (as rows) of the integer kernel {x : M x = 0}."""
    diag, _, vt = _diagonalize(m, want_u=False, want_v=True)
    return _kernel(m, len(diag), vt)


def _kernel(m: IntMatrix, rank: int,
            v_columns: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Kernel of M from its SNF: the columns of V past the nonzero pivots."""
    return hermite_row_basis(v_columns[rank:], m.cols)


def inertia(m: IntMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia indices of a symmetric form.

    Symmetric elimination in integers (Bareiss): after each pivot the
    trailing block is the previous pivot times the Schur complement, so every
    update divides exactly, and the i-th pivot of the LDL^T factorisation is
    d / prev.  A zero diagonal is first replaced by a nonzero one (swap), or
    by 2*a_ij (add row and column j); a zero row counts toward `zero`.
    These congruences act on the trailing block only and commute with the
    elimination, so exactness survives them.
    """
    if not m.is_symmetric():
        raise ValueError("inertia needs a symmetric matrix")
    n = m.rows
    a = m.to_lists()
    pos = neg = zero = 0
    prev = 1
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    zero += 1
                    continue
                a[i] = [x + y for x, y in zip(a[i], a[j])]
                for row in a:
                    row[i] = row[i] + row[j]
        d = a[i][i]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        pivot_row = a[i][i + 1:]
        for j in range(i + 1, n):
            row = a[j]
            f = row[i]
            row[i + 1:] = [(d * x - f * y) // prev
                           for x, y in zip(row[i + 1:], pivot_row)]
        prev = d
    return pos, neg, zero


def signature(m: IntMatrix) -> int:
    p, q, _ = inertia(m)
    return p - q


# -- homology of handle decompositions ---------------------------------------


def run_through_matrix(d: HandleDecomposition) -> IntMatrix:
    """Differential C_2 -> C_1: rows are 1-handles, columns are 2-handles."""
    ids = d.two_handle_ids
    rt = d.run_through
    rows = [[rt.get((k, h), 0) for k in ids] for h in d.one_handles]
    return IntMatrix.from_rows(rows, cols=len(ids))


def linking_matrix(d: HandleDecomposition) -> IntMatrix:
    """Framings on the diagonal, linking numbers off it, on the 2-handles.

    Zero rows are filled from the nonzero entries: the framings and `d.links`.
    """
    index = {h: i for i, (h, _) in enumerate(d.two_handles)}
    rows = [[0] * len(index) for _ in index]
    for i, (_, f) in enumerate(d.two_handles):
        rows[i][i] = f
    for (a, b), v in d.links.items():
        i, j = index[a], index[b]
        rows[i][j] = rows[j][i] = v
    return IntMatrix.from_rows(rows, cols=len(index))


def surgery_presentation(d: HandleDecomposition) -> IntMatrix:
    """Linking presentation of the boundary with every dot traded for a zero.

    Basis: the 2-handles followed by the 1-handles-turned-0-framed-2-handles;
    dotted circles are pairwise unlinked, so their block is zero.
    """
    q = linking_matrix(d).entries
    r = run_through_matrix(d).entries
    n1 = len(r)
    r_cols = zip(*r) if r else [()] * len(q)
    rows = [q_row + r_col for q_row, r_col in zip(q, r_cols)]
    rows += [r_row + (0,) * n1 for r_row in r]
    return IntMatrix.from_rows(rows, cols=len(q) + n1)


@dataclass(frozen=True)
class HomologyProfile:
    """H_1 and H_2 of the handlebody, with the intersection pairing on H_2."""

    h1_invariant_factors: tuple[int, ...]
    h1_free_rank: int
    h2_rank: int
    intersection_form: IntMatrix
    h2_basis: tuple[tuple[int, ...], ...]

    @property
    def h1_trivial(self) -> bool:
        return not self.h1_invariant_factors and self.h1_free_rank == 0


def homology(d: HandleDecomposition) -> HomologyProfile:
    """Homology of the 2-handlebody (3-handles are bookkeeping only).

    H_1 is the cokernel and H_2 the kernel of the run-through differential;
    the intersection form is the linking matrix restricted to the canonical
    kernel basis, so repeated runs produce identical matrices.
    """
    r = run_through_matrix(d)
    factors, _, v_columns = _diagonalize(r, want_u=False, want_v=True)
    torsion, free = _cokernel(r, factors)
    basis = _kernel(r, len(factors), v_columns)
    form = IntMatrix.from_rows(_intersection_form(d, basis), cols=len(basis))
    return HomologyProfile(torsion, free, len(basis), form, basis)


def _intersection_form(d: HandleDecomposition,
             basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """B^T Q B for the linking matrix Q, summing only its nonzero terms.

    Q is read from the framings and `d.links`, B from the supports of the
    basis vectors, so the cost follows the links, not the square of the
    number of 2-handles.
    """
    index = {k: i for i, (k, _) in enumerate(d.two_handles)}
    linked: list[list[tuple[int, int]]] = [[] for _ in index]
    for (a, b), lk in d.links.items():
        linked[index[a]].append((index[b], lk))
        linked[index[b]].append((index[a], lk))
    framings = [f for _, f in d.two_handles]
    supports = [[(a, x) for a, x in enumerate(v) if x] for v in basis]
    qb = []
    for support in supports:
        qv = [0] * len(framings)
        for a, x in support:
            qv[a] += framings[a] * x
            for b, lk in linked[a]:
                qv[b] += lk * x
        qb.append(qv)
    return [[sum(qv[a] * x for a, x in support) for support in supports] for qv in qb]


def boundary_first_homology(d: HandleDecomposition) -> tuple[int, ...]:
    """Invariant factors of H_1 of the boundary 3-manifold; 0 marks a Z."""
    torsion, free = cokernel_invariants(surgery_presentation(d))
    return torsion + (0,) * free


def boundary_group_order(d: HandleDecomposition) -> int | None:
    """|H_1(boundary)| when finite, None when there is a free part."""
    return _group_order(boundary_first_homology(d))


def _group_order(factors: Sequence[int]) -> int | None:
    """Order of the group with these invariant factors; None if a 0 (a Z) is among them."""
    return None if 0 in factors else prod(factors)


def is_homology_trivial(d: HandleDecomposition) -> bool:
    """True iff H_1 = H_2 = 0 (the homology-level contractibility check)."""
    prof = homology(d)
    return prof.h1_trivial and prof.h2_rank == 0
