"""Exact integer linear algebra over handle decompositions.

Everything here runs on arbitrary-precision Python integers: Smith normal
form with its unimodular transforms, canonical (Hermite) kernel bases,
Bareiss determinants and adjugates, exact inertia of symmetric forms, and
the homology of a handlebody presented by its run-through and linking data.
`det` and `adjugate` share one elimination, `_gauss_jordan`, and one sparse
form kernel, `_matvec` and `_pairings`, serves `homology`'s intersection
form and the SW ledger's lattice.

Which matrices each entry point builds:
- `boundary_first_homology` fills one n x n list, the surgery presentation,
  straight from the framings, `d.links` and `d.run_through`, and hands it to
  `_eliminate` without an `IntMatrix`: a decomposition has already
  checked every entry as an integer.
- `homology` does the same with the run-through differential, then reads
  the intersection form from the framings and `d.links` on the kernel basis.
- `surgery_presentation`, `linking_matrix` and `run_through_matrix` wrap the
  same lists in a validated `IntMatrix` for callers that want the matrix.
- `cokernel_invariants`, `kernel_basis` and `smith_normal_form` take an
  `IntMatrix`, so whatever a caller passes is validated.

One elimination, `_eliminate`, serves every caller, carrying only the
transforms that caller reads: `cokernel_invariants` and
`boundary_first_homology` run it with neither U nor V, `kernel_basis` and
`homology` with V, and `smith_normal_form` with U and V.  It deletes each
pivot's row and column once they are clear, so the matrix shrinks, and it
does not keep d1 | d2 | ... while it runs: the chain is restored once, at
the end, not at every pivot, by pairwise (gcd, lcm) on the pivots and on
their rows of U and columns of V.  Without the row pull-ins a chain kept at
every pivot needs, entries, U and V stay small enough for dense 40 x 40
input and plumbing trees of hundreds of handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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


def _matvec(rows: Sequence[Sequence[tuple[int, int]]], x: Sequence[int]) -> list[int]:
    """G x for a symmetric G kept as each row's nonzero (j, g) pairs, scattered
    over the nonzero entries of x: column j of G is its row j."""
    out = [0] * len(rows)
    for j, xj in enumerate(x):
        if xj:
            for i, g in rows[j]:
                out[i] += g * xj
    return out


def _pairings(classes: Iterable[Sequence[int]], alpha: Sequence[int]) -> list[int]:
    """<K, alpha> for each class K, summed over the nonzero entries of alpha."""
    support = [(j, a) for j, a in enumerate(alpha) if a]
    out = []
    for kappa in classes:
        s = 0
        for j, a in support:
            s += kappa[j] * a
        out.append(s)
    return out


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return _gauss_jordan(m.to_lists(), m.rows)


def adjugate(m: IntMatrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det M, adj M) by fraction-free Gauss-Jordan elimination of [M | I].

    That leaves s det M M^{-1} in the right block, s = +-1 the sign of the
    row swaps, and s det M as the last pivot.  Raises ValueError for a
    non-square or singular matrix.
    """
    if m.rows != m.cols:
        raise ValueError("adjugate of a non-square matrix")
    n = m.rows
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(m.entries)]
    d = _gauss_jordan(a, n)
    if not d:
        raise ValueError("adjugate of a singular matrix")
    sign = d // a[-1][n - 1] if n else 1
    return d, tuple(tuple(sign * x for x in row[n:]) for row in a)


def _gauss_jordan(a: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) Gauss-Jordan on the first n columns of `a`, in place.

    Each step divides exactly by the previous pivot and rewrites only the
    columns from the pivot on, as no later step reads those left of it.  The
    last pivot is +-d, the sign that of the row swaps; returns d, the left
    n x n block's determinant, or 0 once a column has no pivot left."""
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k:]
        d = pk[0]
        for i, ai in enumerate(a):
            if i != k:
                f = ai[k]
                ai[k:] = [(d * x - f * y) // prev for x, y in zip(ai[k:], pk)]
        prev = d
    return sign * prev


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


def _eliminate(s: list[list[int]], cols: int, want_v: bool, want_u: bool = False
               ) -> tuple[int, tuple[int, ...], list[list[int]] | None,
                          list[list[int]] | None]:
    """(rank, torsion, rows of U, columns of V) of the matrix with rows `s`,
    `cols` wide.

    The torsion is the invariant factors >= 2 as a chain d1 | d2 | ....  U
    is None unless `want_u`, and V unless `want_v`; `want_u` needs
    `want_v`.  With U, U M V = S, the rank's invariant factors (units first,
    then the torsion) down S's diagonal, and V's columns past the first
    `rank` are a basis of the kernel {x : M x = 0}; without U, V is those
    kernel columns alone.  `s` is eliminated in place and never validated,
    so callers hand over rows of checked integers that they do not read
    again.

    The divisibility chain is not kept while the elimination runs; each
    isolated pivot's row and column are deleted, so the matrix shrinks:
    - pivot: the first +-1 in row-major order, else the first entry of least
      absolute value (`_first_entry`);
    - column: every other row with an entry in the pivot column takes one
      floor-quotient row step.  If a remainder is left, the first least one
      in the column becomes the pivot and the column is cleared again; the
      pivot's absolute value strictly falls, so this ends.  A unit pivot
      leaves no remainder, so its column is cleared as it is deleted;
    - row: a non-unit pivot reduces its row mod p by column steps, which
      touch only the pivot row once its column is clear.  A remainder is
      smaller than |p|, and |p| is at most the least entry when the pivot
      was picked, so the least entry has strictly fallen when the pivot is
      picked again.  A unit pivot's row needs no steps in the matrix, since
      it is deleted next, only in V;
    - U: each row carries its row of U after the matrix's current width, so
      one comprehension per row step updates both, and the scans read the
      matrix part alone.  A deleted pivot row keeps its U part, negated for
      a negative pivot, and its column of V leaves with it; unit pivots go
      first, then the others in the order they were deleted, then the rows
      and columns that were never pivots, in their own order;
    - V: the column steps are applied to V's sparse columns;
    - chain: at the end `_chain` makes the pivots a divisibility chain by
      pairwise (gcd, lcm), in U and V too when U is carried.  The rank is
      the number of pivots.
    """
    width = cols
    if want_u:
        n = len(s)
        for i, row in enumerate(s):
            row += [0] * n
            row[cols + i] = 1
    v = [{j: 1} for j in range(cols)] if want_v else None  # V, column by column
    rank = 0
    pivots: list[int] = []             # |p| of each non-unit pivot, in order
    u_rows: list[list[int]] = []       # with U: each pivot's row of U and
    v_cols: list[dict[int, int]] = []  # column of V, units first
    while True:
        view = [row[:width] for row in s] if want_u else s
        found = _first_entry(view, 1)
        if found is None:
            least = min(filter(None, map(abs, chain.from_iterable(view))), default=0)
            if not least:
                break
            found = _first_entry(view, least)
        i, j = found
        prow = s[i]
        p = prow[j]
        unit = p == 1 or p == -1
        if not unit:
            while True:  # clear column j; the first least remainder is the next pivot
                least = 0
                for k, row in enumerate(s):
                    a = row[j]
                    if a and k != i:
                        q = a // p
                        row[:] = [x - q * y for x, y in zip(row, prow)]
                        a = abs(row[j])
                        if a and (not least or a < least):
                            nxt, least = k, a
                if not least:
                    break
                i = nxt
                prow = s[i]
                p = prow[j]
            unit = p == 1 or p == -1
        if not unit:
            left = False
            for k, a in enumerate(prow[:width] if want_u else prow):  # reduce row i mod p
                if a and k != j:
                    q, prow[k] = divmod(a, p)
                    if v is not None:
                        _sub(v[k], v[j], q)
                    left = left or bool(prow[k])
            if left:
                continue
        # A non-unit pivot is alone in its row and column by now.  A unit
        # pivot's row steps are taken in V alone, as the row is deleted, and
        # its column is cleared as it is deleted.
        column = None
        if v is not None:
            for k, a in enumerate(prow[:width] if want_u else prow):
                if a and k != j:
                    _sub(v[k], v[j], a * p)
            column = v.pop(j)
        del s[i], prow[j]
        width -= 1
        for row in s:
            a = row.pop(j)
            if a:
                q = a * p
                row[:] = [x - q * y for x, y in zip(row, prow)]
        if want_u:
            at = rank - len(pivots) if unit else rank
            u_rows.insert(at, prow[width:] if p > 0 else [-x for x in prow[width:]])
            v_cols.insert(at, column)
        if not unit:
            pivots.append(abs(p))
        rank += 1
    if not want_u:
        return rank, _chain(pivots, None, None), None, _dense(v, cols)
    d = [1] * (rank - len(pivots)) + pivots
    u = u_rows + [row[width:] for row in s]
    vt = _dense(v_cols + v, cols)
    return rank, _chain(d, u, vt), u, vt


def _first_entry(s: list[list[int]], a: int) -> tuple[int, int] | None:
    """Position of the first +-a in row-major order, or None."""
    for i, row in enumerate(s):
        if a in row:
            j = row.index(a)
            return i, (row.index(-a) if -a in row[:j] else j)
        if -a in row:
            return i, row.index(-a)
    return None


def _chain(d: list[int], u: list[list[int]] | None, vt: list[list[int]] | None
           ) -> tuple[int, ...]:
    """Make the positive entries `d`, units first, a divisibility chain in
    place, and return its entries >= 2.

    Each pair (a, b) = (d_i, d_j), i < j, with a not dividing b becomes
    (g, lcm), g = x a + y b = gcd(a, b): diag(a, b) and diag(g, lcm) present
    the same group, and once d_i has met every later entry it divides them
    all.  With U given, rows i, j of U take (x, y; -b/g, a/g) and columns i,
    j of V (columns `vt`) take (1, -yb/g; 1, xa/g), which keeps U M V = S.
    """
    for i in range(d.count(1), len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                x, y, _, _ = _euclid_run(a, b)
                g = x * a + y * b
                d[i], d[j] = g, a // g * b
                if u is not None:
                    _combine(u, i, j, x, y, -b // g, a // g)
                    _combine(vt, i, j, 1, 1, -y * b // g, x * a // g)
    return tuple(d[d.count(1):])


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


def _combine(rows: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    """Rows i, j become (a x + b y, c x + d y) for the old rows x, y, in place."""
    x, y = rows[i], rows[j]
    rows[i] = [a * e + b * f for e, f in zip(x, y)]
    rows[j] = [c * e + d * f for e, f in zip(x, y)]


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


def smith_normal_form(m: IntMatrix) -> SmithNormalForm:
    """Diagonalize over Z by unimodular row and column operations.

    One deleting elimination (`_eliminate`) carries U and V; the pivots are
    made the divisibility chain once, at the end, not at every pivot, so the
    diagonal satisfies d1 | d2 | ... and is non-negative, and rows and
    columns that are never pivots keep their order (a zero matrix gets
    identity transforms).
    """
    rank, torsion, u, vt = _eliminate(m.to_lists(), m.cols, want_v=True, want_u=True)
    s = [[0] * m.cols for _ in range(m.rows)]
    for i, d in enumerate((1,) * (rank - len(torsion)) + torsion):
        s[i][i] = d
    return SmithNormalForm(IntMatrix.from_rows(s, m.cols),
                           IntMatrix.from_rows(u, m.rows),
                           IntMatrix.from_rows(list(zip(*vt)), m.cols))


def cokernel_invariants(m: IntMatrix) -> tuple[tuple[int, ...], int]:
    """(torsion invariant factors >= 2, free rank) of Z^rows / im(M)."""
    rank, torsion, _, _ = _eliminate(m.to_lists(), m.cols, want_v=False)
    return torsion, m.rows - rank


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
    _, _, _, kernel = _eliminate(m.to_lists(), m.cols, want_v=True)
    return hermite_row_basis(kernel, m.cols)


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
    return IntMatrix.from_rows(_run_through_rows(d), cols=len(d.two_handles))


def _run_through_rows(d: HandleDecomposition) -> list[list[int]]:
    """Rows of `run_through_matrix`, filled from the nonzero counts alone."""
    index = {k: i for i, (k, _) in enumerate(d.two_handles)}
    at = {h: i for i, h in enumerate(d.one_handles)}
    rows = [[0] * len(index) for _ in at]
    for (k, h), v in d.run_through.items():
        rows[at[h]][index[k]] = v
    return rows


def linking_matrix(d: HandleDecomposition) -> IntMatrix:
    """Framings on the diagonal, linking numbers off it, on the 2-handles.

    Every entry not set from a framing or from `d.links` is zero.
    """
    return IntMatrix.from_rows(_presentation_rows(d, ()), cols=len(d.two_handles))


def surgery_presentation(d: HandleDecomposition) -> IntMatrix:
    """Linking presentation of the boundary with every dot traded for a zero.

    Basis: the 2-handles followed by the 1-handles-turned-0-framed-2-handles;
    dotted circles are pairwise unlinked, so their block is zero.
    """
    rows = _presentation_rows(d, d.one_handles)
    return IntMatrix.from_rows(rows, cols=len(rows))


def _presentation_rows(d: HandleDecomposition, ones: Sequence[str]) -> list[list[int]]:
    """The linking matrix of the 2-handles followed by `ones` as 0-framed
    unknots, each run-through count both above and below the diagonal.

    One symmetric pass over the framings, `d.links` and, when `ones` is not
    empty, `d.run_through`; every other entry is zero.
    """
    index = {k: i for i, (k, _) in enumerate(d.two_handles)}
    n = len(index) + len(ones)
    rows = [[0] * n for _ in range(n)]
    for i, (_, f) in enumerate(d.two_handles):
        rows[i][i] = f
    for (a, b), v in d.links.items():
        i, j = index[a], index[b]
        rows[i][j] = rows[j][i] = v
    if ones:
        at = {h: i for i, h in enumerate(ones, len(index))}
        for (k, h), v in d.run_through.items():
            i, j = index[k], at[h]
            rows[i][j] = rows[j][i] = v
    return rows


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
    kernel basis, so repeated runs produce identical matrices.  Linking rows
    keep their nonzero entries only, so the form costs the links.
    """
    n2 = len(d.two_handles)
    rank, torsion, _, kernel = _eliminate(_run_through_rows(d), n2, want_v=True)
    basis = hermite_row_basis(kernel, n2)
    index = {k: i for i, (k, _) in enumerate(d.two_handles)}
    linking = [[(i, f)] if f else [] for i, (_, f) in enumerate(d.two_handles)]
    for (a, b), lk in d.links.items():
        i, j = index[a], index[b]
        linking[i].append((j, lk))
        linking[j].append((i, lk))
    form = [_pairings(basis, _matvec(linking, b)) for b in basis]
    return HomologyProfile(torsion, len(d.one_handles) - rank, len(basis),
                           IntMatrix.from_rows(form, cols=len(basis)), basis)


def boundary_first_homology(d: HandleDecomposition) -> tuple[int, ...]:
    """Invariant factors of H_1 of the boundary 3-manifold; 0 marks a Z."""
    rows = _presentation_rows(d, d.one_handles)
    n = len(rows)
    rank, torsion, _, _ = _eliminate(rows, n, want_v=False)
    return torsion + (0,) * (n - rank)


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
