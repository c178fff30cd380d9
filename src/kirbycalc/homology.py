"""Exact integer linear algebra over handle decompositions.

Everything here runs on arbitrary-precision Python integers: Smith normal
form with its unimodular transforms, canonical (Hermite) kernel bases,
Bareiss determinants and adjugates, exact inertia of symmetric forms, and
the homology of a handlebody presented by its run-through and linking data.
`det` of a symmetric matrix reads the last pivot of inertia's elimination,
`_symmetric_pivots`; `det` of any other matrix and `adjugate` share
`_gauss_jordan`.  One sparse form kernel serves `homology`'s intersection
form and the SW ledger's lattice: `_matvec` takes duals over a vector's
nonzeros, `_pairings` pairs classes with one vector, and `_form`, the Gram
kernel, indexes its vectors' nonzeros by column once and sums each dual
only over the vectors that hold its nonzeros.

Which matrices each entry point builds:
- `boundary_first_homology` fills one n x n list, the surgery presentation,
  straight from the framings, `d.links` and `d.run_through`, and hands it to
  `_eliminate` without an `IntMatrix`: a decomposition has already
  checked every entry as an integer.
- `homology` does the same with the run-through differential, takes the
  kernel's row HNF with `hermite_row_basis` (leads by `compress`, rows by
  `bisect`, so no Python scan over a row), then reads the intersection form
  on that basis from the framings and `d.links`: one `_matvec` per basis
  vector and one `_form`.
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

`inertia` and a symmetric `det` run one symmetric fraction-free
elimination, `_symmetric_pivots`, on one triangle, in two row forms:
- pattern phase, while the pattern is sparse: each row is a dict of its
  nonzeros, and the pivot is a vertex with a nonzero diagonal and the
  fewest neighbours left, lowest index on ties, read from the nonzero
  pattern and its fill, so a plumbing tree goes leaf first with no fill and
  a pivot rewrites only its neighbours' nonzeros.  A zero-diagonal leaf
  leaves with its neighbour as one hyperbolic pair, which adds no fill;
- index-order phase, for a pattern with no row more than half zeros and
  once a pivot has half the vertices left as neighbours: list rows, and the
  lowest vertex left with a nonzero diagonal, with no ordering work;
- lazy scaling: a pivot rewrites only the rows it has a nonzero entry in,
  and every other row keeps the pivot it was last written at and is scaled
  by (last pivot) / (its pivot) when next read;
- exactness: every entry, scaled or updated, is a bordered minor of the
  pivots taken so far, so each division is exact, and the last pivot is
  the determinant.
A 200-vertex plumbing tree takes milliseconds, its inertia and its det,
where index-order Bareiss, which rewrites the whole trailing block at every
pivot, took most of a second for the inertia and Gauss-Jordan over a
second for the det.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from math import prod
from operator import index, itemgetter, mul
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
        return self.rows == self.cols and self.entries == tuple(zip(*self.entries))

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
    over the nonzero entries of x, found by `compress`: column j of G is its
    row j."""
    out = [0] * len(rows)
    for j in compress(range(len(x)), x):
        xj = x[j]
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


def _form(vectors: Sequence[Sequence[int]], duals: Iterable[Sequence[int]]) -> list[list[int]]:
    """[_pairings(vectors, d) for d in duals], each dual summed only over the
    vectors that hold its nonzero entries: the vectors' nonzeros are indexed
    by column once, so a row costs the dual's nonzeros times the vectors
    holding each, not the number of vectors."""
    columns = range(max(map(len, vectors), default=0))
    holders: list[list[tuple[int, int]]] = [[] for _ in columns]  # (k, v_k[j]) by j
    for k, v in enumerate(vectors):
        for j in compress(columns, v):
            holders[j].append((k, v[j]))
    n = len(vectors)
    out = []
    for d in duals:
        row = [0] * n
        for j in compress(columns, d):
            a = d[j]
            for k, x in holders[j]:
                row[k] += x * a
        out.append(row)
    return out


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination: the last
    pivot of `_symmetric_pivots` for a symmetric matrix, so a plumbing tree
    costs its nonzeros, and `_gauss_jordan` otherwise."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if m.is_symmetric():
        return _symmetric_pivots(m.to_lists())[3]
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
    deterministic function of the spanned lattice.  A vector's lead is found
    by `compress` and its row by `bisect`, and a row step rewrites only the
    columns from the lead on, as both rows are zero left of it.  The final
    reduction reads each pivot column of the rows above once and rewrites
    only the rows whose entry there is out of range.
    """
    rows: list[list[int]] = []
    pivots: list[int] = []
    columns = range(width)
    for vec in vectors:
        v = list(vec)
        if len(v) != width:
            raise ValueError("vector width mismatch")
        lead = next(compress(columns, v), None)
        while lead is not None:
            k = bisect_left(pivots, lead)
            if k == len(pivots) or pivots[k] != lead:
                rows.insert(k, v)
                pivots.insert(k, lead)
                break
            r = rows[k]
            a, b = r[lead], v[lead]
            if b % a == 0:
                q = b // a
                v[lead:] = [x - q * y for x, y in zip(v[lead:], r[lead:])]
            else:
                a, b, c, d = _euclid_run(a, b)
                r[lead:], v[lead:] = ([a * x + b * y for x, y in zip(r[lead:], v[lead:])],
                                      [c * x + d * y for x, y in zip(r[lead:], v[lead:])])
            lead = next(compress(columns, v), None)
    for r, p in zip(rows, pivots):
        if r[p] < 0:
            r[p:] = [-x for x in r[p:]]
    for k, (r, p) in enumerate(zip(rows, pivots)):
        piv = r[p]
        for j in compress(range(k), map(itemgetter(p), rows)):
            above = rows[j]
            q = above[p] // piv
            if q:
                above[p:] = [x - q * y for x, y in zip(above[p:], r[p:])]
    return tuple(map(tuple, rows))


def kernel_basis(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Canonical basis (as rows) of the integer kernel {x : M x = 0}."""
    _, _, _, kernel = _eliminate(m.to_lists(), m.cols, want_v=True)
    return hermite_row_basis(kernel, m.cols)


def inertia(m: IntMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia indices of a symmetric form, read
    from `_symmetric_pivots`.  The triple is Sylvester's, so it does not
    depend on the pivot order or on the congruences taken."""
    if not m.is_symmetric():
        raise ValueError("inertia needs a symmetric matrix")
    pos, neg, zero, _ = _symmetric_pivots(m.to_lists())
    return pos, neg, zero


def _symmetric_pivots(a: list[list[int]]) -> tuple[int, int, int, int]:
    """(positive, negative, zero, det) of the symmetric matrix with rows `a`,
    by one symmetric fraction-free (Bareiss) elimination that overwrites `a`.

    With S the vertices eliminated so far and `prev` the last pivot,
    det M[S, S] (of M after the congruences below), every entry (j, k) left
    is the bordered minor det M[S + j, S + k]: each update (d x - f y) / prev
    divides exactly, and the step's LDL^T pivot is d / prev, whose sign is
    counted.  At the end `prev` is det M, or det is 0 once a zero row was
    counted; a symmetric permutation and the congruences keep det.
    - Order: while the pattern is sparse, `_by_pattern` takes pivots by
      fewest neighbours left on dict rows of nonzeros; from the start if
      some row is more than half zeros, and until a pivot has at least half
      the vertices left as neighbours.  After that, and for a matrix with no
      row more than half zeros, the pivot is the lowest vertex left with a
      nonzero diagonal, on list rows, with no ordering work, and every
      vertex left is its neighbour.
    - One triangle: row i keeps its entries from column i on; (j, k) is
      read from the row of min(j, k), and the pivot's row stands for its
      column (f = y[j]).
    - Lazy rows: a pivot rewrites only the rows it has a nonzero entry in.
      Any other row would only be scaled by d / prev, so each row keeps its
      level, the pivot it was last written at, and is scaled by prev / level
      when next read.  That division is exact too: the scaled entry is the
      bordered minor of the current S.
    When every diagonal left is zero, the lowest vertex i left takes row and
    column j added, j its lowest neighbour with an entry, which makes its
    diagonal 2 a_ij; with no such neighbour, i is a zero row and counts
    toward `zero`.  Both are congruences among the vertices left, which
    commute with the elimination.
    """
    n = len(a)
    level = [1] * n
    left = list(range(n))       # the vertices left, ascending
    pos = neg = zero = 0
    prev = 1
    if n and 2 * max(map(list.count, a, [0] * n)) > n:
        pos, neg, zero, prev = _by_pattern(a, level, left)
    while left:
        p = left[0]
        lower = ()
        if a[p][p]:
            del left[0]
        else:
            p = next((i for i in left if a[i][i]), None)
            if p is None:  # every diagonal left is zero
                for k in left:
                    if level[k] != prev:
                        _rescale(a[k], k, level[k], prev)
                        level[k] = prev
                p = left.pop(0)
                row = a[p]
                j = next((k for k in left if row[k]), None)
                if j is None:
                    zero += 1
                    continue
                for k in left:  # row and column j onto p; a_jj = 0
                    row[k] += a[j][k] if j <= k else a[k][j]
                row[p] = 2 * row[j]
            else:
                lower = left[:left.index(p)]
                left.remove(p)
        y = a[p]  # the pivot's row and, by symmetry, its column
        if level[p] != prev:
            _rescale(y, p, level[p], prev)
        if lower:
            y = [0] * p + y[p:]
            for k in lower:
                if a[k][p]:
                    y[k] = a[k][p] * prev // level[k]
        d = y[p]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for j in left:
            f = y[j]
            if f:
                row = a[j]
                if level[j] == prev:
                    row[j:] = [(d * x - f * v) // prev for x, v in zip(row[j:], y[j:])]
                else:
                    lvl = level[j]
                    dp = d * prev
                    row[j:] = [(dp * x // lvl - f * v) // prev
                               for x, v in zip(row[j:], y[j:])]
                level[j] = d
        prev = d
    return pos, neg, zero, 0 if zero else prev


def _by_pattern(a: list[list[int]], level: list[int], left: list[int]
                ) -> tuple[int, int, int, int]:
    """The pattern phase of `_symmetric_pivots`: (positive, negative, zero,
    last pivot) of the pivots it takes.

    Row i is a dict of its nonzero entries from column i on, so a pivot
    rewrites only its neighbours' nonzeros, and the pivot's column is popped
    out of the rows above it as it is read.  The next pivot is a vertex with
    a nonzero diagonal and the fewest neighbours left, lowest index on ties,
    read from the nonzero pattern and the fill each pivot adds (a heap of
    (neighbours, vertex)); a plumbing tree goes leaf first with no fill.
    The same heap takes a zero-diagonal vertex i with at most one neighbour:
    with none, or a zero entry, i is a zero row; with an entry x, i leaves
    with its neighbour j as one hyperbolic pair, counted (+1, -1).  i's
    column is zero but for j, and the inverse of the 2 x 2 block is zero in
    j's corner, so the Schur complement of the rest is unchanged and no fill
    is added; only the level moves, to det M[S + i + j] = -x^2 / prev, which
    divides exactly.  Once a pivot has at least half the vertices left as
    neighbours, the rows left are written out as lists, at their levels, for
    the index-order loop.
    """
    n = len(a)
    adj = [set(compress(range(n), row)) - {i} for i, row in enumerate(a)]
    rows: list[dict[int, int] | None] = [
        {k: row[k] for k in compress(range(i, n), row[i:])} for i, row in enumerate(a)]
    ready = [(len(adj[i]), i) for i in left if rows[i].get(i) or len(adj[i]) < 2]
    heapify(ready)
    pos = neg = zero = 0
    prev = 1
    while left:
        p = None
        while ready:
            deg, i = heappop(ready)
            if rows[i] is not None and deg == len(adj[i]) and (rows[i].get(i) or deg < 2):
                p = i
                break
        if p is None:  # every diagonal left is zero, every degree at least 2
            for k in left:
                if level[k] != prev:
                    s = level[k]
                    rows[k] = {c: x * prev // s for c, x in rows[k].items()}
                    level[k] = prev
            p = left[0]
            row = rows[p]
            j = min((k for k in adj[p] if row.get(k)), default=None)
            if j is not None:  # row and column j onto p; a_jj = 0, and p < k for all k
                for k in adj[j] - {p}:
                    x = rows[j].get(k) if j < k else rows[k].get(j)
                    if x:
                        row[k] = row.get(k, 0) + x
                    adj[k].add(p)
                row[p] = 2 * row[j]
                adj[p] |= adj[j]
                adj[p].discard(p)
        left.remove(p)
        if not rows[p].get(p):  # a zero row, or a zero leaf and its neighbour
            x = 0
            if len(adj[p]) == 1:
                j, = adj[p]
                lo, hi = min(p, j), max(p, j)
                x = rows[lo].get(hi, 0) * prev // level[lo]
            if x:
                pos += 1
                neg += 1
                prev = -x * x // prev
                left.remove(j)
                gone = (p, j)
            else:
                zero += 1
                gone = (p,)
            for g in gone:
                rows[g] = None
            for g in gone:
                for k in adj[g]:
                    if rows[k] is not None:
                        adj[k].discard(g)
                        rows[k].pop(g, None)
                        if rows[k].get(k) or len(adj[k]) < 2:
                            heappush(ready, (len(adj[k]), k))
            continue
        s = level[p]
        y = rows[p] if s == prev else {k: x * prev // s for k, x in rows[p].items()}
        rows[p] = None
        nbrs = adj[p]
        for k in nbrs:
            if k < p:
                x = rows[k].pop(p, 0)
                if x:
                    y[k] = x if level[k] == prev else x * prev // level[k]
        d = y.pop(p)
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for j in nbrs:
            f = y.get(j)
            if f:
                row, s = rows[j], level[j]
                if s == prev:
                    new = {k: (d * x - f * y.get(k, 0)) // prev for k, x in row.items()}
                else:
                    dp = d * prev
                    new = {k: (dp * x // s - f * y.get(k, 0)) // prev for k, x in row.items()}
                for k, v in y.items():  # fill
                    if k >= j and k not in new:
                        new[k] = -f * v // prev
                rows[j] = new
                level[j] = d
            nb = adj[j]  # the pivot's neighbours become a clique
            nb |= nbrs
            nb -= {j, p}
            if rows[j].get(j) or len(nb) < 2:
                heappush(ready, (len(nb), j))
        prev = d
        if 2 * len(nbrs) >= len(left):
            break
    for i in left:
        a[i] = [0] * n
        for k, x in rows[i].items():
            a[i][k] = x
    return pos, neg, zero, prev


def _rescale(row: list[int], i: int, lvl: int, prev: int) -> None:
    """Bring row i, written at level `lvl`, to level `prev`, in place."""
    row[i:] = [x * prev // lvl for x in row[i:]]


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
    form = _form(basis, (_matvec(linking, b) for b in basis))
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
