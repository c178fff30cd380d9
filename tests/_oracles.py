"""Independent oracles shared by the test modules; not part of kirbycalc."""

from fractions import Fraction

from kirbycalc.homology import IntMatrix, _pivot
from kirbycalc.legendrian import FrontDiagram, FrontEvent
from kirbycalc.scenarios import ScenarioError


def invert_rational(m) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of an integer matrix over Q by Gauss-Jordan on Fractions.

    Raises ZeroDivisionError if the matrix is singular.
    """
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(m.entries)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


# -- Smith elimination, one row or column operation per quotient -------------------
# The elimination `homology._diagonalize` ran before it folded each Euclid run
# into one 2x2 step and carried U and V as sparse rows.


def diagonalize_stepwise(m: IntMatrix, want_u: bool, want_v: bool
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
    """
    nr, nc = m.rows, m.cols
    s = m.to_lists()
    u = IntMatrix.identity(nr).to_lists() if want_u else None
    vt = IntMatrix.identity(nc).to_lists() if want_v else None  # V, column by column
    t = 0

    def row_sub(i: int, k: int, q: int) -> None:
        s[i][t:] = [x - q * y for x, y in zip(s[i][t:], s[k][t:])]
        if u is not None:
            u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j: int, k: int, q: int) -> None:
        for row in s[t:]:
            row[j] -= q * row[k]
        if vt is not None:
            vt[j] = [x - q * y for x, y in zip(vt[j], vt[k])]

    def row_swap(i: int, k: int) -> None:
        s[i], s[k] = s[k], s[i]
        if u is not None:
            u[i], u[k] = u[k], u[i]

    def col_swap(j: int, k: int) -> None:
        for row in s[t:]:
            row[j], row[k] = row[k], row[j]
        if vt is not None:
            vt[j], vt[k] = vt[k], vt[j]

    diag: list[int] = []
    while t < min(nr, nc):
        best = _pivot(s, t)
        if best is None:
            break
        if best[0] != t:
            row_swap(t, best[0])
        if best[1] != t:
            col_swap(t, best[1])

        while True:
            for i in range(t + 1, nr):
                while s[i][t]:
                    row_sub(i, t, s[i][t] // s[t][t])
                    if s[i][t]:
                        row_swap(i, t)
            for j in range(t + 1, nc):
                while s[t][j]:
                    col_sub(j, t, s[t][j] // s[t][t])
                    if s[t][j]:
                        col_swap(j, t)
            if any(s[i][t] for i in range(t + 1, nr)):
                continue
            pivot = s[t][t]
            if pivot in (1, -1):
                break
            # columns <= t of the rows below t are zero by now
            offender = next((i for i in range(t + 1, nr)
                             if any(x % pivot for x in s[i][t + 1:])), None)
            if offender is None:
                break
            row_sub(t, offender, -1)  # pull the offending row into row t
        if s[t][t] < 0 and u is not None:
            u[t] = [-x for x in u[t]]
        diag.append(abs(s[t][t]))
        t += 1
    return diag, u, vt


# -- seed enumerations of the closed models, by bitmask ---------------------------
# The loops the model builders used before they shared `swledger._sign_sums`.


def _seed_core_patterns(count: int, n_chains: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Deterministic (core signs, chain signs) seed representatives.

    Flipping an (f_j, g_j) pair keeps the square; distinct representatives
    are kept only when their negatives have not been chosen already.
    """
    reps: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    chosen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for core_mask in range(8):
        for delta_mask in range(1 << n_chains):
            core = tuple(-1 if core_mask >> j & 1 else 1 for j in range(3))
            delta = tuple(-1 if delta_mask >> j & 1 else 1 for j in range(n_chains))
            neg = (tuple(-c for c in core), tuple(-s for s in delta))
            if neg in chosen:
                continue
            chosen.add((core, delta))
            reps.append((core, delta))
            if len(reps) == count:
                return reps
    raise ScenarioError(f"cannot realize {2 * count} distinct seed classes")


def x0_seeds(p_list, rank: int, seed_count: int) -> list[tuple[int, ...]]:
    """The primal seeds of `build_X0_model(p_list, seed_count)` on a lattice of `rank`."""
    spheres = sum(p_list) % 2
    seeds = []
    for core, delta in _seed_core_patterns(seed_count // 2, len(p_list)):
        v = [0] * rank
        v[0:3] = core
        v[3:6] = core
        pos = 8 + spheres
        for i, p in enumerate(p_list):
            v[pos] = -delta[i]             # block part is -delta * e_i
            pos += p + 1
        seeds.append(tuple(v))
        seeds.append(tuple(-x for x in v))
    return seeds


def genus_seeds(n: int) -> list[tuple[int, ...]]:
    """The primal classes of `build_genus_model(n)`, one per bitmask."""
    rank = 2 + (n - 1) + 6
    seeds = []
    for bits in range(1 << n):
        v = [0] * rank
        s0 = -1 if bits & 1 else 1
        for j in range(3):
            v[1 + n + j] = s0
            v[4 + n + j] = s0
        for i in range(n - 1):
            v[2 + i] = -1 if bits >> (i + 1) & 1 else 1
        seeds.append(tuple(v))
    return seeds


# -- fronts ------------------------------------------------------------------------


def torus_knot_front_by_event(p: int, q: int) -> FrontDiagram:
    """The maximal-tb (p,q) torus front built one new event per crossing.

    The loop `legendrian.torus_knot_front` used before it repeated one
    tuple of crossings; p and q must be coprime and at least 2.
    """
    long, s = max(p, q), min(p, q)
    events = [FrontEvent("L", i) for i in range(1, s + 1)]
    for _ in range(long):
        events.extend(FrontEvent("X", i) for i in range(1, s))
    events.extend(FrontEvent("R", i) for i in range(s, 0, -1))
    return FrontDiagram(tuple(events))
