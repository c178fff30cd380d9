"""Independent oracles shared by the test modules; not part of kirbycalc."""

from fractions import Fraction

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
    """The primal seeds of `build_genus_model(n)`, in order."""
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
