"""Independent oracles shared by the test modules; not part of kirbycalc."""

from fractions import Fraction

from kirbycalc.handles import HandleDecomposition
from kirbycalc.homology import IntMatrix, _euclid_run, _pairings
from kirbycalc.legendrian import FrontDiagram, FrontError, FrontEvent, parse_front, torus_knot_front
from kirbycalc.scenarios import ScenarioError
from kirbycalc.swledger import AdjunctionReport


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


def det_rational(m) -> int:
    """Determinant by forward Gaussian elimination over Q, on Fractions."""
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.entries]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            d = -d
        d *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return int(d)


# -- Smith elimination, one row or column operation per quotient -------------------
# A Smith elimination that keeps d1 | d2 | ... before each pivot is frozen: the
# reference for the diagonal, whose entries are unique.


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


# -- the surgery presentation as blocks ---------------------------------------------
# How `homology.surgery_presentation` assembled the presentation before it
# filled one symmetric matrix straight from the handle data.


def surgery_presentation_by_blocks(d: HandleDecomposition) -> IntMatrix:
    """[[Q, R^T], [R, 0]]: the linking matrix Q and the run-through matrix R,
    each read entry by entry through the decomposition's accessors."""
    ids = d.two_handle_ids
    q = [[d.framing(a) if a == b else d.link(a, b) for b in ids] for a in ids]
    r = [[d.run_through_count(k, h) for k in ids] for h in d.one_handles]
    n1 = len(r)
    r_cols = zip(*r) if r else [()] * len(q)
    rows = [q_row + list(r_col) for q_row, r_col in zip(q, r_cols)]
    rows += [r_row + [0] * n1 for r_row in r]
    return IntMatrix.from_rows(rows, cols=len(q) + n1)


# -- random tree plumbings, and two routes around the Smith form --------------------


NONZERO_FRAMINGS = tuple(f for f in range(-6, 7) if f)


def tree_plumbing(rng, n: int, framings=NONZERO_FRAMINGS) -> HandleDecomposition:
    """n framed unknots v0..v{n-1}, framings uniform on `framings` (+-1..+-6
    by default), each v_i, i >= 1, linked +1 to a uniform earlier one."""
    twos = tuple((f"v{i}", rng.choice(framings)) for i in range(n))
    links = {(f"v{rng.randrange(i)}", f"v{i}"): 1 for i in range(1, n)}
    return HandleDecomposition(two_handles=twos, links=links)


def tree_det(d: HandleDecomposition) -> int:
    """det of a plumbing tree's linking matrix, one subtree at a time.

    For the subtree below v, a = its determinant and b = that with v's row
    and column removed: a leaf has (w_v, 1), and hanging the subtree (a', b')
    of a child on v by a link l makes it (a a' - l^2 b b', b a'), since an
    expansion along v's row either fixes v or swaps it with that child.
    Children have larger indices than their parents in `tree_plumbing`, so
    one pass from the last vertex down folds each subtree into its parent.
    """
    index = {k: i for i, (k, _) in enumerate(d.two_handles)}
    ab = [[f, 1] for _, f in d.two_handles]
    edges = sorted(((max(index[x], index[y]), min(index[x], index[y]), lk)
                    for (x, y), lk in d.links.items()), reverse=True)
    for child, parent, lk in edges:
        (a, b), (a2, b2) = ab[parent], ab[child]
        ab[parent] = [a * a2 - lk * lk * b * b2, b * a2]
    return ab[0][0]


def tree_inertia(d: HandleDecomposition) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a plumbing forest's linking
    matrix, by peeling leaves over the rationals.

    A leaf of weight w linked l to its neighbour adds the sign of w, and the
    neighbour's weight drops by l^2 / w (the Schur complement of the leaf).
    A leaf of weight 0 spans a hyperbolic plane with its neighbour, so the
    two leave as one (+1, -1) pair; the inverse of that block is 0 in the
    neighbour's corner, so the neighbour's other links leave with it and
    change no weight.  A vertex with no link left adds the sign of its
    weight, a 0 to the zero count.
    """
    index = {k: i for i, (k, _) in enumerate(d.two_handles)}
    weight = [Fraction(f) for _, f in d.two_handles]
    links: list[dict[int, int]] = [{} for _ in weight]
    for (x, y), lk in d.links.items():
        if lk:
            links[index[x]][index[y]] = links[index[y]][index[x]] = lk
    counts = [0, 0, 0]
    gone = [False] * len(weight)
    leaves = [i for i, nb in enumerate(links) if len(nb) <= 1]

    def drop(v: int) -> None:
        gone[v] = True
        for u in links[v]:
            del links[u][v]
            if len(links[u]) <= 1:
                leaves.append(u)

    def count(w: Fraction) -> None:
        counts[0 if w > 0 else 1 if w < 0 else 2] += 1

    while leaves:
        v = leaves.pop()
        if gone[v]:
            continue
        if not links[v]:
            count(weight[v])
        elif weight[v]:
            (u, lk), = links[v].items()
            count(weight[v])
            weight[u] -= Fraction(lk * lk) / weight[v]
        else:
            (u, _), = links[v].items()
            counts[0] += 1
            counts[1] += 1
            drop(u)
        drop(v)
    if not all(gone):
        raise ValueError("the linking graph is not a forest")
    return counts[0], counts[1], counts[2]


def hermite_by_scans(vectors, width: int) -> tuple[tuple[int, ...], ...]:
    """Row HNF of the lattice spanned by `vectors`, the way
    `homology.hermite_row_basis` built it before it took leads by
    `compress` and rows by `bisect`, kept as written: each lead and each row
    position is found by a Python scan, every row step rewrites whole rows,
    and the final reduction reads every row above every pivot."""
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


def inertia_by_bareiss(m: IntMatrix) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia indices of a symmetric form.

    How `homology.inertia` eliminated before it took pivots in a
    fill-reducing order: index-order symmetric Bareiss over the whole
    trailing block, kept as written.

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


def rank_mod(rows, ell: int) -> int:
    """Rank over GF(ell) of an integer matrix given as rows.

    Sparse rows, last row first, each reduced against the kept rows at its
    last nonzero column; on a plumbing tree that eliminates leaves before
    their parents, which keeps the rows short."""
    kept: dict[int, dict[int, int]] = {}  # last column -> row with a 1 there
    for row in reversed(rows):
        r = {j: x % ell for j, x in enumerate(row) if x % ell}
        while r:
            lead = max(r)
            if lead not in kept:
                inv = pow(r[lead], -1, ell)
                kept[lead] = {j: x * inv % ell for j, x in r.items()}
                break
            f = r[lead]
            for j, x in kept[lead].items():
                y = (r.get(j, 0) - f * x) % ell
                if y:
                    r[j] = y
                else:
                    r.pop(j, None)
    return len(kept)


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


# -- genus queries, member by member -----------------------------------------------
# How `swledger.min_genus_bound` and `adjunction_check` paired alpha with every
# member of the set before they read its sign cube.


def genus_bound_by_members(model, beta, alpha) -> tuple[int, int]:
    """(largest |<K, alpha>|, least genus the adjunction bound allows, or 0)."""
    a2 = model.lattice.square(alpha)
    largest = max(map(abs, _pairings(beta.members, alpha)))
    return largest, max(0, -(-(a2 + largest + 2) // 2))


def adjunction_by_members(model, beta, alpha, genus: int) -> AdjunctionReport:
    """Every member K with alpha^2 + |<K, alpha>| > 2g - 2, in member order."""
    a2 = model.lattice.square(alpha)
    members = beta.members
    violators = [(kappa, pairing)
                 for kappa, pairing in zip(members, _pairings(members, alpha))
                 if a2 + abs(pairing) > 2 * genus - 2]
    return AdjunctionReport(genus, a2, tuple(violators))


# -- fronts ------------------------------------------------------------------------


def max_tb_torus_knot(p: int, q: int) -> int:
    """Maximal Thurston-Bennequin number pq - p - q of the positive (p,q) torus
    knot; p and q must be coprime and at least 2."""
    return p * q - p - q


def seifert_genus_torus_knot(p: int, q: int) -> int:
    """(p-1)(q-1)/2, the Seifert genus of the (p,q) torus knot."""
    return (p - 1) * (q - 1) // 2


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


# -- fronts by segments ------------------------------------------------------------
# The walk `legendrian._Analysis` ran before it labelled strands: every
# crossing opens two segments, and a half-edge `step` array is walked.


def analyse_by_segments(events: tuple[FrontEvent, ...]
                        ) -> tuple[tuple[tuple[int, int, int], ...], tuple[str | None, ...]]:
    """(writhe, tb, rotation) per component and the reversal's markers.

    A segment is a strand piece between two events.  Walking segment s
    rightward is the half-edge 2s + 1, leftward 2s; `step` maps each
    half-edge to the one the walk takes next, turning at a cusp and going
    straight on at a crossing.  Components are numbered by their first left
    cusp and walked from its upper strand going rightward.  Raises
    `FrontError` with the library's messages, in its order.
    """
    step: list[int] = []
    left_cusps: list[tuple[int, str | None]] = []   # (upper segment, marker)
    right_cusps: list[int] = []                     # upper segment
    crossings: list[tuple[int, int]] = []           # (over_in, under_in)
    current: list[int] = []
    for n_event, ev in enumerate(events):
        count = len(current)
        if not 1 <= ev.pos <= (count + 1 if ev.kind == "L" else count - 1):
            raise FrontError(
                f"invalid position {ev.kind}{ev.pos} with {count} strands "
                f"(event {n_event + 1})")
        i = ev.pos - 1
        if ev.kind == "L":
            # a segment's rightward step (0 here) is set by the event
            # that ends it
            s = len(step) // 2
            step += [2 * s + 3, 0, 2 * s + 1, 0]
            left_cusps.append((s, ev.orientation))
            current[i:i] = [s, s + 1]
        elif ev.kind == "R":
            a, b = current[i], current[i + 1]
            step[2 * a + 1], step[2 * b + 1] = 2 * b, 2 * a
            right_cusps.append(a)
            del current[i:i + 2]
        else:
            # the upper strand descends and passes in front
            over, under = current[i], current[i + 1]
            s = len(step) // 2
            step[2 * over + 1], step[2 * under + 1] = 2 * s + 3, 2 * s + 1
            step += [2 * under, 0, 2 * over, 0]
            crossings.append((over, under))
            current[i], current[i + 1] = s, s + 1
    if current:
        raise FrontError(f"front ends with {len(current)} open strands")

    n_seg = len(step) // 2
    comp: list[int] = [-1] * n_seg
    rightward = [False] * n_seg
    starts: list[int] = []      # first left cusp of each component
    for s, _ in left_cusps:
        if comp[s] < 0:
            h = 2 * s + 1
            while comp[h >> 1] < 0:
                comp[h >> 1], rightward[h >> 1] = len(starts), bool(h & 1)
                h = step[h]
            starts.append(s)
    n = len(starts)

    flipped: list[bool | None] = [None] * n
    for s, mark in left_cusps:
        if mark:
            flip = rightward[s] != (mark == "+")
            if flipped[comp[s]] not in (None, flip):
                raise FrontError("conflicting orientation markers on one component")
            flipped[comp[s]] = flip

    # reversing a component keeps the sign of its self-crossings, so the
    # walk's directions give the writhe before any marker flip
    writhe = [0] * n
    for over, under in crossings:
        if comp[over] == comp[under]:
            writhe[comp[over]] += 1 if rightward[over] == rightward[under] else -1
    right = [0] * n
    turn = [0] * n          # down cusps minus up cusps along the walk
    for s, _ in left_cusps:
        turn[comp[s]] += -1 if rightward[s] else 1
    for s in right_cusps:
        right[comp[s]] += 1
        turn[comp[s]] += 1 if rightward[s] else -1
    assert all(t % 2 == 0 for t in turn)

    components = tuple(
        (w, w - r, -t // 2 if f else t // 2)
        for w, r, t, f in zip(writhe, right, turn, flipped))
    # each component's first left cusp starts rightward unless its
    # markers flipped it; the reversal marks that cusp the other way
    reversal = tuple(
        None if starts[comp[s]] != s else "+" if flipped[comp[s]] else "-"
        for s, _ in left_cusps)
    return components, reversal


# -- catalog pieces, written out by hand -------------------------------------------
# B_p and the Stein D~_p as their builders stated them before they applied the
# rational-blowdown splice and the blow-down that define them.


def hand_written_Bp(p: int) -> HandleDecomposition:
    """Dotted circle b0 and a (p-1)-framed b1 running through it p times."""
    return HandleDecomposition(one_handles=("b0",), two_handles=(("b1", p - 1),),
                               run_through={("b1", "b0"): p}, name=f"B{p}")


def hand_written_Dp_tilde(p: int, prefix: str = ""):
    """The chain u_0 - ... - u_{p-2} - w, w of framing p^2 - p - 2 on a (p+1,p)
    torus front, and a 0-framed trefoil v_j on each unknot u_j."""
    trefoil, unknot = torus_knot_front(3, 2), parse_front("L1 R1")
    w = prefix + "w"
    us = [f"{prefix}u{j}" for j in range(p - 1)]
    twos = [(w, p * p - p - 2)] + [(u, -2) for u in us]
    chain = us + [w]
    links = {(a, b): 1 for a, b in zip(chain, chain[1:])}
    fronts = {w: torus_knot_front(p + 1, p)}
    fronts.update(dict.fromkeys(us, unknot))
    for j, u in enumerate(us):
        v = f"{prefix}v{j}"
        twos.append((v, 0))
        links[(v, u)] = 1
        fronts[v] = trefoil
    return HandleDecomposition(two_handles=tuple(twos), links=links,
                               name=f"D~{p}"), fronts
