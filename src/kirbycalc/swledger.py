"""Formal Seiberg-Witten calculus on intersection lattices.

Basic classes are carried in evaluation coordinates: a class K is stored as
the tuple of pairings of K against the lattice basis.  Every transformation
below consumes only such pairings, and evaluation coordinates survive a
rational blowdown (where the descended class is exactly its restriction to a
complement basis), so this is the uniform representation.  Squares of
classes are recovered exactly from the integer adjugate and determinant of
the pairing matrix, divided exactly, and must come out integral.  The
adjugate takes one factorization per connected block of the pairing, and
pairing rows are kept as their nonzero entries: the model pairings are
direct sums of small blocks, so duals, squares and characteristic checks
cost the nonzeros, not the square of the rank.  Squares take homology's
`adjugate`, and duals, pairings and Gram matrices its sparse form kernel,
`_matvec`, `_pairings` and `_form`; `dual_square` keeps its own fused loop
over the adjugate.

Basic-class sets are built and checked per sign cube, not per member: a
set is cores times the signs of its generators (the E-cube of a blow-up,
the cube +-K +- e_1 ... +- e_{n-1} of the genus model), and negation,
parity and distinctness are checked once per core.  The (member, weight)
pairs are sorted once, into the dict the set keeps.  Genus queries are
answered per cube as well: a set keeps its nonzero-weight cores and its
generators, and each generator's nonzero (j, x) entries, so
`min_genus_bound` reads the largest |<K, alpha>| as
max_c |<c, alpha>| + sum_i |<g_i, alpha>| from one pairing per core and per
generator, and `adjunction_check` walks the signs only down branches that
can still break the bound, building each violator from those entries.

Each lattice keeps one memo of squares, since a square depends only on the
lattice and the class.  It has two writers, the closed-model builder (a
seed square) and the blow-up (K^2 - n), and each writes the squares of the
one set it builds into the lattice it has just built, so a memo holds the
members of one set and nothing more.  `d_invariant`, `is_simple_type` and
`BasicClassSet.squares` read a checked class's square there, else take a
dual square, which is not stored; d itself is `_d` of that square, so
`is_simple_type` takes d once per distinct square, from the square it has
read.  A transform of a model and a set first checks that the two share one
pairing.

Each public entry checks each vector argument once, `IntersectionLattice._vector`:
integer entries, never truncated, and the rank as length.  Past it run the
kernels `_dual`, `_dual_square` and `_gram`, which check nothing.  Only
`is_characteristic_dual` skips the check, as no class of the wrong length is
characteristic.  A blow-up pads the names a lattice has and adds none.

The ledger transforms declared basic-class data; it does not compute SW
invariants from geometry.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, prod
from operator import add, index, itemgetter, neg
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .homology import IntMatrix, _dot, _form, _matvec, _pairings, adjugate

Vector = tuple[int, ...]


class LedgerError(ValueError):
    """An SW-ledger operation was applied outside its hypotheses."""


def _int(x: object, what: str) -> int:
    """x as an int, never truncated."""
    try:
        return index(x)
    except TypeError:
        raise LedgerError(f"{what} must be integers, got {x!r}") from None


_ODD = (1).__and__                  # k & 1, called from map without a Python frame
_INT = frozenset((int,))            # a constant, not a set built on every check
_FIRST = itemgetter(0)              # sort (member, weight) pairs by member alone


def _unit(rank: int, idx: int) -> Vector:
    return tuple(1 if j == idx else 0 for j in range(rank))


def _sign_sums(base: Sequence[int], gens: Sequence[Vector]) -> list[Vector]:
    """base + s_1 g_1 + ... + s_n g_n for every sign vector s in {1, -1}^n.

    Built column by column by doubling, so entry i gives generator j the
    sign -1 exactly where bit j of i is set; a column where g_j is 0 is
    repeated, and the rows are zipped from the columns at the end.
    """
    if not gens:
        return [tuple(base)]
    cols = []
    for j, b in enumerate(base):
        col = [b]
        for g in gens:
            x = g[j]
            col = [v + x for v in col] + [v - x for v in col] if x else col * 2
        cols.append(col)
    return list(zip(*cols)) if cols else [()] * (1 << len(gens))


def _direct_sum(blocks: Sequence[Sequence[Sequence[int]]]) -> list[list[int]]:
    """Block-diagonal matrix with the given square blocks in order."""
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


@dataclass(frozen=True)
class IntersectionLattice:
    """Free abelian group with a symmetric integer pairing and named vectors."""

    pairing: IntMatrix
    names: Mapping[str, Vector] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.pairing.is_symmetric():
            raise LedgerError("pairing matrix must be symmetric")
        names = {str(k): self._vector(v) for k, v in self.names.items()}
        object.__setattr__(self, "names", MappingProxyType(names))
        object.__setattr__(self, "_squares", {})     # the squares of one set built on it

    @property
    def rank(self) -> int:
        return self.pairing.rows

    def _vector(self, x: Sequence[int], what: str = "vector") -> Vector:
        """x as a tuple of ints of the lattice's rank; a tuple of ints is not copied."""
        if type(x) is not tuple or not set(map(type, x)) <= _INT:
            try:
                x = tuple(map(index, x))
            except TypeError as exc:
                raise LedgerError(f"vector entries must be integers: {exc}") from None
        if len(x) != self.rank:
            raise LedgerError(f"{what} length does not match lattice rank")
        return x

    def pair(self, x: Sequence[int], y: Sequence[int]) -> int:
        return _dot(self.dual(x), self._vector(y))

    def square(self, x: Sequence[int]) -> int:
        x = self._vector(x)             # one check, where pair(x, x) makes two
        return _dot(_matvec(self._rows, x), x)

    def dual(self, x: Sequence[int]) -> Vector:
        """Evaluation coordinates of a primal vector: (G x)_i = <x, b_i>."""
        return self._dual(self._vector(x))

    def _dual(self, x: Vector) -> Vector:
        return tuple(_matvec(self._rows, x))

    def dual_square(self, kappa: Sequence[int]) -> int:
        """Square of a class given in evaluation coordinates.

        This is kappa^T G^{-1} kappa, computed from the integer adjugate and
        determinant of G, divided exactly.  The result must be an integer
        for any class that restricts from an honest lattice; a non-integral
        value signals an inconsistent model.
        """
        return self._dual_square(self._vector(kappa))

    def _dual_square(self, kappa: Vector) -> int:
        det, adj = self._adjugate
        num = 0
        for k, row in zip(kappa, adj):
            if k:
                s = 0
                for j, a in row:
                    s += a * kappa[j]
                num += k * s
        square, rem = divmod(num, det)
        if rem:
            raise LedgerError(
                f"non-integral square {Fraction(num, det)} for {kappa}")
        return square

    def is_characteristic_dual(self, kappa: Sequence[int]) -> bool:
        return tuple(map(_ODD, kappa)) == self._diagonal_parity

    @cached_property
    def _diagonal_parity(self) -> Vector:
        return tuple(row[i] & 1 for i, row in enumerate(self.pairing.entries))

    def gram(self, vectors: Sequence[Sequence[int]]) -> IntMatrix:
        """Pairing matrix <v_i, v_j> of primal vectors, one dual per vector.

        Row i sums the dual of v_i over the v_j that hold its nonzero
        entries (`_form`).
        """
        return self._gram([self._vector(v) for v in vectors])

    def _gram(self, vectors: Sequence[Vector]) -> IntMatrix:
        return IntMatrix.from_rows(_form(vectors, [self._dual(v) for v in vectors]),
                                   len(vectors))

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each pairing row as its nonzero (j, g_ij) pairs."""
        return tuple(tuple((j, g) for j, g in enumerate(row) if g)
                     for row in self.pairing.entries)

    def _blocks(self) -> list[list[int]]:
        """Index lists of the connected blocks of the pairing, by least index."""
        rows = self._rows
        seen = [False] * self.rank
        blocks = []
        for start in range(self.rank):
            if seen[start]:
                continue
            seen[start] = True
            block, stack = [], [start]
            while stack:
                i = stack.pop()
                block.append(i)
                for j, _ in rows[i]:
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
            blocks.append(sorted(block))
        return blocks

    @cached_property
    def _adjugate(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """(det G, each row of adj G as its nonzero (j, a_ij) pairs).

        One adjugate runs per connected block b of G, on the first dual
        square.  det G is the product of the det_b, and adj G is block
        diagonal with block b equal to (det G / det_b) adj_b.  A degenerate
        pairing can still be constructed and inspected; only its dual
        squares raise.
        """
        entries = self.pairing.entries
        parts = []
        for block in self._blocks():
            sub = IntMatrix.from_rows([[entries[i][j] for j in block] for i in block],
                                      len(block))
            try:
                parts.append((block, *adjugate(sub)))
            except ValueError:
                raise LedgerError("degenerate pairing has no dual squares") from None
        total = prod(d for _, d, _ in parts)
        rows: list[tuple[tuple[int, int], ...]] = [()] * self.rank
        for block, d, adj in parts:
            scale = total // d
            for i, arow in zip(block, adj):
                rows[i] = tuple((j, scale * a) for j, a in zip(block, arow) if a)
        return total, tuple(rows)


@dataclass(frozen=True)
class ManifoldModel:
    """Closed-manifold stand-in: lattice plus Euler number, signature, b2+."""

    lattice: IntersectionLattice
    euler: int
    signature: int
    b2plus: int

    def require_sw_hypotheses(self) -> None:
        if self.b2plus <= 1:
            raise LedgerError("SW operations require b2+ > 1")


@dataclass(frozen=True)
class BasicClassSet:
    """Finite weighted set of basic classes in evaluation coordinates.

    Weights are the (formal) SW values; they default to +-1 and must be
    nonzero.  The set is closed under negation and every member is
    characteristic -- both are checked at construction time.

    The set is built from a sign cube: each class c of `weights` is a core
    standing for the 2^n members c + s_1 g_1 + ... + s_n g_n, s in
    {1, -1}^n, of the core's weight, where g_1 ... g_n are the
    `generators` (none by default, so the members are the cores).  Every
    check runs once per core, not per member: the members are counted, so
    none repeats; a cube of distinct members is closed under negation
    exactly when its cores are; and every member of core c has the parity
    of c + g_1 + ... + g_n.  A failed check names a member that breaks it.
    The cores of nonzero weight and the generators are kept as the cube,
    which the genus queries read in place of the members.
    """

    lattice: IntersectionLattice
    weights: Mapping[Vector, int] = field(default_factory=dict)
    generators: InitVar[Sequence[Sequence[int]]] = ()

    def __post_init__(self, generators: Sequence[Sequence[int]]) -> None:
        cores = {}
        for kappa, value in self.weights.items():
            kappa = self.lattice._vector(kappa, "class")
            if value == 0:
                continue
            cores[kappa] = _int(value, "weights")
        gens = tuple(self.lattice._vector(g, "generator") for g in generators)
        pairs = [(kappa, value) for c, value in cores.items()
                 for kappa in _sign_sums(c, gens)]
        w = dict(sorted(pairs, key=_FIRST))
        if len(w) != len(pairs):
            seen = set()
            for kappa, _ in pairs:          # in generation order, the one named
                if kappa in seen:
                    raise LedgerError(f"class {kappa} occurs more than once in the cube")
                seen.add(kappa)
        top = [sum(col) for col in zip(*gens)]      # c + top is a member of core c
        characteristic = self.lattice.is_characteristic_dual
        for kappa in cores:
            if tuple(map(neg, kappa)) not in cores:
                bad = next(m for m, _ in pairs if tuple(map(neg, m)) not in w)
                raise LedgerError(f"set is not closed under negation at {bad}")
            if gens:
                kappa = tuple(map(add, kappa, top))
            if not characteristic(kappa):
                raise LedgerError(f"class {kappa} is not characteristic")
        object.__setattr__(self, "weights", MappingProxyType(w))
        object.__setattr__(self, "_simple_type", set())
        object.__setattr__(self, "_cube", (tuple(cores), gens))
        object.__setattr__(self, "_supports", tuple(
            tuple((j, x) for j, x in enumerate(g) if x) for g in gens))

    @classmethod
    def from_primal(cls, lattice: IntersectionLattice,
                    vectors: Iterable[Sequence[int]]) -> "BasicClassSet":
        """Classes given as primal vectors, each of weight 1 (repeats add up)."""
        return cls(lattice, Counter(map(lattice.dual, vectors)))

    @property
    def members(self) -> tuple[Vector, ...]:
        return tuple(self.weights)

    @property
    def count(self) -> int:
        return len(self.weights)

    def squares(self) -> dict[Vector, int]:
        return {k: _square(self.lattice, k) for k in self.members}


# -- pointwise invariants --------------------------------------------------------


def _square(lattice: IntersectionLattice, kappa: Vector) -> int:
    """Square of a checked class: the one its set's builder stored, else a dual square."""
    square = lattice._squares.get(kappa)
    return lattice._dual_square(kappa) if square is None else square


def _d(model: ManifoldModel, square: int) -> int:
    """d of a class of the given square; the caller of the public entry is warned."""
    num = square - 2 * model.euler - 3 * model.signature
    if num % 4:
        raise LedgerError(
            f"K^2 - 2e - 3sigma = {num} is not divisible by 4; model is inconsistent")
    d = num // 4
    if d % 2:
        warnings.warn(f"d-invariant {d} is odd; expected an even integer",
                      stacklevel=3)
    return d


def d_invariant(model: ManifoldModel, kappa: Sequence[int]) -> int:
    """(K^2 - 2e - 3sigma) / 4 for a class in evaluation coordinates.

    Raises when the numerator is not divisible by 4 (an inconsistent model);
    an odd result is returned but flagged with a warning, since for honest
    closed models the value is even.
    """
    lattice = model.lattice
    return _d(model, _square(lattice, lattice._vector(kappa)))


def _require_same_pairing(model: ManifoldModel, beta: BasicClassSet) -> None:
    """Raise unless beta's pairing is the model's: verdicts and squares read
    on one lattice are kept for the other."""
    if beta.lattice is not model.lattice and beta.lattice.pairing != model.lattice.pairing:
        raise LedgerError("basic-class set and model have different pairings")


def is_simple_type(model: ManifoldModel, beta: BasicClassSet) -> bool:
    """Simple type: d(K) = 0, i.e. K^2 = 2e + 3sigma, for every basic class.

    The verdict depends on the model only through 2e + 3sigma, and d on the
    class only through its square, so d is taken once per distinct square,
    for the first member that carries it.  A passing verdict is remembered
    on the set under that key, which the set's one pairing makes sound; a
    failing one is not, so its odd-d warning repeats on every call.
    """
    _require_same_pairing(model, beta)
    key = 2 * model.euler + 3 * model.signature
    if key in beta._simple_type:
        return True
    seen = set()
    for kappa in beta.members:
        square = _square(model.lattice, kappa)
        if square not in seen:
            seen.add(square)
            if _d(model, square):
                return False
    beta._simple_type.add(key)
    return True


# -- blow-up ---------------------------------------------------------------------


def _extend_lattice(lattice: IntersectionLattice, n: int) -> IntersectionLattice:
    """The lattice plus n orthogonal, unnamed classes of square -1; names are padded."""
    rows = _direct_sum([lattice.pairing.entries] + [[[-1]]] * n)
    names = {k: v + (0,) * n for k, v in lattice.names.items()}
    return IntersectionLattice(IntMatrix.from_rows(rows, lattice.rank + n), names)


def blow_up_basic_classes(model: ManifoldModel, beta: BasicClassSet,
                          n: int) -> tuple[ManifoldModel, BasicClassSet]:
    """All sign combinations K +- E_1 +- ... +- E_n on the extended lattice.

    The lattice gains n orthogonal classes of square -1, the Euler number
    rises by n and the signature drops by n; weights are carried unchanged,
    so the class count multiplies by exactly 2^n.  The new set is beta's
    cores times the E-cube, and each member's square is K^2 - n.
    """
    n = _int(n, "blow-up counts")
    if n < 0:
        raise LedgerError("cannot blow up a negative number of times")
    if beta.count == 0:
        raise LedgerError("blow-up formula needs a non-empty basic-class set")
    model.require_sw_hypotheses()
    _require_same_pairing(model, beta)
    if n == 0:
        return model, beta
    r = model.lattice.rank
    lattice = _extend_lattice(model.lattice, n)
    # <K + sum s_i E_i, E_j> = -s_j, so the generators are the duals -e_{r+j}
    # of E_n ... E_1; in that order the cube comes out sorted
    pad = (0,) * n
    gens = [tuple(-x for x in _unit(r + n, r + j)) for j in reversed(range(n))]
    out = BasicClassSet(lattice, {kappa + pad: w for kappa, w in beta.weights.items()},
                        gens)
    try:
        squares = beta.squares()
    except LedgerError:         # squares that do not exist stay uncomputed
        pass
    else:
        # sorted members run core by core, as the E-coordinates come last
        members, size = out.members, 1 << n
        for i, kappa in enumerate(beta.members):
            lattice._squares.update(dict.fromkeys(members[i * size:(i + 1) * size],
                                                  squares[kappa] - n))
    new_model = ManifoldModel(lattice, model.euler + n, model.signature - n,
                              model.b2plus)
    return new_model, out


# -- adjunction and genus bounds ---------------------------------------------------


@dataclass(frozen=True)
class AdjunctionReport:
    genus: int
    alpha_square: int
    violators: tuple[tuple[Vector, int], ...]   # (class, pairing) breaking the bound

    @property
    def ok(self) -> bool:
        return not self.violators           # failures() yields exactly when there are any

    def failures(self) -> Iterator[str]:
        for kappa, pairing in self.violators[:1]:
            yield (f"{len(self.violators)} class(es) break alpha^2 + |<K, alpha>| <= 2g - 2 "
                   f"for g={self.genus}, first {kappa} with <K, alpha> = {pairing}")


def _genus_query(model: ManifoldModel, beta: BasicClassSet,
                 alpha: Sequence[int]) -> tuple[Vector, int]:
    model.require_sw_hypotheses()
    if not is_simple_type(model, beta):
        raise LedgerError("adjunction needs a simple-type model")
    alpha = model.lattice._vector(alpha)
    return alpha, _dot(model.lattice._dual(alpha), alpha)


def _largest_pairing(beta: BasicClassSet, alpha: Sequence[int]) -> int:
    """max |<K, alpha>| over the members: max_c |<c, alpha>| + sum_i |<g_i, alpha>|.

    For each core the signs s_i that agree with the sign of <c, alpha>
    reach the sum, and no member of that core can pass it.
    """
    cores, gens = beta._cube
    return max(map(abs, _pairings(cores, alpha))) + sum(map(abs, _pairings(gens, alpha)))


def _member(core: Vector, signs: Sequence[int],
            supports: Sequence[tuple[tuple[int, int], ...]]) -> Vector:
    """core + s_1 g_1 + ... + s_n g_n, each g_i given as its nonzero (j, x) entries."""
    out = list(core)
    for s, g in zip(signs, supports):
        for j, x in g:
            out[j] += s * x
    return tuple(out)


def adjunction_check(model: ManifoldModel, beta: BasicClassSet, alpha: Sequence[int],
                     genus: int) -> AdjunctionReport:
    """Check alpha^2 + |<K, alpha>| <= 2g - 2 for every basic class K.

    The violators are found by a walk over the signs of each core, in exact
    integers.  With b_i = <g_i, alpha>, a branch whose pairing so far is acc
    at generator t is dropped once |acc| + |b_t| + ... + |b_n| is within the
    bound, as no choice of the signs left can break it, so every branch
    kept ends in a violator.  Only the violators are built, and they are
    sorted, as the members are.
    """
    genus = _int(genus, "genera")
    if genus < 1:
        raise LedgerError("adjunction requires genus >= 1")
    alpha, a2 = _genus_query(model, beta, alpha)
    limit = 2 * genus - 2 - a2          # K violates when |<K, alpha>| > limit
    cores, gens = beta._cube
    b = _pairings(gens, alpha)
    rest = list(accumulate(map(abs, reversed(b)), initial=0))[::-1]
    n = len(gens)
    violators = []
    for core, pairing in zip(cores, _pairings(cores, alpha)):
        if abs(pairing) + rest[0] <= limit:
            continue
        stack = [(0, pairing, ())]
        while stack:
            t, acc, signs = stack.pop()
            if t == n:
                violators.append((_member(core, signs, beta._supports), acc))
                continue
            bt, r = b[t], rest[t + 1]
            if abs(acc + bt) + r > limit:
                stack.append((t + 1, acc + bt, signs + (1,)))
            if abs(acc - bt) + r > limit:
                stack.append((t + 1, acc - bt, signs + (-1,)))
    violators.sort()
    return AdjunctionReport(genus, a2, tuple(violators))


def min_genus_bound(model: ManifoldModel, beta: BasicClassSet,
                    alpha: Sequence[int]) -> int:
    """Least genus >= 1 allowed by adjunction for a surface representing alpha.

    Returns 0 (no constraint) when the adjunction bound is vacuous, which
    can only happen for alpha of negative square; a warning flags that case
    since the inequality as stated needs genus > 0.
    """
    alpha, a2 = _genus_query(model, beta, alpha)
    if beta.count == 0:
        raise LedgerError("genus bound needs a non-empty basic-class set")
    worst = a2 + _largest_pairing(beta, alpha) + 2
    bound = -(-worst // 2)
    if bound < 1:
        if a2 < 0:
            warnings.warn("alpha^2 < 0: adjunction gives no genus constraint",
                          stacklevel=2)
        return 0
    return bound


# -- rational blowdown --------------------------------------------------------------


def _lift_ok(vals: Sequence[int]) -> bool:
    """The lift condition on the pairings <K, u_1> ... <K, u_{p-1}>."""
    return not any(vals[:-1]) and abs(vals[-1]) == len(vals) + 1


def _restrictions(classes: Sequence[Vector], chain: Sequence[Vector],
                  complement_basis: Sequence[Vector]) -> list[tuple[Vector, Vector]]:
    """(lift pairings, restriction profile) of each class, in order.

    The lift pairings are <K, u_1> ... <K, u_{p-1}> over the primal chain
    vectors, which `_lift_ok` judges; the profile is the evaluation of K on
    the complement basis, which decides its restriction.  Each vector is
    paired with every class at once, over the vector's nonzero entries.
    """
    cols = [_pairings(classes, v) for v in (*chain, *complement_basis)]
    cut = len(chain)
    return [(row[:cut], row[cut:]) for row in zip(*cols)]


def rational_blowdown_descend(
        model: ManifoldModel, beta: BasicClassSet,
        chain: Sequence[Sequence[int]],
        complement_basis: Sequence[Sequence[int]],
) -> tuple[ManifoldModel, BasicClassSet]:
    """Descend basic classes through a rational blowdown of the chain.

    Every class must satisfy the lift condition; each distinct restriction
    to the complement basis yields one descended class with its SW weight
    carried over.  The descended model keeps b2+, loses p-1 from b2-, and
    its pairing is the Gram matrix of the complement basis, so descended
    squares (hence d-invariants) are computed honestly rather than copied.
    """
    if not chain:
        raise LedgerError("rational blowdown needs p >= 2")
    model.require_sw_hypotheses()
    _require_same_pairing(model, beta)
    p = len(chain) + 1
    lat = model.lattice
    chain = [lat._vector(u) for u in chain]
    complement_basis = [lat._vector(c) for c in complement_basis]
    if len(complement_basis) != lat.rank - (p - 1):
        raise LedgerError(
            f"complement basis must have rank {lat.rank - (p - 1)}")
    for u in chain:
        if any(_pairings(complement_basis, lat._dual(u))):
            raise LedgerError("complement basis vector pairs with the chain")
    gram = lat._gram(complement_basis)

    new_weights: dict[Vector, int] = {}
    table = _restrictions(beta.members, chain, complement_basis)
    for (kappa, w), (lift, rho) in zip(beta.weights.items(), table):
        if not _lift_ok(lift):
            raise LedgerError(f"class {kappa} is not eligible for the blowdown")
        if rho in new_weights and new_weights[rho] != w:
            raise LedgerError(
                "restriction collision with differing SW values; model inconsistent")
        new_weights[rho] = w

    new_lat = IntersectionLattice(gram)
    new_model = ManifoldModel(new_lat, model.euler - (p - 1),
                              model.signature + (p - 1), model.b2plus)
    return new_model, BasicClassSet(new_lat, new_weights)


# -- Alexander polynomials and knot surgery -------------------------------------------


@dataclass(frozen=True)
class LaurentPolynomial:
    """Laurent polynomial with integer coefficients, keyed by exponent."""

    coeffs: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cleaned = {_int(e, "exponents"): _int(c, "coefficients")
                   for e, c in self.coeffs.items() if c}
        object.__setattr__(self, "coeffs", MappingProxyType(dict(sorted(cleaned.items()))))

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        acc: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return LaurentPolynomial(acc)

    def __call__(self, value: int) -> int:
        """Exact value at t = 1 or t = -1, where t^e = t^(e mod 2)."""
        if value not in (1, -1):
            raise LedgerError(f"evaluation is defined at t = +-1 only, not {value!r}")
        return sum(c * value ** (e % 2) for e, c in self.coeffs.items())

    def is_symmetric(self) -> bool:
        return all(self.coeffs.get(-e, 0) == c for e, c in self.coeffs.items())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def alexander_polynomial_torus(p: int, q: int) -> LaurentPolynomial:
    """Symmetrized (t^{pq}-1)(t-1) / ((t^p-1)(t^q-1)) of the (p,q) torus knot.

    The quotient is (1 - t) times the series of the semigroup S = <p, q>,
    so the coefficient of t^n is [n in S] - [n-1 in S] for
    0 <= n <= (p-1)(q-1), the degree; S holds every n from there on.
    """
    p, q = _int(p, "torus-knot parameters"), _int(q, "torus-knot parameters")
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise LedgerError(f"({p},{q}) is not a coprime torus-knot pair")
    degree = (p - 1) * (q - 1)
    in_s = [True] + [False] * degree
    for n in range(1, degree + 1):
        in_s[n] = (n >= p and in_s[n - p]) or (n >= q and in_s[n - q])
    shift = degree // 2
    return LaurentPolynomial({n - shift: in_s[n] - (n > 0 and in_s[n - 1])
                              for n in range(degree + 1)})


def knot_surgery_basic_classes(model: ManifoldModel, beta: BasicClassSet,
                               torus: Sequence[int],
                               alexander: LaurentPolynomial) -> BasicClassSet:
    """Transform basic classes by surgery along a square-zero torus.

    New classes are K + 2jT for every nonzero coefficient a_j of the
    Alexander polynomial, with weights multiplied by a_j; coincident classes
    accumulate and cancel as in the formal product of SW series by the
    polynomial evaluated at exp(2 T).
    """
    lat = model.lattice
    model.require_sw_hypotheses()
    _require_same_pairing(model, beta)
    torus = lat._vector(torus)
    t_dual = lat._dual(torus)
    if _dot(t_dual, torus) != 0:
        raise LedgerError("knot surgery needs a square-zero torus class")
    if gcd(*torus) != 1:
        raise LedgerError("torus class must be primitive")
    acc: dict[Vector, int] = {}
    for kappa, w in beta.weights.items():
        for j, aj in alexander.coeffs.items():
            new = tuple(k + 2 * j * t for k, t in zip(kappa, t_dual))
            acc[new] = acc.get(new, 0) + w * aj
    return BasicClassSet(lat, acc)


# -- random generation helpers (used by property and acceptance tests) ----------------


def random_characteristic_vector(lattice: IntersectionLattice, rng) -> Vector:
    """A random primal characteristic vector of the lattice.

    The parity system G x = diag(G) mod 2 is always solvable for a symmetric
    integer matrix: x^T G x = diag(G) . x mod 2, so diag(G) is orthogonal to
    the kernel of G mod 2, which is the kernel of its transpose.
    Gauss-Jordan elimination over GF(2), each row a bit mask with the right
    side as bit n, solves it with every free coordinate 0; a random even
    vector is added on top.
    """
    n = lattice.rank
    rows = [sum((g & 1) << j for j, g in enumerate(row)) | d << n
            for row, d in zip(lattice.pairing.entries, lattice._diagonal_parity)]
    pivots: list[int] = []                 # column of rows[r] for r < len(pivots)
    for j in range(n):
        r = len(pivots)
        k = next((k for k in range(r, n) if rows[k] >> j & 1), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        for i in range(n):
            if i != r and rows[i] >> j & 1:
                rows[i] ^= rows[r]
        pivots.append(j)
    base = [0] * n
    for r, j in enumerate(pivots):
        base[j] = rows[r] >> n & 1
    return tuple(b + 2 * rng.randrange(-2, 3) for b in base)
