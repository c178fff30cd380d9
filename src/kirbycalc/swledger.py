"""Formal Seiberg-Witten calculus on intersection lattices.

Basic classes are carried in evaluation coordinates: a class K is stored as
the tuple of pairings of K against the lattice basis.  Every transformation
below consumes only such pairings, and evaluation coordinates survive a
rational blowdown (where the descended class is exactly its restriction to a
complement basis), so this is the uniform representation.  Squares of
classes are recovered exactly from the integer adjugate and determinant of
the pairing matrix, divided exactly, and must come out integral.

The ledger transforms declared basic-class data; it does not compute SW
invariants from geometry.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .homology import IntMatrix, _dot, adjugate, smith_normal_form

Vector = tuple[int, ...]


class LedgerError(ValueError):
    """An SW-ledger operation was applied outside its hypotheses."""


def _vec(x: Sequence[int]) -> Vector:
    return tuple(int(v) for v in x)


def _unit(rank: int, idx: int) -> Vector:
    return tuple(1 if j == idx else 0 for j in range(rank))


def _sign_sums(base: Sequence[int], gens: Sequence[Vector]) -> list[Vector]:
    """base + s_1 g_1 + ... + s_n g_n for every sign vector s in {1, -1}^n.

    Built by doubling, so entry i gives generator j the sign -1 exactly
    where bit j of i is set.
    """
    out = [tuple(base)]
    for g in gens:
        neg = tuple(-x for x in g)
        out = [tuple(map(add, v, h)) for h in (g, neg) for v in out]
    return out


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
        names = {str(k): _vec(v) for k, v in self.names.items()}
        for k, v in names.items():
            if len(v) != self.rank:
                raise LedgerError(f"named vector {k!r} has wrong length")
        object.__setattr__(self, "names", MappingProxyType(names))

    @property
    def rank(self) -> int:
        return self.pairing.rows

    def pair(self, x: Sequence[int], y: Sequence[int]) -> int:
        gx = self.dual(x)
        return _dot(gx, y)

    def square(self, x: Sequence[int]) -> int:
        return self.pair(x, x)

    def dual(self, x: Sequence[int]) -> Vector:
        """Evaluation coordinates of a primal vector: (G x)_i = <x, b_i>."""
        if len(x) != self.rank:
            raise LedgerError("vector length does not match lattice rank")
        g = self.pairing
        return tuple(_dot(g.row(i), x) for i in range(self.rank))

    def dual_square(self, kappa: Sequence[int]) -> int:
        """Square of a class given in evaluation coordinates.

        This is kappa^T G^{-1} kappa, computed from the integer adjugate and
        determinant of G, divided exactly.  The result must be an integer
        for any class that restricts from an honest lattice; a non-integral
        value signals an inconsistent model.
        """
        if len(kappa) != self.rank:
            raise LedgerError("vector length does not match lattice rank")
        det, adj = self._adjugate
        num = sum(k * _dot(row, kappa) for k, row in zip(kappa, adj) if k)
        square, rem = divmod(num, det)
        if rem:
            raise LedgerError(
                f"non-integral square {Fraction(num, det)} for {tuple(kappa)}")
        return square

    def is_characteristic_dual(self, kappa: Sequence[int]) -> bool:
        diag = self._diagonal
        return all((kappa[i] - diag[i]) % 2 == 0 for i in range(self.rank))

    @cached_property
    def _diagonal(self) -> Vector:
        return tuple(row[i] for i, row in enumerate(self.pairing.entries))

    def gram(self, vectors: Sequence[Sequence[int]]) -> IntMatrix:
        """Pairing matrix <v_i, v_j> of primal vectors, one dual per vector."""
        duals = [self.dual(v) for v in vectors]
        return IntMatrix.from_rows([[_dot(gv, w) for w in vectors] for gv in duals],
                                   len(duals))

    @cached_property
    def _adjugate(self) -> tuple[int, tuple[Vector, ...]]:
        """(det G, adj G), computed on the first dual square.

        A degenerate pairing can still be constructed and inspected; only
        its dual squares raise.
        """
        try:
            return adjugate(self.pairing)
        except ValueError:
            raise LedgerError("degenerate pairing has no dual squares") from None


def is_characteristic(lattice: IntersectionLattice, k: Sequence[int]) -> bool:
    """True iff <K, x> = <x, x> mod 2 for every basis vector x."""
    return lattice.is_characteristic_dual(lattice.dual(k))


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
    """

    lattice: IntersectionLattice
    weights: Mapping[Vector, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        w = {}
        for kappa, value in self.weights.items():
            kappa = _vec(kappa)
            if len(kappa) != self.lattice.rank:
                raise LedgerError("class length does not match lattice rank")
            if value == 0:
                continue
            w[kappa] = int(value)
        for kappa in w:
            if tuple(-x for x in kappa) not in w:
                raise LedgerError(f"set is not closed under negation at {kappa}")
            if not self.lattice.is_characteristic_dual(kappa):
                raise LedgerError(f"class {kappa} is not characteristic")
        object.__setattr__(self, "weights", MappingProxyType(dict(sorted(w.items()))))
        object.__setattr__(self, "_squares", {})

    @classmethod
    def from_primal(cls, lattice: IntersectionLattice,
                    vectors: Iterable[Sequence[int]]) -> "BasicClassSet":
        """Classes given as primal vectors, each of weight 1 (repeats add up)."""
        return cls(lattice, Counter(lattice.dual(_vec(v)) for v in vectors))

    @property
    def members(self) -> tuple[Vector, ...]:
        return tuple(self.weights)

    @property
    def count(self) -> int:
        return len(self.weights)

    def squares(self) -> dict[Vector, int]:
        return {k: self._square(k) for k in self.members}

    def _square(self, kappa: Vector) -> int:
        """Dual square of a member, computed once per set."""
        memo = self._squares
        if kappa not in memo:
            memo[kappa] = self.lattice.dual_square(kappa)
        return memo[kappa]


# -- pointwise invariants --------------------------------------------------------


def d_invariant(model: ManifoldModel, kappa: Sequence[int], *,
                square: int | None = None) -> int:
    """(K^2 - 2e - 3sigma) / 4 for a class in evaluation coordinates.

    Raises when the numerator is not divisible by 4 (an inconsistent model);
    an odd result is returned but flagged with a warning, since for honest
    closed models the value is even.
    """
    if square is None:
        square = model.lattice.dual_square(kappa)
    num = square - 2 * model.euler - 3 * model.signature
    if num % 4:
        raise LedgerError(
            f"K^2 - 2e - 3sigma = {num} is not divisible by 4; model is inconsistent")
    d = num // 4
    if d % 2:
        warnings.warn(f"d-invariant {d} is odd; expected an even integer",
                      stacklevel=2)
    return d


def d_invariant_primal(model: ManifoldModel, k: Sequence[int]) -> int:
    return d_invariant(model, model.lattice.dual(k),
                       square=model.lattice.square(k))


def is_simple_type(model: ManifoldModel, beta: BasicClassSet) -> bool:
    """Simple type: d(K) = 0, i.e. K^2 = 2e + 3sigma, for every basic class."""
    return all(d_invariant(model, kappa, square=beta._square(kappa)) == 0
               for kappa in beta.members)


# -- blow-up ---------------------------------------------------------------------


def _extend_lattice(lattice: IntersectionLattice, n: int) -> IntersectionLattice:
    r = lattice.rank
    rows = _direct_sum([lattice.pairing.entries] + [[[-1]]] * n)
    names = {k: v + (0,) * n for k, v in lattice.names.items()}
    base = sum(1 for k in lattice.names if k.startswith("E"))
    for i in range(n):
        names[f"E{base + i + 1}"] = _unit(r + n, r + i)
    return IntersectionLattice(IntMatrix.from_rows(rows, r + n), names)


def blow_up_basic_classes(model: ManifoldModel, beta: BasicClassSet,
                          n: int) -> tuple[ManifoldModel, BasicClassSet]:
    """All sign combinations K +- E_1 +- ... +- E_n on the extended lattice.

    The lattice gains n orthogonal classes of square -1, the Euler number
    rises by n and the signature drops by n; weights are carried unchanged,
    so the class count multiplies by exactly 2^n.
    """
    if n < 0:
        raise LedgerError("cannot blow up a negative number of times")
    if beta.count == 0:
        raise LedgerError("blow-up formula needs a non-empty basic-class set")
    model.require_sw_hypotheses()
    if n == 0:
        return model, beta
    lattice = _extend_lattice(model.lattice, n)
    # <K + sum s_i E_i, E_i> = -s_i, and the signs s run over all of {1, -1}^n
    tails = _sign_sums((0,) * n, [_unit(n, i) for i in range(n)])
    new_weights = {kappa + tail: w for kappa, w in beta.weights.items() for tail in tails}
    new_model = ManifoldModel(lattice, model.euler + n, model.signature - n,
                              model.b2plus)
    return new_model, BasicClassSet(lattice, new_weights)


# -- adjunction and genus bounds ---------------------------------------------------


@dataclass(frozen=True)
class AdjunctionReport:
    ok: bool
    genus: int
    alpha_square: int
    violators: tuple[tuple[Vector, int], ...]   # (class, pairing) breaking the bound


def _require_simple_type(model: ManifoldModel, beta: BasicClassSet) -> None:
    if not is_simple_type(model, beta):
        raise LedgerError("adjunction needs a simple-type model")


def adjunction_check(model: ManifoldModel, beta: BasicClassSet, alpha: Sequence[int],
                     genus: int) -> AdjunctionReport:
    """Check alpha^2 + |<K, alpha>| <= 2g - 2 for every basic class K."""
    if genus < 1:
        raise LedgerError("adjunction requires genus >= 1")
    model.require_sw_hypotheses()
    _require_simple_type(model, beta)
    a2 = model.lattice.square(alpha)
    bound = 2 * genus - 2
    violators = []
    for kappa in beta.members:
        pairing = _dot(kappa, alpha)
        if a2 + abs(pairing) > bound:
            violators.append((kappa, pairing))
    return AdjunctionReport(not violators, genus, a2, tuple(violators))


def min_genus_bound(model: ManifoldModel, beta: BasicClassSet,
                    alpha: Sequence[int]) -> int:
    """Least genus >= 1 allowed by adjunction for a surface representing alpha.

    Returns 0 (no constraint) when the adjunction bound is vacuous, which
    can only happen for alpha of negative square; a warning flags that case
    since the inequality as stated needs genus > 0.
    """
    model.require_sw_hypotheses()
    _require_simple_type(model, beta)
    if beta.count == 0:
        raise LedgerError("genus bound needs a non-empty basic-class set")
    a2 = model.lattice.square(alpha)
    worst = max(a2 + abs(_dot(kappa, alpha)) + 2 for kappa in beta.members)
    bound = -(-worst // 2)
    if bound < 1:
        if a2 < 0:
            warnings.warn("alpha^2 < 0: adjunction gives no genus constraint",
                          stacklevel=2)
        return 0
    return bound


# -- rational blowdown --------------------------------------------------------------


def rbd_lift_eligible(kappa: Sequence[int], chain: Sequence[Sequence[int]]) -> bool:
    """Lift condition: <K, u_1> = ... = <K, u_{p-2}> = 0 and <K, u_{p-1}> = +-p.

    `kappa` is in evaluation coordinates; `chain` lists the primal chain
    vectors u_1 ... u_{p-1} in order.
    """
    p = len(chain) + 1
    vals = [_dot(kappa, u) for u in chain]
    return all(v == 0 for v in vals[:-1]) and abs(vals[-1]) == p


def restriction_profile(kappa: Sequence[int],
                        complement_basis: Sequence[Sequence[int]]) -> Vector:
    """Evaluations of a class against a complement basis; decides restrictions."""
    return tuple(_dot(kappa, c) for c in complement_basis)


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
    p = len(chain) + 1
    lat = model.lattice
    chain = [_vec(u) for u in chain]
    complement_basis = [_vec(c) for c in complement_basis]
    if len(complement_basis) != lat.rank - (p - 1):
        raise LedgerError(
            f"complement basis must have rank {lat.rank - (p - 1)}")
    for u in chain:
        gu = lat.dual(u)
        if any(_dot(gu, c) for c in complement_basis):
            raise LedgerError("complement basis vector pairs with the chain")
    gram = lat.gram(complement_basis)

    new_weights: dict[Vector, int] = {}
    for kappa, w in beta.weights.items():
        if not rbd_lift_eligible(kappa, chain):
            raise LedgerError(f"class {kappa} is not eligible for the blowdown")
        rho = restriction_profile(kappa, complement_basis)
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
        cleaned = {int(e): int(c) for e, c in self.coeffs.items() if c}
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
    torus = _vec(torus)
    if lat.square(torus) != 0:
        raise LedgerError("knot surgery needs a square-zero torus class")
    if gcd(*torus) != 1:
        raise LedgerError("torus class must be primitive")
    t_dual = lat.dual(torus)
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
    integer matrix.  With U G V = S in Smith normal form it reads
    S y = U diag(G) mod 2 for x = V y: set y_i = (U diag(G))_i mod 2 where
    s_i is odd and 0 elsewhere.  That solution is reduced mod 2, and a
    random even vector is added on top.
    """
    snf = smith_normal_form(lattice.pairing)
    s = snf.diagonal
    u_diag = [_dot(row, lattice._diagonal) for row in snf.u.entries]
    y = [b % 2 if s_i % 2 else 0 for b, s_i in zip(u_diag, s)]
    base = tuple(_dot(row, y) % 2 for row in snf.v.entries)
    if not is_characteristic(lattice, base):   # cannot happen for symmetric G
        raise LedgerError("lattice admits no characteristic vector")
    return tuple(b + 2 * rng.randrange(-2, 3) for b in base)
