"""Named constructions and end-to-end lemma verifications.

Handle-level builders return the algebraic shadow of each named diagram
(framings, linkings, run-throughs; the drawn geometry enters only through
that data).  A diagram defined by a move is built by it: B_p is the
rational-blowdown splice of C_p, and the Stein D~_p is the blow-down of D_p.
Sizes, counts and indices are integers, never truncated.  Closed-manifold
stand-ins are lattices whose X0 chain blocks are read from D_p and whose
other blocks are synthetic patterns; their Euler number is chosen so that the
declared basic classes sit in dimension zero, the signature and b2+ are
computed exactly from the pairing, and everything downstream is derived
rather than declared.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from math import isqrt
from operator import add
from typing import Iterator, Sequence

from .handles import (
    HandleDecomposition,
    _integer,
    blow_down,
    boundary_sum,
    dot_zero_swap,
    rational_blowdown_splice,
)
from .homology import (
    IntMatrix,
    _dot,
    _pairings,
    boundary_group_order,
    det,
    inertia,
    kernel_basis,
    signature,
)
from .legendrian import (
    FrontDiagram,
    parse_front,
    torus_knot_front,
)
from .swledger import (
    BasicClassSet,
    IntersectionLattice,
    LaurentPolynomial,
    ManifoldModel,
    Vector,
    _direct_sum,
    _largest_pairing,
    _lift_ok,
    _restrictions,
    _sign_sums,
    _unit,
    alexander_polynomial_torus,
    blow_up_basic_classes,
    is_simple_type,
    knot_surgery_basic_classes,
    min_genus_bound,
    rational_blowdown_descend,
)


class ScenarioError(ValueError):
    """A catalog builder was called with out-of-range parameters."""


# -- handle-level builders -------------------------------------------------------


def build_Cp(p: int) -> HandleDecomposition:
    """Linear chain u_1 ... u_{p-1}: framings -2 except -(p+2) on u_{p-1}."""
    p = _integer(p, "p", ScenarioError)
    if p < 2:
        raise ScenarioError("C_p needs p >= 2")
    twos = tuple((f"u{j}", -(p + 2) if j == p - 1 else -2) for j in range(1, p))
    links = {(f"u{j}", f"u{j + 1}"): 1 for j in range(1, p - 1)}
    return HandleDecomposition(two_handles=twos, links=links, name=f"C{p}")


def build_Bp(p: int) -> HandleDecomposition:
    """Rational homology ball: the rational-blowdown splice of all of C_p."""
    c_p = build_Cp(p)
    chain = c_p.two_handle_ids[::-1]                # u_{p-1}, ..., u_1
    return replace(rational_blowdown_splice(c_p, chain, p), name=f"B{p}")


def build_Dp(p: int) -> HandleDecomposition:
    """C_p with two extra 2-handles: u_0 off the light end, a -1-circle on the heavy end.

    Blowing the -1-handle down turns u_{p-1} into a (p+1,p) torus-knot handle
    of framing p^2 - p - 2 while the rest of the chain survives unchanged.
    """
    base = build_Cp(p)
    twos = base.two_handles + (("u0", -2), ("e", -1))
    links = dict(base.links)
    links[("u0", "u1")] = 1
    links[("e", f"u{p - 1}")] = p
    return HandleDecomposition(two_handles=twos, links=links, name=f"D{p}")


def build_Wn(n: int, prefix: str = "") -> HandleDecomposition:
    """Contractible piece: dotted circle and 0-framed circle linking once."""
    n = _integer(n, "n", ScenarioError)
    if n < 1:
        raise ScenarioError("W_n needs n >= 1")
    h, k = prefix + "h", prefix + "k"
    return HandleDecomposition(one_handles=(h,), two_handles=((k, 0),),
                               run_through={(k, h): 1}, name=f"W{n}")


def build_Wsum(ks: Sequence[int]) -> HandleDecomposition:
    """Boundary sum of W_{k_1}, ..., W_{k_n} with namespaced identifiers."""
    if not ks:
        raise ScenarioError("boundary sum needs at least one summand")
    out = build_Wn(ks[0], prefix="w1.")
    for j, k in enumerate(ks[1:], start=2):
        out = boundary_sum(out, build_Wn(k, prefix=f"w{j}."))
    return replace(out, name="W(" + ",".join(str(k) for k in ks) + ")")


def build_Mn_Nn(n: int) -> tuple[HandleDecomposition, HandleDecomposition]:
    """The twist pair: N_n is the dot-zero swap of M_n inside its W_1 piece.

    H_2(N_n) = Z is computed by `homology`, not declared: in the (c1, K)
    handle basis its generator is (n, -1), of square 0, the class K reaches
    by sliding over c1 n times.
    """
    n = _integer(n, "n", ScenarioError)
    if n < 2:
        raise ScenarioError("the twist pair needs n >= 2")
    m_n = HandleDecomposition(one_handles=("c1",),
                              two_handles=(("c2", 0), ("K", 0)),
                              links={("K", "c2"): n},
                              run_through={("c2", "c1"): 1},
                              name=f"M{n}")
    return m_n, replace(dot_zero_swap(m_n, "c1", "c2"), name=f"N{n}")


# -- Stein catalog ----------------------------------------------------------------


_TREFOIL = torus_knot_front(3, 2)  # tb = 1; shared, as fronts are immutable
_UNKNOT = parse_front("L1 R1")


def _cork_pieces() -> list[tuple[str, HandleDecomposition, dict[str, FrontDiagram]]]:
    """W1, W2, W3 and W(1,2,3), with a tb = 1 trefoil front on every 2-handle."""
    pieces = [build_Wn(n) for n in (1, 2, 3)] + [build_Wsum((1, 2, 3))]
    return [(d.name, d, dict.fromkeys(d.two_handle_ids, _TREFOIL)) for d in pieces]


def annotated_cusp_piece() -> tuple[HandleDecomposition, dict[str, FrontDiagram]]:
    """Cork piece, cusp handle, and a contact -1 meridian closing the dot."""
    d = HandleDecomposition(one_handles=("h",),
                            two_handles=(("k", 0), ("c", 0), ("m", -2)),
                            run_through={("k", "h"): 1, ("m", "h"): 1},
                            name="S-stein")
    return d, {"k": _TREFOIL, "c": _TREFOIL, "m": _UNKNOT}


def annotated_Dp_tilde(p: int, prefix: str = "") -> tuple[HandleDecomposition, dict[str, FrontDiagram]]:
    """Blown-down D_p, u_{p-1} renamed w; a contact -1 trefoil partner on every unknot."""
    down = blow_down(build_Dp(p), "e")
    w = prefix + "w"
    new = {f"u{p - 1}": w} | {f"u{j}": f"{prefix}u{j}" for j in range(p - 1)}
    partner = {f"{prefix}v{j}": f"{prefix}u{j}" for j in range(p - 1)}
    twos = [(x, down.framing(u)) for u, x in new.items()] + [(v, 0) for v in partner]
    links = {(new[a], new[b]): v for (a, b), v in down.links.items()}
    links.update(dict.fromkeys(partner.items(), 1))
    fronts = dict.fromkeys(new.values(), _UNKNOT) | {w: torus_knot_front(p + 1, p)}
    fronts.update(dict.fromkeys(partner, _TREFOIL))
    d = HandleDecomposition(two_handles=tuple(twos), links=links,
                            name=f"D~{p}")
    return d, fronts


def annotated_Dp_tilde_sum(p_list: Sequence[int]) -> tuple[HandleDecomposition, dict[str, FrontDiagram]]:
    """Boundary sum of D~_{p_1}, ..., D~_{p_n}, the i-th summand's ids prefixed `d<i>.`."""
    if not p_list:
        raise ScenarioError("boundary sum needs at least one summand")
    pieces = [annotated_Dp_tilde(p, prefix=f"d{i + 1}.")
              for i, p in enumerate(p_list)]
    d, fronts = pieces[0]
    for d2, f2 in pieces[1:]:
        d = boundary_sum(d, d2)
        fronts.update(f2)
    return d, fronts


def annotated_Nn_tilde(n: int) -> tuple[HandleDecomposition, dict[str, FrontDiagram]]:
    """Stein-filling form of the twisted piece N_n; only tb data is modeled."""
    d = replace(build_Mn_Nn(n)[1], name=f"N~{n}")
    return d, dict.fromkeys(d.two_handle_ids, _TREFOIL)


def stein_catalog() -> list[tuple[str, HandleDecomposition, dict[str, FrontDiagram]]]:
    out = _cork_pieces()
    d, fronts = annotated_cusp_piece()
    out.append((d.name, d, fronts))
    for ps in ((2,), (3,), (2, 3), (4, 5)):
        d, fronts = annotated_Dp_tilde_sum(ps)
        out.append((f"D~({','.join(map(str, ps))})", d, fronts))
    for n in (2, 4):
        d, fronts = annotated_Nn_tilde(n)
        out.append((d.name, d, fronts))
    return out


# -- synthetic closed models --------------------------------------------------------


def _genus_block(n: int) -> list[list[int]]:
    """Gram of (alpha, gamma, e_1, ..., e_{n-1}), as described in build_genus_model."""
    size = n + 1
    m = [[0] * size for _ in range(size)]
    m[0][1] = m[1][0] = 1
    for i in range(2, size):
        m[i][i] = -1
        m[0][i] = m[i][0] = n if i == 2 else 1
    return m


_CORE = [[1, 0, 0, 0, 0, 0],
         [0, 1, 0, 0, 0, 0],
         [0, 0, 1, 0, 0, 0],
         [0, 0, 0, -1, 0, 0],
         [0, 0, 0, 0, -1, 0],
         [0, 0, 0, 0, 0, -1]]

_CUSP = [[0, 1], [1, -2]]                      # torus T and its -2 section


@dataclass(frozen=True)
class SyntheticModel:
    """A closed-manifold stand-in with its declared basic classes."""

    model: ManifoldModel
    classes: BasicClassSet
    p_list: tuple[int, ...]
    chain_indices: tuple[tuple[int, ...], ...]   # u_1..u_{p-1} basis indices per block

    @property
    def lattice(self) -> IntersectionLattice:
        return self.model.lattice

    def chain_vectors(self, i: int) -> tuple[Vector, ...]:
        return tuple(_unit(self.lattice.rank, idx) for idx in self.chain_indices[i])

    def complement_basis(self, i: int) -> tuple[Vector, ...]:
        rows = [self.lattice.pairing.row(idx) for idx in self.chain_indices[i]]
        return kernel_basis(IntMatrix.from_rows(rows, self.lattice.rank))

    def alpha(self, i: int) -> Vector:
        return self.lattice.names[f"alpha{i + 1}"]

    def torus(self) -> Vector:
        return self.lattice.names["T"]


def _closed_model(blocks: Sequence[Sequence[Sequence[int]]],
                  names: dict[str, Vector],
                  seeds: Sequence[Vector],
                  gens: Sequence[Vector] = ()) -> tuple[ManifoldModel, BasicClassSet]:
    """Close a block-diagonal pairing into a model whose seed classes have d = 0.

    The seed classes are the sign cube s +- g_1 +- ... +- g_n over the seeds
    s and the generators g_i (primal vectors).  Their duals are taken by
    linearity, one `dual` per nonzero seed and per generator.  A member's
    square is s^2 + sum g_i^2 plus cross terms in <s, g_i> and <g_i, g_j>,
    so the squares agree iff every s^2 agrees and every cross term is 0.
    The signature and b2+ are read off the pairing, block by block (by
    Sylvester's law the inertia of a direct sum is the sum of its blocks');
    the Euler number is the one value that puts that square in dimension
    zero.
    """
    lattice = IntersectionLattice(IntMatrix.from_rows(_direct_sum(blocks)), names)
    duals = [lattice.dual(s) if any(s) else s for s in seeds]
    gen_duals = [lattice.dual(g) for g in gens]
    core_square = _dot(duals[0], seeds[0])
    if any(_dot(k, s) != core_square for k, s in zip(duals, seeds)) or \
            any(_dot(h, g) for h in duals for g in gens) or \
            any(_dot(h, g) for i, h in enumerate(gen_duals) for g in gens[i + 1:]):
        raise ScenarioError("seed squares disagree")
    square = core_square + sum(map(_dot, gen_duals, gens))
    pos_idx, neg_idx, zero_idx = map(sum, zip(*(inertia(IntMatrix.from_rows(b))
                                                for b in blocks)))
    if zero_idx:
        raise ScenarioError("degenerate synthetic pairing")
    sig = pos_idx - neg_idx
    if (square - 3 * sig) % 2:
        raise ScenarioError("parity corrector failed; model inconsistent")
    euler = (square - 3 * sig) // 2        # forces d = 0 on every seed

    model = ManifoldModel(lattice, euler, sig, pos_idx)
    classes = BasicClassSet(lattice, Counter(duals), gen_duals)
    if classes.count != len(seeds) << len(gens):
        raise ScenarioError("seed classes collided")
    # every member is a seed class, of the checked square
    lattice._squares.update(dict.fromkeys(classes.members, square))
    if not is_simple_type(model, classes):
        raise ScenarioError("seed classes are not in dimension zero")
    return model, classes


def build_X0_model(p_list: Sequence[int], seed_count: int = 2) -> SyntheticModel:
    """Lattice model of the blown-up boundary-sum construction.

    Chain block i is the pairing of `build_Dp(p_i)` on e, u0, ..., u{p-1}
    (named e_i, u_i_0, ...): e_i.u_{p-1} = p_i, u_j.u_{j+1} = 1; `_CORE` and
    the cusp block `_CUSP` (the square-zero torus) are synthetic.  Seed classes
    give 0 on every u_j except u_{p-1}, where they give -p_i <K, e_i> = +-p_i.
    The Euler number is set so every seed class has d = 0 (simple type).

    Seeds are the sign combinations f3 + g3 +- (f1 + g1) +- (f2 + g2)
    +- e_1 ... +- e_n (n chains), in the order of `_sign_sums` over
    (-e_1, ..., -e_n, f1 + g1, f2 + g2): the first seed_count / 2 of them,
    each followed by its negative.  At most 2^(n+2) such pairs exist.

    The arguments are checked on every call.  A valid key, the tuple of int
    p and the int seed count, is built once per process while it stays
    among the 32 most recently used (`_x0_model`), so a repeated key, given
    as a list or a tuple, returns the same immutable model; an evicted key
    is built afresh into an equal one.  Invalid input raises every time and
    is never stored.
    """
    p_list = tuple(_integer(p, "every p", ScenarioError) for p in p_list)
    if any(p < 2 for p in p_list):
        raise ScenarioError("every p must be >= 2")
    seed_count = _integer(seed_count, "the seed count", ScenarioError)
    if seed_count < 2 or seed_count % 2:
        raise ScenarioError("seed count must be even and >= 2")
    return _x0_model(p_list, seed_count)


@lru_cache(maxsize=32)          # a `ledger` pass builds 23 distinct keys
def _x0_model(p_list: tuple[int, ...], seed_count: int) -> SyntheticModel:
    """The body of `build_X0_model`, on arguments it has already checked."""
    n = len(p_list)
    spheres = sum(p_list) % 2          # parity corrector, keeps d integral

    blocks = [_CORE, _CUSP] + [[[-2]]] * spheres
    off = 8 + spheres
    rank = off + sum(p_list) + n
    names = {nm: _unit(rank, j)
             for j, nm in enumerate(("f1", "f2", "f3", "g1", "g2", "g3", "T", "z"))}
    chain_indices = []
    for i, p in enumerate(p_list):
        d, ids = build_Dp(p), ("e",) + tuple(f"u{j}" for j in range(p))
        blocks.append([[d.framing(a) if a == b else d.link(a, b) for b in ids] for a in ids])
        at = dict(zip(ids, range(off, off + p + 1)))
        names[f"e{i + 1}"] = _unit(rank, at["e"])
        alpha = list(names[f"e{i + 1}"])
        for j in range(p):
            names[f"u{i + 1}_{j}"] = _unit(rank, at[f"u{j}"])
            alpha[at[f"u{j}"]] = p - j     # coefficient p - j on u_j
        names[f"alpha{i + 1}"] = tuple(alpha)
        chain_indices.append(tuple(at[f"u{j}"] for j in range(1, p)))
        off += p + 1

    fg = [tuple(map(add, names[f"f{j}"], names[f"g{j}"])) for j in (1, 2, 3)]
    reps = _sign_sums(fg[2], [tuple(-x for x in names[f"e{i + 1}"]) for i in range(n)]
                      + fg[:2])
    if seed_count // 2 > len(reps):
        raise ScenarioError(f"cannot realize {seed_count} distinct seed classes")
    seeds = [s for v in reps[:seed_count // 2] for s in (v, tuple(-x for x in v))]

    model, classes = _closed_model(blocks, names, seeds)
    return SyntheticModel(model, classes, p_list, tuple(chain_indices))


# -- lemma verifiers ------------------------------------------------------------------


def _model_with_chain(p_list: Sequence[int], index: int,
                      seed_count: int) -> SyntheticModel:
    index = _integer(index, "the chain index", ScenarioError)
    x0 = build_X0_model(p_list, seed_count)
    if not 0 <= index < len(x0.p_list):
        raise ScenarioError(
            f"chain index {index} is out of range for {len(x0.p_list)} chain(s)")
    return x0


@dataclass(frozen=True)
class CountLemmaReport:
    p: int
    n0: int
    ni: int
    d_preserved: bool
    rank_drop: int          # rank of X0 minus rank of the descended lattice
    signature_rise: int     # read from the descended pairing, not the declared sigma

    def failures(self) -> Iterator[str]:
        # the blow-up multiplies the count by exactly 2^(p-1), so N_i also
        # settles that the descent kept all N0 classes
        case = f"p={self.p}, N0={self.n0}"
        if self.ni != (1 << (self.p - 1)) * self.n0:
            yield f"count lemma failed for {case}"
        if not self.d_preserved:
            yield f"d not preserved for {case}"
        if self.rank_drop != self.p - 1:
            yield f"descent dropped rank by {self.rank_drop}, not p - 1, for {case}"
        if self.signature_rise != self.p - 1:
            yield f"descent raised signature by {self.signature_rise}, not p - 1, for {case}"


def verify_count_lemma(p_list: Sequence[int], index: int = 0,
                       seed_count: int = 2) -> CountLemmaReport:
    """Descend one chain, blow back up p-1 times, compare class counts."""
    x0 = _model_with_chain(p_list, index, seed_count)
    p = x0.p_list[index]
    m1, b1 = rational_blowdown_descend(x0.model, x0.classes, x0.chain_vectors(index),
                                       x0.complement_basis(index))
    m2, b2 = blow_up_basic_classes(m1, b1, p - 1)
    return CountLemmaReport(p, x0.classes.count, b2.count, is_simple_type(m2, b2),
                            x0.lattice.rank - m1.lattice.rank,
                            signature(m1.lattice.pairing) - x0.model.signature)


@dataclass(frozen=True)
class RestrictionLemmaReport:
    p: int
    alpha_orthogonal: bool
    evaluation_identity: bool
    all_eligible: bool
    restrictions_distinct: bool
    mayer_vietoris_index: int
    boundary_order: int | None           # |H_1(boundary C_p)|, the gluing group

    def failures(self) -> Iterator[str]:
        for holds, what in ((self.alpha_orthogonal, "alpha not orthogonal to the chain"),
                            (self.evaluation_identity, "alpha evaluation identity broken"),
                            (self.all_eligible, "a class fails the lift condition"),
                            (self.restrictions_distinct, "restrictions not distinct"),
                            (self.mayer_vietoris_index == self.boundary_order,
                             "index != |H1(bd C_p)|")):
            if not holds:
                yield f"{what} for p={self.p}"


def verify_restriction_lemma(p_list: Sequence[int], index: int = 0,
                             seed_count: int = 2) -> RestrictionLemmaReport:
    """Check the separating class alpha and pairwise-distinct restrictions.

    alpha = e + u_{p-1} + 2 u_{p-2} + ... + p u_0 is orthogonal to the chain,
    evaluates on every class to (1-p) <K, e>, and distinct classes restrict
    differently to the chain complement.  The index of chain + complement
    inside the full lattice is also checked against |H_1(boundary C_p)|, the
    order of the boundary gluing group, read from `build_Cp(p)` as in claim 1.
    """
    x0 = _model_with_chain(p_list, index, seed_count)
    p = x0.p_list[index]
    lat = x0.lattice
    alpha = x0.alpha(index)
    chain = x0.chain_vectors(index)
    e_vec = lat.names[f"e{index + 1}"]
    members = x0.classes.members

    alpha_dual = lat.dual(alpha)
    alpha_orth = all(_dot(alpha_dual, u) == 0 for u in chain)
    eval_ok = _pairings(members, alpha) == [(1 - p) * v for v in _pairings(members, e_vec)]
    complement = x0.complement_basis(index)
    table = _restrictions(members, chain, complement)
    eligible = all(_lift_ok(lift) for lift, _ in table)
    distinct = len({rho for _, rho in table}) == len(table)

    product = det(lat.gram(chain)) * det(lat.gram(complement))
    full = det(lat.pairing)
    index_sq, rem = divmod(product, full)
    root = isqrt(index_sq) if rem == 0 and index_sq > 0 else -1
    mv_index = root if root * root == index_sq else -1
    return RestrictionLemmaReport(p, alpha_orth, eval_ok, eligible, distinct, mv_index,
                                  boundary_group_order(build_Cp(p)))


@dataclass(frozen=True)
class GenusObstructionReport:
    n: int
    k: int
    max_pairing: int
    genus_bound: int
    forces_zero_below_n: bool

    def failures(self) -> Iterator[str]:
        # for k != 0 a bound of |k|(n - 1) + 1 is >= n|k| - (|k| - 1) and
        # >= n, so genus below n forces k = 0
        n, k = self.n, abs(self.k)
        case = f"n={n}, k={self.k}"
        if self.max_pairing != k * (2 * n - 2):
            yield f"max pairing {self.max_pairing} != |k|(2n - 2) for {case}"
        if k and self.genus_bound != k * (n - 1) + 1:
            yield f"bound {self.genus_bound} != |k|(n - 1) + 1 for {case}"


@lru_cache(maxsize=32, typed=True)      # typed: n = 3.0 must reach the check
def build_genus_model(n: int) -> tuple[ManifoldModel, BasicClassSet, Vector]:
    """Blown-up model for the genus obstruction.

    Basis (alpha, gamma, e_1..e_{n-1}, f1..f3, g1..g3): alpha is square-zero
    with alpha.e_1 = n and alpha.e_i = 1; basic classes are all sign
    combinations +-K + sum +-e_i, so the best class pairs with alpha to
    n + (n - 2) = 2n - 2.
    """
    n = _integer(n, "n", ScenarioError)
    if n < 2:
        raise ScenarioError("genus model needs n >= 2")
    rank = 2 + (n - 1) + 6
    names = {"alpha": _unit(rank, 0)}
    for i in range(n - 1):
        names[f"e{i + 1}"] = _unit(rank, 2 + i)

    core = (0,) * (rank - 6) + (1,) * 6            # f1 + f2 + f3 + g1 + g2 + g3
    gens = [core] + [names[f"e{i + 1}"] for i in range(n - 1)]

    model, classes = _closed_model([_genus_block(n), _CORE], names, [(0,) * rank], gens)
    return model, classes, names["alpha"]


def genus_obstruction_Nn(n: int, k: int) -> GenusObstructionReport:
    """Adjunction bound for k copies of the square-zero generator."""
    k = _integer(k, "k", ScenarioError)
    model, classes, alpha = build_genus_model(n)
    k_alpha = tuple(k * x for x in alpha)
    max_pairing = _largest_pairing(classes, k_alpha)
    bound = min_genus_bound(model, classes, k_alpha)
    return GenusObstructionReport(n, k, max_pairing, bound, k == 0 or bound >= n)


# -- knot surgery scenario ---------------------------------------------------------


@dataclass(frozen=True)
class KnottedCorkReport:
    knots: tuple[tuple[int, int], ...]
    counts: tuple[int, ...]
    alexander: tuple[LaurentPolynomial, ...]
    input_weight: int                   # total SW weight of the input class set
    output_weights: tuple[int, ...]
    coinciding: tuple[tuple[int, int], ...]     # index pairs i < j of equal outputs

    def failures(self) -> Iterator[str]:
        for (p, q), delta, weight, count in zip(self.knots, self.alexander,
                                                self.output_weights, self.counts):
            # the symmetrized quotient, multiplied back by its denominator
            shift = (p - 1) * (q - 1) // 2
            lhs = delta * LaurentPolynomial({p: 1, 0: -1}) * LaurentPolynomial({q: 1, 0: -1})
            rhs = LaurentPolynomial({p * q - shift: 1, -shift: -1}) * \
                LaurentPolynomial({1: 1, 0: -1})
            if lhs != rhs:
                yield (f"Delta of ({p},{q}) is not t^{-shift} (t^{p * q} - 1)(t - 1) / "
                       f"((t^{p} - 1)(t^{q} - 1))")
            # SW(X_K) = SW(X) Delta_K(t^2) at t = 1; exact even where classes
            # collide, as their weights add
            if weight != delta(1) * self.input_weight:
                yield (f"total weight {weight} of the ({p},{q}) output is not "
                       f"Delta(1) = {delta(1)} times the input's {self.input_weight}")
            # the twisted side's class set is empty, so "nonzero" already
            # separates every output from it
            if not count:
                yield f"surgery output of ({p},{q}) is empty"
        for i, j in self.coinciding:
            yield (f"surgery outputs of ({self.knots[i][0]},{self.knots[i][1]}) and "
                   f"({self.knots[j][0]},{self.knots[j][1]}) coincide")


def knotted_cork_scenario(knots: Sequence[tuple[int, int]]) -> KnottedCorkReport:
    """Surgery along the cusp torus with each knot; all outputs must differ.

    The twisted model has empty basic-class set (its SW invariants vanish
    because it splits off S^2 x S^2), so any nontrivial Alexander polynomial
    separates the surgered filling from it; distinct polynomials separate
    the surgered manifolds from each other.
    """
    base = build_X0_model(())
    torus = base.torus()
    polys = tuple(alexander_polynomial_torus(p, q) for p, q in knots)
    outs = [knot_surgery_basic_classes(base.model, base.classes, torus, delta)
            for delta in polys]
    fingerprints = [tuple(sorted(o.weights.items())) for o in outs]
    return KnottedCorkReport(tuple(tuple(k) for k in knots),
                             tuple(o.count for o in outs),
                             polys,
                             sum(base.classes.weights.values()),
                             tuple(sum(o.weights.values()) for o in outs),
                             tuple((i, j) for j, f in enumerate(fingerprints)
                                   for i in range(j) if fingerprints[i] == f))
