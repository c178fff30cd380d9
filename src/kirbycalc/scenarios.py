"""Named constructions and end-to-end lemma verifications.

Handle-level builders return the algebraic shadow of each named diagram
(framings, linkings, run-throughs; the drawn geometry enters only through
that data).  Closed-manifold stand-ins are synthetic lattices carrying
exactly the declared pairing pattern; their Euler number is chosen so that
the declared basic classes sit in dimension zero, the signature and b2+ are
computed exactly from the pairing, and everything downstream is derived
rather than declared.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import add
from typing import Sequence

from .handles import HandleDecomposition, boundary_sum, dot_zero_swap
from .homology import (
    IntMatrix,
    _dot,
    boundary_group_order,
    det,
    inertia,
    is_homology_trivial,
    kernel_basis,
)
from .legendrian import (
    FrontDiagram,
    SteinReport,
    parse_front,
    stein_check,
    torus_knot_front,
)
from .swledger import (
    BasicClassSet,
    IntersectionLattice,
    ManifoldModel,
    Vector,
    _direct_sum,
    _sign_sums,
    _unit,
    alexander_polynomial_torus,
    blow_up_basic_classes,
    is_simple_type,
    knot_surgery_basic_classes,
    min_genus_bound,
    rational_blowdown_descend,
    rbd_lift_eligible,
    restriction_profile,
)


class ScenarioError(ValueError):
    """A catalog builder was called with out-of-range parameters."""


# -- handle-level builders -------------------------------------------------------


def build_Cp(p: int) -> HandleDecomposition:
    """Linear chain u_1 ... u_{p-1}: framings -2 except -(p+2) on u_{p-1}."""
    if p < 2:
        raise ScenarioError("C_p needs p >= 2")
    twos = tuple((f"u{j}", -(p + 2) if j == p - 1 else -2) for j in range(1, p))
    links = {(f"u{j}", f"u{j + 1}"): 1 for j in range(1, p - 1)}
    return HandleDecomposition(two_handles=twos, links=links, name=f"C{p}")


def build_Bp(p: int) -> HandleDecomposition:
    """Rational homology ball: dotted circle b0, (p-1)-framed b1 through it p times."""
    if p < 2:
        raise ScenarioError("B_p needs p >= 2")
    return HandleDecomposition(one_handles=("b0",), two_handles=(("b1", p - 1),),
                               run_through={("b1", "b0"): p}, name=f"B{p}")


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


def build_Mn_Nn(n: int) -> tuple[HandleDecomposition, HandleDecomposition, Vector]:
    """The twist pair: N_n is the dot-zero swap of M_n inside its W_1 piece.

    Returns (M_n, N_n, alpha) where alpha generates H_2(N_n) = Z in the
    (c1, K) handle basis; it is reached from K by sliding over c1 n times
    and is represented by a genus-n surface (declared, not recomputed).
    """
    if n < 2:
        raise ScenarioError("the twist pair needs n >= 2")
    m_n = HandleDecomposition(one_handles=("c1",),
                              two_handles=(("c2", 0), ("K", 0)),
                              links={("K", "c2"): n},
                              run_through={("c2", "c1"): 1},
                              name=f"M{n}")
    n_n = replace(dot_zero_swap(m_n, "c1", "c2"), name=f"N{n}")
    alpha = (-n, 1)
    return m_n, n_n, alpha


# -- Stein catalog ----------------------------------------------------------------


def _tb_one_front() -> FrontDiagram:
    return torus_knot_front(3, 2)


def _unknot_front() -> FrontDiagram:
    return parse_front("L1 R1")


def _cork_pieces() -> list[tuple[str, HandleDecomposition, dict[str, FrontDiagram]]]:
    """W1, W2, W3 and W(1,2,3), with a tb = 1 trefoil front on every 2-handle."""
    pieces = [build_Wn(n) for n in (1, 2, 3)] + [build_Wsum((1, 2, 3))]
    return [(d.name, d, {k: _tb_one_front() for k in d.two_handle_ids})
            for d in pieces]


def annotated_cusp_piece() -> tuple[HandleDecomposition, dict[str, FrontDiagram]]:
    """Cork piece, cusp handle, and a contact -1 meridian closing the dot."""
    d = HandleDecomposition(one_handles=("h",),
                            two_handles=(("k", 0), ("c", 0), ("m", -2)),
                            run_through={("k", "h"): 1, ("m", "h"): 1},
                            name="S-stein")
    fronts = {"k": _tb_one_front(), "c": _tb_one_front(), "m": _unknot_front()}
    return d, fronts


def annotated_Dp_tilde(p: int, prefix: str = "") -> tuple[HandleDecomposition, dict[str, FrontDiagram]]:
    """Blown-down D_p with a contact -1 trefoil partner on every unknot."""
    if p < 2:
        raise ScenarioError("needs p >= 2")
    w = prefix + "w"
    us = [f"{prefix}u{j}" for j in range(p - 1)]           # u_0 ... u_{p-2}
    twos = [(w, p * p - p - 2)] + [(u, -2) for u in us]
    links = {}
    chain = us + [w]                                       # u_0 - u_1 - ... - w
    for a, b in zip(chain, chain[1:]):
        links[(a, b)] = 1
    fronts = {w: torus_knot_front(p + 1, p)}
    for u in us:
        fronts[u] = _unknot_front()
    for j, u in enumerate(us):                             # trefoil partners
        v = f"{prefix}v{j}"
        twos.append((v, 0))
        links[(v, u)] = 1
        fronts[v] = _tb_one_front()
    d = HandleDecomposition(two_handles=tuple(twos), links=links,
                            name=f"D~{p}")
    return d, fronts


def annotated_Dp_tilde_sum(p_list: Sequence[int]) -> tuple[HandleDecomposition, dict[str, FrontDiagram]]:
    pieces = [annotated_Dp_tilde(p, prefix=f"d{i + 1}.")
              for i, p in enumerate(p_list)]
    d, fronts = pieces[0]
    for d2, f2 in pieces[1:]:
        d = boundary_sum(d, d2)
        fronts.update(f2)
    return d, fronts


def annotated_Nn_tilde(n: int) -> tuple[HandleDecomposition, dict[str, FrontDiagram]]:
    """Stein-filling form of the twisted piece; only tb data is modeled."""
    if n < 2:
        raise ScenarioError("needs n >= 2")
    d = HandleDecomposition(one_handles=("c2",),
                            two_handles=(("c1", 0), ("K", 0)),
                            run_through={("c1", "c2"): 1, ("K", "c2"): n},
                            name=f"N~{n}")
    return d, {"c1": _tb_one_front(), "K": _tb_one_front()}


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


@dataclass(frozen=True)
class CatalogSteinReport:
    reports: tuple[tuple[str, SteinReport], ...]
    ok: bool


def verify_stein_catalog() -> CatalogSteinReport:
    reports = tuple((name, stein_check(d, fronts))
                    for name, d, fronts in stein_catalog())
    return CatalogSteinReport(reports, all(r.ok for _, r in reports))


# -- synthetic closed models --------------------------------------------------------


def _chain_block(p: int) -> list[list[int]]:
    """Gram of (e, u_0, ..., u_{p-1}): the blown-up chain pairing pattern."""
    size = p + 1
    m = [[0] * size for _ in range(size)]
    m[0][0] = -1
    m[0][p] = m[p][0] = p                      # e . u_{p-1}
    for j in range(p):
        idx = j + 1
        m[idx][idx] = -(p + 2) if j == p - 1 else -2
        if j < p - 1:
            m[idx][idx + 1] = m[idx + 1][idx] = 1
    return m


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
                  seeds: Sequence[Vector]) -> tuple[ManifoldModel, BasicClassSet]:
    """Close a block-diagonal pairing into a model whose seed classes have d = 0.

    The signature and b2+ are read off the pairing; the Euler number is the
    one value that puts the (equal) seed squares in dimension zero.
    """
    lattice = IntersectionLattice(IntMatrix.from_rows(_direct_sum(blocks)), names)
    duals = [lattice.dual(s) for s in seeds]
    square = _dot(duals[0], seeds[0])
    if any(_dot(k, s) != square for k, s in zip(duals, seeds)):
        raise ScenarioError("seed squares disagree")
    pos_idx, neg_idx, zero_idx = inertia(lattice.pairing)
    if zero_idx:
        raise ScenarioError("degenerate synthetic pairing")
    sig = pos_idx - neg_idx
    if (square - 3 * sig) % 2:
        raise ScenarioError("parity corrector failed; model inconsistent")
    euler = (square - 3 * sig) // 2        # forces d = 0 on every seed

    model = ManifoldModel(lattice, euler, sig, pos_idx)
    classes = BasicClassSet(lattice, Counter(duals))
    if classes.count != len(seeds):
        raise ScenarioError("seed classes collided")
    if not is_simple_type(model, classes):
        raise ScenarioError("seed classes are not in dimension zero")
    return model, classes


def build_X0_model(p_list: Sequence[int], seed_count: int = 2) -> SyntheticModel:
    """Lattice model of the blown-up boundary-sum construction.

    One chain block per p carries the pattern e_i.u_{p-1} = p_i,
    u_j.u_{j+1} = 1 with everything else orthogonal; the cusp block carries
    the square-zero torus; seed classes evaluate to 0 on every u_j except
    u_{p-1}, where they give -p_i <K, e_i> = +-p_i.  The Euler number is set
    so every seed class has d = 0, making the model simple type.

    Seeds are the sign combinations f3 + g3 +- (f1 + g1) +- (f2 + g2)
    +- e_1 ... +- e_n (n chains), in the order of `_sign_sums` over
    (-e_1, ..., -e_n, f1 + g1, f2 + g2): the first seed_count / 2 of them,
    each followed by its negative.  At most 2^(n+2) such pairs exist.
    """
    p_list = tuple(int(p) for p in p_list)
    if any(p < 2 for p in p_list):
        raise ScenarioError("every p must be >= 2")
    if seed_count < 2 or seed_count % 2:
        raise ScenarioError("seed count must be even and >= 2")
    n = len(p_list)
    spheres = sum(p_list) % 2          # parity corrector, keeps d integral

    blocks = [_CORE, _CUSP] + [[[-2]]] * spheres + [_chain_block(p) for p in p_list]
    rank = sum(len(b) for b in blocks)

    names = {nm: _unit(rank, j)
             for j, nm in enumerate(("f1", "f2", "f3", "g1", "g2", "g3", "T", "z"))}
    off = 8 + spheres
    chain_indices = []
    for i, p in enumerate(p_list):
        names[f"e{i + 1}"] = _unit(rank, off)
        for j in range(p):
            names[f"u{i + 1}_{j}"] = _unit(rank, off + 1 + j)
        alpha = [0] * rank
        alpha[off] = 1
        for j in range(p):
            alpha[off + 1 + j] = p - j     # coefficient p - j on u_j
        names[f"alpha{i + 1}"] = tuple(alpha)
        chain_indices.append(tuple(range(off + 2, off + 1 + p)))
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
    x0 = build_X0_model(p_list, seed_count)
    if not 0 <= index < len(x0.p_list):
        raise ScenarioError(
            f"chain index {index} is out of range for {len(x0.p_list)} chain(s)")
    return x0


@dataclass(frozen=True)
class CountLemmaReport:
    p_list: tuple[int, ...]
    index: int
    n0: int
    n_descended: int
    ni: int
    expected: int
    d_preserved: bool
    ok: bool


def verify_count_lemma(p_list: Sequence[int], index: int = 0,
                       seed_count: int = 2) -> CountLemmaReport:
    """Descend one chain, blow back up p-1 times, compare class counts."""
    x0 = _model_with_chain(p_list, index, seed_count)
    p = x0.p_list[index]
    chain = x0.chain_vectors(index)
    complement = x0.complement_basis(index)
    m1, b1 = rational_blowdown_descend(x0.model, x0.classes, chain, complement)
    m2, b2 = blow_up_basic_classes(m1, b1, p - 1)
    d_ok = is_simple_type(m2, b2)
    expected = (1 << (p - 1)) * x0.classes.count
    return CountLemmaReport(x0.p_list, index, x0.classes.count, b1.count,
                            b2.count, expected, d_ok,
                            b1.count == x0.classes.count and b2.count == expected and d_ok)


@dataclass(frozen=True)
class RestrictionLemmaReport:
    p: int
    alpha_orthogonal: bool
    evaluation_identity: bool
    all_eligible: bool
    restrictions_distinct: bool
    mayer_vietoris_index: int
    ok: bool


def verify_restriction_lemma(p_list: Sequence[int], index: int = 0,
                             seed_count: int = 2) -> RestrictionLemmaReport:
    """Check the separating class alpha and pairwise-distinct restrictions.

    alpha = e + u_{p-1} + 2 u_{p-2} + ... + p u_0 is orthogonal to the chain,
    evaluates on every class to (1-p) <K, e>, and distinct classes restrict
    differently to the chain complement.  The index of chain + complement
    inside the full lattice is also checked to be p^2, the order of the
    boundary gluing group.
    """
    x0 = _model_with_chain(p_list, index, seed_count)
    p = x0.p_list[index]
    lat = x0.lattice
    alpha = x0.alpha(index)
    chain = x0.chain_vectors(index)
    e_vec = lat.names[f"e{index + 1}"]

    alpha_dual = lat.dual(alpha)
    alpha_orth = all(_dot(alpha_dual, u) == 0 for u in chain)
    eval_ok = True
    for kappa in x0.classes.members:
        lhs = _dot(kappa, alpha)
        rhs = (1 - p) * _dot(kappa, e_vec)
        eval_ok = eval_ok and lhs == rhs
    eligible = all(rbd_lift_eligible(kappa, chain) for kappa in x0.classes.members)

    complement = x0.complement_basis(index)
    profiles = [restriction_profile(kappa, complement) for kappa in x0.classes.members]
    distinct = len(set(profiles)) == len(profiles)

    product = det(lat.gram(chain)) * det(lat.gram(complement))
    full = det(lat.pairing)
    index_sq, rem = divmod(product, full)
    mv_index = _isqrt_exact(index_sq) if rem == 0 and index_sq > 0 else -1

    ok = (alpha_orth and eval_ok and eligible and distinct and mv_index == p * p)
    return RestrictionLemmaReport(p, alpha_orth, eval_ok, eligible, distinct,
                                  mv_index, ok)


def _isqrt_exact(n: int) -> int:
    from math import isqrt
    r = isqrt(n)
    return r if r * r == n else -1


@dataclass(frozen=True)
class GenusObstructionReport:
    n: int
    k: int
    max_pairing: int
    genus_bound: int
    forces_zero_below_n: bool
    ok: bool


@lru_cache(maxsize=32)
def build_genus_model(n: int) -> tuple[ManifoldModel, BasicClassSet, Vector]:
    """Blown-up model for the genus obstruction.

    Basis (alpha, gamma, e_1..e_{n-1}, f1..f3, g1..g3): alpha is square-zero
    with alpha.e_1 = n and alpha.e_i = 1; basic classes are all sign
    combinations +-K + sum +-e_i, so the best class pairs with alpha to
    n + (n - 2) = 2n - 2.
    """
    if n < 2:
        raise ScenarioError("genus model needs n >= 2")
    rank = 2 + (n - 1) + 6
    names = {"alpha": _unit(rank, 0)}
    for i in range(n - 1):
        names[f"e{i + 1}"] = _unit(rank, 2 + i)

    core = (0,) * (rank - 6) + (1,) * 6            # f1 + f2 + f3 + g1 + g2 + g3
    seeds = _sign_sums((0,) * rank, [core] + [names[f"e{i + 1}"] for i in range(n - 1)])

    model, classes = _closed_model([_genus_block(n), _CORE], names, seeds)
    return model, classes, names["alpha"]


def genus_obstruction_Nn(n: int, k: int) -> GenusObstructionReport:
    """Adjunction bound for k copies of the square-zero generator."""
    model, classes, alpha = build_genus_model(n)
    k_alpha = tuple(k * x for x in alpha)
    max_pairing = max(abs(_dot(kappa, k_alpha)) for kappa in classes.members)
    bound = min_genus_bound(model, classes, k_alpha)
    forces = k == 0 or bound >= n
    expected_pairing = abs(k) * (2 * n - 2)
    ok = max_pairing == expected_pairing and forces and \
        (k == 0 or bound == abs(k) * (n - 1) + 1)
    return GenusObstructionReport(n, k, max_pairing, bound, forces, ok)


# -- knot surgery scenario ---------------------------------------------------------


@dataclass(frozen=True)
class KnottedCorkReport:
    knots: tuple[tuple[int, int], ...]
    counts: tuple[int, ...]
    alexander: tuple[str, ...]
    all_nonzero: bool
    pairwise_distinct: bool
    distinct_from_vanishing: bool
    ok: bool


def knotted_cork_scenario(knots: Sequence[tuple[int, int]]) -> KnottedCorkReport:
    """Surgery along the cusp torus with each knot; all outputs must differ.

    The twisted model has empty basic-class set (its SW invariants vanish
    because it splits off S^2 x S^2), so any nontrivial Alexander polynomial
    separates the surgered filling from it; distinct polynomials separate
    the surgered manifolds from each other.
    """
    base = build_X0_model(())
    torus = base.torus()
    vanishing = BasicClassSet(base.lattice)     # the cork-twisted side
    polys = []
    outs = []
    for p, q in knots:
        delta = alexander_polynomial_torus(p, q)
        if not delta.is_symmetric() or delta(1) not in (1, -1):
            raise ScenarioError(f"bad Alexander normalization for ({p},{q})")
        polys.append(delta)
        outs.append(knot_surgery_basic_classes(base.model, base.classes,
                                               torus, delta))
    fingerprints = [tuple(sorted(o.weights.items())) for o in outs]
    nonzero = all(o.count > 0 for o in outs)
    distinct = len(set(fingerprints)) == len(fingerprints)
    vs_vanishing = all(o.weights != vanishing.weights for o in outs)
    return KnottedCorkReport(tuple(tuple(k) for k in knots),
                             tuple(o.count for o in outs),
                             tuple(str(d) for d in polys),
                             nonzero, distinct, vs_vanishing,
                             nonzero and distinct and vs_vanishing)


# -- contractibility catalog ----------------------------------------------------------


@dataclass(frozen=True)
class ContractibilityReport:
    names: tuple[str, ...]
    failed: tuple[str, ...]
    ok: bool


def verify_contractibility() -> ContractibilityReport:
    """Homology-level check of every declared-contractible catalog piece.

    The pieces are W_1 ... W_10 and the boundary sums W(1), W(1,2), ...,
    W(1,2,3,4,5,1,2,3,4,5), whose summand indices cycle through 1..5.
    """
    pieces = [build_Wn(n) for n in range(1, 11)]
    pieces += [build_Wsum(tuple(j % 5 + 1 for j in range(n))) for n in range(1, 11)]
    bad = [d.name for d in pieces
           if not (is_homology_trivial(d) and boundary_group_order(d) == 1)]
    return ContractibilityReport(tuple(d.name for d in pieces), tuple(bad), not bad)
