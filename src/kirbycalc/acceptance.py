"""The claim registry: every exactly-computable claim, with its oracle.

`CLAIMS` holds one record per claim: the criterion that yields its
failures, its pass summary, its expected outcomes and their basis, its time
budget and, for the claims that come with diagrams, a builder for them.
`run_all`, `kirbycalc check` and `kirbycalc scenario` all read this
registry.  Criteria 4, 5, 7 and 8 yield from their reports' `failures()`,
and criterion 6 from each catalog diagram's `SteinReport`: the one pass
condition that the CLI's payloads list as `failures`.  Randomized checks
take a seed so runs are reproducible.  All checks are exact integer
assertions; the per-claim time budgets are part of the contract and are
enforced by the test harness.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass, replace
from itertools import accumulate, combinations, groupby, product
from math import gcd
from operator import itemgetter, mul
from typing import Callable, Iterator, Mapping, Sequence

from . import scenarios
from .handles import (
    HandleDecomposition,
    blow_down,
    blow_up,
    dot_zero_swap,
    handle_slide,
)
from .homology import (
    IntMatrix,
    boundary_first_homology,
    boundary_group_order,
    det,
    is_homology_trivial,
    signature,
    smith_normal_form,
)
from .hbd import DiagramDocument, print_hbd
from .legendrian import FrontDiagram, stein_check, thurston_bennequin, torus_knot_front
from .scenarios import (
    ScenarioError,
    _cork_pieces,
    build_Bp,
    build_Cp,
    build_Mn_Nn,
    build_Wn,
    build_Wsum,
    build_X0_model,
    genus_obstruction_Nn,
    knotted_cork_scenario,
    stein_catalog,
    verify_count_lemma,
    verify_restriction_lemma,
)
from .swledger import (
    BasicClassSet,
    IntersectionLattice,
    ManifoldModel,
    Vector,
    blow_up_basic_classes,
    d_invariant,
    random_characteristic_vector,
    rational_blowdown_descend,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str
    seconds: float


# -- 1 -----------------------------------------------------------------------


def criterion_1_lens_space_orders(seed: int) -> Iterator[str]:
    for p in range(2, 11):
        if boundary_group_order(build_Cp(p)) != p * p:
            yield f"|H1(bd C_{p})| != {p * p}"
        if boundary_group_order(build_Bp(p)) != p * p:
            yield f"|H1(bd B_{p})| != {p * p}"


# -- 2 -----------------------------------------------------------------------


def criterion_2_cork_homology(seed: int) -> Iterator[str]:
    """Homology-level check of every declared-contractible catalog piece.

    The pieces are W_1 ... W_10 and the boundary sums W(1), W(1,2), ...,
    W(1,2,3,4,5,1,2,3,4,5), whose summand indices cycle through 1..5.
    """
    pieces = [build_Wn(n) for n in range(1, 11)]
    pieces += [build_Wsum(tuple(j % 5 + 1 for j in range(n))) for n in range(1, 11)]
    for d in pieces:
        if not (is_homology_trivial(d) and boundary_group_order(d) == 1):
            yield f"{d.name} not homology trivial with a homology-sphere boundary"


# -- 3 -----------------------------------------------------------------------

_H2 = IntersectionLattice(IntMatrix.from_rows(
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))


def criterion_3_blow_up_formula(seed: int) -> Iterator[str]:
    rng = random.Random(seed + 3)
    trials = 0
    while trials < 25:
        half = rng.randrange(1, 5)              # |beta| = 2 * half <= 8
        n = rng.randrange(0, 7)
        primal: set[tuple[int, ...]] = set()
        while len(primal) < 2 * half:
            v = tuple(2 * rng.randrange(-3, 4) for _ in range(4))
            if any(v) and v not in primal:
                primal.add(v)
                primal.add(tuple(-x for x in v))
        beta = BasicClassSet.from_primal(_H2, sorted(primal))
        trials += 1
        model = ManifoldModel(_H2, euler=4, signature=0, b2plus=2)
        if n == 0:
            continue
        _, out = blow_up_basic_classes(model, beta, n)
        expected = set()
        for kappa in beta.members:
            for signs in product((1, -1), repeat=n):
                expected.add(kappa + tuple(-s for s in signs))
        # beta is closed under negation, so equality gives 2^n |beta| and closure too
        if set(out.members) != expected:
            yield (f"brute-force enumeration mismatch in trial {trials} "
                   f"(n={n}, |beta|={beta.count})")


# -- 4 -----------------------------------------------------------------------


def criterion_4_count_lemma(seed: int) -> Iterator[str]:
    for p in range(2, 7):
        for n0 in (2, 4):
            yield from verify_count_lemma((p,), 0, n0).failures()


# -- 5 -----------------------------------------------------------------------


def criterion_5_restriction_lemma(seed: int) -> Iterator[str]:
    for p in range(2, 7):
        yield from verify_restriction_lemma((p,), 0, 4).failures()


# -- 6 -----------------------------------------------------------------------


def criterion_6_stein_checks(seed: int) -> Iterator[str]:
    # read through the module, so a replaced catalog is the one checked
    for name, d, fronts in scenarios.stein_catalog():
        for failure in stein_check(d, fronts).failures():
            yield f"{name} {failure}"
    for p in range(2, 9):
        tb = thurston_bennequin(torus_knot_front(p + 1, p))
        if tb - 1 != p * p - p - 2:
            yield f"tb - 1 != p^2 - p - 2 for p={p}"


# -- 7 -----------------------------------------------------------------------


def criterion_7_genus_obstruction(seed: int) -> Iterator[str]:
    for n in range(2, 9):
        for k in range(-5, 6):
            yield from genus_obstruction_Nn(n, k).failures()


# -- 8 -----------------------------------------------------------------------


KNOTS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5))


def criterion_8_knot_surgery(seed: int) -> Iterator[str]:
    yield from knotted_cork_scenario(KNOTS).failures()


# -- 9 -----------------------------------------------------------------------


def _random_decomposition(rng: random.Random) -> HandleDecomposition:
    n1 = rng.randrange(0, 3)
    n2 = rng.randrange(2, 9 - n1)
    ones = tuple(f"h{i}" for i in range(n1))
    twos = tuple((f"k{i}", rng.randrange(-9, 10)) for i in range(n2))
    links = {(f"k{i}", f"k{j}"): rng.randrange(-3, 4)
             for i in range(n2) for j in range(i + 1, n2) if rng.random() < 0.4}
    rt = {(f"k{i}", f"h{h}"): rng.randrange(-2, 3)
          for i in range(n2) for h in range(n1) if rng.random() < 0.3}
    return HandleDecomposition(ones, twos, links, rt)


def _move_failures(rng: random.Random) -> Iterator[tuple[str, str]]:
    """(kind of move, failure naming the case) for every broken move case."""
    slides = 0
    while slides < 1000:
        d = _random_decomposition(rng)
        base = boundary_first_homology(d)
        for _ in range(10):
            a, b = rng.sample(d.two_handle_ids, 2)
            sign = rng.choice((1, -1))
            d = handle_slide(d, a, b, sign)
            slides += 1
            if boundary_first_homology(d) != base:
                yield "slide", (f"boundary invariant factors changed by slide {slides} "
                                f"({a} over {b}, sign {sign:+d})")
                break
    for _ in range(50):
        d = _random_decomposition(rng)
        attach = [(k, rng.randrange(-2, 3)) for k in d.two_handle_ids
                  if rng.random() < 0.6]
        if blow_down(blow_up(d, attach, new_id="e*"), "e*") != d:
            yield "blow-up", ("blow-up/blow-down round trip differs with attachments "
                              + (", ".join(f"{k}={m}" for k, m in attach) or "none"))
    for case in range(1, 51):
        d = _random_decomposition(rng)
        extra = HandleDecomposition(
            d.one_handles + ("hh",), d.two_handles + (("kk", 0),),
            dict(d.links), {**dict(d.run_through),
                            ("kk", "hh"): rng.randrange(-2, 3)})
        if dot_zero_swap(dot_zero_swap(extra, "hh", "kk"), "kk", "hh") != extra:
            yield "swap", f"dot-zero swap of hh and kk is not an involution in case {case}"


def criterion_9_move_invariance(seed: int) -> Iterator[str]:
    # the first failure of each kind of move keeps the detail short; the rest
    # are still drawn, so every later case is the one a passing run checks
    for _, found in groupby(_move_failures(random.Random(seed + 9)), key=itemgetter(0)):
        yield next(found)[1]


# -- 10 ----------------------------------------------------------------------


def _minor_gcds(m: IntMatrix) -> list[int]:
    """gcd of the k x k minors of M, for k = 1 .. min(rows, cols).

    Each k x k minor is the Laplace expansion of its first row over the
    (k-1) x (k-1) minors of the rows below it, kept by (row subset, column
    subset) from the step before, so this oracle shares no code with the
    Smith elimination or with `det`.
    """
    a = m.entries
    out = []
    minors = {((), ()): 1}
    for k in range(1, min(m.rows, m.cols) + 1):
        expanded = {}
        g = 0
        for rows in combinations(range(m.rows), k):
            top, below = a[rows[0]], rows[1:]
            for cols in combinations(range(m.cols), k):
                x = 0
                for j, c in enumerate(cols):
                    if top[c]:
                        term = top[c] * minors[below, cols[:j] + cols[j + 1:]]
                        x += -term if j % 2 else term
                expanded[rows, cols] = x
                g = gcd(g, x)
        out.append(g)
        minors = expanded
    return out


def criterion_10_snf(seed: int) -> Iterator[str]:
    rng = random.Random(seed + 10)
    for draw in range(1, 501):
        r, c = rng.randrange(1, 7), rng.randrange(1, 7)
        m = IntMatrix.from_rows([[rng.randrange(-9, 10) for _ in range(c)]
                                 for _ in range(r)], c)
        case = f"draw {draw}, {m.to_lists()}"
        snf = smith_normal_form(m)
        if snf.u @ m @ snf.v != snf.s:
            yield f"U M V != S for {case}"
            return
        if abs(det(snf.u)) != 1 or abs(det(snf.v)) != 1:
            yield f"transform not unimodular for {case}"
            return
        diag = snf.diagonal
        chain_broken = any(y % x if x else y for x, y in zip(diag, diag[1:]))
        if chain_broken:
            yield f"divisibility chain {diag} broken for {case}"
        products = accumulate(diag, mul)
        k = next((k for k, (d_k, g_k) in enumerate(zip(products, _minor_gcds(m)), 1)
                  if d_k != g_k), 0)
        if k:
            yield f"gcd of {k}x{k} minors mismatch for {case}"
        if chain_broken or k:
            return                         # stop at the first failing matrix


# -- 11 ----------------------------------------------------------------------


def _memo_free(model: ManifoldModel) -> ManifoldModel:
    """The model on a copy of its lattice that stores no squares.

    Every d-invariant on it takes a fresh dual square, never one that a
    builder stored, so conservation is computed rather than read back.
    """
    return replace(model, lattice=IntersectionLattice(model.lattice.pairing))


def _d_change(before: Mapping[Vector, int], after: Mapping[Vector, int], want: int) -> str:
    """d before -> after, and the first class, output ahead of input, whose d is not `want`."""
    first = next((f", first at class {kk} with d {d}"
                  for kk, d in (*after.items(), *before.items()) if d != want), "")
    return f"d {sorted(set(before.values()))} -> {sorted(set(after.values()))}{first}"


def criterion_11_d_conservation(seed: int) -> Iterator[str]:
    rng = random.Random(seed + 11)
    # blow-up: random characteristic classes on random models
    for draw in range(15):
        n = rng.randrange(1, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(-3, 4)
        m = IntMatrix.from_rows(rows, n)
        if det(m) == 0:
            continue                       # degenerate pairing, resample
        base = IntersectionLattice(m)
        k = random_characteristic_vector(base, rng)
        square = base.square(k)
        sigma = signature(m)
        if (square - 3 * sigma) % 2:       # parity corrector block
            rows2 = [row + [0] for row in rows] + [[0] * n + [-2]]
            base = IntersectionLattice(IntMatrix.from_rows(rows2, n + 1))
            k = tuple(k) + (0,)
            square = base.square(k)
            sigma -= 1
        target_d = 2 * rng.randrange(-2, 3)
        euler = (square - 3 * sigma - 4 * target_d) // 2
        model = ManifoldModel(base, euler, sigma, 2)
        beta = BasicClassSet.from_primal(base, [k, tuple(-x for x in k)])
        nb = rng.randrange(1, 4)
        m2, beta2 = blow_up_basic_classes(model, beta, nb)
        m2 = _memo_free(m2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            before = {kk: d_invariant(model, kk) for kk in beta.members}
            after = {kk: d_invariant(m2, kk) for kk in beta2.members}
        if not set(after.values()) == set(before.values()) == {target_d}:
            yield (f"d changed under blow-up in draw {draw} (rank {base.rank}, "
                   f"blow-up count {nb}): {_d_change(before, after, target_d)}")
    # descent: eligible classes on the synthetic blown-up models
    for draw in range(6):
        p = rng.randrange(2, 6)
        n0 = rng.choice((2, 4))
        x0 = build_X0_model((p,), n0)
        model = _memo_free(x0.model)
        before = {kk: d_invariant(model, kk) for kk in x0.classes.members}
        m2, b2 = rational_blowdown_descend(
            x0.model, x0.classes, x0.chain_vectors(0), x0.complement_basis(0))
        rank, want = m2.lattice.rank, x0.lattice.rank - (p - 1)
        if rank != want:
            yield f"descent from rank {x0.lattice.rank} gave {rank}, not {want}, for p={p}"
        m2 = _memo_free(m2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # an odd d is named below
            after = {kk: d_invariant(m2, kk) for kk in b2.members}
        if not set(after.values()) == set(before.values()) == {0}:
            yield (f"d changed under descent in draw {draw} (p={p}, N0={n0}): "
                   f"{_d_change(before, after, 0)}")


# -- the registry ----------------------------------------------------------------

DEFAULT_SEED = 2026

Document = tuple[str, HandleDecomposition, Mapping[str, FrontDiagram]]


@dataclass(frozen=True)
class Claim:
    """One claim: its criterion, expected outcomes, time budget and diagrams.

    `failures(seed)` yields one message per failure found; `summary` is the
    detail of a pass.  Each expected outcome carries a `basis` field:
    "declared" for model input data, "derived" for values recomputed through
    an independent route, "identity" for definitional facts.  `documents`
    builds the claim's diagrams; it runs only when the claim is exported.
    """

    number: int
    name: str
    title: str
    description: str
    budget: float
    failures: Callable[[int], Iterator[str]]
    summary: str
    expected: tuple[Mapping[str, object], ...]
    documents: Callable[[], Sequence[Document]] = tuple

    def check(self, seed: int) -> tuple[bool, str]:
        """(ok, detail): the distinct failures in the order found, or the summary.

        A kirbycalc error (a `ValueError`) raised while the criterion runs
        fails the claim, its message the last failure; any other exception
        is an internal fault and propagates.
        """
        found: list[str] = []
        try:
            for failure in self.failures(seed):
                found.append(failure)
        except ValueError as exc:
            found.append(str(exc))
        found = list(dict.fromkeys(found))
        return not found, "; ".join(found) or self.summary

    def export(self) -> dict:
        docs = {name: print_hbd(DiagramDocument(d, dict(fronts)))
                for name, d, fronts in self.documents()}
        return {
            "name": self.name,
            "description": self.description,
            "documents": docs,
            "expected": [dict(e) for e in self.expected],
        }


def _lens_documents() -> tuple[Document, ...]:
    return tuple((f"C{p}", build_Cp(p), {}) for p in range(2, 6)) + \
        tuple((f"B{p}", build_Bp(p), {}) for p in range(2, 6))


def _genus_documents() -> tuple[Document, ...]:
    return tuple((n_n.name, n_n, {}) for _, n_n in map(build_Mn_Nn, (2, 3)))


CLAIMS: tuple[Claim, ...] = (
    Claim(1, "lens-orders", "lens-space boundary orders",
          "boundary first homology of the blowdown chain and its rational ball",
          1.0, criterion_1_lens_space_orders,
          "orders p^2 for p = 2..10",
          tuple({"check": "boundary order", "piece": f"C{p} and B{p}",
                 "value": p * p, "basis": "derived"} for p in range(2, 11)),
          _lens_documents),
    Claim(2, "cork-homology", "cork homology vanishing",
          "contractibility at the homology level for all cork pieces",
          1.0, criterion_2_cork_homology,
          "H1 = H2 = 0 for all cork pieces",
          ({"check": "H1 = H2 = 0, boundary a homology sphere",
            "value": True, "basis": "derived"},),
          _cork_pieces),
    Claim(3, "blowup-formula", "blow-up formula vs enumeration",
          "blowing up n times multiplies the class count by 2^n",
          5.0, criterion_3_blow_up_formula,
          "2^n |beta| with negation closure on 25 random sets",
          ({"check": "blown-up classes equal the brute-force enumeration",
            "value": True, "basis": "derived"},)),
    Claim(4, "count", "basic-class count lemma",
          "class count multiplies by 2^(p-1) under blowdown plus blow-up",
          5.0, criterion_4_count_lemma,
          "N(X_i) = 2^(p-1) N(X_0) for p = 2..6, N0 in {2,4}",
          tuple({"check": "count ratio", "p": p, "value": 1 << (p - 1),
                 "basis": "derived"} for p in range(2, 7))),
    Claim(5, "restriction", "restriction distinctness lemma",
          "distinct classes restrict distinctly to the chain complement",
          1.0, criterion_5_restriction_lemma,
          "distinct restrictions, alpha identity, index p^2 for p = 2..6",
          tuple({"check": "complement index", "p": p, "value": f"|H1(bd C_{p})|",
                 "basis": "derived"} for p in range(2, 7))),
    Claim(6, "stein", "Stein framing checks",
          "every declared-fillable diagram satisfies framing = tb - 1",
          1.0, criterion_6_stein_checks,
          "catalog Stein, tb((p+1,p)) - 1 = p^2 - p - 2 for p = 2..8",
          ({"check": "framing = tb - 1 on every 2-handle",
            "value": True, "basis": "declared"},),
          stein_catalog),
    Claim(7, "genus", "genus obstruction bound",
          "adjunction forces k = 0 for genus below n",
          1.0, criterion_7_genus_obstruction,
          "max pairing |k|(2n-2), bound |k|(n-1)+1; genus < n forces k = 0, "
          "n = 2..8, |k| <= 5",
          tuple({"check": "pairing with k alpha", "n": n,
                 "value": f"|k| * {2 * n - 2}", "basis": "derived"}
                for n in range(2, 9)),
          _genus_documents),
    Claim(8, "knottedcork", "knot surgery distinctness",
          "distinct torus knots give distinct nonzero class sets",
          1.0, criterion_8_knot_surgery,
          "Delta (t^p-1)(t^q-1) = t^-delta (t^pq-1)(t-1), output weight = "
          "Delta(1) input weight; distinct nonzero outputs for 5 torus knots",
          ({"check": "pairwise distinct and nonzero", "value": True,
            "basis": "derived"},
           {"check": "Delta (t^p-1)(t^q-1) = t^-delta (t^pq-1)(t-1), "
                     "delta = (p-1)(q-1)/2; output weight = Delta(1) input weight",
            "value": True, "basis": "derived"},
           {"check": "twisted side has empty class set", "value": True,
            "basis": "declared"})),
    Claim(9, "moves", "move invariance",
          "slides keep the boundary homology; blow-up and swap round trips",
          10.0, criterion_9_move_invariance,
          "1000 slides invariant; round trips exact; swap is an involution",
          ({"check": "boundary invariant factors after 1000 slides",
            "value": "unchanged", "basis": "derived"},
           {"check": "blow-down of a blow-up, swap of a swap",
            "value": "the input", "basis": "identity"})),
    Claim(10, "snf", "Smith normal form correctness",
          "Smith normal form against the gcd of minors",
          10.0, criterion_10_snf,
          "U M V = S, unimodular, chain, gcd-of-minors on 500 matrices",
          ({"check": "U M V = S, unimodular, divisibility chain",
            "value": True, "basis": "identity"},
           {"check": "product of the first k invariant factors",
            "value": "gcd of k x k minors", "basis": "derived"})),
    Claim(11, "d-conservation", "d-invariant conservation",
          "d is preserved classwise under blow-up and rational blowdown",
          1.0, criterion_11_d_conservation,
          "d preserved classwise under blow-up and rational blowdown",
          ({"check": "d of every class before and after", "value": "equal",
            "basis": "derived"},)),
)


def claim_named(name: str) -> Claim:
    for c in CLAIMS:
        if c.name == name:
            return c
    raise ScenarioError(f"no claim named {name!r}; "
                        f"known: {', '.join(c.name for c in CLAIMS)}")


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    for c in CLAIMS:
        if c.number == number:
            start = time.perf_counter()
            ok, detail = c.check(seed)
            elapsed = time.perf_counter() - start
            return CriterionResult(c.number, c.title, ok, detail, elapsed)
    raise ValueError(f"no acceptance criterion {number}")


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [run_criterion(c.number, seed) for c in CLAIMS]
