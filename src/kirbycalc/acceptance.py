"""The claim registry: every exactly-computable claim, with its oracle.

`CLAIMS` holds one record per claim: its check, its expected outcomes and
their basis, its time budget and, for the claims that come with diagrams, a
builder for them.  `run_all`, `kirbycalc check` and `kirbycalc scenario`
all read this registry.  Randomized checks take a seed so runs are
reproducible.  All checks are exact integer assertions; the per-claim time
budgets are part of the contract and are enforced by the test harness.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd
from typing import Callable, Mapping, Sequence

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
    signature,
    smith_normal_form,
)
from .hbd import DiagramDocument, print_hbd
from .legendrian import FrontDiagram, thurston_bennequin, torus_knot_front
from .scenarios import (
    ScenarioError,
    _cork_pieces,
    build_Bp,
    build_Cp,
    build_Mn_Nn,
    build_X0_model,
    genus_obstruction_Nn,
    knotted_cork_scenario,
    stein_catalog,
    verify_contractibility,
    verify_count_lemma,
    verify_restriction_lemma,
    verify_stein_catalog,
)
from .swledger import (
    BasicClassSet,
    IntersectionLattice,
    LaurentPolynomial,
    ManifoldModel,
    alexander_polynomial_torus,
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


def _check(flag: bool, message: str, failures: list[str]) -> None:
    if not flag:
        failures.append(message)


# -- 1 -----------------------------------------------------------------------


def criterion_1_lens_space_orders(seed: int) -> tuple[bool, str]:
    failures: list[str] = []
    for p in range(2, 11):
        _check(boundary_group_order(build_Cp(p)) == p * p,
               f"|H1(bd C_{p})| != {p * p}", failures)
        _check(boundary_group_order(build_Bp(p)) == p * p,
               f"|H1(bd B_{p})| != {p * p}", failures)
    return not failures, "; ".join(failures) or "orders p^2 for p = 2..10"


# -- 2 -----------------------------------------------------------------------


def criterion_2_cork_homology(seed: int) -> tuple[bool, str]:
    failures = [f"{name} not homology trivial with a homology-sphere boundary"
                for name in verify_contractibility().failed]
    return not failures, "; ".join(failures) or "H1 = H2 = 0 for all cork pieces"


# -- 3 -----------------------------------------------------------------------

_H2 = IntersectionLattice(IntMatrix.from_rows(
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))


def criterion_3_blow_up_formula(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed + 3)
    failures: list[str] = []
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
        if beta.count != 2 * half:
            continue
        trials += 1
        model = ManifoldModel(_H2, euler=4, signature=0, b2plus=2)
        if n == 0:
            continue
        _, out = blow_up_basic_classes(model, beta, n)
        expected = set()
        for kappa in beta.members:
            for signs in product((1, -1), repeat=n):
                expected.add(kappa + tuple(-s for s in signs))
        _check(set(out.members) == expected, "brute-force enumeration mismatch",
               failures)
        _check(out.count == (1 << n) * beta.count,
               f"|beta'| != 2^{n} |beta|", failures)
        _check(all(tuple(-x for x in kappa) in out.weights
                   for kappa in out.members), "negation closure broken", failures)
    return not failures, "; ".join(failures) or \
        "2^n |beta| with negation closure on 25 random sets"


# -- 4 -----------------------------------------------------------------------


def criterion_4_count_lemma(seed: int) -> tuple[bool, str]:
    failures: list[str] = []
    for p in range(2, 7):
        for n0 in (2, 4):
            report = verify_count_lemma((p,), 0, n0)
            _check(report.ok and report.ni == (1 << (p - 1)) * n0,
                   f"count lemma failed for p={p}, N0={n0}", failures)
    return not failures, "; ".join(failures) or \
        "N(X_i) = 2^(p-1) N(X_0) for p = 2..6, N0 in {2,4}"


# -- 5 -----------------------------------------------------------------------


def criterion_5_restriction_lemma(seed: int) -> tuple[bool, str]:
    failures: list[str] = []
    for p in range(2, 7):
        report = verify_restriction_lemma((p,), 0, 4)
        _check(report.ok, f"restriction lemma failed for p={p}", failures)
        _check(report.mayer_vietoris_index == p * p,
               f"index != p^2 for p={p}", failures)
    return not failures, "; ".join(failures) or \
        "distinct restrictions, alpha identity, index p^2 for p = 2..6"


# -- 6 -----------------------------------------------------------------------


def criterion_6_stein_checks(seed: int) -> tuple[bool, str]:
    failures = [f"{name} fails framing = tb - 1 on "
                + ", ".join(v.handle for v in report.verdicts if not v.ok)
                for name, report in verify_stein_catalog().reports
                if not report.ok]
    for p in range(2, 9):
        tb = thurston_bennequin(torus_knot_front(p + 1, p))
        _check(tb - 1 == p * p - p - 2,
               f"tb - 1 != p^2 - p - 2 for p={p}", failures)
    return not failures, "; ".join(failures) or \
        "catalog Stein, tb((p+1,p)) - 1 = p^2 - p - 2 for p = 2..8"


# -- 7 -----------------------------------------------------------------------


def criterion_7_genus_obstruction(seed: int) -> tuple[bool, str]:
    failures: list[str] = []
    for n in range(2, 9):
        for k in range(-5, 6):
            report = genus_obstruction_Nn(n, k)
            _check(report.ok, f"genus report failed for n={n}, k={k}", failures)
            if k != 0:
                _check(report.genus_bound >= n * abs(k) - (abs(k) - 1),
                       f"bound below n|k| - (|k|-1) for n={n}, k={k}", failures)
                _check(report.genus_bound >= n,
                       f"genus < {n} does not force k = 0 at k={k}", failures)
    return not failures, "; ".join(failures) or \
        "bound >= n|k| - (|k|-1); genus < n forces k = 0, n = 2..8, |k| <= 5"


# -- 8 -----------------------------------------------------------------------


def criterion_8_knot_surgery(seed: int) -> tuple[bool, str]:
    failures: list[str] = []
    knots = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5)]
    report = knotted_cork_scenario(knots)
    _check(report.ok, "surgery outputs not pairwise distinct and nonzero", failures)
    for p, q in knots:
        poly = alexander_polynomial_torus(p, q)
        _check(poly(1) in (1, -1), f"Delta(1) != +-1 for ({p},{q})", failures)
        _check(poly.is_symmetric(), f"Delta not symmetric for ({p},{q})", failures)
    trefoil = alexander_polynomial_torus(3, 2)
    _check(dict(trefoil.coeffs) == {1: 1, 0: -1, -1: 1},
           "trefoil polynomial wrong", failures)
    # division oracle, run backwards: multiplying by the denominator must
    # reproduce the numerator exactly
    lhs = trefoil * LaurentPolynomial({3: 1, 0: -1}) * LaurentPolynomial({2: 1, 0: -1})
    rhs = LaurentPolynomial({5: 1, -1: -1}) * LaurentPolynomial({1: 1, 0: -1})
    _check(lhs == rhs, "division oracle mismatch for the trefoil", failures)
    return not failures, "; ".join(failures) or \
        "distinct nonzero outputs for 5 torus knots; symmetric unit polynomials"


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


def criterion_9_move_invariance(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed + 9)
    failures: list[str] = []
    slides = 0
    while slides < 1000:
        d = _random_decomposition(rng)
        base = boundary_first_homology(d)
        for _ in range(10):
            a, b = rng.sample(d.two_handle_ids, 2)
            d = handle_slide(d, a, b, rng.choice((1, -1)))
            slides += 1
            if boundary_first_homology(d) != base:
                failures.append("boundary invariant factors changed by a slide")
                break
    for _ in range(50):
        d = _random_decomposition(rng)
        attach = [(k, rng.randrange(-2, 3)) for k in d.two_handle_ids
                  if rng.random() < 0.6]
        if blow_down(blow_up(d, attach, new_id="e*"), "e*") != d:
            failures.append("blow-up/blow-down round trip differs")
    for _ in range(50):
        d = _random_decomposition(rng)
        extra = HandleDecomposition(
            d.one_handles + ("hh",), d.two_handles + (("kk", 0),),
            dict(d.links), {**dict(d.run_through),
                            ("kk", "hh"): rng.randrange(-2, 3)})
        if dot_zero_swap(dot_zero_swap(extra, "hh", "kk"), "kk", "hh") != extra:
            failures.append("dot-zero swap is not an involution")
    return not failures, "; ".join(sorted(set(failures))) or \
        "1000 slides invariant; round trips exact; swap is an involution"


# -- 10 ----------------------------------------------------------------------


def _minor_gcds(m: IntMatrix) -> list[int]:
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                g = gcd(g, det(IntMatrix.from_rows(
                    [[m[i, j] for j in cols] for i in rows], k)))
        out.append(abs(g))
    return out


def criterion_10_snf(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed + 10)
    failures: list[str] = []
    for _ in range(500):
        r, c = rng.randrange(1, 7), rng.randrange(1, 7)
        m = IntMatrix.from_rows([[rng.randrange(-9, 10) for _ in range(c)]
                                 for _ in range(r)], c)
        snf = smith_normal_form(m)
        if snf.u @ m @ snf.v != snf.s:
            failures.append("U M V != S")
            break
        if abs(det(snf.u)) != 1 or abs(det(snf.v)) != 1:
            failures.append("transform not unimodular")
            break
        diag = snf.diagonal
        for x, y in zip(diag, diag[1:]):
            if (x == 0 and y != 0) or (x != 0 and y % x):
                failures.append("divisibility chain broken")
        prod = 1
        for k, (d_k, g_k) in enumerate(zip(diag, _minor_gcds(m))):
            prod *= d_k
            if prod != g_k:
                failures.append(f"gcd of {k + 1}x{k + 1} minors mismatch")
                break
        if failures:
            break
    return not failures, "; ".join(failures) or \
        "U M V = S, unimodular, chain, gcd-of-minors on 500 matrices"


# -- 11 ----------------------------------------------------------------------


def criterion_11_d_conservation(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed + 11)
    failures: list[str] = []
    # blow-up: random characteristic classes on random models
    for _ in range(15):
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            before = {d_invariant(model, kk) for kk in beta.members}
            after = {d_invariant(m2, kk) for kk in beta2.members}
        _check(after == before == {target_d},
               "d changed under blow-up", failures)
    # descent: eligible classes on the synthetic blown-up models
    for _ in range(6):
        p = rng.randrange(2, 6)
        n0 = rng.choice((2, 4))
        x0 = build_X0_model((p,), n0)
        before = {d_invariant(x0.model, kk) for kk in x0.classes.members}
        m2, b2 = rational_blowdown_descend(
            x0.model, x0.classes, x0.chain_vectors(0), x0.complement_basis(0))
        after = {d_invariant(m2, kk) for kk in b2.members}
        _check(after == before == {0}, "d changed under descent", failures)
    return not failures, "; ".join(sorted(set(failures))) or \
        "d preserved classwise under blow-up and rational blowdown"


# -- the registry ----------------------------------------------------------------

DEFAULT_SEED = 2026

Document = tuple[str, HandleDecomposition, Mapping[str, FrontDiagram]]


def _no_documents() -> tuple[Document, ...]:
    return ()


@dataclass(frozen=True)
class Claim:
    """One claim: its check, expected outcomes, time budget and diagrams.

    Each expected outcome carries a `basis` field: "declared" for model
    input data, "derived" for values recomputed through an independent
    route, "identity" for definitional facts.  `documents` builds the
    claim's diagrams; it runs only when the claim is exported.
    """

    number: int
    name: str
    title: str
    description: str
    budget: float
    check: Callable[[int], tuple[bool, str]]
    expected: tuple[Mapping[str, object], ...]
    documents: Callable[[], Sequence[Document]] = _no_documents

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
    return tuple((d.name, d, {}) for d in
                 [build_Mn_Nn(n)[1] for n in (2, 3)])


CLAIMS: tuple[Claim, ...] = (
    Claim(1, "lens-orders", "lens-space boundary orders",
          "boundary first homology of the blowdown chain and its rational ball",
          1.0, criterion_1_lens_space_orders,
          tuple({"check": "boundary order", "piece": f"C{p} and B{p}",
                 "value": p * p, "basis": "derived"} for p in range(2, 11)),
          _lens_documents),
    Claim(2, "cork-homology", "cork homology vanishing",
          "contractibility at the homology level for all cork pieces",
          1.0, criterion_2_cork_homology,
          ({"check": "H1 = H2 = 0, boundary a homology sphere",
            "value": True, "basis": "derived"},),
          _cork_pieces),
    Claim(3, "blowup-formula", "blow-up formula vs enumeration",
          "blowing up n times multiplies the class count by 2^n",
          5.0, criterion_3_blow_up_formula,
          ({"check": "blown-up classes equal the brute-force enumeration",
            "value": True, "basis": "derived"},)),
    Claim(4, "count", "basic-class count lemma",
          "class count multiplies by 2^(p-1) under blowdown plus blow-up",
          5.0, criterion_4_count_lemma,
          tuple({"check": "count ratio", "p": p, "value": 1 << (p - 1),
                 "basis": "derived"} for p in range(2, 7))),
    Claim(5, "restriction", "restriction distinctness lemma",
          "distinct classes restrict distinctly to the chain complement",
          1.0, criterion_5_restriction_lemma,
          tuple({"check": "complement index", "p": p, "value": p * p,
                 "basis": "derived"} for p in range(2, 7))),
    Claim(6, "stein", "Stein framing checks",
          "every declared-fillable diagram satisfies framing = tb - 1",
          1.0, criterion_6_stein_checks,
          ({"check": "framing = tb - 1 on every 2-handle",
            "value": True, "basis": "declared"},),
          stein_catalog),
    Claim(7, "genus", "genus obstruction bound",
          "adjunction forces k = 0 for genus below n",
          1.0, criterion_7_genus_obstruction,
          tuple({"check": "pairing with k alpha", "n": n,
                 "value": f"|k| * {2 * n - 2}", "basis": "derived"}
                for n in range(2, 9)),
          _genus_documents),
    Claim(8, "knottedcork", "knot surgery distinctness",
          "distinct torus knots give distinct nonzero class sets",
          1.0, criterion_8_knot_surgery,
          ({"check": "pairwise distinct and nonzero", "value": True,
            "basis": "derived"},
           {"check": "twisted side has empty class set", "value": True,
            "basis": "declared"})),
    Claim(9, "moves", "move invariance",
          "slides keep the boundary homology; blow-up and swap round trips",
          10.0, criterion_9_move_invariance,
          ({"check": "boundary invariant factors after 1000 slides",
            "value": "unchanged", "basis": "derived"},
           {"check": "blow-down of a blow-up, swap of a swap",
            "value": "the input", "basis": "identity"})),
    Claim(10, "snf", "Smith normal form correctness",
          "Smith normal form against the gcd of minors",
          10.0, criterion_10_snf,
          ({"check": "U M V = S, unimodular, divisibility chain",
            "value": True, "basis": "identity"},
           {"check": "product of the first k invariant factors",
            "value": "gcd of k x k minors", "basis": "derived"})),
    Claim(11, "d-conservation", "d-invariant conservation",
          "d is preserved classwise under blow-up and rational blowdown",
          1.0, criterion_11_d_conservation,
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
