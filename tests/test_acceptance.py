"""Acceptance gate: one test per registered claim, printed pass/fail, timed."""

import pytest

from kirbycalc.acceptance import CLAIMS, run_criterion

SEED = 2026

# (title, pass detail) of every claim, as `kirbycalc check` reports them
PINNED = {
    1: ("lens-space boundary orders", "orders p^2 for p = 2..10"),
    2: ("cork homology vanishing", "H1 = H2 = 0 for all cork pieces"),
    3: ("blow-up formula vs enumeration",
        "2^n |beta| with negation closure on 25 random sets"),
    4: ("basic-class count lemma",
        "N(X_i) = 2^(p-1) N(X_0) for p = 2..6, N0 in {2,4}"),
    5: ("restriction distinctness lemma",
        "distinct restrictions, alpha identity, index p^2 for p = 2..6"),
    6: ("Stein framing checks",
        "catalog Stein, tb((p+1,p)) - 1 = p^2 - p - 2 for p = 2..8"),
    7: ("genus obstruction bound",
        "bound >= n|k| - (|k|-1); genus < n forces k = 0, n = 2..8, |k| <= 5"),
    8: ("knot surgery distinctness",
        "distinct nonzero outputs for 5 torus knots; symmetric unit polynomials"),
    9: ("move invariance",
        "1000 slides invariant; round trips exact; swap is an involution"),
    10: ("Smith normal form correctness",
         "U M V = S, unimodular, chain, gcd-of-minors on 500 matrices"),
    11: ("d-invariant conservation",
         "d preserved classwise under blow-up and rational blowdown"),
}


def test_registry_numbers_and_names_are_unique():
    assert [c.number for c in CLAIMS] == sorted(PINNED)
    assert len({c.name for c in CLAIMS}) == len(CLAIMS)


@pytest.mark.parametrize("claim", CLAIMS,
                         ids=[f"criterion-{c.number:02d}" for c in CLAIMS])
def test_acceptance_criterion(claim):
    result = run_criterion(claim.number, SEED)
    status = "PASS" if result.ok else "FAIL"
    print(f"{status} criterion {claim.number}: {claim.title} "
          f"({result.seconds:.2f}s / budget {claim.budget:.0f}s) - {result.detail}")
    assert result.ok, f"criterion {claim.number} ({claim.title}): {result.detail}"
    assert (result.number, result.title, result.detail) == \
        (claim.number, *PINNED[claim.number])
    assert result.seconds < claim.budget, \
        f"criterion {claim.number} exceeded its {claim.budget:.0f}s budget: {result.seconds:.2f}s"


def test_stein_failure_names_the_diagram(monkeypatch):
    from kirbycalc import scenarios
    from kirbycalc.acceptance import claim_named
    from kirbycalc.handles import HandleDecomposition

    original = scenarios.stein_catalog

    def broken():
        entries = original()
        name, d, fronts = entries[1]
        wrong = HandleDecomposition(d.one_handles,
                                    tuple((k, f + 1) for k, f in d.two_handles),
                                    dict(d.links), dict(d.run_through),
                                    d.three_handles, d.name)
        entries[1] = (name, wrong, fronts)
        return entries

    monkeypatch.setattr(scenarios, "stein_catalog", broken)
    ok, detail = claim_named("stein").check(SEED)
    assert not ok
    assert detail == "W2 fails framing = tb - 1 on k"


def test_d_conservation_raises_lattice_errors(monkeypatch):
    # only a degenerate pairing may skip a blow-up trial; any other error surfaces
    from kirbycalc.acceptance import criterion_11_d_conservation
    from kirbycalc.swledger import IntersectionLattice

    exact = IntersectionLattice.dual_square

    def broken(lat, kappa):
        if lat.rank <= 7:
            raise RuntimeError("dual square failed")
        return exact(lat, kappa)

    monkeypatch.setattr(IntersectionLattice, "dual_square", broken)
    with pytest.raises(RuntimeError):
        criterion_11_d_conservation(SEED)
