"""Seeded op lists for the three workloads.

A pass is one fresh interpreter running one op list.  Each op calls
kirbycalc's public API on inputs generated here from the pass's random
generator, then an oracle from `oracles` checks the output.  Library calls go
through module attributes (`H.smith_normal_form`, not a bound name) so that a
traced pass sees them through the recorder's wrappers.

Sizes stop below today's cliffs, so every draw finishes:
  linalg    dense n <= 20 (single n = 22-24 draws take 16-28x their median,
            n >= 28 reaches seconds), plumbings <= 40 2-handles (>= 60 has run
            past a minute);
  ledger    count lemma p <= 9, genus model n <= 10;
  diagrams  small diagrams <= 8 handles, C_p chains up to p = 120,
            D~p torus fronts with 16 <= p <= 24.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, replace
from importlib import import_module
from typing import Any, Callable

import oracles as O

# import_module, because the package re-exports a function named `homology`
# over the submodule attribute of the same name
CLI, HD, HBD, H, LG, S, SW = (import_module(f"kirbycalc.{m}") for m in (
    "cli", "handles", "hbd", "homology", "legendrian", "scenarios", "swledger"))

KNOWN_DEFECT = "known defect: print_hbd writes `manifold unnamed` for an empty name"

DENSE_SIZES = (4, 8, 12, 16, 20)
PLUMBING_SIZES = (10, 20, 30, 40)
# Fraction-based inertia on 40-handle plumbings spreads 50-200 ms from draw to
# draw and would dominate the run's time; 30 handles keep it near dense n=20.
PLUMBING_INERTIA_MAX = 30
LINALG_ROUNDS = 8
COUNT_P = range(2, 10)
TWO_CHAIN = ((7, 3), (6, 4), (5, 5))
GENUS_N = range(2, 11)
GENUS_K = range(-5, 6)
KNOTS = ((2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (5, 6), (5, 7), (7, 9))
KNOT_SEED_COUNTS = (2, 4, 6, 8)
SMALL_SESSIONS = 100
# (dotted circles, framed knots) besides hh and kk; small sessions cycle through
# these and through C_p summands p = 2..6, so every seed gets the same mix
SMALL_SIZES = tuple((n1, n2) for n1 in (0, 1) for n2 in range(2, 7 - n1))
SMALL_SUM_P = range(2, 7)
CHAIN_SIZES = (40, 60, 80, 100, 120)
# D~p sums of 1, 2 and 3 summands, the top p of each band.  They are the
# workload's heaviest ops after the long chains, so they are the same for
# every seed, which keeps op_tail_ms from following the draw.
STEIN_BANDS = (range(16, 19), range(19, 22), range(22, 25))
STEIN_SUMS = tuple(tuple(band[-length:]) for length in (1, 2, 3) for band in STEIN_BANDS)


@dataclass
class Op:
    """One call (or one short pipeline) into kirbycalc and its oracle.

    `key` describes the input and is what makes two op lists comparable;
    `run` gets the session context and returns the output; `check` gets the
    context and the output and returns None or the reason the output is wrong.
    """

    kind: str
    key: tuple
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], str | None]


# -- linalg --------------------------------------------------------------------------


def dense(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]


def plumbing(rng: random.Random, n2: int, n1: int) -> HD.HandleDecomposition:
    """Random plumbing tree of n2 framed unknots plus n1 dotted circles.

    Built the way the library's own builders build diagrams, so it carries no
    name.
    """
    twos = tuple((f"k{i}", rng.randint(-7, 3)) for i in range(n2))
    links = {(f"k{rng.randrange(i)}", f"k{i}"): rng.choice((1, -1))
             for i in range(1, n2)}
    ones = tuple(f"h{j}" for j in range(n1))
    rt = {(f"k{i}", h): rng.choice((-2, -1, 1, 2))
          for h in ones for i in rng.sample(range(n2), 3)}
    return HD.HandleDecomposition(ones, twos, links, rt)


def _rows(m) -> list[list[int]]:
    return [list(r) for r in m.entries]


def _snf_op(rows: list[list[int]], family: str) -> Op:
    m = H.IntMatrix.from_rows(rows, len(rows[0]))

    def check(ctx, snf):
        return O.check_snf(rows, _rows(snf.s), _rows(snf.u), _rows(snf.v))
    return Op(f"snf.{family}", ("snf", family, m.entries),
              lambda ctx: H.smith_normal_form(m), check)


def _kernel_op(rows: list[list[int]]) -> Op:
    m = H.IntMatrix.from_rows(rows, len(rows[0]))
    return Op("kernel.dense", ("kernel", m.entries),
              lambda ctx: H.kernel_basis(m),
              lambda ctx, out: O.check_kernel(rows, out, m.cols))


def _inertia_op(rows: list[list[int]], family: str) -> Op:
    m = H.IntMatrix.from_rows(rows, len(rows))
    return Op(f"inertia.{family}", ("inertia", family, m.entries),
              lambda ctx: H.inertia(m),
              lambda ctx, out: O.check_inertia(rows, out))


def _decomposition_data(d):
    return d.one_handles, d.two_handles, dict(d.links), dict(d.run_through)


def _homology_op(d) -> Op:
    ones, twos, links, rt = _decomposition_data(d)
    ids = [k for k, _ in twos]
    r_rows = O.run_through_rows(ones, ids, rt)
    q_rows = O.linking_rows(twos, links)

    def check(ctx, prof):
        return O.check_homology(r_rows, q_rows, len(ones), len(ids),
                                prof.h1_invariant_factors, prof.h1_free_rank,
                                prof.h2_rank, prof.intersection_form.entries,
                                prof.h2_basis)
    return Op("homology.plumbing", ("homology", repr(d)),
              lambda ctx: H.homology(d), check)


def _boundary_op(d) -> Op:
    pres = O.presentation_rows(*_decomposition_data(d))
    return Op("boundary.plumbing", ("boundary", repr(d)),
              lambda ctx: H.boundary_first_homology(d),
              lambda ctx, out: O.check_boundary(pres, out))


def linalg_ops(rng: random.Random) -> list[Op]:
    """Dense matrices and surgery-shaped plumbings on a fixed size ladder."""
    ops: list[Op] = []
    for _ in range(LINALG_ROUNDS):
        for n in DENSE_SIZES:
            ops += [_snf_op(dense(rng, n, n), "dense") for _ in range(2)]
            ops.append(_kernel_op(dense(rng, n - rng.randint(1, 3), n)))
            a = dense(rng, n, n)
            ops.append(_inertia_op([[a[i][j] + a[j][i] for j in range(n)]
                                    for i in range(n)], "dense"))
        for n2 in PLUMBING_SIZES:
            d = plumbing(rng, n2, rng.randint(1, 3))
            ops.append(_homology_op(d))
            ops.append(_boundary_op(d))
            ops.append(_snf_op(O.presentation_rows(*_decomposition_data(d)), "plumbing"))
            if n2 <= PLUMBING_INERTIA_MAX:
                ops.append(_inertia_op(O.linking_rows(d.two_handles, dict(d.links)),
                                       "plumbing"))
    rng.shuffle(ops)
    return ops


# -- ledger --------------------------------------------------------------------------


def _count_op(p_list: tuple[int, ...], index: int, n0: int) -> Op:
    """The count lemma, built from public calls as the README example does."""
    p = p_list[index]

    def run(ctx):
        x0 = S.build_X0_model(p_list, n0)
        chain = x0.chain_vectors(index)
        complement = x0.complement_basis(index)
        m1, b1 = SW.rational_blowdown_descend(x0.model, x0.classes, chain, complement)
        m2, b2 = SW.blow_up_basic_classes(m1, b1, p - 1)
        return b1.count, m2, b2, [SW.d_invariant(m2, k) for k in b2.members]

    def check(ctx, out):
        n_desc, m2, b2, ds = out
        members = b2.members
        sample = (_rows(m2.lattice.pairing), members[0], m2.euler, m2.signature)
        return O.check_count_lemma(p, n0, n_desc, members, ds, sample)
    return Op("count", ("count", p_list, index, n0), run, check)


def _genus_op(n: int, k: int) -> Op:
    def run(ctx):
        model, classes, alpha = S.build_genus_model(n)
        k_alpha = tuple(k * x for x in alpha)
        bound = SW.min_genus_bound(model, classes, k_alpha)
        at = SW.adjunction_check(model, classes, k_alpha, bound).ok
        below = (SW.adjunction_check(model, classes, k_alpha, bound - 1).ok
                 if bound > 1 else None)
        return bound, at, below
    return Op("genus", ("genus", n, k), run,
              lambda ctx, out: O.check_genus(n, k, *out))


def _knot_op(seed_count: int, p: int, q: int) -> Op:
    def run(ctx):
        base = S.build_X0_model((), seed_count)
        delta = SW.alexander_polynomial_torus(p, q)
        return delta, SW.knot_surgery_basic_classes(base.model, base.classes,
                                                    base.torus(), delta)

    def check(ctx, out):
        delta, classes = out
        coeffs = dict(delta.coeffs)
        return (O.check_alexander(p, q, coeffs)
                or O.check_knot_surgery(seed_count, coeffs, dict(classes.weights)))
    return Op("knot", ("knot", seed_count, p, q), run, check)


def ledger_ops(rng: random.Random) -> list[Op]:
    """Count lemma, genus obstruction and knot surgery on synthetic lattices.

    The ops are the same in every pass.  Ops that share a lattice form a
    group whose inner order is fixed, so the op that fills the lattice's
    caches is the same in every pass too; the seed only orders the groups and
    the knot ops, which share one small lattice.
    """
    groups = [[_count_op((p,), 0, n0) for n0 in (2, 4)] for p in COUNT_P]
    groups += [[_count_op(pl, i, 2) for i in (0, 1)] for pl in TWO_CHAIN]
    groups += [[_genus_op(n, k) for k in GENUS_K] for n in GENUS_N]
    knots = [_knot_op(c, p, q) for c in KNOT_SEED_COUNTS for p, q in KNOTS]
    rng.shuffle(knots)
    groups.append(knots)
    rng.shuffle(groups)
    return [op for group in groups for op in group]


# -- diagrams ------------------------------------------------------------------------


def random_decomposition(rng: random.Random,
                         size: tuple[int, int]) -> HD.HandleDecomposition:
    """At most 8 handles, one dotted circle hh and a 0-framed kk through it.

    `size` is the number of other dotted circles and of framed knots.  Built
    without a name, as the library's own builders and random generators do.
    """
    n1, n2 = size
    ones = tuple(f"h{i}" for i in range(n1)) + ("hh",)
    twos = tuple((f"k{i}", rng.randrange(-9, 10)) for i in range(n2)) + (("kk", 0),)
    links = {(f"k{i}", f"k{j}"): rng.randrange(-3, 4)
             for i in range(n2) for j in range(i + 1, n2) if rng.random() < 0.4}
    links.update({(f"k{i}", "kk"): rng.randrange(-2, 3) for i in range(n2)
                  if rng.random() < 0.3})
    rt = {(f"k{i}", f"h{h}"): rng.randrange(-2, 3)
          for i in range(n2) for h in range(n1) if rng.random() < 0.3}
    rt[("kk", "hh")] = rng.choice((-2, -1, 1, 2))
    return HD.HandleDecomposition(ones, twos, links, rt)


def _with_boundary(d):
    return d, H.boundary_first_homology(d)


def _same_boundary(ctx, out, restores: str | None = None) -> str | None:
    d, factors = out
    if restores is not None and d != ctx[restores]:
        return "move followed by its inverse did not restore the input"
    if list(factors) != list(ctx["boundary"]):
        return "boundary first homology changed under a move"
    return None


def _slide_error(before, after, a: str, b: str, s: int) -> str | None:
    ids = list(before.two_handle_ids)
    if list(after.two_handle_ids) != ids or after.one_handles != before.one_handles:
        return "slide changed the handle set"
    mats = [(O.linking_rows(d.two_handles, dict(d.links)),
             O.run_through_rows(d.one_handles, ids, dict(d.run_through)))
            for d in (before, after)]
    return O.check_slide(*mats[0], *mats[1], ids.index(a), ids.index(b), s)


def _framing_after_slide(d, a: str, b: str, s: int) -> int:
    lk = d.links.get((min(a, b), max(a, b)), 0)
    return d.framing(a) + d.framing(b) + 2 * s * lk


def _cli(argv: list[str], text: str) -> tuple[int, str]:
    """kirbycalc.cli.run_command on a document fed through stdin, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), _stdin(text):
        code = CLI.run_command(argv)
    return code, out.getvalue()


def _cli_payload(out: tuple[int, str]) -> dict | None:
    """The JSON a CLI call printed, or None when it failed or printed no JSON."""
    code, stdout = out
    try:
        return json.loads(stdout) if code == 0 else None
    except ValueError:
        return None


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def _roundtrip_op(key: tuple) -> Op:
    def run(ctx):
        doc = HBD.DiagramDocument(ctx["d"], ctx.get("fronts", {}))
        return HBD.parse_hbd(HBD.print_hbd(doc))

    def check(ctx, parsed):
        d, fronts = ctx["d"], ctx.get("fronts", {})
        if parsed.decomposition == d and dict(parsed.annotation) == fronts:
            return None
        if (d.name == "" and parsed.decomposition.name == "unnamed"
                and replace(parsed.decomposition, name="") == d
                and dict(parsed.annotation) == fronts):
            return KNOWN_DEFECT
        return "print_hbd -> parse_hbd did not return the input"
    return Op("roundtrip", key, run, check)


def _small_session(rng: random.Random, tag: int) -> list[Op]:
    """Moves, their inverses, a round trip and CLI calls on one small diagram.

    Every move keeps the boundary first homology; the boundary sum with C_p
    adds a Z/p^2, which the rational blowdown of that C_p then keeps.
    """
    d0 = random_decomposition(rng, SMALL_SIZES[tag % len(SMALL_SIZES)])
    ids = list(d0.two_handle_ids)
    a, b = rng.sample(ids, 2)
    s = rng.choice((1, -1))
    attach = [(k, rng.randrange(-2, 3)) for k in ids if rng.random() < 0.6]
    a2, b2 = rng.sample(ids, 2)
    s2 = rng.choice((1, -1))
    a3, b3 = rng.sample(ids, 2)
    p = SMALL_SUM_P[tag % len(SMALL_SUM_P)]
    chain = [f"u{j}" for j in range(p - 1, 0, -1)]
    key = ("small", tag, repr(d0))

    def start(ctx):
        ctx.clear()
        ctx["d"] = d0
        ctx["boundary"] = H.boundary_first_homology(d0)
        return ctx["boundary"]

    def start_check(ctx, factors):
        return O.check_boundary(O.presentation_rows(*_decomposition_data(d0)), factors)

    def move(fn: str, *args, save=True):
        def run(ctx):
            if save:
                ctx["before"] = ctx["d"]
            out = _with_boundary(getattr(HD, fn)(ctx["d"], *args))
            ctx["d"] = out[0]
            return out
        return run

    def kept_slide_check(x, y, sign):
        def check(ctx, out):
            return (_slide_error(ctx["before"], out[0], x, y, sign)
                    or _same_boundary(ctx, out))
        return check

    def cli_boundary(ctx):
        return _cli(["boundary", "-"], HBD.print_hbd(HBD.DiagramDocument(ctx["d"])))

    def cli_boundary_check(ctx, out):
        payload = _cli_payload(out)
        if payload is None:
            return f"`kirbycalc boundary` exited {out[0]}"
        if payload["invariant_factors"] != list(ctx["boundary"]):
            return "`kirbycalc boundary` disagrees with the session's boundary"
        return None

    def cli_slide(ctx):
        return _cli(["slide", "-", a3, b3, "--sign", str(s2)],
                    HBD.print_hbd(HBD.DiagramDocument(ctx["d"])))

    def cli_slide_check(ctx, out):
        payload = _cli_payload(out)
        if payload is None:
            return f"`kirbycalc slide` exited {out[0]}"
        try:
            doc = HBD.parse_hbd(payload["document"])
        except ValueError as exc:
            return f"`kirbycalc slide` document does not re-parse: {exc}"
        want = _framing_after_slide(ctx["d"], a3, b3, s2)
        if payload["framing_after"] != want or doc.decomposition.framing(a3) != want:
            return "`kirbycalc slide` framing differs from f_a + f_b + 2 s lk(a, b)"
        if set(doc.decomposition.all_ids) != set(ctx["d"].all_ids):
            return "`kirbycalc slide` document changed the handle set"
        return None

    def boundary_sum(ctx):
        ctx["before"] = ctx["d"]
        out = _with_boundary(HD.boundary_sum(ctx["d"], S.build_Cp(p)))
        ctx["d"] = out[0]
        ctx["boundary_before_sum"], ctx["boundary"] = ctx["boundary"], out[1]
        return out

    def boundary_sum_check(ctx, out):
        d, factors = out
        old = list(ctx["boundary_before_sum"])
        torsion = [f for f in factors if f]
        order = 1
        for f in torsion:
            order *= f
        old_order = 1
        for f in old:
            old_order *= f or 1
        if list(factors).count(0) != old.count(0) or order != old_order * p * p:
            return "boundary of the sum is not H1 of the summand times Z/p^2"
        return O.check_boundary(O.presentation_rows(*_decomposition_data(d)), factors)

    def splice_check(ctx, out):
        d = out[0]
        if d.framing("b1") != p - 1 or d.run_through.get(("b1", "b0")) != p:
            return "rational ball block is not (b0, b1 framed p-1 through it p times)"
        return _same_boundary(ctx, out)

    return [
        Op("boundary.small", key + ("start",), start, start_check),
        Op("slide", key + ("slide", a, b, s), move("handle_slide", a, b, s),
           kept_slide_check(a, b, s)),
        Op("slide", key + ("unslide", a, b, -s), move("handle_slide", a, b, -s, save=False),
           lambda ctx, out: _same_boundary(ctx, out, "before")),
        Op("blow_up", key + ("blow_up", tuple(attach)),
           move("blow_up", attach, "e*"),
           lambda ctx, out: (None if out[0].framing("e*") == -1 else
                             "new handle is not -1-framed") or _same_boundary(ctx, out)),
        Op("blow_down", key + ("blow_down",), move("blow_down", "e*", save=False),
           lambda ctx, out: _same_boundary(ctx, out, "before")),
        Op("swap", key + ("swap",), move("dot_zero_swap", "hh", "kk"),
           lambda ctx, out: _same_boundary(ctx, out)),
        Op("swap", key + ("unswap",), move("dot_zero_swap", "kk", "hh", save=False),
           lambda ctx, out: _same_boundary(ctx, out, "before")),
        Op("slide", key + ("slide2", a2, b2, s2), move("handle_slide", a2, b2, s2),
           kept_slide_check(a2, b2, s2)),
        _roundtrip_op(key + ("roundtrip",)),
        Op("cli.boundary", key + ("cli.boundary",), cli_boundary, cli_boundary_check),
        Op("cli.slide", key + ("cli.slide", a3, b3, s2), cli_slide, cli_slide_check),
        Op("boundary_sum", key + ("sum", p), boundary_sum, boundary_sum_check),
        Op("splice", key + ("splice", p),
           move("rational_blowdown_splice", chain, p), splice_check),
        _roundtrip_op(key + ("roundtrip.named",)),
    ]


def _chain_session(rng: random.Random, p: int) -> list[Op]:
    """Blow-up/down, a slide and its inverse, and the rational blowdown of C_p."""
    j = rng.randint(1, p - 2)
    m1, m2 = rng.choice((1, -1, 2)), rng.choice((1, -1, 2))
    attach = [(f"u{p - 1}", m1), (f"u{j}", m2)]
    i = rng.randint(1, p - 2)
    s = rng.choice((1, -1))
    chain = [f"u{k}" for k in range(p - 1, 0, -1)]
    key = ("chain", p, j, m1, m2, i, s)

    def build(ctx):
        ctx.clear()
        ctx["d"] = S.build_Cp(p)
        return ctx["d"]

    def build_check(ctx, d):
        want = [(f"u{k}", -(p + 2) if k == p - 1 else -2) for k in range(1, p)]
        links = {tuple(sorted((f"u{k}", f"u{k + 1}"))): 1 for k in range(1, p - 1)}
        if list(d.two_handles) != want or dict(d.links) != links or d.one_handles:
            return "C_p is not the (-2, ..., -2, -(p+2)) linear chain"
        return None

    def step(fn: str, *args, save=True):
        def run(ctx):
            if save:
                ctx["before"] = ctx["d"]
            ctx["d"] = getattr(HD, fn)(ctx["d"], *args)
            return ctx["d"]
        return run

    def blow_up_check(ctx, d):
        c = ctx["before"]
        top, mid = f"u{p - 1}", f"u{j}"
        if (d.framing("e*") != -1 or d.framing(top) != c.framing(top) - m1 * m1
                or d.framing(mid) != c.framing(mid) - m2 * m2
                or d.link(top, mid) != c.link(top, mid) - m1 * m2
                or d.link("e*", top) != m1 or d.link("e*", mid) != m2):
            return "blow-up framings or linkings differ from the twist formula"
        return None

    def restores(ctx, d):
        return None if d == ctx["before"] else "move followed by its inverse did not restore C_p"

    def slide_check(ctx, d):
        return _slide_error(ctx["before"], d, f"u{i}", f"u{i + 1}", s)

    def splice_check(ctx, d):
        if d.one_handles != ("b0",) or d.two_handles != (("b1", p - 1),) \
                or dict(d.run_through) != {("b1", "b0"): p}:
            return "rational blowdown of C_p is not B_p"
        pres = O.presentation_rows(*_decomposition_data(d))
        if abs(O.bareiss_det(pres)) != p * p:
            return "B_p boundary order is not p^2"
        return None

    return [
        Op("build_Cp", key + ("build",), build, build_check),
        Op("blow_up", key + ("blow_up",), step("blow_up", attach, "e*"), blow_up_check),
        Op("blow_down", key + ("blow_down",), step("blow_down", "e*", save=False), restores),
        Op("slide", key + ("slide",), step("handle_slide", f"u{i}", f"u{i + 1}", s), slide_check),
        Op("slide", key + ("unslide",),
           step("handle_slide", f"u{i}", f"u{i + 1}", -s, save=False), restores),
        _roundtrip_op(key + ("roundtrip",)),
        Op("splice", key + ("splice",), step("rational_blowdown_splice", chain, p),
           splice_check),
    ]


def _stein_session(p_list: tuple[int, ...]) -> list[Op]:
    """Stein check of a D~p sum, its round trip, and `kirbycalc stein` on it."""
    key = ("stein", p_list)

    def stein(ctx):
        ctx.clear()
        ctx["d"], ctx["fronts"] = S.annotated_Dp_tilde_sum(list(p_list))
        return LG.stein_check(ctx["d"], ctx["fronts"])

    def stein_check(ctx, report):
        verdicts = [(v.handle, v.framing, v.tb, v.ok) for v in report.verdicts]
        return O.check_stein(p_list, verdicts) or (None if report.ok else "report not ok")

    def cli(ctx):
        return _cli(["stein", "-"],
                    HBD.print_hbd(HBD.DiagramDocument(ctx["d"], ctx["fronts"])))

    def cli_check(ctx, out):
        payload = _cli_payload(out)
        if payload is None or not payload["ok"]:
            return f"`kirbycalc stein` exited {out[0]}"
        verdicts = [(h["id"], h["framing"], h["tb"], h["ok"]) for h in payload["handles"]]
        return O.check_stein(p_list, verdicts)

    return [Op("stein", key, stein, stein_check),
            _roundtrip_op(key + ("roundtrip",)),
            Op("cli.stein", key + ("cli",), cli, cli_check)]


def diagrams_ops(rng: random.Random) -> list[Op]:
    """Edit sessions on small random diagrams, long chains and D~p sums."""
    sessions = [_small_session(rng, t) for t in range(SMALL_SESSIONS)]
    sessions += [_chain_session(rng, p) for p in CHAIN_SIZES]
    sessions += [_stein_session(pl) for pl in STEIN_SUMS]
    rng.shuffle(sessions)
    return [op for session in sessions for op in session]


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "linalg": linalg_ops,
    "ledger": ledger_ops,
    "diagrams": diagrams_ops,
}


def make_ops(workload: str, seed_key: str) -> list[Op]:
    """The op list of one pass; the same key always gives the same list."""
    return WORKLOADS[workload](random.Random(seed_key))
