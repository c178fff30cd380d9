"""Command-line front end: parse .hbd files, run operations, emit JSON.

Exit codes: 0 when every requested assertion passes, 1 for user errors
(bad arguments, parse errors, failed checks), 2 for internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Collection, Sequence

from . import acceptance
from .handles import (
    HandleError,
    blow_down,
    blow_up,
    dot_zero_swap,
    handle_slide,
    rational_blowdown_splice,
)
from .hbd import _ID, DiagramDocument, HbdParseError, parse_hbd, print_hbd
from .homology import _group_order, boundary_first_homology, homology
from .legendrian import FrontError, stein_check
from .scenarios import (
    ScenarioError,
    build_X0_model,
    genus_obstruction_Nn,
    knotted_cork_scenario,
    verify_count_lemma,
    verify_restriction_lemma,
)
from .swledger import (
    LedgerError,
    adjunction_check,
    blow_up_basic_classes,
    is_simple_type,
    rational_blowdown_descend,
)

SCHEMA = 1


class UserError(ValueError):
    pass


def _load(path: str) -> DiagramDocument:
    if path == "-":
        return parse_hbd(sys.stdin.read(), source="<stdin>")
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise UserError(f"cannot read {path}: {exc}") from exc
    return parse_hbd(text, source=str(p))


def _knot(text: str) -> tuple[int, int]:
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise UserError(f"expected a knot as p,q: {text!r}") from exc
    return p, q


def _document_payload(doc: DiagramDocument, new_d, dropped: Collection[str] = ()) -> str:
    fronts = {k: f for k, f in doc.annotation.items()
              if k not in dropped and new_d.is_two_handle(k)}
    return print_hbd(DiagramDocument(new_d, fronts))


# -- subcommand handlers ----------------------------------------------------------


def _cmd_homology(doc, args) -> dict:
    prof = homology(doc.decomposition)
    return {
        "h1": {"invariant_factors": list(prof.h1_invariant_factors),
               "free_rank": prof.h1_free_rank},
        "h2": {"rank": prof.h2_rank,
               "intersection_form": prof.intersection_form.to_lists()},
        "boundary": _cmd_boundary(doc, args),
    }


def _cmd_boundary(doc, args) -> dict:
    factors = boundary_first_homology(doc.decomposition)
    return {"invariant_factors": list(factors), "order": _group_order(factors)}


def _cmd_stein(doc, args) -> dict:
    report = stein_check(doc.decomposition, dict(doc.annotation))
    return {
        "handles": [{"id": v.handle, "framing": v.framing, "tb": v.tb,
                     "required_framing": v.tb - 1, "ok": v.ok}
                    for v in report.verdicts],
        "ok": report.ok,
    }


def _cmd_slide(doc, args) -> dict:
    out = handle_slide(doc.decomposition, args.a, args.b, args.sign)
    return {
        "a": args.a,
        "b": args.b,
        "sign": args.sign,
        "framing_after": out.framing(args.a),
        "document": _document_payload(doc, out, {args.a}),
    }


def _cmd_blowup(doc, args) -> dict:
    if args.id is not None and not _ID.fullmatch(args.id):
        raise UserError(f"--id {args.id!r} is not a valid .hbd identifier")
    attach = []
    for item in args.attach or []:
        if "=" not in item:
            raise UserError(f"expected --attach id=multiplicity, got {item!r}")
        k, _, m = item.partition("=")
        try:
            attach.append((k, int(m)))
        except ValueError as exc:
            raise UserError(f"bad multiplicity in {item!r}") from exc
    out = blow_up(doc.decomposition, attach, new_id=args.id)
    return {
        "new_handle": out.two_handles[-1][0],
        "document": _document_payload(doc, out, {k for k, m in attach if m}),
    }


def _cmd_blowdown(doc, args) -> dict:
    d = doc.decomposition
    out = blow_down(d, args.handle)
    linked = {k for pair in d.links if args.handle in pair for k in pair}
    return {"removed": args.handle, "document": _document_payload(doc, out, linked)}


def _cmd_corktwist(doc, args) -> dict:
    out = dot_zero_swap(doc.decomposition, args.one_handle, args.two_handle)
    return {
        "dotted": args.two_handle,
        "zero_framed": args.one_handle,
        "document": _document_payload(doc, out),
    }


def _cmd_rbd(doc, args) -> dict:
    chain = args.chain.split(",")
    out = rational_blowdown_splice(doc.decomposition, chain, args.p)
    return {
        "p": args.p,
        "removed_chain": chain,
        "document": _document_payload(doc, out),
    }


def _cmd_sw_blowup(doc, args) -> dict:
    base = build_X0_model((), args.count)
    model, classes = blow_up_basic_classes(base.model, base.classes, args.n)
    d_ok = is_simple_type(model, classes)
    ok = classes.count == (1 << args.n) * base.classes.count and d_ok
    return {
        "n": args.n,
        "count_before": base.classes.count,
        "count_after": classes.count,
        "d_preserved": d_ok,
        "ok": ok,
    }


def _cmd_sw_descend(doc, args) -> dict:
    x0 = build_X0_model((args.p,), args.count)
    m, b = rational_blowdown_descend(x0.model, x0.classes, x0.chain_vectors(0),
                                     x0.complement_basis(0))
    d_ok = is_simple_type(m, b)
    return {
        "p": args.p,
        "count_before": x0.classes.count,
        "count_after": b.count,
        "d_preserved": d_ok,
        "ok": b.count == x0.classes.count and d_ok,
    }


def _cmd_sw_adjunction(doc, args) -> dict:
    x0 = build_X0_model(tuple(args.p), args.count)
    report = adjunction_check(x0.model, x0.classes, x0.torus(), 1)
    return {
        "p": list(args.p),
        "genus": 1,
        "torus_pairings_zero": report.ok,
        "ok": report.ok,
    }


def _cmd_sw_genusbound(doc, args) -> dict:
    report = genus_obstruction_Nn(args.n, args.k)
    return {
        "n": args.n,
        "k": args.k,
        "max_pairing": report.max_pairing,
        "bound": report.genus_bound,
        "forces_zero_below_n": report.forces_zero_below_n,
        "ok": not any(report.failures()),
    }


def _cmd_scenario_count(doc, args) -> dict:
    report = verify_count_lemma(tuple(args.p), args.index, args.count)
    return {
        "N0": report.n0,
        "Ni": report.ni,
        "ok": not any(report.failures()),
    }


def _cmd_scenario_restriction(doc, args) -> dict:
    report = verify_restriction_lemma(tuple(args.p), args.index, args.count)
    return {
        "p": report.p,
        "alpha_orthogonal": report.alpha_orthogonal,
        "evaluation_identity": report.evaluation_identity,
        "all_eligible": report.all_eligible,
        "restrictions_distinct": report.restrictions_distinct,
        "mayer_vietoris_index": report.mayer_vietoris_index,
        "ok": not any(report.failures()),
    }


def _cmd_scenario_knottedcork(doc, args) -> dict:
    knots = [_knot(k) for k in args.knot]
    report = knotted_cork_scenario(knots)
    return {
        "knots": [list(k) for k in report.knots],
        "counts": list(report.counts),
        "alexander": [str(delta) for delta in report.alexander],
        "all_nonzero": all(report.counts),
        "pairwise_distinct": report.pairwise_distinct,
        "ok": not any(report.failures()),
    }


def _cmd_scenario_list(doc, args) -> dict:
    return {"scenarios": [{"name": c.name, "description": c.description}
                          for c in acceptance.CLAIMS]}


def _cmd_scenario_export(doc, args) -> dict:
    return acceptance.claim_named(args.name).export()


def _cmd_scenario_run(doc, args) -> dict:
    claim = acceptance.claim_named(args.name)
    ok, detail = claim.check(acceptance.DEFAULT_SEED)
    return {"name": claim.name, "ok": ok, "detail": detail}


def _cmd_check(doc, args) -> dict:
    results = acceptance.run_all(args.seed)
    if args.verbose:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(f"{status} {r.number:2d} {r.title} ({r.seconds:.2f}s)",
                  file=sys.stderr)
    return {
        "seed": args.seed,
        "criteria": [{"number": r.number, "title": r.title, "ok": r.ok,
                      "seconds": round(r.seconds, 3), "detail": r.detail}
                     for r in results],
        "ok": all(r.ok for r in results),
    }


# -- parser ------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args reads the parser and never mutates it
    top = argparse.ArgumentParser(
        prog="kirbycalc",
        description="Kirby calculus and Seiberg-Witten bookkeeping on .hbd diagrams")
    sub = top.add_subparsers(dest="command", required=True)

    def add(parent, name, fn, help_text):
        p = parent.add_parser(name, help=help_text)
        p.set_defaults(handler=fn)
        return p

    p = add(sub, "homology", _cmd_homology, "homology profile of a diagram")
    p.add_argument("file")
    p = add(sub, "boundary", _cmd_boundary, "first homology of the boundary")
    p.add_argument("file")
    p = add(sub, "stein", _cmd_stein, "check framing = tb - 1 on every 2-handle")
    p.add_argument("file")

    p = add(sub, "slide", _cmd_slide, "slide one 2-handle over another")
    p.add_argument("file")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)

    p = add(sub, "blowup", _cmd_blowup, "introduce a -1-framed circle")
    p.add_argument("file")
    p.add_argument("--attach", action="append", metavar="ID=MULT")
    p.add_argument("--id", default=None, help="identifier for the new handle")

    p = add(sub, "blowdown", _cmd_blowdown, "delete a -1-framed 2-handle")
    p.add_argument("file")
    p.add_argument("handle")

    p = add(sub, "corktwist", _cmd_corktwist, "exchange a dot with a zero framing")
    p.add_argument("file")
    p.add_argument("one_handle")
    p.add_argument("two_handle")

    p = add(sub, "rbd", _cmd_rbd, "rational blowdown of a linear chain")
    p.add_argument("file")
    p.add_argument("--chain", required=True,
                   help="comma-separated 2-handle ids, heavy end first")
    p.add_argument("--p", type=int, required=True)

    sw = sub.add_parser("sw", help="basic-class transformations on built-in models")
    swsub = sw.add_subparsers(dest="sw_command", required=True)

    q = add(swsub, "blowup", _cmd_sw_blowup, "blow up n times; class count and d")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--count", type=int, default=2, help="declared class count")

    q = add(swsub, "descend", _cmd_sw_descend, "rationally blow down the chain of X0(p)")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--count", type=int, default=2)

    q = add(swsub, "adjunction", _cmd_sw_adjunction, "adjunction check of the cusp torus")
    q.add_argument("--p", type=int, nargs="+", required=True)
    q.add_argument("--count", type=int, default=2)

    q = add(swsub, "genusbound", _cmd_sw_genusbound, "adjunction genus bound in N_n")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)

    sc = sub.add_parser("scenario", help="run a named verification scenario")
    scsub = sc.add_subparsers(dest="scenario_name", required=True)

    q = add(scsub, "count", _cmd_scenario_count, "descend, then blow up p-1 times")
    q.add_argument("--p", type=int, nargs="+", required=True)
    q.add_argument("--index", type=int, default=0)
    q.add_argument("--count", type=int, default=2, help="declared class count N0")

    q = add(scsub, "restriction", _cmd_scenario_restriction,
            "restriction lemma on one chain of X0")
    q.add_argument("--p", type=int, nargs="+", required=True)
    q.add_argument("--index", type=int, default=0)
    q.add_argument("--count", type=int, default=4, help="declared class count N0")

    q = add(scsub, "knottedcork", _cmd_scenario_knottedcork,
            "knot-surgery class counts and Alexander polynomials")
    q.add_argument("--knot", action="append", required=True, metavar="P,Q")

    add(scsub, "list", _cmd_scenario_list, "list the acceptance claims")

    q = add(scsub, "export", _cmd_scenario_export, "print a claim's documents")
    q.add_argument("--name", required=True)

    q = add(scsub, "run", _cmd_scenario_run, "check one claim at the default seed")
    q.add_argument("--name", required=True)

    p = add(sub, "check", _cmd_check, "run the full acceptance suite")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                   help="seed for randomized checks")
    p.add_argument("--verbose", action="store_true",
                   help="one PASS/FAIL line per criterion on stderr")

    return top


def run_command(argv: Sequence[str]) -> int:
    """Dispatch one command; prints JSON to stdout and returns the exit code.

    Handlers return only their own fields.  The payload starts with `schema`,
    then `command` (diagram, sw and check commands) and `name` (when a
    diagram was read), and carries `ok`, true unless the handler set it.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:     # argparse already printed the message
        return 1 if exc.code else 0
    try:
        payload = {"schema": SCHEMA}
        if args.command == "sw":
            payload["command"] = f"sw-{args.sw_command}"
        elif args.command != "scenario":
            payload["command"] = args.command
        doc = None
        if "file" in args:
            doc = _load(args.file)
            payload["name"] = doc.name
        payload.update(args.handler(doc, args))
        payload.setdefault("ok", True)
        code = 0 if payload["ok"] else 1
    except (UserError, HbdParseError, HandleError, FrontError, LedgerError,
            ScenarioError) as exc:
        payload, code = {"schema": SCHEMA, "error": str(exc), "ok": False}, 1
    except Exception as exc:      # internal invariant violation
        import traceback          # here, not at the top: it adds ~0.2 MB to every run
        traceback.print_exc()
        payload, code = {"schema": SCHEMA, "internal_error": repr(exc), "ok": False}, 2
    print(json.dumps(payload, indent=2))
    return code


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
