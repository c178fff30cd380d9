"""Self-tests of the benchmark: seeded generation, oracles, recorder, metric names.

Run with the repository's test command (PYTHONPATH=src python -m pytest).
"""

import json
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

import gen
import hostspeed
import oracles as O
import recorder
import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- seeded generation -----------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_op_list(workload):
    first = [op.key for op in gen.make_ops(workload, f"{workload}:7:0")]
    again = [op.key for op in gen.make_ops(workload, f"{workload}:7:0")]
    other = [op.key for op in gen.make_ops(workload, f"{workload}:8:0")]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_no_op_repeats_an_input_within_a_pass(workload):
    keys = [op.key for op in gen.make_ops(workload, f"{workload}:3:1")]
    assert len(set(keys)) == len(keys)


def test_pass_count_depends_only_on_seconds():
    assert run.pass_count("linalg", 0.1) == run.MIN_PASSES
    assert run.pass_count("ledger", 60) > run.pass_count("ledger", 30)


def test_op_latency_is_the_median_over_passes():
    passes = [_fake_pass([0.3, 0.1, 0.2]), _fake_pass([0.1, 0.4, 0.2]),
              _fake_pass([0.2, 0.2, 0.9])]
    assert run.op_latencies(passes, adjust=False) == [0.2, 0.2, 0.2]
    assert run.op_latencies(passes) == [0.1, 0.1, 0.1]
    with pytest.raises(run.BenchError):
        run.op_latencies([_fake_pass([0.1]), _fake_pass([0.1, 0.2])])


def test_random_diagrams_carry_no_name():
    assert all(gen.random_decomposition(random.Random(0), size).name == ""
               for size in gen.SMALL_SIZES)
    assert gen.plumbing(random.Random(0), 10, 2).name == ""


# -- oracles reject planted wrong answers -------------------------------------------

H = gen.H
M = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]


def _snf_parts(m):
    snf = H.smith_normal_form(H.IntMatrix.from_rows(m))
    return [[list(r) for r in x.entries] for x in (snf.s, snf.u, snf.v)]


def test_snf_oracle():
    s, u, v = _snf_parts(M)
    assert O.check_snf(M, s, u, v) is None
    bad = [list(r) for r in s]
    bad[2][2] += 1
    assert O.check_snf(M, bad, u, v) is not None
    bad_u = [list(r) for r in u]
    bad_u[0][0] += 1
    assert O.check_snf(M, s, bad_u, v) is not None
    doubled = [[2 * x for x in r] for r in s]
    assert O.check_snf(M, doubled, u, v) is not None


def test_kernel_oracle():
    m = [[1, 2, 3, 4], [2, 4, 6, 9]]
    basis = [list(b) for b in H.kernel_basis(H.IntMatrix.from_rows(m))]
    assert O.check_kernel(m, basis, 4) is None
    assert O.check_kernel(m, basis[:-1], 4) is not None
    assert O.check_kernel(m, [[2 * x for x in basis[0]]] + basis[1:], 4) is not None


def test_inertia_oracle():
    degenerate = [[2, 1, 0], [1, -3, 0], [0, 0, 0]]
    assert O.check_inertia(degenerate, (1, 1, 1)) is None
    assert O.check_inertia(degenerate, (1, 2, 0)) is not None
    assert O.check_inertia(degenerate, (1, 1, 2)) is not None
    m = [[1, 2, 0], [2, 1, 1], [0, 1, -4]]     # leading minors 1, -3, 11
    assert H.inertia(H.IntMatrix.from_rows(m)) == (1, 2, 0)
    assert O.check_inertia(m, (1, 2, 0)) is None
    assert O.check_inertia(m, (2, 1, 0)) is not None
    assert O.check_inertia(m, (0, 3, 0)) is not None


def test_boundary_and_homology_oracles():
    d = gen.plumbing(random.Random(5), 12, 2)
    data = gen._decomposition_data(d)
    pres = O.presentation_rows(*data)
    factors = list(H.boundary_first_homology(d))
    assert O.check_boundary(pres, factors) is None
    wrong = factors[:-1] + [factors[-1] * 2 if factors[-1] else 1]
    assert O.check_boundary(pres, wrong) is not None

    ones, twos, links, rt = data
    ids = [k for k, _ in twos]
    prof = H.homology(d)
    args = (O.run_through_rows(ones, ids, rt), O.linking_rows(twos, links),
            len(ones), len(ids))
    good = (prof.h1_invariant_factors, prof.h1_free_rank, prof.h2_rank,
            prof.intersection_form.entries, prof.h2_basis)
    assert O.check_homology(*args, *good) is None
    assert O.check_homology(*args, good[0] + (2,), *good[1:]) is not None
    form = [list(r) for r in good[3]]
    form[0][0] += 1
    assert O.check_homology(*args, *good[:3], form, good[4]) is not None


def test_count_lemma_oracle_rejects_an_off_by_one_class_count():
    op = gen._count_op((4,), 0, 2)
    n_desc, m2, b2, ds = op.run({})
    assert op.check({}, (n_desc, m2, b2, ds)) is None
    members = b2.members
    assert O.check_count_lemma(4, 2, n_desc, members[:-1], ds[:-1], None) is not None
    assert O.check_count_lemma(4, 2, n_desc - 1, members, ds, None) is not None
    one_odd = [0] * (len(ds) - 1) + [2]
    assert O.check_count_lemma(4, 2, n_desc, members, one_odd, None) is not None
    sample = ([list(r) for r in m2.lattice.pairing.entries], members[0], m2.euler + 1,
              m2.signature)
    assert O.check_count_lemma(4, 2, n_desc, members, ds, sample) is not None


def test_genus_alexander_and_knot_oracles():
    op = gen._genus_op(5, -3)
    bound, at, below = op.run({})
    assert op.check({}, (bound, at, below)) is None
    assert O.check_genus(5, -3, bound + 1, at, below) is not None
    assert O.check_genus(5, -3, bound, at, True) is not None

    op = gen._knot_op(4, 3, 5)
    delta, classes = op.run({})
    assert op.check({}, (delta, classes)) is None
    coeffs = dict(delta.coeffs)
    bumped = dict(coeffs)
    bumped[0] += 1
    assert O.check_alexander(3, 5, bumped) is not None
    weights = dict(classes.weights)
    weights.pop(next(iter(weights)))
    assert O.check_knot_surgery(4, coeffs, weights) is not None


def test_stein_oracle():
    assert O.tb_torus_front(3) == 5
    good = [("d1.w", 4, 5, True), ("d1.u0", -2, -1, True), ("d1.u1", -2, -1, True),
            ("d1.v0", 0, 1, True), ("d1.v1", 0, 1, True)]
    assert O.check_stein((3,), good) is None
    assert O.check_stein((3,), [("d1.w", 5, 6, True)] + good[1:]) is not None
    assert O.check_stein((3,), good[:-1]) is not None


def _session_outputs(ops):
    ctx: dict = {}
    for op in ops:
        out = op.run(ctx)
        yield op, ctx, out


def _drop_link(d):
    links = dict(d.links)
    links.pop(next(iter(links)))
    return gen.HD.HandleDecomposition(d.one_handles, d.two_handles, links,
                                      dict(d.run_through), d.three_handles, d.name)


def test_chain_session_oracles_reject_a_dropped_link():
    rejected = []
    for op, ctx, out in _session_outputs(gen._chain_session(random.Random(3), 12)):
        assert op.check(ctx, out) is None, op.key
        if op.kind in ("blow_up", "blow_down", "slide"):
            assert op.check(ctx, _drop_link(out)) is not None, op.key
            rejected.append(op.kind)
    assert rejected == ["blow_up", "blow_down", "slide", "slide"]


def test_small_session_oracles_and_the_known_defect():
    verdicts = []
    for op, ctx, out in _session_outputs(gen._small_session(random.Random(11), 0)):
        verdicts.append(op.check(ctx, out))
        if op.key[-1] in ("blow_down", "unswap") or op.kind == "slide":
            if out[0].links:
                assert op.check(ctx, (_drop_link(out[0]), out[1])) is not None, op.key
        if op.kind == "roundtrip" and ctx["d"].links:
            planted = replace(out, decomposition=_drop_link(out.decomposition))
            assert op.check(ctx, planted) not in (None, gen.KNOWN_DEFECT)
    # the unnamed diagram fails its round trip; once summed with C_p it is named
    assert [v for v in verdicts if v] == [gen.KNOWN_DEFECT]


# -- recorder -----------------------------------------------------------------------------


def test_self_time_subtracts_children():
    rec = recorder.Recorder()
    inner = rec.wrap("homology.inner", lambda: sum(range(20000)), None)
    outer = rec.wrap("homology.outer", lambda: [inner() for _ in range(3)], None)
    outer()
    spans = {s[3]: s for s in rec.spans}
    times = recorder.self_times(rec.spans)
    assert times["homology.inner"][0] == 3 and times["homology.outer"][0] == 1
    o = spans["homology.outer"]
    children = sum(s[5] - s[4] for s in rec.spans if s[2] == o[1])
    assert times["homology.outer"][1] == pytest.approx(o[5] - o[4] - children)
    assert recorder.top_level_time(rec.spans) == pytest.approx(o[5] - o[4])
    assert all(s[0] == 0 for s in rec.spans)


# -- metric names ---------------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]+$")


def _fake_pass(lat):
    return {"latencies": lat, "speed": [0.5] * len(lat), "failures": [],
            "peak_rss_mb": 20.0, "oracle_s": 0.1,
            "library_s": sum(lat) * 0.9, "setup_s": 0.3, "setup_speed": 1.25,
            "counts": {}, "self": {"homology.inertia": (3, 0.2)}}


def test_metric_names_match_benchmark_json():
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    per = [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(e2e) <= 16 and len(per) <= 128
    assert all(NAME.match(n) and len(n) <= 64 for n in e2e + per)
    assert len(set(e2e + per)) == len(e2e + per)
    lat = [0.001 * (i + 1) for i in range(50)]
    metrics, _ = run.end_to_end([_fake_pass(lat)], [_fake_pass(lat)] * 3)
    assert list(metrics) == e2e
    assert all(v > 0 for v, _ in metrics.values())
    layer = run.per_layer([_fake_pass(lat)], [_fake_pass(lat)])
    assert list(layer) == per
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        {k: u for k, (_, u) in layer.items()}


def test_tail_keeps_ten_samples_beyond():
    assert run.tail_index(100) == 89
    assert run.tail_index(5) == 0


def test_host_speed_factor_is_the_windowed_median():
    samples = [1.0, 1.0, 9.0, 1.0, 1.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0]
    f = hostspeed.factors(samples, [0, 11])
    assert f == [hostspeed.REF_S / 1.0, hostspeed.REF_S / 4.0]
    assert hostspeed.kernel() == hostspeed.kernel()
