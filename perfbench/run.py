"""kirbycalc benchmark: seeded closed-loop workloads checked by oracles.

    python3 perfbench/run.py --workload linalg --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10     # table of all three

Run it from the repository root.  One client, no threads.  A run generates
one op list from the seed and runs it in several passes; each pass is a
fresh interpreter (perfbench/worker.py), so library caches start cold, and it
checks every output with an independent oracle.  Op times are adjusted to a
reference host speed (perfbench/hostspeed.py), and an op's latency is its
median over the passes.  A run is a fixed number of passes, sized to take
about --seconds.

--trace 0 reports the end-to-end metrics.  --trace 1 runs passes in pairs,
untraced and then with spans recorded around every traced public call, and
reports per-layer metrics and the tracing overhead; spans are written to
.perfbench_out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True      # leave nothing behind in perfbench/

import hostspeed  # noqa: E402  (stdlib-only; kirbycalc is imported by workers)
import recorder  # noqa: E402

WORKLOADS = ("linalg", "ledger", "diagrams")
# Seconds one pass takes, set-up and oracles included, at the seed code on a
# 2-core x86 VM.  A run is round(--seconds / this) passes of one op list, at
# least MIN_PASSES, so every run measures the same ops the same number of times.
PASS_SECONDS = {"linalg": 4.2, "ledger": 6.5, "diagrams": 3.9}
MIN_PASSES = 3
# on a host this much slower than PASS_SECONDS assumes, a run stops adding
# passes, so that it still ends in time
OVERRUN = 1.5
SETUP_PROBES = 5
DEADLINE_S = 170
OUT_DIR = Path(".perfbench_out")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    # every pass compiles from source, whatever the caller's environment, so
    # set-up time is comparable across machines and nothing lands in src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(workload: str, key: str, deadline: float, *extra: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a pass could start")
    speed = hostspeed.factor_now()
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--key", key, "--spawned", repr(spawned), *extra]
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {key} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {key} exited {proc.returncode}: {proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    summary["setup_speed"] = speed
    return summary


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def _pass(workload: str, key: str, deadline: float, trace: int = 0) -> dict:
    """One pass over the op list of `key`; `trace` > 0 numbers its span file."""
    extra = (["--trace", str(OUT_DIR / f"spans-{key.replace(':', '-')}-{trace}.json")]
             if trace else [])
    return _worker(workload, key, deadline, *extra)


def tail_index(n: int) -> int:
    """Index into sorted samples of the highest percentile with >= 10 beyond it."""
    return max(0, n - 11)


def op_latencies(passes: list[dict], adjust: bool = True) -> list[float]:
    """Each op's median latency over passes that ran the same op list.

    With `adjust`, latencies are scaled to the reference host speed
    (hostspeed.py) first.
    """
    if len({len(p["latencies"]) for p in passes}) != 1:
        raise BenchError("passes of one run ran op lists of different lengths")
    runs = [[t * f for t, f in zip(p["latencies"], p["speed"])] if adjust
            else p["latencies"] for p in passes]
    return [statistics.median(times) for times in zip(*runs)]


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics over the run's op list, each op at its median pass.

    Times are adjusted to the reference host speed.  Every pass runs the
    same ops in a fresh interpreter, so an op's passes differ only in what
    else the host was doing, and the median drops the pass that met a
    hiccup the adjustment missed.  A slower library moves every pass.
    """
    per_op = op_latencies(passes)
    raw = sorted(op_latencies(passes, adjust=False))
    lat = sorted(per_op)
    n = len(lat)
    k = tail_index(n)
    failed = {f["op"] for p in passes for f in p["failures"]}
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] * s["setup_speed"] for s in setups), "s"),
        "ops_per_s": ((n - len(failed)) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (lat[k] * 1e3, "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    r = len(passes)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; unadjusted "
                   f"{statistics.median(s['setup_s'] for s in setups):.4g}",
        "ops_per_s": f"{n - len(failed)} verified ops / op time, median of {r}; "
                     f"unadjusted {(n - len(failed)) / sum(raw):.4g}",
        "op_p50_ms": f"n={n} ops, median of {r} passes each; "
                     f"unadjusted {statistics.median(raw) * 1e3:.4g}",
        "op_tail_ms": f"p{100 * (k + 1) / n:.2f}, n={n}, {n - k - 1} samples beyond; "
                      f"unadjusted {raw[k] * 1e3:.4g}",
        "peak_rss_mb": f"max over {r} passes",
    }
    return metrics, notes


def _adjusted_s(passes: list[dict]) -> float:
    return sum(t * f for p in passes for t, f in zip(p["latencies"], p["speed"]))


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    calls: dict[str, float] = {}
    busy: dict[str, float] = {}
    for p in traced:
        for name, (c, s) in p["self"].items():
            calls[name] = calls.get(name, 0) + c
            busy[name] = busy.get(name, 0.0) + s
    metrics: dict[str, tuple[float, str]] = {}
    for name in recorder.traced_names():
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    for layer in recorder.LAYERS:
        metrics[f"{layer}.self_s"] = (sum(s for n, s in busy.items()
                                          if n.startswith(layer + ".")), "s")
    for name in recorder.COUNTS:
        values = [p["counts"].get(name, 0) for p in traced]
        value = max(values) if name.endswith("_max") else sum(values)
        metrics[name] = (value, "bits" if name.endswith("bits_max") else "count")
    traced_op_s = sum(sum(p["latencies"]) for p in traced)
    metrics["bench.oracle_s"] = (sum(p["oracle_s"] for p in traced), "s")
    metrics["bench.glue_s"] = (traced_op_s - sum(p["library_s"] for p in traced), "s")
    # at the reference host speed, so that the host's drift between the two
    # passes of a pair does not count as overhead
    metrics["bench.tracing_overhead_s"] = (
        _adjusted_s(traced) - _adjusted_s(untraced), "s")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Run every pass of one workload; the result carries notes for the table."""
    key = f"{workload}:{seed}"
    n = pass_count(workload, seconds)
    if trace:
        # untraced, then traced, so both sides of the overhead see the
        # machine in the same state
        pairs = [(_pass(workload, key, deadline), _pass(workload, key, deadline, i + 1))
                 for i in range(max(1, n // 2))]
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        metrics = per_layer(untraced, traced)
        notes: dict = {}
        judged = traced
    else:
        start = time.monotonic()
        untraced = []
        while len(untraced) < n and (len(untraced) < MIN_PASSES or
                                     time.monotonic() - start < OVERRUN * seconds):
            untraced.append(_pass(workload, key, deadline))
        setups = [_worker(workload, key, deadline, "--setup-only")
                  for _ in range(SETUP_PROBES)] + untraced
        metrics, notes = end_to_end(untraced, setups)
        judged = untraced
    failures = [f for p in judged for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in judged)
    return {
        "correct": all(f["known"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "passes": len(judged),
        "failure_kinds": sorted({f["reason"] for f in failures}),
    }


def report(workload: str, result: dict, out=sys.stdout) -> None:
    a, f = result["attempted"], result["failed"]
    print(f"# {workload}: {result['passes']} passes, {a} ops, correct={result['correct']}",
          file=out)
    for name, m in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']:<6} {note}", file=out)
    print(f"{'failed_frac':<52} {f / a:>14.6g} {'ratio':<6} {f}/{a} ops", file=out)
    for reason in result["failure_kinds"]:
        print(f"  failure: {reason}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (Path("src") / "kirbycalc" / "__init__.py").is_file():
        print("run.py: no src/kirbycalc here; run it from the repository root",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in names:
        try:
            results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace),
                                      time.monotonic() + DEADLINE_S)
        except BenchError as exc:
            print(f"run.py: {w}: {exc}", file=sys.stderr)
            return 1
        report(w, results[w])
    keep = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({w: {k: r[k] for k in keep} for w, r in results.items()}))
    else:
        print(json.dumps({k: results[args.workload][k] for k in keep}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
