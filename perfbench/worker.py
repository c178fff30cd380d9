"""One pass of a workload in a fresh interpreter; prints a JSON summary.

    python3 perfbench/worker.py --workload linalg --key linalg:0:0 \
        --spawned <time.monotonic() of the launcher> [--trace SPANS] [--setup-only]

The launcher (run.py) starts this with PYTHONPATH=src from the checkout
root.  Set-up is measured from the launcher's spawn time to the first timed
op, so it covers interpreter start, imports and input generation.  `speed`
gives, for each op, the factor that adjusts its latency to the reference
host speed (perfbench/hostspeed.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import warnings
from pathlib import Path

OP_TIMEOUT_S = 60


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--key", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import kirbycalc
    src = (Path.cwd() / "src").resolve()
    if src not in Path(kirbycalc.__file__).resolve().parents:
        print(f"kirbycalc imported from {kirbycalc.__file__}, not ./src", file=sys.stderr)
        return 2
    import gen
    import hostspeed
    ops = gen.make_ops(args.workload, args.key)
    rec = None
    if args.trace:
        import recorder
        rec = recorder.Recorder()
        recorder.install(rec)

    first = time.monotonic()
    summary = {"setup_s": first - args.spawned}
    if args.setup_only:
        print(json.dumps(summary))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    latencies, failures = [], []
    oracle_s = 0.0
    n_warnings = roundtrip_mismatch = 0
    ctx: dict = {}
    hostspeed.sample()
    samples, marks = [hostspeed.sample()], []
    sampled = time.perf_counter()
    for i, op in enumerate(ops):
        if time.perf_counter() - sampled >= hostspeed.EVERY_S:
            samples.append(hostspeed.sample())
            sampled = time.perf_counter()
        marks.append(len(samples) - 1)
        if rec is not None:
            rec.op_id = i
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            t0 = time.perf_counter()
            try:
                out, error = op.run(ctx), None
            except Exception as exc:  # an op that raises is a failed op
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        n_warnings += len(caught)
        latencies.append(t1 - t0)
        if error is None:
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                error = op.check(ctx, out)
            except Exception as exc:  # an output the oracle cannot read is wrong
                error = f"oracle raised {type(exc).__name__}: {exc}"
            signal.setitimer(signal.ITIMER_REAL, 0)
            oracle_s += time.perf_counter() - t1
            if op.kind == "roundtrip" and error is not None:
                roundtrip_mismatch += 1
        if error is not None:
            failures.append({"op": i, "kind": op.kind, "reason": error,
                             "known": error == gen.KNOWN_DEFECT})
    samples += [hostspeed.sample() for _ in range(hostspeed.HALF_WINDOW)]
    summary.update(latencies=latencies, speed=hostspeed.factors(samples, marks),
                   failures=failures, oracle_s=oracle_s,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    counts = {"swledger.warnings": n_warnings, "hbd.roundtrip_mismatch": roundtrip_mismatch}
    if rec is not None:
        counts.update(rec.counts)
        summary["self"] = recorder.self_times(rec.spans)
        summary["library_s"] = recorder.top_level_time(rec.spans)
        with open(args.trace, "w") as fh:
            fh.write(json.dumps({"fields": ["op", "span", "parent", "name", "start", "end"],
                                 "spans": rec.spans}))
    summary["counts"] = counts
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
