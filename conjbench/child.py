"""One workload child: set up, run timed ops, check outputs, probe the CLI.

Started by run.py, one child at a time. Prints one JSON object as its
last line of standard output; run.py reads peak RSS from os.wait4.

Times are CPU times of this process (user + system), not wall time. The
ops are single-threaded and do no I/O, so on an idle machine the two
agree; on a shared one, CPU time leaves out the time the process waits
for a core, which otherwise dominates the run-to-run spread. The run
length (--slice) is wall time.

    python3 conjbench/child.py --workload decide --seed 1 --start 0
        --slice 5 --cover 1 --probe 1 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_conjlab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import conjlab
    where = Path(conjlab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"conjlab imported from {where}, not from {src}")
    return conjlab


def _probe(conjlab, argv, expected):
    """Run the CLI in this process with its output captured; the exit
    code and the last error line are returned for the report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = conjlab.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().strip().splitlines()
    return {"argv": list(argv), "expected": expected, "code": code,
            "stderr": lines[-1] if lines else ""}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--slice", type=float, required=True)
    p.add_argument("--min-ops", type=int, default=1)
    p.add_argument("--max-ops", type=int, default=10 ** 9)
    p.add_argument("--cover", type=int, default=0,
                   help="1: stop only at the end of an input round")
    p.add_argument("--probe", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--trace-out", default="")
    args = p.parse_args(argv)

    conjlab = _import_conjlab()
    import conjlab.cli  # noqa: F401  (probes and tracing need it loaded)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(conjlab)
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]()
    if tracer is not None:
        with tracer.span("bench.setup"):
            wl.setup(args.seed)
    else:
        wl.setup(args.seed)
    # CPU time of this process so far: interpreter start, imports, set-up
    setup_s = time.process_time()

    rounds = wl.round_size
    op_name = f"bench.{wl.name}.op"
    first = {}                 # key -> (verdict text, item, result)
    counters = {}              # summed over every op, repeats included
    errors = []
    latencies = []
    keys = []
    failures = []
    t0 = time.perf_counter()
    while len(latencies) < args.max_ops and (
            len(latencies) < args.min_ops
            or time.perf_counter() - t0 < args.slice
            or (args.cover and (args.start + len(latencies)) % rounds)):
        i = args.start + len(latencies)
        item = wl.item(i)
        t_op = time.process_time()
        try:
            if tracer is not None:
                with tracer.span(op_name):
                    verdict, result = wl.run(item)
            else:
                verdict, result = wl.run(item)
        except Exception:
            failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
            verdict, result = None, None
        latencies.append(time.process_time() - t_op)
        keys.append(wl.key(i))
        if verdict is None:
            continue
        for key, value in wl.counters(result).items():
            counters[key] = counters.get(key, 0) + value
        seen = first.setdefault(wl.key(i), (verdict, item, result))[0]
        if seen != verdict:
            errors.append(f"op {i}: verdict {verdict!r} after {seen!r}")
    timed_s = sum(latencies)

    # a repeated input gave the same verdict text, so its first result
    # stands for every repeat
    for key, (_, item, result) in first.items():
        errors += [f"input {key}: {e}" for e in wl.check(item, result)]

    probes = []
    if args.probe:
        probes = [_probe(conjlab, a, code) for a, code in wl.probes]

    report = {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "latencies_ms": [x * 1e3 for x in latencies],
        "keys": keys,
        "failed": len(failures),
        "failures": failures,
        "errors": errors,
        "verdicts": {str(key): v for key, (v, _, _) in first.items()},
        "round_size": wl.round_size,
        "input_digest": wl.input_digest(),
        "probes": probes,
        "counters": counters,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["image_is_trivial_from_search"] = tracer.calls_from(
            "quotients.FoldedQuotient.image_is_trivial",
            "search.mckinsey_search")
        report["route_exhaustive"] = tracer.calls_from(
            "quotients.finite_conjugate", "search.mckinsey_search")
        report["route_exact"] = tracer.calls_from(
            "quotients.quotient_conjugate_exact", "search.mckinsey_search")
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
