"""conjlab benchmark: run one workload and report its metrics.

    python3 conjbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Runs one workload (decide, separate, growth; see workloads.py and
NOTES.md) in fresh child processes started one at a time, so at most two
processes are alive. Prints a human summary on standard error and, as
the last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0: end-to-end metrics. Each input is decided many times in a
run, and every op counts at the fastest time of its input. Set-up is
measured once per child and reported as the median of the children;
peak RSS is each child's ru_maxrss from os.wait4, again the median.

--trace 1: per-layer metrics. One untraced child runs for half of
--seconds, then a traced child runs the same ops; the difference of
their timed phases is the tracing overhead. Spans go to .conjbench_out/.

Exits 2 without a result when the conjlab sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".conjbench_out"

WORKLOAD_NAMES = ("decide", "separate", "growth")
# workloads whose op must run cold, one op per child
ONE_OP_PER_CHILD = ("growth",)
# nominal seconds of one cold op; it fixes the number of such ops a run
# makes, so that --seconds, not the machine's speed, sets that number
COLD_OP_S = 6.0
CHILDREN = 3          # set-up samples per untraced run
RUN_LIMIT_S = 170.0   # the whole run, all children included

END_TO_END = (("throughput_ops_s", "1/s"), ("latency_p50_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class ChildFailed(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    # the default int-to-str digit limit is part of what the CLI probe
    # measures; hash order is pinned so runs of one seed repeat
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(deadline, **opts):
    """Run child.py to completion; returns (report dict, peak RSS in MB)."""
    cmd = [sys.executable, str(HERE / "child.py")]
    for key, value in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    limit = deadline - time.monotonic()
    if limit <= 0:
        raise ChildFailed("run time limit reached before a child could start")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE)
    killer = threading.Timer(limit, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"child {' '.join(cmd[2:])} exited "
                          f"{proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise ChildFailed("child printed no report")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten samples
    beyond it: (value, percentile, sample count), or None."""
    n = len(latencies)
    if n < 11:
        return None
    rank = n - 11
    return sorted(latencies)[rank], 100.0 * (rank + 1) / n, n


def verdict_digest(reports, errors):
    from workloads import digest
    round_size = reports[0]["round_size"]
    verdicts = {}
    for rep in reports:
        for idx, v in rep["verdicts"].items():
            if verdicts.setdefault(int(idx), v) != v:
                errors.append(f"op {idx} gave two verdicts: "
                              f"{verdicts[int(idx)]!r} and {v!r}")
    missing = [i for i in range(round_size) if i not in verdicts]
    if missing:
        errors.append(f"{len(missing)} inputs of the pool never decided")
    return digest(f"{i}:{verdicts.get(i)}" for i in range(round_size))


def collect(reports, errors):
    """Failures, probes and checks over all children of a run."""
    digests = {rep["input_digest"] for rep in reports}
    if len(digests) != 1:
        errors.append(f"children built different inputs: {sorted(digests)}")
    failed = attempted = 0
    notes = []
    for rep in reports:
        attempted += len(rep["latencies_ms"])
        failed += rep["failed"]
        errors += rep["errors"]
        notes += rep["failures"]
        for probe in rep["probes"]:
            attempted += 1
            if probe["code"] != probe["expected"]:
                failed += 1
                notes.append(f"probe conjlab {' '.join(probe['argv'])}: exit "
                             f"{probe['code']}, expected {probe['expected']}"
                             f" ({probe['stderr']})")
    return attempted, failed, notes


def run_untraced(name, seed, seconds, deadline):
    reports, rss = [], []
    offset = 0
    timed = 0.0
    one = name in ONE_OP_PER_CHILD
    # a cold op gets a child each, as many as --seconds holds at
    # COLD_OP_S an op; otherwise the children share --seconds
    children = (max(CHILDREN, round(seconds / COLD_OP_S)) if one
                else CHILDREN)
    while len(reports) < children:
        if one:
            opts = dict(slice=0, max_ops=1)
        else:
            opts = dict(slice=seconds / CHILDREN,
                        cover=int(len(reports) == CHILDREN - 1))
        rep, peak = spawn(deadline, workload=name, seed=seed, start=offset,
                          probe=int(not reports), trace=0, **opts)
        reports.append(rep)
        rss.append(peak)
        offset += len(rep["latencies_ms"])
        timed += rep["timed_s"]
    errors = []
    attempted, failed, notes = collect(reports, errors)
    latencies = [x for rep in reports for x in rep["latencies_ms"]]
    keys = [k for rep in reports for k in rep["keys"]]
    # every input is decided many times, spread over the run; an op
    # counts at the fastest time of its input, which leaves out the time
    # the machine's other tenants took from it
    fastest = {}
    for key, x in zip(keys, latencies):
        fastest[key] = min(x, fastest.get(key, x))
    best = [fastest[key] for key in keys]
    metrics = {
        "throughput_ops_s": len(best) / (sum(best) / 1e3),
        "latency_p50_ms": statistics.median(best),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(rep["setup_s"] for rep in reports),
    }
    detail = {
        "children": len(reports),
        "ops": len(latencies),
        "timed_s": timed,
        "inputs": len(fastest),
        "as_timed": {"throughput_ops_s": len(latencies) / timed,
                     "latency_p50_ms": statistics.median(latencies)},
        "setup_s_each": [rep["setup_s"] for rep in reports],
        "peak_rss_mb_each": rss,
        "tail": tail_latency(latencies),
        "input_digest": reports[0]["input_digest"],
        "verdict_digest": verdict_digest(reports, errors),
        "failed_share": failed / attempted,
    }
    return metrics, attempted, failed, errors, notes, detail


def run_traced(name, seed, seconds, deadline):
    one = name in ONE_OP_PER_CHILD
    # half of --seconds untraced, so that with the traced child's
    # slowdown a traced run takes about as long as an untraced one
    plain, _ = spawn(deadline, workload=name, seed=seed, start=0, probe=1,
                     trace=0, **(dict(slice=0, max_ops=1) if one
                                 else dict(slice=seconds / 2, cover=1)))
    n = len(plain["latencies_ms"])
    stem = OUT / f"{name}-seed{seed}"
    traced, _ = spawn(deadline, workload=name, seed=seed, start=0, slice=0,
                      min_ops=n, max_ops=n, trace=1, trace_out=stem)
    reports = [plain, traced]
    errors = []
    attempted, failed, notes = collect(reports, errors)
    layers = dict(traced["layers"])
    counters = traced["counters"]
    tested = counters.get("search.quotients_tested", 0)
    layers["search.quotients_tested"] = tested
    layers["search.conjugators_tested"] = counters.get(
        "search.conjugators_tested", 0)
    layers["search.route_exhaustive"] = traced["route_exhaustive"]
    layers["search.route_exact"] = traced["route_exact"]
    layers["search.separations_per_spec"] = (
        counters.get("search.separations", 0) / tested if tested else 0.0)
    layers["trace.overhead_s"] = traced["timed_s"] - plain["timed_s"]
    if traced["image_is_trivial_from_search"] != tested:
        errors.append(
            f"trace incomplete: {traced['image_is_trivial_from_search']} "
            f"image_is_trivial calls from search, {tested} quotients tested")
    metrics = {key: layers.get(key, 0) for key, _ in per_layer_metrics()}
    detail = {
        "ops": n,
        "untraced_timed_s": plain["timed_s"],
        "traced_timed_s": traced["timed_s"],
        "input_digest": plain["input_digest"],
        "verdict_digest": verdict_digest(reports, errors),
        "failed_share": failed / attempted,
        "spans": f"{stem}.spans",
    }
    return metrics, attempted, failed, errors, notes, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "conjlab" / "__init__.py").is_file():
        print(f"error: no conjlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    runner = run_traced if args.trace else run_untraced
    try:
        metrics, attempted, failed, errors, notes, detail = runner(
            args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = dict(END_TO_END + tuple(per_layer_metrics()))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value,
                          "unit": units[key]}
                    for key, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, errors=errors,
                  notes=notes, detail=detail)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} "
          f"failed_share={detail['failed_share']:.4f} "
          f"inputs={detail['input_digest']} "
          f"verdicts={detail['verdict_digest']}", file=sys.stderr)
    tail = detail.get("tail")
    if tail:
        print(f"as timed: latency_tail_ms={tail[0]:.3f} at p{tail[1]:.1f} "
              f"of {tail[2]} ops", file=sys.stderr)
    for key, value in detail.get("as_timed", {}).items():
        print(f"as timed: {key}={value}", file=sys.stderr)
    for key, entry in result["metrics"].items():
        print(f"  {key} = {entry['value']} {entry['unit']}", file=sys.stderr)
    for line in errors + notes:
        print(f"  ! {line.strip()}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
