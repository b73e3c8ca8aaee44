"""End-to-end benchmark of barloop, with a per-layer traced breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload nerve-ladder --seed 1 \
        --seconds 30 --trace 0

Workloads (see workloads.py):
  nerve-ladder   nerve homology and weq verdicts of cyclic groups; dense
                 Smith normal form dominates, rewriting is negligible
  localization   completions, group completions, inverse adjunction and
                 cap-bound basis enumeration; never calls Smith normal form
  bar-certify    the paper's certification path: nerve/bar identification,
                 unit and counit checks, loop groups, paper-suite

Each pass runs every operation of the workload once, checks each answer
with an oracle, and passes repeat until --seconds have gone by (at least
one).  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of untraced passes:
  setup_s      median time to import barloop and generate the seeded
               inputs, repeated before every pass (each pass runs on a
               fresh import, as a new script would)
  wall_s       median wall time of one pass (oracle checks excluded)
  peak_rss_mb  peak resident memory of the process

--trace 1 alternates untraced and traced passes and reports per-layer
self times and work counters from the traced passes (medians for times;
counters are deterministic), the tracing overhead, the pass counts, and
the per-rung wall times of the cost ladders with their growth ratios.
Failed operations count in attempted/failed, so error_rate is
failed / attempted.  A cap hit that ends in the documented partial answer
is a correct outcome; it shows in rewrite.cap_hits.

Every run also writes perfbench/out/<workload>-seed<seed>-trace<t>.json
with the run metadata (commit, Python version, CPU count, Smith normal
form backend; results from different backends must not be compared),
the metrics, per-operation times and any failures; a traced run adds the
spans of its traced passes as ...-spans.jsonl.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up repeats before every pass, so that the median set-up time samples
# the whole run rather than one moment of a machine whose speed drifts.
SETUP_REPEATS = 5
SPAN_FIELDS = ["op", "id", "parent", "name", "start", "end", "self_s",
               "status"]
BARLOOP_MODULES = (
    "cli", "monoids", "rewrite", "simplicial", "dgcoalg", "exactlin",
    "weqcheck", "barcobar", "loopgroup",
)


def import_barloop():
    """Import barloop afresh and return its modules by short name."""
    for key in [k for k in sys.modules
                if k == "barloop" or k.startswith("barloop.")]:
        del sys.modules[key]
    return SimpleNamespace(**{
        name: importlib.import_module(f"barloop.{name}")
        for name in BARLOOP_MODULES
    })


def set_up(workload, seed, setup_times):
    """Import barloop and build the inputs SETUP_REPEATS times, appending
    each time to setup_times; returns the modules and operations of the
    last repetition."""
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        bl = import_barloop()
        ops = workloads.build(bl, workload, seed)
        setup_times.append(perf_counter() - t0)
    return bl, ops


def _outcome(op):
    """(seconds, problem or None) of one operation; the check is untimed."""
    t0 = perf_counter()
    try:
        result = op.call()
    except Exception:  # an unexpected exception is a failed operation
        return perf_counter() - t0, traceback.format_exc(limit=3)
    seconds = perf_counter() - t0
    try:
        return seconds, op.check(result)
    except Exception:  # so is an answer the oracle cannot read
        return seconds, traceback.format_exc(limit=3)


def run_pass(ops, tracer=None, pass_no=0):
    """Run every operation once; (per-operation seconds, failures)."""
    gc.collect()
    times = []
    failures = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = f"{pass_no}:{i}"
        seconds, problem = _outcome(op)
        times.append(seconds)
        if problem:
            failures.append((op.name, problem))
    return times, failures


def ladder_metrics(workload, op_names, per_op_times):
    """Per-rung median wall times and rung-to-rung growth ratios.

    Every workload prints every rung metric; a workload without a ladder
    reports 0 for it.
    """
    median_of = {
        name: statistics.median(t[i] for t in per_op_times)
        for i, name in enumerate(op_names)
    }
    out = {}
    for wl, ladders in workloads.LADDERS.items():
        for ladder, rungs in ladders:
            for k, name in enumerate(rungs):
                rung = name.rsplit("-", 1)[-1]
                value = median_of[name] if wl == workload else 0.0
                out[f"rung.{ladder}_{rung}_s"] = value
                if k:
                    prev = rungs[k - 1]
                    prev_rung = prev.rsplit("-", 1)[-1]
                    ratio = (median_of[name] / median_of[prev]
                             if wl == workload else 0.0)
                    out[f"growth.{ladder}_{rung}_over_{prev_rung}"] = ratio
    return out


def _commit():
    """Commit of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256():
    """Digest of barloop's Python sources, which names the code measured
    where the checkout carries no commit."""
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "barloop"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def metadata(bl, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": bl.exactlin.backend_name(),
    }


def measure(args):
    """Set up afresh and run passes until args.seconds have gone by.

    Every pass runs on a fresh import of barloop, as a new script would.
    Returns a summary dict.
    """
    setup_times = []
    untraced, traced = [], []
    per_op = []
    failures = []
    layer_runs = []
    spans = []
    recorder = tracing.Tracer() if args.trace else None
    start = perf_counter()
    while True:
        bl, ops = set_up(args.workload, args.seed, setup_times)
        times, failed = run_pass(ops)
        untraced.append(sum(times))
        per_op.append(times)
        failures.extend(failed)
        if recorder is not None:
            recorder.install()
            try:
                times, failed = run_pass(ops, recorder, len(traced))
            finally:
                recorder.uninstall()
            traced.append(sum(times))
            failures.extend(failed)
            pass_spans, counts = recorder.take()
            layer_runs.append(tracing.layer_metrics(pass_spans, counts))
            spans.extend(pass_spans)
        if perf_counter() - start >= args.seconds:
            break
    return bl, ops, {
        "setup": setup_times,
        "untraced": untraced,
        "traced": traced,
        "per_op": per_op,
        "failures": failures,
        "layer_runs": layer_runs,
        "spans": spans,
    }


def trace_metrics(workload, ops, summary):
    runs = summary["layer_runs"]
    first = runs[0]
    metrics = {}
    for name in first:
        if name in tracing.COUNTERS or name == "rewrite.rules_per_step":
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median(r[name] for r in runs)
    metrics["trace.overhead_ratio"] = (
        statistics.median(summary["traced"])
        / statistics.median(summary["untraced"]) - 1.0
    )
    metrics["bench.passes"] = len(summary["untraced"])
    metrics["bench.traced_passes"] = len(summary["traced"])
    metrics.update(ladder_metrics(
        workload, [op.name for op in ops], summary["per_op"]
    ))
    return metrics


def unit_of(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name == "rewrite.rules_per_step":
        return "rules/step"
    if name == "trace.overhead_ratio" or name.startswith("growth."):
        return "ratio"
    return "count"


def write_out(meta, result, summary, ops):
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(
        OUT, f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    )
    record = {
        "meta": meta,
        "result": result,
        "error_rate": result["failed"] / result["attempted"],
        "setup_seconds": summary["setup"],
        "pass_seconds": summary["untraced"],
        "traced_pass_seconds": summary["traced"],
        "operations": [op.name for op in ops],
        "operation_seconds": {
            op.name: [t[i] for t in summary["per_op"]]
            for i, op in enumerate(ops)
        },
        "failures": summary["failures"],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if summary["spans"]:
        # One JSON array per line after a header naming the fields; the
        # operation id "<traced pass>:<index>" indexes "operations" above.
        with open(stem + "-spans.jsonl", "w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in summary["spans"]:
                fh.write(json.dumps(span) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "barloop")):
        print(f"barloop sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    bl, ops, summary = measure(args)
    attempted = len(ops) * (len(summary["untraced"]) + len(summary["traced"]))
    failed = len(summary["failures"])
    if args.trace:
        metrics = trace_metrics(args.workload, ops, summary)
    else:
        metrics = {
            "setup_s": statistics.median(summary["setup"]),
            "wall_s": statistics.median(summary["untraced"]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
    meta = metadata(bl, args)
    write_out(meta, result, summary, ops)
    for name, problem in summary["failures"]:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"error_rate {failed / attempted} ({failed} of {attempted})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
