"""ergolab benchmark: verified time-to-result on three seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from the
checkout's `src/`.  One caller, one process, one thread: each job (compute,
independent oracle, compare) starts only after the previous one returned.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of several imports + input generations + warm-up jobs), wall time of
one pass over the workload's fixed job list (mean over passes), the median
over the job list of each job's mean latency, the tail of all job latencies,
and peak resident memory.  --trace 1 runs one untraced
pass, then two passes with ergolab's layers wrapped (tracer.py), and reports
the per-layer metrics of the second; it fails the run unless the traced
passes reproduce the untraced digest and their work counts repeat exactly.

The last line of standard output is the JSON result; the line before it,
prefixed "info ", records the seed, source identity and versions, failure
fraction, digest and tail percentile.  A traced run also writes its span
table, aggregated per (layer, parent), to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing
from workloads import WORKLOADS, JobContext

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
TRACED_PASSES = 2


def import_ergolab():
    """Import ergolab afresh from the checkout (dropping any earlier import)."""
    for name in [m for m in sys.modules
                 if m == "ergolab" or m.startswith("ergolab.")]:
        del sys.modules[name]
    lib = importlib.import_module("ergolab")
    importlib.import_module("ergolab.cli")
    if Path(lib.__file__).resolve().parent != SRC / "ergolab":
        raise RuntimeError(f"imported ergolab from {lib.__file__}, not {SRC}")
    return lib


def run_job(job, lib, state, inject=None) -> tuple[float, JobContext]:
    """One job under the correctness gate: raising counts as failing."""
    ctx = JobContext(inject)
    t0 = time.perf_counter()
    try:
        job.run(lib, state, ctx)
    except Exception as exc:  # the gate records any failure and goes on
        ctx.failures.append(f"raised {exc!r}")
        if inject is None:
            traceback.print_exc(file=sys.stderr)
    dt = time.perf_counter() - t0
    if ctx.failures and inject is None:
        print(f"FAILED job {job.name}: " + "; ".join(ctx.failures),
              file=sys.stderr)
    return dt, ctx


@dataclass
class PassResult:
    wall_s: float
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    artifact_bytes: int = 0
    digest: str = ""


def run_pass(workload, lib) -> PassResult:
    res = PassResult(0.0)
    emitted = []
    t0 = time.perf_counter()
    for job in workload.jobs:
        dt, ctx = run_job(job, lib, workload.state)
        res.latencies.append(dt)
        res.failed += bool(ctx.failures)
        res.artifact_bytes += ctx.artifact_bytes
        emitted += ctx.emitted
    res.wall_s = time.perf_counter() - t0
    h = hashlib.sha256()
    for chunk in emitted:
        h.update(chunk)
    res.digest = h.hexdigest()
    return res


def self_test(workload, lib) -> bool:
    """Plant a wrong reference (and, where the job reads artifacts, a
    missing artifact) in the first job; the gate must count it failed."""
    for inject, required in (("reference", True), ("missing", False)):
        _, ctx = run_job(workload.jobs[0], lib, workload.state, inject)
        planted = ctx.inject is None
        if (required and not planted) or (planted and not ctx.failures):
            return False
    return True


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); the maximum when there are ten samples or fewer."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def source_identity() -> dict:
    files = sorted((SRC / "ergolab").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += sum(1 for ln in data.decode().splitlines() if ln.strip())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": h.hexdigest(), "src_lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ergolab" / "__init__.py").is_file():
        print(f"no ergolab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workdir: Path) -> int:
    make = WORKLOADS[args.workload]
    setup_times, warm_ok = [], True
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_ergolab()
        workload = make(args.seed, workdir)
        _, ctx = run_job(workload.jobs[0], lib, workload.state)
        setup_times.append(time.perf_counter() - t0)
        warm_ok &= not ctx.failures

    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            **source_identity(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "jobs_per_pass": len(workload.jobs)}
    if args.trace:
        passes, metrics, extra_ok, spans = traced_run(workload, lib, info)
    else:
        count = max(1, round(args.seconds / workload.pass_s))
        passes = [run_pass(workload, lib) for _ in range(count)]
        latencies = [x for p in passes for x in p.latencies]
        tail_s, tail_pct = tail(latencies)
        # Means over passes, not medians: the host's speed drifts in
        # episodes of tens of seconds, and a mean averages them where a
        # median picks one.
        per_job = [statistics.fmean(p.latencies[j] for p in passes)
                   for j in range(len(workload.jobs))]
        metrics = {"setup_s": statistics.median(setup_times),
                   "wall_s": statistics.fmean(p.wall_s for p in passes),
                   "job_p50_s": statistics.median(per_job),
                   "job_tail_s": tail_s,
                   "peak_rss_mb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        info.update(job_tail_pct=tail_pct, job_samples=len(latencies),
                    setup_samples_s=setup_times)
        extra_ok = True
    digests = {p.digest for p in passes}
    info.update(passes=len(passes), pass_walls_s=[p.wall_s for p in passes],
                digest=passes[0].digest,
                digest_repeats=len(digests) == 1,
                self_test=self_test(workload, lib), warm_up_ok=warm_ok)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    info["failed_frac"] = failed / attempted
    correct = (failed == 0 and warm_ok and info["digest_repeats"]
               and info["self_test"] and extra_ok)

    kind = "per_layer" if args.trace else "end_to_end"
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in spec[kind]}
    rows = [(name, v["value"], v["unit"]) for name, v in out.items()]
    if not args.trace:
        rows.append(("failed_frac", info["failed_frac"], "ratio"))
    for name, value, unit in rows:
        print(f"{name:<48} {value:>16.6g} {unit}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        record = {"info": info, "correct": correct, "metrics": out,
                  "spans": spans}
        (OUT / f"{args.workload}-seed{args.seed}-trace.json").write_text(
            json.dumps(record, indent=1) + "\n")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def traced_run(workload, lib, info):
    """One untraced pass, then TRACED_PASSES wrapped passes; the per-layer
    metrics come from the last one."""
    untraced = run_pass(workload, lib)
    tr = tracing.Tracer()
    tracing.install(tr)
    traced, snapshots = [], []
    for _ in range(TRACED_PASSES):
        tr.reset()
        p = run_pass(workload, lib)
        tr.counts["runner.artifact_bytes"] += p.artifact_bytes
        traced.append(p)
        layers = {layer for layer, _ in tr.spans}
        snapshots.append({"counts": dict(tr.counts), "used": dict(tr.used),
                          "calls": {ly: tr.calls(ly) for ly in sorted(layers)}})
    metrics = tracing.layer_metrics(tr)
    wall_t = traced[-1].wall_s
    metrics.update({"trace.untraced_wall_s": untraced.wall_s,
                    "trace.traced_wall_s": wall_t,
                    "trace.overhead_frac": wall_t / untraced.wall_s - 1.0})
    counts_repeat = all(s == snapshots[0] for s in snapshots)
    digest_match = all(p.digest == untraced.digest for p in traced)
    info.update(counts_repeat=counts_repeat, traced_digest_match=digest_match,
                work_counts=snapshots[-1]["counts"])
    return ([untraced] + traced, metrics, counts_repeat and digest_match,
            tr.table())


if __name__ == "__main__":
    sys.exit(main())
