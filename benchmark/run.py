#!/usr/bin/env python3
"""heatcoef benchmark: seeded solver workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and NOTES.md): invert_bump32,
verify_spectral32, forward_sweep48.  Each run starts the workload in a
fresh worker process (worker.py) with the BLAS threads pinned to nproc.
The worker is a closed loop with one client: scenario solves run back to
back for S seconds.  The program receives only the generated config text.

``--trace 0`` reports the end-to-end metrics:

    wall_s       median wall time of one case's solves, parse to write_reports
    setup_s      median time from process start to ready-for-first-solve,
                 over SETUP_SAMPLES fresh processes
    peak_rss_mb  peak resident memory of the workload process
    rel_error    largest relative error of the outputs against the exact
                 reference (workloads.py)

``--trace 1`` reports the per-layer metrics from a traced run (tracer.py)
plus the layer scaling table (scaling.py) at nproc and 1 BLAS threads.
A solve fails when it raises ConfigError/RunnerError, prints a FAIL
summary line, or (invert) exceeds rel_error 0.02; ``failed``/``attempted``
count solves.  The last stdout line is the JSON result; the full record
(environment stamp, per-solve manifest SHA-256 values, spans, scaling rows)
is written under benchmark/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
# Child processes still running this long after the start are killed and
# the run fails, so that every run ends within three minutes.
TIMEOUT_S = 170.0
# Scaling table of each workload's traced run: the layers the workload
# leans on, and the grids timed at nproc and at 1 BLAS thread.  The 64^2
# projection norm at 1 thread (about 45 s with its eigensolve) is left out
# so that the traced run stays well inside its time limit.
SCALING = {
    "invert_bump32": ("eig_k1,assembly,transport_ls", "32,48,64", "32,48,64"),
    "verify_spectral32": ("proj_norm", "32,48,64", "32,48"),
    "forward_sweep48": ("eig_k40", "32,48,64", "32,48,64"),
}


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(script: str, args: list[str], threads: int, deadline: float,
              wait_ready: bool = True) -> tuple[float | None, dict]:
    """Run a benchmark script to completion.

    Returns the seconds until its READY line (when ``wait_ready``), which
    marks the end of its set-up, and the JSON of its last ``RESULT`` line.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / script), *args], cwd=ROOT,
                            env=pinned_env(threads), stdout=subprocess.PIPE, text=True)
    ready = None
    try:
        if wait_ready:
            if proc.stdout.readline().strip() != "READY":
                raise BenchError(f"{script} did not get ready")
            ready = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with code {proc.returncode}")
    results = [line for line in out.splitlines() if line.startswith("RESULT ")]
    return ready, (json.loads(results[-1][len("RESULT "):]) if results else {})


def git_sha() -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "heatcoef").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def failed_solves(case: dict) -> int:
    return len({f.split(":", 1)[0] for f in case["failures"]})


def end_to_end(cases: list[dict], setups: list[float], rss: float) -> dict:
    rel = [e for c in cases for e in c["rel_errors"]]
    if not rel:
        raise BenchError("no solve produced outputs to check")
    return {
        "wall_s": (statistics.median(c["wall"] for c in cases), "s",
                   f"median of {len(cases)} cases"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (rss, "MB", "1 workload process"),
        "rel_error": (max(rel), "1", f"max over {len(rel)} solves"),
    }


def per_layer(worker: dict) -> tuple[dict, bool]:
    """Per-case means of the layer metrics, plus the tracing-overhead metrics.

    Returns the metrics and whether the self-time accounting closed: the
    self times plus bench.untraced_s must equal each traced wall time.
    """
    layers = worker["layers"]
    walls = worker["traced_wall_s"]
    untraced = [c["wall"] for c in worker["cases"]]
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name == "spectral.eig_max_n":
            metrics[name] = (max(values), "count", "max over cases")
        elif name.endswith("_s"):
            metrics[name] = (statistics.fmean(values), "s", f"mean of {len(values)} cases")
        elif name.endswith("_ratio"):
            metrics[name] = (statistics.fmean(values), "1", f"mean of {len(values)} cases")
        else:
            unit = "bytes" if name.endswith("_bytes") else "count"
            metrics[name] = (statistics.fmean(values), unit, f"mean per case of {len(values)}")
    traced, plain = statistics.median(walls), statistics.median(untraced)
    metrics["trace.wall_s"] = (traced, "s", f"median of {len(walls)} traced cases")
    metrics["trace.untraced_wall_s"] = (plain, "s", f"median of {len(untraced)} untraced cases")
    metrics["trace.overhead_ratio"] = (traced / plain - 1.0, "1", "traced / untraced - 1")
    closes = all(
        abs(sum(v for k, v in m.items() if k.endswith("_s")) - w) <= 1e-6 * max(1.0, w)
        and m["bench.untraced_s"] >= 0.0
        for m, w in zip(layers, walls))
    return metrics, closes


def print_scaling(rows: list[dict]) -> None:
    print(f"{'layer':<13}{'grid':>6}{'n':>6}{'K':>4}{'threads':>8}{'seconds':>11}{'reps':>5}"
          f"{'dense bytes (computed)':>24}")
    for r in rows:
        dense = "-" if r["dense_bytes_computed"] is None else f"{r['dense_bytes_computed']:,}"
        k = "-" if r["K"] is None else r["K"]
        print(f"{r['layer']:<13}{r['grid']:>4}^2{r['n']:>6}{k:>4}{r['threads']:>8}"
              f"{r['seconds']:>11.4f}{r['reps']:>5}{dense:>24}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(SCALING))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--config", type=Path, default=None,
                   help="solve this scenario file in the workload's first mode instead "
                        "of the seeded cases (e.g. to trace a bundled scenario)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "heatcoef" / "__init__.py").is_file():
        print(f"error: no heatcoef package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIMEOUT_S
    threads = nproc()
    out = BENCH / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]

    try:
        setups = [run_child("worker.py", base + ["--seconds", "0", "--setup-only"],
                            threads, deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        extra = ["--config", str(args.config.resolve())] if args.config else []
        ready, worker = run_child(
            "worker.py", base + ["--seconds", str(args.seconds), "--trace", str(args.trace)] + extra,
            threads, deadline)
        setups.append(ready)
        scaling = []
        if args.trace:
            layers, grids_nproc, grids_1 = SCALING[args.workload]
            for t, grids in ((threads, grids_nproc), (1, grids_1)):
                _, rows = run_child("scaling.py", ["--layers", layers, "--grids", grids],
                                    t, deadline, wait_ready=False)
                scaling += [dict(r, threads=t) for r in rows["rows"]]
        if not worker:
            raise BenchError("worker.py printed no result")
        cases = worker["cases"]
        if args.trace:
            metrics, closes = per_layer(worker)
        else:
            metrics, closes = end_to_end(cases, setups, worker["peak_rss_mb"]), True
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["solves"] for c in cases)
    failed = sum(failed_solves(c) for c in cases)
    correct = failed == 0 and closes and worker["identical_artifacts"]
    env = dict(worker["env"], git_sha=git_sha(), source_sha256=source_sha256(), nproc=threads,
               workload=args.workload, seconds=args.seconds, trace=args.trace)

    print(f"heatcoef benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"closed loop, 1 client: {len(cases)} cases, {attempted} solves, {failed} failed "
          f"(fail_ratio {failed / attempted:.4g})")
    for case in cases:
        for line in case["failures"]:
            print(f"  case {case['index']}: {line}")
    if args.trace:
        print(f"traced and untraced artifacts identical: {worker['identical_artifacts']}; "
              f"self times + bench.untraced_s = traced wall_s: {closes}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<34}{value:>16.6g} {unit:<6} {note}")
    if scaling:
        print_scaling(scaling)
    print("env " + json.dumps(env))

    record = {"env": env, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
              "setup_samples_s": setups, "cases": cases, "scaling": scaling}
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
