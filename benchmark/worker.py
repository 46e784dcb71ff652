"""One benchmark workload process: a closed loop with a single client.

run.py starts this file in a fresh process, with the BLAS thread count
pinned through the environment.  It imports the package from the
checkout's ``src``, warms up, prints ``READY`` and then runs the
workload's scenario solves back to back, each starting after the previous
one finished, until ``--seconds`` have passed.  Every solve goes through
the package's public path, as ``heatcoef <mode>`` does:
``parse_config_text`` -> ``run_scenario`` -> ``write_reports``.

With ``--trace 1`` each case is solved twice, untraced and then traced;
the two must write byte-identical artifacts.  The last stdout line is
``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


@dataclass
class CaseResult:
    index: int
    solves: int
    params: dict
    wall: float = 0.0
    failures: list[str] = field(default_factory=list)
    rel_errors: list[float] = field(default_factory=list)
    manifests: dict[str, dict[str, str]] = field(default_factory=dict)
    artifact_bytes: int = 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--config", type=Path, default=None,
                   help="solve this scenario file in the workload's first mode "
                        "instead of the seeded cases")
    p.add_argument("--setup-only", action="store_true",
                   help="exit after printing READY (set-up time probe)")
    return p.parse_args(argv)


def import_package() -> None:
    """Import heatcoef from the checkout's src, never from anywhere else."""
    if not (SRC / "heatcoef" / "__init__.py").is_file():
        raise SystemExit(f"error: no heatcoef package under {SRC}")
    sys.path.insert(0, str(SRC))
    import heatcoef
    if Path(heatcoef.__file__).resolve().parent != (SRC / "heatcoef").resolve():
        raise SystemExit(f"error: imported heatcoef from {heatcoef.__file__}, not {SRC}")


def run_case(case, out: Path, workload, tracer=None) -> CaseResult:
    """Solve every scenario of one case, then check the outputs.

    Only the solves are timed (and traced, when a tracer is given); the
    checks run afterwards.
    """
    from heatcoef import runner, scenario as scenario_mod

    res = CaseResult(case.index, len(case.solves), case.params)
    solved = []
    if tracer is not None:
        tracer.case, tracer.active = case.index, True
    start = time.perf_counter()
    try:
        for solve in case.solves:
            out_dir = out / solve.mode
            try:
                scen = scenario_mod.parse_config_text(solve.config)
                artifact = runner.run_scenario(scen, solve.mode, out_dir)
                manifest = runner.write_reports(artifact)
            except (scenario_mod.ConfigError, runner.RunnerError) as exc:
                res.failures.append(f"{solve.mode}: {type(exc).__name__}: {exc}")
                continue
            solved.append((solve.mode, scen, artifact, manifest, out_dir))
    finally:
        res.wall = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False

    for mode, scen, artifact, manifest, out_dir in solved:
        res.manifests[mode] = dict(manifest)
        res.failures += [f"{mode}: {line}" for line in artifact.summary_lines
                         if line.startswith("FAIL ")]
        res.artifact_bytes += sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        err = workload.rel_error(scen, mode, out_dir)
        if err is None:
            continue
        res.rel_errors.append(err)
        bound = workload.rel_error_bound
        if bound is not None and err > bound:
            res.failures.append(f"{mode}: rel_error {err:.6g} > {bound:g}")
    return res


def warm_up(workload, out: Path) -> None:
    """Run each of the workload's modes once on an 8x8 grid.

    This pays the first-call costs (lazy imports, BLAS thread start-up)
    before timing starts; the results are discarded.
    """
    from heatcoef import runner, scenario as scenario_mod

    for solve in workload.make_case(0, 0).solves:
        lines = [line for line in solve.config.splitlines()
                 if line.split("=")[0].strip() not in ("nx", "ny")]
        text = "\n".join(lines + ["nx = 8", "ny = 8"]) + "\n"
        try:
            runner.run_scenario(scenario_mod.parse_config_text(text), solve.mode, out / solve.mode)
        except (scenario_mod.ConfigError, runner.RunnerError):
            pass
    shutil.rmtree(out, ignore_errors=True)


def environment(workload, seed: int) -> dict:
    import numpy as np
    import scipy

    def blas(cfg) -> str:
        b = cfg["Build Dependencies"]["blas"]
        return f"{b['name']} {b['version']}"

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "grid": f"{workload.grid}x{workload.grid}",
        "K": workload.K,
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads
    from tracer import Tracer, layer_metrics

    workload = workloads.get(args.workload)
    warm_up(workload, args.out / "warmup")
    print("READY", flush=True)
    if args.setup_only:
        return 0

    make_case = workload.make_case
    if args.config is not None:
        solve = workloads.Solve(make_case(args.seed, 0).solves[0].mode, args.config.read_text())

        def make_case(seed, index):
            return workloads.Case(index, (solve,))

    tracer = Tracer()
    if args.trace:
        tracer.install()
    results, traced_walls, layers = [], [], []
    identical = True
    begin = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - begin < args.seconds:
        case = make_case(args.seed, index)
        res = run_case(case, args.out / "untraced", workload)
        results.append(res)
        if args.trace:
            traced = run_case(case, args.out / "traced", workload, tracer)
            traced_walls.append(traced.wall)
            layers.append(layer_metrics(tracer.case_spans(index), traced.wall))
            layers[-1]["runner.artifact_bytes"] = res.artifact_bytes
            identical &= traced.manifests == res.manifests
        index += 1

    if args.trace:
        tracer.uninstall()
        with open(args.out / "spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "case": s.case, **s.info}) + "\n")

    result = {
        "cases": [vars(r) for r in results],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced_wall_s": traced_walls,
        "layers": layers,
        "identical_artifacts": identical,
        "env": environment(workload, args.seed),
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
