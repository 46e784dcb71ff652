import ast
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

import heatcoef
from heatcoef.catalog import make_coefficient
from heatcoef.fem import discretize, l2_norm
from heatcoef.heat import ModalFlow
from heatcoef.inversion import stability_ratio_experiment
from heatcoef.mesh import build_structured_mesh, distance_to_boundary, read_grid
from heatcoef.runner import run_scenario
from heatcoef.scenario import Scenario, parse_config_text
from heatcoef.spectral import solve_generalized_eig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCENARIOS = SCRIPTS.parent / "scenarios"
BENCHMARK = SCRIPTS.parent / "benchmark"
README = SCRIPTS.parent / "README.md"
MODULES = ("catalog", "fem", "heat", "inversion", "mesh", "runner", "scenario", "spectral")


def _load(name, folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up while the body runs
    spec.loader.exec_module(module)
    return module


def _sweep_rows(out):
    with (out / "ill_posedness.csv").open(encoding="ascii") as fh:
        return list(csv.DictReader(fh))


TIMES = [0.15, 0.3, 0.6, 1.2]
TIMES_ARG = ",".join(map(str, TIMES))  # the script's default grid


def test_ill_posedness_sweep_smoke(tmp_path, capsys):
    sweep = _load("ill_posedness_sweep")
    assert sweep.main(["--out", str(tmp_path), "--nx", "8", "--times", TIMES_ARG]) == 0
    out = capsys.readouterr().out.splitlines()
    # the stability-sweep run's own lines: two flow spectra, then the fitted rate
    printed = [line for line in out if line.split()[1] in ("flow-spectrum:", "stability-rate:")]
    cfg = sweep.CONFIG.format(nx=8, noise=1e-6, seed=1234, times=TIMES_ARG)
    ref = run_scenario(parse_config_text(cfg), "stability-sweep", tmp_path / "ref").summary_lines
    assert [line for line in ref if line in printed] == printed
    assert [line.split()[:2] for line in printed] == [
        ["INFO", "flow-spectrum:"], ["INFO", "flow-spectrum:"], ["PASS", "stability-rate:"]]
    assert printed[2].endswith(" fit_points=4")
    rows = _sweep_rows(tmp_path)
    assert [float(r["T"]) for r in rows] == TIMES
    mesh = build_structured_mesh(8, 8)
    mass = discretize(mesh).mass
    a = make_coefficient(mesh, "gaussian-bump", None, 2.0).values
    for r in rows:
        # the runner's rel_error at full precision, not its %.6g summary text
        a_rec = read_grid(tmp_path / f"T{float(r['T']):g}" / "a_rec.grid")[2]
        assert float(r["rel_error"]) == l2_norm(a_rec - a, mass) / l2_norm(a, mass)
        assert np.isfinite(float(r["rho"]))
    # rho and bracket are the stability run's, bit for bit
    with (tmp_path / "stability" / "stability.csv").open(encoding="ascii") as fh:
        table = list(csv.DictReader(fh))
    assert [(r["T"], r["rho"], r["bracket"]) for r in rows] == [
        (r["T"], r["rho"], r["bracket"]) for r in table]
    # every run directory is complete: each file it holds is in its manifest
    for run in ["stability", *(f"T{t:g}" for t in TIMES)]:
        listed = [line.split()[1] for line in (tmp_path / run / "manifest.txt").read_text().splitlines()]
        assert "summary.txt" in listed
        assert {p.name for p in (tmp_path / run).iterdir()} == set(listed) | {"manifest.txt"}

    # an --out that cannot be made is a run error, not a usage error
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    assert sweep.main(["--out", str(out), "--nx", "8", "--times", TIMES_ARG]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: cannot write reports into {out / 'stability'}: ")


def test_ill_posedness_sweep_shares_the_stability_sweep_spectra(tmp_path, capsys):
    sweep = _load("ill_posedness_sweep")
    assert sweep.main(["--out", str(tmp_path), "--nx", "8", "--times", TIMES_ARG]) == 0
    flow = [line for line in capsys.readouterr().out.splitlines() if " flow-spectrum: " in line]
    assert len(flow) == 2  # a, then a~
    for line in flow:
        assert ": K=23 of modes=40, t_min=0.15, " in line and ", count=23, " in line
        assert "uncertified" not in line

    mesh = build_structured_mesh(8, 8)
    disc = discretize(mesh)
    a, a_tilde = (make_coefficient(mesh, kind, None, 2.0) for kind in ("gaussian-bump", "two-bump"))
    flows = [ModalFlow(solve_generalized_eig(disc.pair(c.values), 40), distance_to_boundary(mesh))
             for c in (a, a_tilde)]
    tab = stability_ratio_experiment(a, a_tilde, TIMES, *flows)
    rho = [float(r["rho"]) for r in _sweep_rows(tmp_path)]
    np.testing.assert_allclose(rho, tab.rho, rtol=1e-11, atol=0.0)


def test_ill_posedness_sweep_refuses_a_grid_the_mode_refuses_before_any_inversion(tmp_path, capsys):
    sweep = _load("ill_posedness_sweep")
    for times, reason in (("0.15,0.3,0.6", "stability-sweep needs T_grid with >= 4 points"),
                          ("0.15,0.6,0.3,1.2", "T_grid must be strictly increasing")):
        assert sweep.main(["--out", str(tmp_path), "--nx", "8", "--times", times]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0]
    assert not list(tmp_path.glob("T*"))
    assert not (tmp_path / "stability").exists()


def _heatcoef_names(path):
    """Dotted heatcoef names a file imports or reads as heatcoef.<module>.<attribute>."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "heatcoef":
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "heatcoef")
        elif isinstance(node, ast.Attribute):
            parts, inner = [node.attr], node
            while isinstance(inner.value, ast.Attribute):
                inner = inner.value
                parts.append(inner.attr)
            if isinstance(inner.value, ast.Name) and inner.value.id == "heatcoef":
                yield ".".join(["heatcoef", *reversed(parts)])


def _resolves(dotted: str) -> bool:
    """True when dotted names a module, or an attribute chain on the longest importable prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_benchmark_and_scripts_use_only_names_the_package_has():
    # benchmark/ and scripts/ call the package from outside its tests, so a
    # simplification that deletes a name they use fails here first
    files = sorted(BENCHMARK.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    used = {(path.relative_to(SCRIPTS.parent).as_posix(), name)
            for path in files for name in _heatcoef_names(path)}
    assert any(name == "heatcoef.fem.make_field" for _, name in used)
    assert [(path, name) for path, name in sorted(used) if not _resolves(name)] == []


def test_the_tracer_names_no_more_missing_functions_than_the_known_six():
    # benchmark/tracer.py names the functions it wraps as dotted strings,
    # which the name guard above does not read; a renamed function leaves
    # its per-layer metric at zero without an error.  The six below are
    # ROADMAP item 1's, gone before this check; the set may only shrink.
    tree = ast.parse((BENCHMARK / "tracer.py").read_text(encoding="utf-8"))
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("LAYER_OF", "CALL_METRICS")}
    named = set(tables["LAYER_OF"]) | set(tables["CALL_METRICS"].values())
    assert {name for name in named if not _resolves(f"heatcoef.{name}")} == {
        "spectral.mass_sqrt", "heat.compute_F", "heat.lower_bound_check",
        "heat.certify_decay_threshold", "heat.f_lipschitz_experiment",
        "inversion.assemble_transport_operator"}


def _calls(tree, scope="<module>"):
    """(innermost enclosing def, called name, call node) of every call by a bare or dotted name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, (ast.Name, ast.Attribute)):
                yield scope, func.id if isinstance(func, ast.Name) else func.attr, node
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _calls(node, inner)


def test_only_make_field_builds_and_checks_a_coefficient_field():
    # fem.make_field validates every field it builds, so a CoefficientField
    # is admissible by construction; a field built, or a check made, anywhere
    # else would get round that one owner or repeat it
    package = SCRIPTS.parent / "src" / "heatcoef"
    files = sorted(package.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    sites = sorted({(path.relative_to(SCRIPTS.parent).as_posix(), scope, name)
                    for path in files
                    for scope, name, _ in _calls(ast.parse(path.read_text(encoding="utf-8")))
                    if name in ("CoefficientField", "validate_coefficient")})
    assert sites == [("src/heatcoef/fem.py", "make_field", "CoefficientField"),
                     ("src/heatcoef/fem.py", "make_field", "validate_coefficient")]


def _solves_or_counts_a_pencil(name, call):
    """ARPACK, the inertia count, or LAPACK's eigh given a second matrix (a pencil)."""
    return name in ("eigsh", "symmetric_factor") or name == "eigh" and (
        len(call.args) >= 2 or any(k.arg == "b" for k in call.keywords))


def test_every_pencil_solve_and_inertia_count_goes_through_the_spectrum_memo():
    # spectral._solve, behind the grid's memo (_memo_entry), is the one place
    # that solves a pencil, and solve_flow_spectrum keeps its inertia count in
    # the solve's memo entry; a solve or a count anywhere else is paid again
    # by every run.  heat.krylov_flow's la.eigh(H) of the small Lanczos matrix
    # solves no pencil.
    package = SCRIPTS.parent / "src" / "heatcoef"
    files = sorted(package.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    sites = sorted({(path.relative_to(SCRIPTS.parent).as_posix(), scope, name)
                    for path in files
                    for scope, name, call in _calls(ast.parse(path.read_text(encoding="utf-8")))
                    if _solves_or_counts_a_pencil(name, call)})
    assert sites == [("src/heatcoef/spectral.py", "_solve", "eigh"),
                     ("src/heatcoef/spectral.py", "_solve", "eigsh"),
                     ("src/heatcoef/spectral.py", "solve_flow_spectrum", "symmetric_factor")]


def test_readme_names_and_the_modules_resolve_after_a_bare_package_import():
    # benchmark/ reads heatcoef.<module> after `import heatcoef` alone, and
    # README names <module>.<name>; a fresh interpreter, so no submodule
    # another test imported can stand in for the package's own imports
    text = README.read_text(encoding="utf-8")
    refs = sorted({m.groups() for span in re.findall(r"`([^`\n]+)`", text)
                   for m in re.finditer(rf"(?<![\w./])(?:heatcoef\.)?({'|'.join(MODULES)})"
                                        r"\.([A-Za-z_]\w*)", span)})
    assert ("fem", "symmetric_factor") in refs
    check = ("import json, sys, heatcoef\n"
             "modules, refs = json.loads(sys.argv[1])\n"
             "print(json.dumps([m for m in modules if not hasattr(heatcoef, m)]\n"
             "                 + [f'{m}.{n}' for m, n in refs\n"
             "                    if not hasattr(getattr(heatcoef, m, None), n)]))\n")
    out = subprocess.run([sys.executable, "-c", check, json.dumps([MODULES, refs])],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(heatcoef.__file__).parents[1])})
    assert json.loads(out.stdout) == []


def test_every_benchmark_scaling_layer_runs():
    # the calls themselves, not only their names: a dropped positional
    # parameter of a layer's package function fails here
    scaling = _load("scaling", BENCHMARK)
    scaling.MIN_SECONDS = 0
    for layer in scaling.LAYERS:
        row = scaling.measure(layer, 8)
        assert (row["layer"], row["n"], row["reps"]) == (layer, 49, 1)


def _config_keys(text):
    """Scenario fields a config text sets; a group's dotted parameter sets its group."""
    lines = (line.split("#", 1)[0] for line in text.splitlines())
    return {line.split("=", 1)[0].strip().split(".")[0] for line in lines if "=" in line}


def test_every_config_key_has_a_caller():
    # A key that no bundled scenario, benchmark workload or script sets is a
    # one-value knob: its value belongs in a module constant beside its reader.
    texts = [cfg.read_text() for cfg in sorted(SCENARIOS.glob("*.cfg"))]
    workloads = _load("workloads", BENCHMARK)
    texts += [solve.config for name in workloads.WORKLOADS
              for solve in workloads.get(name).make_case(0, 0).solves]
    texts.append(_load("ill_posedness_sweep").CONFIG)
    set_keys = set().union(*map(_config_keys, texts))
    assert {"seed", "modes", "scales", "noise"} <= set_keys
    # a_plus bounds the paper's admissible set 1 <= a <= a_plus: part of the
    # problem every coefficient is checked against, not a solver setting.
    exempt = {"a_plus"}
    assert [f.name for f in fields(Scenario) if f.name not in set_keys | exempt] == []


def test_every_bundled_scenario_has_a_run_all_mode():
    # run_all.py skips a config without a mode, and its outputs then escape
    # the byte comparison of compare_runs.py
    modes = _load("run_all").SCENARIO_MODES
    assert [cfg.stem for cfg in sorted(SCENARIOS.glob("*.cfg")) if cfg.stem not in modes] == []


def test_run_all_smoke(tmp_path, capsys):
    run_all = _load("run_all")
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    text = (SCENARIOS / "forward_decay.cfg").read_text()
    text = text.replace("nx = 32", "nx = 8").replace("ny = 32", "ny = 8")
    (scenarios / "forward_decay.cfg").write_text(text)
    (scenarios / "unregistered.cfg").write_text(text)
    out = tmp_path / "out"
    assert run_all.main(["--scenarios", str(scenarios), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert lines[0].split()[:3] == ["forward_decay", "[forward]", "ok:"]
    # the scenario's wall time in ms, which a sub-second run needs
    assert re.search(r" failed \(\d+\.\d{3}s\) -> ", lines[0]), lines[0]
    assert (out / "forward_decay" / "manifest.txt").is_file()
    assert not (out / "unregistered").exists()
    assert "unregistered: no registered mode, skipping" in captured.err

    # a registered config that cannot be read ends the run as the CLI does
    (scenarios / "stability_sweep.cfg").mkdir()
    assert run_all.main(["--scenarios", str(scenarios), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("stability_sweep: error: [Errno 21] Is a directory: ")
    assert not (out / "stability_sweep").exists()


def test_compare_runs_smoke(tmp_path, capsys):
    compare = _load("compare_runs")
    for side, lam, state in (("parent", "2.0", "PASS"), ("change", "2.000002", "FAIL")):
        case = tmp_path / side / "case"
        case.mkdir(parents=True)
        (case / "table.csv").write_text(f"k,lambda\n1,1.5\n2,{lam}\n")
        (case / "u.grid").write_text("1 1\n0 0\n0 0\n")
        (case / "summary.txt").write_text(f"scenario: case\n\n{state} gap: measured\nINFO n: 1\n")
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "parent")]) == 0
    assert "identical: summary.txt, table.csv, u.grid" in capsys.readouterr().out

    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    out = capsys.readouterr().out
    assert "table.csv: k 0, lambda 1e-06; max abs 2e-06 (lambda)" in out
    assert "identical: u.grid" in out
    assert "state changed: gap PASS -> FAIL" in out

    (tmp_path / "change" / "case" / "summary.txt").write_text(
        "scenario: case\n\nPASS gap: measured\nINFO n: 2\n")
    (tmp_path / "change" / "case" / "u.grid").unlink()
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    out = capsys.readouterr().out
    assert "u.grid: only in parent" in out
    assert "state changed" not in out

    # a grid line ends with its largest absolute difference
    (tmp_path / "change" / "case" / "u.grid").write_text("1 1\n0 1e-12\n0 0\n")
    (tmp_path / "parent" / "case" / "u.grid").write_text("1 1\n0 3e-12\n0 0\n")
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    assert "u.grid: max rel diff 0.667; max abs 2e-12" in capsys.readouterr().out
