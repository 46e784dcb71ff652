import ast
import dataclasses
import gc
import hashlib
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from heatcoef import fem, heat, inversion, runner, spectral
from heatcoef.cli import main
from heatcoef.mesh import build_structured_mesh, grid_text
from heatcoef.runner import RunnerError, run_scenario, write_reports
from heatcoef.scenario import parse_config, parse_config_text

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

SUMMARY_LINE = re.compile(r"^(PASS|FAIL|WARN|INFO) \S+: .+$")

FORWARD_16 = """\
name = fwd16
nx = 16
ny = 16
coefficient = gaussian-bump
modes = 8
T = 2.0
"""

INVERT_16 = """\
name = inv16
nx = 16
ny = 16
coefficient = gaussian-bump
modes = 8
T = 0.15
"""

SWEEP_16 = """\
name = sweep16
nx = 16
ny = 16
coefficient = gaussian-bump
perturbation = gaussian-bump
perturbation.amplitude = 0.45
modes = 8
T = 0.15
T_grid = 0.15,0.3,0.6,1.2
"""


def _read(path):
    return path.read_bytes()


def test_unknown_mode_raises(tmp_path):
    s = parse_config_text(FORWARD_16)
    with pytest.raises(RunnerError, match="unknown mode"):
        run_scenario(s, "explode", tmp_path)


def test_forward_artifacts_and_reports(tmp_path):
    s = parse_config_text(FORWARD_16)
    art = run_scenario(s, "forward", tmp_path)
    assert art.all_pass and art.n_fail == 0
    assert set(art.files) >= {"decay.csv", "u_T.grid"}
    for line in art.summary_lines:
        assert SUMMARY_LINE.match(line), line

    manifest = write_reports(art)
    assert (tmp_path / "summary.txt").is_file()
    assert (tmp_path / "manifest.txt").is_file()
    # every digest in the manifest must match the bytes on disk
    assert "summary.txt" in manifest
    for name, sha in manifest.items():
        assert hashlib.sha256(_read(tmp_path / name)).hexdigest() == sha
    header = (tmp_path / "summary.txt").read_text().splitlines()
    assert header[0] == "scenario: fwd16"
    assert header[1] == "mode: forward"
    assert header[2] == f"config_sha256: {art.scenario_hash}"


def test_invert_is_deterministic(tmp_path):
    s = parse_config_text(INVERT_16)
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        write_reports(run_scenario(s, "invert", out))
    for name in ("residuals.csv", "a_rec.grid", "summary.txt", "manifest.txt"):
        assert _read(a / name) == _read(b / name), name


def test_noisy_invert_seed_controls_noise(tmp_path):
    noisy = INVERT_16 + "noise = 1e-6\n"
    s3, s4 = (parse_config_text(noisy + f"seed = {seed}\n") for seed in (3, 4))
    a = run_scenario(s3, "invert", tmp_path / "a")
    b = run_scenario(s3, "invert", tmp_path / "b")
    c = run_scenario(s4, "invert", tmp_path / "c")
    assert a.files["residuals.csv"] == b.files["residuals.csv"]
    assert a.files["residuals.csv"] != c.files["residuals.csv"]
    # a noisy run reports its terminal state instead of hard-failing
    assert a.n_fail == 0
    assert any(line.startswith("INFO fixed-point-state") for line in a.summary_lines)
    assert any(line.startswith("INFO noise:") for line in b.summary_lines)
    assert c.n_fail == 0


def test_invert_iteration_cap_produces_fail_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(inversion, "_MAX_ITER", 1)
    monkeypatch.setattr(inversion, "TOL_FP", 1e-14)
    art = run_scenario(parse_config_text(INVERT_16), "invert", tmp_path)
    assert art.n_fail >= 1
    # the bound printed is the one the loop used
    fail = _line(art.summary_lines, "fixed-point-converged")
    assert fail.startswith("FAIL ") and " bound=1e-14 after 1 iteration(s)" in fail
    assert not art.all_pass


def test_stability_sweep_preconditions(tmp_path):
    s = parse_config_text(INVERT_16 + "T_grid = 0.15,0.3,0.6,1.2\n")
    with pytest.raises(RunnerError, match="needs a perturbation block"):
        run_scenario(s, "stability-sweep", tmp_path)
    s2 = parse_config_text(INVERT_16 + "perturbation = gaussian-bump\n"
                                       "perturbation.amplitude = 0.45\n"
                                       "T_grid = 0.15,0.3\n")
    with pytest.raises(RunnerError, match=">= 4 points"):
        run_scenario(s2, "stability-sweep", tmp_path)


@pytest.mark.parametrize("text,reason", [
    (INVERT_16 + "T_grid = 0.15,0.3,0.6,1.2\n", "needs a perturbation block"),
    (SWEEP_16.replace("T_grid = 0.15,0.3,0.6,1.2", "T_grid = 0.15,0.3,0.6"), ">= 4 points"),
], ids=["no-perturbation", "three-times"])
def test_a_refused_stability_sweep_writes_nothing(tmp_path, capsys, text, reason):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["stability-sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and reason in err[0]
    assert not out.exists()


def test_a_run_that_stops_after_its_first_file_writes_nothing(tmp_path, monkeypatch):
    # minmax.csv and gap.csv are made before the perturbation sweep raises
    def refused(*args, **kwargs):
        raise ValueError("refused")
    monkeypatch.setattr(runner, "perturbation_sweep", refused)
    out = tmp_path / "out"
    with pytest.raises(RunnerError, match=r"mode verify-spectral: refused$"):
        run_scenario(parse_config_text(VERIFY_16), "verify-spectral", out)
    assert not out.exists()


def test_a_name_that_is_not_ascii_writes_nothing(tmp_path):
    # the parse refuses it; a Scenario built in Python reaches write_reports
    s = dataclasses.replace(parse_config_text(FORWARD_16), name="caf\u00e9")
    out = tmp_path / "out"
    art = run_scenario(s, "forward", out)
    assert art.all_pass
    with pytest.raises(RunnerError, match=rf"^cannot write reports into {re.escape(str(out))}: "
                                          r"'ascii' codec can't encode"):
        write_reports(art)
    assert not out.exists()


def test_stability_sweep_artifacts(tmp_path):
    s = parse_config_text(SWEEP_16)
    art = run_scenario(s, "stability-sweep", tmp_path)
    assert set(art.files) == {"stability.csv", "f_lipschitz.csv"}
    assert any(line.startswith("PASS stability-rate") for line in art.summary_lines)
    rows = art.files["stability.csv"].splitlines()
    assert rows[0] == "T,l2_udiff,h2_udiff,rho,bracket,c_fit,indistinguishable"
    assert len(rows) == 1 + 4



def test_stability_sweep_with_one_mode_exits_one(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(SWEEP_16.replace("modes = 8", "modes = 1"))
    assert main(["stability-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "needs two strict eigenvalues per spectrum" in err
    assert "got 1 and 1" in err


def test_stability_sweep_of_a_coinciding_pair_exits_one(tmp_path, capsys):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(SWEEP_16.replace("perturbation.amplitude = 0.45\n", ""))
    assert main(["stability-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "perturbation coincides with the coefficient" in err
    assert "ratios are undefined" in err


class TestCli:
    def _write_cfg(self, tmp_path, text):
        p = tmp_path / "case.cfg"
        p.write_text(text)
        return str(p)

    def test_exit_zero_on_all_pass(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, FORWARD_16)
        code = main(["forward", "--config", cfg, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "failed] reports in" in out

    def test_exit_two_on_failed_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(inversion, "_MAX_ITER", 1)
        cfg = self._write_cfg(tmp_path, INVERT_16)
        code = main(["invert", "--config", cfg, "--out", str(tmp_path / "out")])
        capsys.readouterr()
        assert code == 2

    def test_exit_one_on_bad_config(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, "name = x\ncoefficient = wiggle\n")
        code = main(["invert", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_exit_one_on_missing_config(self, tmp_path, capsys):
        code = main(["forward", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["caf\u00e9".encode("utf-8"), b"caf\xe9"])
    def test_exit_one_on_a_config_that_is_not_ascii(self, tmp_path, capsys, name):
        # refused at parse, so neither the solve nor the ASCII report writer sees it
        cfg = tmp_path / "case.cfg"
        cfg.write_bytes(FORWARD_16.encode("ascii").replace(b"fwd16", name))
        out = tmp_path / "out"
        assert main(["forward", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: line 1: {ascii('name = ' + name.decode('latin-1'))} is not ASCII text, "
            f"as a config must be"]
        assert not out.exists()

    def test_exit_one_on_usage_error(self, capsys):
        assert main([]) == 1
        assert main(["forward"]) == 1
        capsys.readouterr()

    def test_exit_one_on_an_out_below_a_file(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, FORWARD_16)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write reports into {out}: ")

    @pytest.mark.parametrize("flag,value", [("--seed", "3"), ("--modes", "4")])
    def test_removed_override_flags_exit_one(self, tmp_path, capsys, flag, value):
        # seed and modes are config keys only; the command line names the
        # config and the output directory and nothing else
        cfg = self._write_cfg(tmp_path, INVERT_16)
        out = tmp_path / "out"
        assert main(["invert", "--config", cfg, "--out", str(out), flag, value]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()


VERIFY_16 = """\
name = spec16
nx = 16
ny = 16
coefficient = constant
modes = 12
eta = gaussian-bump
eta.amplitude = 0.04
scales = 0.001,0.01
"""


MODE_CONFIGS = {
    "forward": FORWARD_16,
    "invert": INVERT_16,
    "verify-spectral": VERIFY_16,
    "stability-sweep": SWEEP_16,
}


def _count_calls(monkeypatch, original) -> list:
    """Replace every heatcoef binding of `original` by a counting wrapper."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "heatcoef" or name.startswith("heatcoef."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
def test_run_assembles_the_mass_matrix_once(mode, tmp_path, monkeypatch, cold_grids):
    # on a cold grid, once; a second run of the config reads the warm grid
    calls = _count_calls(monkeypatch, fem.assemble_mass)
    run_scenario(parse_config_text(MODE_CONFIGS[mode]), mode, tmp_path / "cold")
    assert len(calls) == 1
    run_scenario(parse_config_text(MODE_CONFIGS[mode]), mode, tmp_path / "warm")
    assert len(calls) == 1


def test_a_warm_grid_carries_no_state_between_runs(tmp_path):
    # each mode on a grid of its own, then all four in turn on one grid
    cold, lines = {}, []
    for mode, text in MODE_CONFIGS.items():
        fem.grid.cache_clear()
        art = run_scenario(parse_config_text(text), mode, tmp_path / "cold" / mode)
        write_reports(art)
        cold[mode] = (tmp_path / "cold" / mode / "manifest.txt").read_bytes()
        lines += art.summary_lines
    shared = fem.grid(16, 16)
    for mode, text in MODE_CONFIGS.items():
        write_reports(run_scenario(parse_config_text(text), mode, tmp_path / "warm" / mode))
        assert (tmp_path / "warm" / mode / "manifest.txt").read_bytes() == cold[mode], mode
    assert fem.grid(16, 16) is shared
    # every fit and spread states how many points it used
    for name in ("u-decay-slope", "F-decay-slope", "stability-rate", "F-lipschitz-slope",
                 "eigen-perturbation-spread", "projection-perturbation-spread",
                 "gap-constant-spread"):
        checked = [line for line in lines if line.split()[1] == f"{name}:"]
        assert checked, name
        for line in checked:
            assert re.search(r" (fit_)?points=\d+$", line), line


@pytest.mark.parametrize("mode, flows", [("forward", 1), ("stability-sweep", 2)])
def test_each_spectrum_is_projected_once(mode, flows, tmp_path, monkeypatch):
    # forward: one ModalFlow gives every evolve, the F-decay fit's cluster
    # weights, the lower bounds at T and the certified threshold;
    # stability-sweep: one flow per spectrum
    calls = []
    init = heat.ModalFlow.__init__
    monkeypatch.setattr(heat.ModalFlow, "__init__",
                        lambda flow, spec, u0: calls.append(spec) or init(flow, spec, u0))
    art = run_scenario(parse_config_text(MODE_CONFIGS[mode]), mode, tmp_path)
    assert art.all_pass, art.summary_lines
    assert len(calls) == len({id(spec) for spec in calls}) == flows


def test_bundled_verify_spectral_solves_each_pencil_once(tmp_path, monkeypatch, cold_grids):
    # a = 1 (K=40), the unit pencil itself, whose first 20 pairs are the
    # min-max sandwich's and whose first 11 are the base of one perturbation
    # sweep that solves a + s*eta for three scales (K=11 each: its rows read
    # 10 pairs).  On a cold grid the run builds the stiffness map of its mesh
    # once and reads 4 pencils from it (the run's a, three a + s*eta);
    # nothing assembles A(a) anew.  A second run reads the warm grid's map
    # and its memo of all four solves: 4 pencils, no solve.
    solves = _count_calls(monkeypatch, spectral._solve)
    maps = _count_calls(monkeypatch, fem._stiffness_map)
    assemblies = _count_calls(monkeypatch, fem.assemble_stiffness)
    pencils, pair = [], fem.Discretization.pair

    def counted_pair(disc, a):
        pencils.append(a)
        return pair(disc, a)
    monkeypatch.setattr(fem.Discretization, "pair", counted_pair)
    run_scenario(parse_config(SCENARIO_DIR / "verify_spectral.cfg"), "verify-spectral", tmp_path / "cold")
    assert [K for _, K in solves] == [40, 11, 11, 11]
    assert (len(maps), len(pencils), len(assemblies)) == (1, 4, 0)
    run_scenario(parse_config(SCENARIO_DIR / "verify_spectral.cfg"), "verify-spectral", tmp_path / "warm")
    assert [K for _, K in solves] == [40, 11, 11, 11]
    assert (len(maps), len(pencils), len(assemblies)) == (1, 8, 0)


def test_bundled_verify_sweep_stops_arpack_at_its_tolerance(tmp_path, monkeypatch, cold_grids):
    # With the unit K=40 spectrum memoized, the run's solves are its three
    # sweep pencils (K=11).  ARPACK stops at tol=_ARPACK_TOL: 150 operator
    # applications for the three (measured), each one solve_lower, and every
    # pencil's residual still lies 100x inside the bound it is checked to.
    spectral.solve_generalized_eig(fem.grid(32, 32).unit_pair, 40)
    applications, lower = [], fem.BandCholesky.solve_lower

    def counted_lower(self, b):
        applications.append(b.shape)
        return lower(self, b)
    residuals, solve = [], spectral._solve

    def checked(pair, K):
        vals, vecs = solve(pair, K)
        residuals.append(spectral._residual_of(pair.stiffness @ vecs, pair.mass @ vecs, vals))
        return vals, vecs
    monkeypatch.setattr(fem.BandCholesky, "solve_lower", counted_lower)
    monkeypatch.setattr(spectral, "_solve", checked)
    art = run_scenario(parse_config(SCENARIO_DIR / "verify_spectral.cfg"), "verify-spectral", tmp_path)
    assert art.all_pass
    assert len(residuals) == 3 and len(applications) <= 155
    assert max(residuals) <= spectral._RESIDUAL_TOL / 100


def test_a_non_unit_sweep_on_a_warm_grid_solves_nothing(tmp_path, monkeypatch, cold_grids):
    # a (K=24), the unit pencil for the sandwich (K=20) and three a + s*eta
    # (K=11): five pencils, all of which the grid's memo keeps
    solves = _count_calls(monkeypatch, spectral._solve)
    text = FORWARD_16.replace("modes = 8", "modes = 24") + (
        "eta = gaussian-bump\neta.amplitude = 0.04\nscales = 0.001,0.01,0.1\n")
    for run in ("cold", "warm"):
        art = run_scenario(parse_config_text(text), "verify-spectral", tmp_path / run)
        assert _line(art.summary_lines, "minmax-sandwich").startswith("PASS ")
        assert [K for _, K in solves] == [24, 20, 11, 11, 11]
    assert len(fem.grid(16, 16).spectra) == spectral.SPECTRUM_MEMO_SIZE


@pytest.mark.parametrize("mode,text,expected", [
    ("forward", FORWARD_16, [8]),
    # the flow spectra of a and a~, then the cold grid's unit ground pair
    # (K=1), which a warm grid would not solve again
    ("stability-sweep", SWEEP_16, [8, 8, 1]),
])
def test_first_eigenfunction_reads_the_mode_spectrum(tmp_path, monkeypatch, cold_grids, mode, text,
                                                     expected):
    # u0 is the ground vector of the flow spectrum the mode solves anyway,
    # not of a K=1 solve of its own: one solve of the coefficient's pencil.
    solves = _count_calls(monkeypatch, spectral._solve)
    art = run_scenario(parse_config_text(text + "u0 = first-eigenfunction\n"), mode, tmp_path)
    assert art.all_pass, art.summary_lines
    assert [K for _, K in solves] == expected


def test_bundled_invert_makes_no_k_many_eigensolve(tmp_path, monkeypatch):
    # The data snapshot and every outer step come from heat.krylov_flow, and
    # the closure's ground pairs from warm K=1 solves (their fallback is K=1).
    solves = _count_calls(monkeypatch, spectral.solve_generalized_eig)
    run_scenario(parse_config(SCENARIO_DIR / "bump_invert.cfg"), "invert", tmp_path)
    assert [args[1] for args in solves if args[1] > 1] == []


def test_invert_ignores_modes(tmp_path):
    few, many = (run_scenario(parse_config_text(INVERT_16.replace("modes = 8", f"modes = {k}")),
                              "invert", tmp_path / str(k)) for k in (4, 40))
    for name in ("a_rec.grid", "residuals.csv"):
        assert few.files[name] == many.files[name], name
    assert few.summary_lines == many.summary_lines


def _line(lines, name: str) -> str:
    return next(line for line in lines if line.split()[1] == f"{name}:")


def test_first_eigenfunction_forward_decays_at_the_ground_rate(tmp_path):
    art = run_scenario(parse_config_text(FORWARD_16 + "u0 = first-eigenfunction\n"),
                       "forward", tmp_path)
    assert art.all_pass, art.summary_lines
    assert _line(art.summary_lines, "u-decay-slope").startswith("PASS ")
    assert " rel_tol=1e-06 " in _line(art.summary_lines, "u-decay-slope")
    assert _line(art.summary_lines, "F-decay-slope") == \
        "INFO F-decay-slope: correction term vanishes (single-mode data)"


def test_first_eigenfunction_invert_converges(tmp_path):
    s = parse_config_text(INVERT_16.replace("16", "24") + "u0 = first-eigenfunction\n")
    art = run_scenario(s, "invert", tmp_path)
    assert _line(art.summary_lines, "fixed-point-converged").startswith("PASS ")
    err = _line(art.summary_lines, "reconstruction-error")
    assert float(re.search(r"measured=(\S+)", err).group(1)) <= 0.02  # 8.07e-7 after 5 steps


def _verify_on(n: int) -> str:
    return VERIFY_16.replace("nx = 16", f"nx = {n}").replace("ny = 16", f"ny = {n}")


def test_verify_spectral_needs_eleven_interior_nodes_for_the_sweep(tmp_path):
    with pytest.raises(RunnerError, match=r"requested K=11 eigenpairs from a pencil of size 9"):
        run_scenario(parse_config_text(_verify_on(4)), "verify-spectral", tmp_path / "4")
    art = run_scenario(parse_config_text(_verify_on(5)), "verify-spectral", tmp_path / "5")
    assert (art.n_pass, art.n_fail) == (7, 0), art.summary_lines


def test_bundled_stability_sweep_reports_fit_points(tmp_path):
    art = run_scenario(parse_config(SCENARIO_DIR / "stability_sweep.cfg"), "stability-sweep",
                       tmp_path)
    lines = art.summary_lines
    rate = next(line for line in lines if line.split()[1] == "stability-rate:")
    assert rate.endswith(" fit_points=6")  # no T point is indistinguishable
    assert not any(line.startswith("WARN fit-points") for line in lines)
    lipschitz = next(line for line in lines if line.split()[1] == "F-lipschitz-slope:")
    assert lipschitz.endswith(" fit_points=6")
    assert not any("F-lipschitz-slope fitted" in line for line in lines)


@pytest.mark.parametrize("node,value", [(31, "nan"), (40, "inf"), (5, "nan")])
def test_non_finite_custom_u0_exits_one(tmp_path, capsys, node, value):
    mesh = build_structured_mesh(8, 8)
    v = np.zeros(mesh.n_nodes)
    v[node] = float(value)
    (tmp_path / "u0.grid").write_text(grid_text(mesh, v))
    cfg = tmp_path / "case.cfg"
    cfg.write_text(f"name = bad_u0\nnx = 8\nny = 8\ncoefficient = constant\nmodes = 4\n"
                   f"u0 = custom\nu0.path = {tmp_path / 'u0.grid'}\n")
    assert main(["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    x, y = mesh.nodes[node]
    assert f"{value} is not finite at node {node} (x={x:.6g}, y={y:.6g})" in capsys.readouterr().err


def _states(lines) -> list[tuple[str, str]]:
    return [tuple(line.split()[:2]) for line in lines if not line.startswith("INFO ")]


def _run_with_K_max_spectra(scenario, mode, out, monkeypatch):
    """The run with every flow spectrum replaced by the K = modes solve."""
    with monkeypatch.context() as m:
        m.setattr(runner, "_flow_spectrum",
                  lambda pair, t_min, modes, rep: spectral.solve_generalized_eig(pair, modes))
        return run_scenario(scenario, mode, out)


def _read_csv(text: str) -> dict[str, np.ndarray]:
    rows = text.splitlines()
    header = rows[0].split(",")
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    return dict(zip(header, values.T))


@pytest.mark.parametrize("name,mode,n_spectra", [("forward_decay", "forward", 1),
                                                 ("stability_sweep", "stability-sweep", 2)])
def test_bundled_flow_modes_match_the_K40_evaluation(tmp_path, monkeypatch, name, mode, n_spectra):
    s = parse_config(SCENARIO_DIR / f"{name}.cfg")
    art = run_scenario(s, mode, tmp_path / "cut")
    ref = _run_with_K_max_spectra(s, mode, tmp_path / "K40", monkeypatch)

    flow = [line for line in art.summary_lines if line.split()[1] == "flow-spectrum:"]
    assert len(flow) == n_spectra
    for line in flow:
        assert line.startswith("INFO flow-spectrum: K=11 of modes=40, ")
        assert ", count=11, " in line
    assert _states(art.summary_lines) == _states(ref.summary_lines)
    for csv_name in art.files:
        if not csv_name.endswith(".csv"):
            continue
        got, want = _read_csv(art.files[csv_name]), _read_csv(ref.files[csv_name])
        for column in got:
            if column == "truncation_bound":  # bounds the dropped tail: depends on K
                continue
            np.testing.assert_allclose(got[column], want[column], rtol=1e-11, atol=0.0,
                                       err_msg=f"{csv_name}: {column}")


_UNIT_FORWARD = "name = unit_fwd\nnx = 32\nny = 32\ncoefficient = constant\nu0 = d_Omega\n"


def test_unit_coefficient_forward_reads_past_the_empty_second_cluster(tmp_path, monkeypatch):
    # On the square d_Omega populates only the (m, m) modes, so clusters 2-6
    # hold only rounding and the first populated tail cluster is (3, 3), the
    # 11th pair: the certified cut keeps it.  That rounding decays at l2 and
    # outweighs cluster 7's content at every time of this grid, so F's slope
    # is not fitted, on either spectrum.
    s = parse_config_text(_UNIT_FORWARD + "T = 2.0\nT_grid = 1.0,1.5,2.0,2.5,3.0\n")
    art = run_scenario(s, "forward", tmp_path / "cut")
    ref = _run_with_K_max_spectra(s, "forward", tmp_path / "K40", monkeypatch)
    for run in (art, ref):
        assert run.all_pass, run.summary_lines
        assert _line(run.summary_lines, "F-decay-slope") == (
            "INFO F-decay-slope: skipped: the first populated tail cluster k=7 outweighs the "
            "summed content of clusters 2..6 at 0 of 5 grid times (a slope needs 2)")
    assert "INFO flow-spectrum: K=11 of modes=40, t_min=1, " in art.summary_lines[0]
    assert _states(art.summary_lines) == _states(ref.summary_lines)


def test_unit_coefficient_forward_fits_F_where_its_first_tail_cluster_dominates(tmp_path):
    # Up to T = 0.225 cluster 7's content still outweighs the rounding of
    # clusters 2-6 (by 28 times there, 1.5e-3 times at 0.3): the slope is
    # fitted at the 5 grid times up to 0.225 and reads l_7, not l_2.  No grid
    # time sits near a ratio of 1, where rounding would decide the count.
    s = parse_config_text(_UNIT_FORWARD + "T = 0.1\nT_grid = 0.05,0.1,0.15,0.2,0.225,0.3,0.4\n")
    line = _line(run_scenario(s, "forward", tmp_path).summary_lines, "F-decay-slope")
    assert line.startswith("PASS F-decay-slope: ")
    assert line.endswith("(first populated tail cluster k=7) fit_points=5")


@pytest.mark.parametrize("scenario,solved,count", [
    (lambda: parse_config_text(_UNIT_FORWARD + "T = 0.1\nT_grid = 0.05,0.1,0.2\n"), [12, 24, 40], 39),
    (lambda: parse_config(SCENARIO_DIR / "forward_decay.cfg"), [12], 11),
], ids=["unit_fwd", "forward_decay"])
def test_flow_spectrum_counts_inertia_only_where_the_tail_passes_or_at_the_cap(
        tmp_path, monkeypatch, cold_grids, scenario, solved, count):
    # From t_min = 0.05 the tails of the K=12 and K=24 cuts of the unit
    # pencil fail the bound, so only the capped K=40 solve pays for an
    # inertia count; the bundled forward's first cut is counted and accepted.
    # A second run reads the solves and the count from the grid's memo.
    solves = _count_calls(monkeypatch, spectral._solve)
    counts = _count_calls(monkeypatch, fem.symmetric_factor)
    lines = [run_scenario(scenario(), "forward", tmp_path / run).summary_lines
             for run in ("cold", "warm")]
    assert [K for _, K in solves] == solved
    assert len(counts) == 1
    assert f", count={count}, " in _line(lines[0], "flow-spectrum")
    assert lines[0] == lines[1]


def test_modes_below_the_certified_K_warn_and_keep_every_pair(tmp_path):
    art = run_scenario(parse_config_text(FORWARD_16.replace("modes = 8", "modes = 4")),
                       "forward", tmp_path)
    warn = [line for line in art.summary_lines if line.startswith("WARN flow-spectrum: ")]
    assert len(warn) == 1 and warn[0].startswith("WARN flow-spectrum: K=4 of modes=4, t_min=1, ")
    assert "uncertified at the cap" in warn[0]
    assert art.summary_lines[-1].endswith("(K=4)")  # the truncation line


def _sine_u0(m: int, n: int) -> str:
    return f"u0 = sine-product\nu0.m = {m}\nu0.n = {n}\n"


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
def test_forward_skips_the_lower_bounds_of_a_zero_integral_u0(tmp_path, m, n):
    # int u0 d_Omega of sin(m pi x) sin(n pi y) vanishes for (m, n) != (1, 1);
    # its rounding (about +-1e-18) must not decide whether the bounds are checked
    text = FORWARD_16.replace("16", "32") + _sine_u0(m, n)
    art = run_scenario(parse_config_text(text), "forward", tmp_path)
    assert art.n_fail == 0, art.summary_lines
    skipped = "skipped: int u0 d_Omega = 0 is not positive"
    assert _line(art.summary_lines, "lower-bounds") == f"INFO lower-bounds: {skipped}"
    assert _line(art.summary_lines, "u-decay-slope") == f"INFO u-decay-slope: {skipped}"


def test_invert_refuses_a_zero_integral_u0(tmp_path):
    with pytest.raises(RunnerError, match=r"initial state must satisfy int u0 \* d_Omega > 0"):
        run_scenario(parse_config_text(INVERT_16 + _sine_u0(2, 1)), "invert", tmp_path)


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2)])
def test_stability_sweep_skips_rho_monotone_of_a_zero_integral_u0(tmp_path, m, n):
    art = run_scenario(parse_config_text(SWEEP_16 + _sine_u0(m, n)), "stability-sweep", tmp_path)
    assert _line(art.summary_lines, "rho-monotone") == \
        "INFO rho-monotone: skipped: int u0 d_Omega = 0 is not positive"


def test_stability_sweep_skips_every_ground_check_of_a_zero_integral_u0(tmp_path):
    # the (2, 2) mode has no ground content: the rate bracket and the fitted
    # gap constant (measured 78.5 against the bound 10) presume one
    text = SWEEP_16.replace("T = 0.15\nT_grid = 0.15,0.3,0.6,1.2",
                            "T = 0.5\nT_grid = 0.5,1.0,1.5,2.0,2.5,3.0") + _sine_u0(2, 2)
    art = run_scenario(parse_config_text(text), "stability-sweep", tmp_path)
    assert art.n_fail == 0, art.summary_lines
    for name in ("stability-rate", "rho-monotone", "gap-constant-spread"):
        assert _line(art.summary_lines, name) == \
            f"INFO {name}: skipped: int u0 d_Omega = 0 is not positive"


def _index(line: str) -> int:
    return int(re.search(r" index=(\d+) ", line).group(1))


def test_gap_property_fail_names_the_spectral_index(tmp_path):
    art = run_scenario(parse_config_text(FORWARD_16 + "delta = 1e6\n"), "verify-spectral", tmp_path)
    line = _line(art.summary_lines, "gap-property")
    assert line.startswith("FAIL gap-property: index=")
    gap = _read_csv(art.files["gap.csv"])
    assert _index(line) == gap["k"][gap["satisfied"] == 0][0] == 1


def test_decay_envelope_fail_names_the_grid_index(tmp_path, monkeypatch):
    # the snapshot at T = 2.5, the 4th time of the default grid, is doubled
    evolve = runner.evolve

    def doubled(flow, t):
        snap = evolve(flow, t)
        return dataclasses.replace(snap, u=2 * snap.u) if t == 2.5 else snap
    monkeypatch.setattr(runner, "evolve", doubled)
    art = run_scenario(parse_config_text(FORWARD_16), "forward", tmp_path)
    line = _line(art.summary_lines, "decay-envelope")
    assert line.startswith("FAIL decay-envelope: index=4 T=2.5 ")
    assert _read_csv(art.files["decay.csv"])["T"][_index(line) - 1] == 2.5


def test_rho_monotone_fail_names_the_grid_index(tmp_path, monkeypatch):
    # rho is left undefined at the first time and halved at the last, the
    # 4th of T_grid and the 3rd of the times the check reads
    experiment = runner.stability_ratio_experiment

    def halved(*args):
        tab = experiment(*args)
        rho = tab.rho.copy()
        rho[0], rho[3] = np.nan, 0.5 * rho[2]
        return dataclasses.replace(tab, rho=rho)
    monkeypatch.setattr(runner, "stability_ratio_experiment", halved)
    art = run_scenario(parse_config_text(SWEEP_16), "stability-sweep", tmp_path)
    line = _line(art.summary_lines, "rho-monotone")
    assert line.startswith("FAIL rho-monotone: index=4 T=1.2 ")
    assert _read_csv(art.files["stability.csv"])["T"][_index(line) - 1] == 1.2


def test_minmax_sandwich_fail_names_the_spectral_index(tmp_path, monkeypatch):
    # checked against a_plus = 1, the bump's eigenvalues all break the upper side
    sandwich = runner.verify_minmax_sandwich
    monkeypatch.setattr(runner, "verify_minmax_sandwich",
                        lambda spec, spec_unit, a_plus: sandwich(spec, spec_unit, 1.0))
    art = run_scenario(parse_config_text(FORWARD_16), "verify-spectral", tmp_path)
    line = _line(art.summary_lines, "minmax-sandwich")
    assert line.startswith("FAIL minmax-sandwich: index=1 side=upper ")
    minmax = _read_csv(art.files["minmax.csv"])
    assert _index(line) == minmax["k"][minmax["upper_ok"] == 0][0]


def test_minmax_sandwich_fail_names_the_lower_side(tmp_path, monkeypatch):
    # an admissible a >= 1 never breaks the lower side, so its mask is set here
    sandwich = runner.verify_minmax_sandwich

    def below(*args):
        rep = sandwich(*args)
        return dataclasses.replace(rep, lower_ok=np.r_[False, rep.lower_ok[1:]])
    monkeypatch.setattr(runner, "verify_minmax_sandwich", below)
    art = run_scenario(parse_config_text(FORWARD_16), "verify-spectral", tmp_path)
    minmax = _read_csv(art.files["minmax.csv"])
    assert _line(art.summary_lines, "minmax-sandwich") == (
        f"FAIL minmax-sandwich: index=1 side=lower measured={minmax['lambda'][0]:.10g} "
        f"bound={minmax['lambda_unit'][0]:.10g}")


def test_verify_spectral_of_a_non_unit_coefficient_solves_the_unit_pencil(tmp_path):
    art = run_scenario(parse_config_text(FORWARD_16.replace("modes = 8", "modes = 24")),
                       "verify-spectral", tmp_path)
    assert _line(art.summary_lines, "minmax-sandwich").startswith("PASS ")
    disc = fem.discretize(build_structured_mesh(16, 16))
    want = spectral.solve_generalized_eig(disc.unit_pair, 20).eigenvalues
    np.testing.assert_allclose(_read_csv(art.files["minmax.csv"])["lambda_unit"], want,
                               rtol=1e-12, atol=0.0)


def test_non_unit_runs_on_a_warm_grid_solve_the_unit_spectrum_once(tmp_path, monkeypatch,
                                                                   cold_grids):
    solves = _count_calls(monkeypatch, spectral._solve)
    text = FORWARD_16.replace("modes = 8", "modes = 24")
    manifests = []
    for run in ("cold", "warm"):
        art = run_scenario(parse_config_text(text), "verify-spectral", tmp_path / run)
        assert _line(art.summary_lines, "minmax-sandwich").startswith("PASS ")
        write_reports(art)
        manifests.append((tmp_path / run / "manifest.txt").read_bytes())
    assert [K for _, K in solves] == [24, 20]
    assert manifests[0] == manifests[1]


def test_the_spectrum_memo_holds_no_reference_cycle(tmp_path, cold_grids):
    # with the cyclic collector off, only reference counts can free the grid
    gc.disable()
    try:
        arts = [run_scenario(parse_config_text(text), mode, tmp_path / mode)
                for mode, text in (("stability-sweep", SWEEP_16), ("verify-spectral", VERIFY_16))]
        disc = fem.grid(16, 16)
        # least recent first: the sweep's a~ (K=8) and unit K=1, then
        # verify-spectral's a (K=12) and two a + s*eta (K=11), which evicted
        # the sweep's a
        assert [K for _, K in disc.spectra] == [8, 1, 12, 11, 11]
        ref = weakref.ref(disc)
        fem.grid.cache_clear()
        del arts, disc
        assert ref() is None
    finally:
        gc.enable()


# forward_sweep48's pair of runs on the bundled bump: forward from t_min = 1,
# then the stability sweep against two-bump from t_min = 0.5
_FORWARD_48 = """\
name = fwd48
nx = 48
ny = 48
coefficient = gaussian-bump
u0 = d_Omega
T = 2.0
T_grid = 1.0,1.5,2.0,2.5,3.0
"""
_SWEEP_48 = _FORWARD_48.replace("fwd48", "sweep48").replace(
    "T = 2.0\nT_grid = 1.0,", "perturbation = two-bump\nT = 0.5\nT_grid = 0.5,")
_RUNS_48 = {"forward": _FORWARD_48, "stability-sweep": _SWEEP_48}


def test_a_sweep_after_a_forward_run_solves_only_what_is_new(tmp_path, monkeypatch, cold_grids):
    # forward solves and counts a's flow spectrum; the sweep reads that entry
    # and solves a~ (K=12, counted) and the unit pencil (K=1).  The same two
    # runs again read every solve and count from the grid's memo.
    solves = _count_calls(monkeypatch, spectral._solve)
    counts = _count_calls(monkeypatch, fem.symmetric_factor)
    for run in ("cold", "warm"):
        for mode, text in _RUNS_48.items():
            assert run_scenario(parse_config_text(text), mode, tmp_path / run / mode).all_pass
        assert ([K for _, K in solves], len(counts)) == ([12, 12, 1], 2)


@pytest.mark.parametrize("order", [("forward", "stability-sweep"), ("stability-sweep", "forward")])
def test_runs_on_a_shared_memo_write_the_cold_manifests(tmp_path, order):
    cold = {}
    for mode, text in _RUNS_48.items():
        fem.grid.cache_clear()
        write_reports(run_scenario(parse_config_text(text), mode, tmp_path / "cold" / mode))
        cold[mode] = (tmp_path / "cold" / mode / "manifest.txt").read_bytes()
    fem.grid.cache_clear()
    for mode in order:
        write_reports(run_scenario(parse_config_text(_RUNS_48[mode]), mode, tmp_path / "warm" / mode))
        assert (tmp_path / "warm" / mode / "manifest.txt").read_bytes() == cold[mode], mode


def test_a_two_point_fit_warns(tmp_path):
    art = run_scenario(parse_config_text(FORWARD_16 + "T_grid = 1.0,2.0\n"), "forward", tmp_path)
    assert _line(art.summary_lines, "u-decay-slope").endswith(" fit_points=2")
    assert "WARN fit-points: u-decay-slope fitted from 2 point(s)" in art.summary_lines


@pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
def test_every_written_file_is_in_the_manifest(mode, tmp_path):
    manifest = write_reports(run_scenario(parse_config_text(MODE_CONFIGS[mode]), mode, tmp_path))
    assert {p.name for p in tmp_path.iterdir()} == set(manifest) | {"manifest.txt"}


_MODE_FILES = {
    "forward": ["decay.csv", "u_T.grid"],
    "invert": ["residuals.csv", "a_rec.grid"],
    "verify-spectral": ["minmax.csv", "gap.csv", "eigen_perturbation.csv",
                        "projection_perturbation.csv"],
    "stability-sweep": ["stability.csv", "f_lipschitz.csv"],
}


@pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
def test_an_out_below_a_file_is_refused_by_write_reports(mode, tmp_path):
    # the run itself touches no file: it returns every text, and only the
    # writer finds that the directory cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    art = run_scenario(parse_config_text(MODE_CONFIGS[mode]), mode, out)
    assert list(art.files) == _MODE_FILES[mode]
    assert all(text.endswith("\n") for text in art.files.values())
    assert art.all_pass, art.summary_lines
    with pytest.raises(RunnerError, match=rf"^cannot write reports into {re.escape(str(out))}: "):
        write_reports(art)
    assert blocker.read_text() == ""


_FILE_CALLS = {"write_text", "write_bytes", "mkdir", "read_bytes", "open"}


def test_write_reports_is_the_one_writer():
    # the package's only call that makes, writes or reads back a run's files;
    # reads of a u0 grid or a config file use read_text
    package = Path(runner.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                func = getattr(node, "func", None)
                name = getattr(func, "attr", getattr(func, "id", None))
                if isinstance(node, ast.Call) and name in _FILE_CALLS:
                    callers.add((path.stem, fn.name, name))
    assert callers == {("runner", "write_reports", "mkdir"),
                       ("runner", "write_reports", "write_bytes")}


class TestReport:
    def test_spread_check_names_its_points(self):
        rep = runner._Report()
        rep.spread_check("s", [2.0, np.nan, 0.0, 1.0, 4.0], 10.0, "d", "none")
        rep.spread_check("s", [1.0, 20.0, np.inf], 10.0, "d", "none")
        assert rep.lines == ["PASS s: measured=4 bound=10 (d) points=3",
                             "FAIL s: measured=20 bound=10 (d) points=2"]

    @pytest.mark.parametrize("values", [[], [3.0], [3.0, -1.0, np.nan]])
    def test_spread_check_of_fewer_than_two_values_is_info(self, values):
        rep = runner._Report()
        rep.spread_check("s", values, 10.0, "d", "too few")
        assert rep.lines == ["INFO s: too few"]

    def test_per_index_check_fails_at_the_first_set_entry(self):
        rep = runner._Report()
        rep.per_index_check("c", np.array([False, False, True, True]), lambda i: f"index={i + 1}",
                            "all hold")
        rep.per_index_check("c", np.zeros(4, dtype=bool), lambda i: f"index={i + 1}", "all hold")
        assert rep.lines == ["FAIL c: index=3", "PASS c: all hold"]
