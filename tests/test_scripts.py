import csv
import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCENARIOS = SCRIPTS.parent / "scenarios"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ill_posedness_sweep_smoke(tmp_path, capsys):
    sweep = _load("ill_posedness_sweep")
    assert sweep.main(["--out", str(tmp_path), "--nx", "8", "--times", "0.15,0.3"]) == 0
    capsys.readouterr()
    with (tmp_path / "ill_posedness.csv").open(encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["T"]) for r in rows] == [0.15, 0.3]
    for r in rows:
        assert np.isfinite(float(r["rel_error"]))
        assert np.isfinite(float(r["rho"]))


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
    assert (out / "forward_decay" / "manifest.txt").is_file()
    assert not (out / "unregistered").exists()
    assert "unregistered: no registered mode, skipping" in captured.err
