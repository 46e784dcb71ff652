import csv
import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
