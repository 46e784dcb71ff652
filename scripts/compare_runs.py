#!/usr/bin/env python3
"""Compare two scripts/run_all.py output trees, scenario by scenario.

    python3 scripts/compare_runs.py PARENT CHANGE

For each scenario directory the script lists the files whose SHA-256
matches.  For every other file it prints the largest relative difference
|x - y| / max(|x|, |y|) per CSV column, or over the whole grid file,
then the largest absolute difference |x - y| (for a CSV, with the column
holding it), since two values near zero can differ by a large relative
amount; for other text files it prints how many lines differ.  It then
prints every summary check whose PASS / FAIL / WARN state changed.
Exits 1 when a state changed or a scenario or file exists in only one
tree, 0 otherwise.
"""

import argparse
import csv
import hashlib
from collections import defaultdict
from pathlib import Path

import numpy as np

STATES = ("PASS", "FAIL", "WARN")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _differences(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(|x - y|, |x - y| / max(|x|, |y|)) per pair: 0 where x == y or both are
    nan, inf where only one is nan; a single inf pair on a shape mismatch."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return np.array([np.inf]), np.array([np.inf])
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.abs(a - b)
        rel = diff / np.maximum(np.abs(a), np.abs(b))
    return tuple(np.where(same, 0.0, np.where(np.isnan(d), np.inf, d)) for d in (diff, rel))


def rel_diff(a, b) -> float:
    """Largest |x - y| / max(|x|, |y|) over paired values; inf on a shape mismatch."""
    return float(_differences(a, b)[1].max(initial=0.0))


def abs_diff(a, b) -> float:
    """Largest |x - y| over paired values; inf on a shape mismatch."""
    return float(_differences(a, b)[0].max(initial=0.0))


def _csv_columns(path: Path) -> dict[str, list[float]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}


def _grid_values(path: Path) -> list[float]:
    return [float(tok) for line in path.read_text().splitlines()[1:] for tok in line.split()]


def describe_difference(a: Path, b: Path) -> str:
    """One line saying how two differing files differ."""
    if a.suffix == ".csv":
        ca, cb = _csv_columns(a), _csv_columns(b)
        if list(ca) != list(cb):
            return f"header differs: {list(ca)} vs {list(cb)}"
        gaps = {name: abs_diff(ca[name], cb[name]) for name in ca}
        worst = max(gaps, key=gaps.get)
        return (", ".join(f"{name} {rel_diff(ca[name], cb[name]):.3g}" for name in ca)
                + f"; max abs {gaps[worst]:.3g} ({worst})")
    if a.suffix == ".grid":
        ga, gb = _grid_values(a), _grid_values(b)
        return f"max rel diff {rel_diff(ga, gb):.3g}; max abs {abs_diff(ga, gb):.3g}"
    la, lb = a.read_text().splitlines(), b.read_text().splitlines()
    changed = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
    return f"{changed} of {max(len(la), len(lb))} lines differ"


def summary_checks(path: Path) -> dict[str, list[str]]:
    """Check name -> its summary lines, in order."""
    checks = defaultdict(list)
    if path.is_file():
        for line in path.read_text().splitlines():
            parts = line.split(maxsplit=2)
            if len(parts) >= 2 and parts[0] in STATES + ("INFO",):
                checks[parts[1].rstrip(":")].append(line)
    return checks


def _states(lines: list[str]) -> list[str]:
    return [line.split()[0] for line in lines]


def compare_scenario(parent: Path, change: Path) -> bool:
    """Print the comparison of one scenario; return True when it must fail."""
    bad = False
    names = sorted({p.name for p in parent.iterdir() if p.is_file()}
                   | {p.name for p in change.iterdir() if p.is_file()})
    identical = []
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            print(f"  {name}: only in {'parent' if a.is_file() else 'change'}")
            bad = True
        elif _sha256(a) == _sha256(b):
            identical.append(name)
        else:
            print(f"  {name}: {describe_difference(a, b)}")
    print(f"  identical: {', '.join(identical) if identical else '(none)'}")

    sa, sb = summary_checks(parent / "summary.txt"), summary_checks(change / "summary.txt")
    for check in sorted(set(sa) | set(sb)):
        la, lb = sa.get(check, []), sb.get(check, [])
        if _states(la) != _states(lb) and set(_states(la + lb)) & set(STATES):
            print(f"  state changed: {check} {'/'.join(_states(la)) or '-'} -> "
                  f"{'/'.join(_states(lb)) or '-'}")
            print("".join(f"    - {line}\n" for line in la)
                  + "".join(f"    + {line}\n" for line in lb), end="")
            bad = True
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="run_all.py output tree of the parent")
    parser.add_argument("change", type=Path, help="run_all.py output tree of the change")
    args = parser.parse_args(argv)

    bad = False
    scenarios = sorted({p.name for p in args.parent.iterdir() if p.is_dir()}
                       | {p.name for p in args.change.iterdir() if p.is_dir()})
    for name in scenarios:
        a, b = args.parent / name, args.change / name
        print(name)
        if not (a.is_dir() and b.is_dir()):
            print(f"  only in {'parent' if a.is_dir() else 'change'}")
            bad = True
            continue
        bad |= compare_scenario(a, b)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
