"""Scenario configs: a flat key = value text format with a closed schema.

Lines are `key = value`; blank lines and `#` comments are ignored.  Field
groups (coefficient, u0, perturbation, eta) take a catalog kind on the
bare key plus dotted parameter keys, e.g.

    coefficient = gaussian-bump
    coefficient.amplitude = 0.5

Each kind's parameters and their types are those of its catalog table
(catalog.group_defaults).  Unknown keys, duplicate keys, out-of-catalog
kinds, parameters outside their kind's table and non-admissible
coefficients are rejected at parse time with the offending line/node.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import catalog
from .fem import AdmissibilityError, make_field, validate_coefficient
from .mesh import build_structured_mesh

__all__ = [
    "FieldSpec",
    "Scenario",
    "ConfigError",
    "parse_config",
    "parse_config_text",
    "serialize_scenario",
    "scenario_hash",
]


class ConfigError(ValueError):
    """Malformed or inadmissible scenario config."""


@dataclass(frozen=True)
class FieldSpec:
    """Catalog kind plus fully resolved parameters (defaults filled in)."""

    kind: str
    params: tuple[tuple[str, float | int | str], ...]

    def params_dict(self) -> dict[str, float | int | str]:
        return dict(self.params)


@dataclass(frozen=True)
class Scenario:
    """One fully resolved experiment description."""

    name: str
    coefficient: FieldSpec
    nx: int = 32
    ny: int = 32
    a_plus: float = 2.0
    u0: FieldSpec = FieldSpec(kind="d_Omega", params=())
    T: float = 0.15
    T_grid: tuple[float, ...] | None = None
    modes: int = 40
    gamma: float = 0.0
    delta: float = 1.0
    alpha: float = 1e-8
    tol_fp: float = 1e-8
    max_iter: int = 50
    noise: float = 0.0
    seed: int = 0
    eta_hat: float = 0.05
    perturbation: FieldSpec | None = None
    eta: FieldSpec | None = None
    scales: tuple[float, ...] = (1e-3, 1e-2, 1e-1)


_SCALAR_KEYS = {
    "name": str,
    "nx": int,
    "ny": int,
    "a_plus": float,
    "T": float,
    "modes": int,
    "gamma": float,
    "delta": float,
    "alpha": float,
    "tol_fp": float,
    "max_iter": int,
    "noise": float,
    "seed": int,
    "eta_hat": float,
}
_LIST_KEYS = ("T_grid", "scales")
_REQUIRED_KEYS = ("name", "coefficient")


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first set on line {entries[key][1]})")
        entries[key] = (value, lineno)
    return entries


def _take_scalar(entries, key, caster, default):
    if key not in entries:
        return default
    value, lineno = entries.pop(key)
    try:
        return caster(value)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cannot parse {key} = {value!r} as {caster.__name__}") from exc


def _take_list(entries, key):
    if key not in entries:
        return None
    value, lineno = entries.pop(key)
    try:
        items = tuple(float(tok) for tok in value.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cannot parse {key} = {value!r} as comma-separated floats") from exc
    if not items:
        raise ConfigError(f"line {lineno}: {key} is empty")
    return items


def _take_group(entries, group) -> FieldSpec | None:
    """The group's kind and its parameters, each cast to the type of its
    catalog default and the unset ones defaulted; None if the group is unset."""
    if group not in entries:
        return None
    kind, lineno = entries.pop(group)
    try:
        params = catalog.group_defaults(group, kind)
    except KeyError as exc:
        raise ConfigError(f"line {lineno}: {exc.args[0]}") from exc
    prefix = group + "."
    for key in [k for k in entries if k.startswith(prefix)]:
        pname = key[len(prefix):]
        if pname not in params:
            raise ConfigError(
                f"line {entries[key][1]}: parameter {key!r} not valid for {group} kind {kind!r} "
                f"(allowed: {sorted(params)})"
            )
        params[pname] = _take_scalar(entries, key, type(params[pname]), None)
    return FieldSpec(kind=kind, params=tuple(sorted(params.items())))


def parse_config(path) -> Scenario:
    """Parse and validate a scenario config file."""
    return parse_config_text(Path(path).read_text())


def parse_config_text(text: str) -> Scenario:
    """Parse and validate scenario config text (same grammar as files)."""
    entries = _parse_lines(text)

    for required in _REQUIRED_KEYS:
        if required not in entries:
            raise ConfigError(f"missing required key {required!r}")

    kwargs = {}
    for key, caster in _SCALAR_KEYS.items():
        default = Scenario.__dataclass_fields__[key].default if key != "name" else None
        kwargs[key] = _take_scalar(entries, key, caster, default)
    kwargs["T_grid"] = _take_list(entries, "T_grid")
    scales = _take_list(entries, "scales")
    if scales is not None:
        kwargs["scales"] = scales

    for group in catalog.GROUPS:
        spec = _take_group(entries, group)
        if spec is not None:
            kwargs[group] = spec

    if entries:
        key = min(entries, key=lambda k: entries[k][1])
        raise ConfigError(f"line {entries[key][1]}: unknown key {key!r}")

    scenario = Scenario(**kwargs)
    _validate_scenario(scenario)
    return scenario


def _validate_scenario(s: Scenario) -> None:
    # NaN passes every ordering guard below, so non-finite input is refused first.
    numbers = [(key, getattr(s, key)) for key, caster in _SCALAR_KEYS.items() if caster is float]
    numbers += [(key, v) for key in _LIST_KEYS for v in getattr(s, key) or ()]
    for group in catalog.GROUPS:
        spec = getattr(s, group)
        numbers += [(f"{group}.{pname}", v) for pname, v in (spec.params if spec else ())
                    if isinstance(v, float)]
    for key, value in numbers:
        if not np.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    if s.nx < 2 or s.ny < 2:
        raise ConfigError(f"grid must have at least 2 cells per side, got nx={s.nx}, ny={s.ny}")
    if s.a_plus <= 1.0:
        raise ConfigError(f"a_plus must exceed 1, got {s.a_plus}")
    if s.T <= 0:
        raise ConfigError(f"T must be positive, got {s.T}")
    if s.T_grid is not None:
        if any(t <= 0 for t in s.T_grid):
            raise ConfigError(f"T_grid times must be positive, got {s.T_grid}")
        if any(b <= a for a, b in zip(s.T_grid, s.T_grid[1:])):
            raise ConfigError("T_grid must be strictly increasing")
    if s.modes < 1:
        raise ConfigError(f"modes must be >= 1, got {s.modes}")
    if s.gamma < 0:
        raise ConfigError(f"gamma must be >= 0, got {s.gamma}")
    for key in ("delta", "alpha", "tol_fp", "eta_hat"):
        if getattr(s, key) <= 0:
            raise ConfigError(f"{key} must be positive, got {getattr(s, key)}")
    if s.max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {s.max_iter}")
    if s.noise < 0:
        raise ConfigError(f"noise must be >= 0, got {s.noise}")
    if s.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {s.seed}")
    u0 = s.u0.params_dict()
    for pname in ("m", "n"):  # the sine-product orders
        if pname in u0 and u0[pname] < 1:
            raise ConfigError(f"u0.{pname} must be >= 1, got {u0[pname]}")
    if s.u0.kind == "custom":
        if not u0["path"]:
            raise ConfigError("u0 = custom requires u0.path")
        if not Path(u0["path"]).is_file():
            raise ConfigError(f"u0.path does not exist: {u0['path']}")

    mesh = build_structured_mesh(s.nx, s.ny)
    for label, spec in (("coefficient", s.coefficient), ("perturbation", s.perturbation)):
        if spec is None:
            continue
        values = catalog.coefficient_values(mesh, spec.kind, spec.params_dict())
        try:
            validate_coefficient(mesh, make_field(mesh, values, s.a_plus))
        except AdmissibilityError as exc:
            raise ConfigError(f"{label} is not admissible: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parse_config_text(serialize_scenario(s)) == s."""
    lines = [f"name = {s.name}"]
    for key in ("nx", "ny", "a_plus"):
        lines.append(f"{key} = {_fmt(getattr(s, key))}")

    def emit_group(group: str, spec: FieldSpec | None):
        if spec is None:
            return
        lines.append(f"{group} = {spec.kind}")
        for pname, pvalue in spec.params:
            lines.append(f"{group}.{pname} = {_fmt(pvalue)}")

    emit_group("coefficient", s.coefficient)
    emit_group("u0", s.u0)
    lines.append(f"T = {_fmt(s.T)}")
    if s.T_grid is not None:
        lines.append("T_grid = " + ",".join(_fmt(t) for t in s.T_grid))
    for key in ("modes", "gamma", "delta", "alpha", "tol_fp", "max_iter",
                "noise", "seed", "eta_hat"):
        lines.append(f"{key} = {_fmt(getattr(s, key))}")
    emit_group("perturbation", s.perturbation)
    emit_group("eta", s.eta)
    lines.append("scales = " + ",".join(_fmt(x) for x in s.scales))
    return "\n".join(lines) + "\n"


def scenario_hash(s: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(s).encode()).hexdigest()


def with_overrides(s: Scenario, seed: int | None = None, modes: int | None = None) -> Scenario:
    """CLI-level overrides of the seeded RNG and eigenpair count, checked as parsing checks them."""
    updates = {key: v for key, v in (("seed", seed), ("modes", modes)) if v is not None}
    if not updates:
        return s
    s = replace(s, **updates)
    _validate_scenario(s)
    return s
