"""Scenario configs: a flat key = value text format whose closed schema is Scenario.

Lines are `key = value`; blank lines and `#` comments are ignored.  Field
groups (coefficient, u0, perturbation, eta) take a catalog kind on the
bare key plus dotted parameter keys, e.g.

    coefficient = gaussian-bump
    coefficient.amplitude = 0.5

Each kind's parameters and their types are those of its catalog table
(catalog.group_defaults).  Bytes that are not ASCII, unknown or duplicate
keys, out-of-catalog kinds, parameters outside their kind's table, inadmissible
coefficients and whatever the run's grid and u0 constructors refuse are
rejected at parse time with the offending line/node.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from types import NoneType, UnionType
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import catalog
from .fem import AdmissibilityError, grid, make_field

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


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One fully resolved experiment description, and the config schema.

    Each field is a key: its type is the parse rule, a field without a
    default is required, metadata "min" / "above" is an inclusive / strict
    lower bound, and the field order is that of the hashed canonical text.
    """

    name: str
    nx: int = 32
    ny: int = 32
    a_plus: float = field(default=2.0, metadata={"above": 1})
    coefficient: FieldSpec
    u0: FieldSpec = FieldSpec(kind="d_Omega", params=())
    T: float = field(default=0.15, metadata={"above": 0})
    T_grid: tuple[float, ...] | None = None
    modes: int = field(default=40, metadata={"min": 1})
    gamma: float = field(default=0.0, metadata={"min": 0})
    delta: float = field(default=1.0, metadata={"above": 0})
    noise: float = field(default=0.0, metadata={"min": 0})
    seed: int = field(default=0, metadata={"min": 0})
    perturbation: FieldSpec | None = None
    eta: FieldSpec | None = None
    scales: tuple[float, ...] = (1e-3, 1e-2, 1e-1)


class _Key(NamedTuple):
    """One config key: a Scenario field with its type reduced to a parse rule."""

    name: str
    rule: type  # str, int or float (a scalar), tuple (a list) or FieldSpec (a group)
    required: bool
    bounds: Mapping[str, float]


def _key_table() -> tuple[_Key, ...]:
    hints = get_type_hints(Scenario)
    keys = []
    for f in fields(Scenario):
        hint = hints[f.name]
        if isinstance(hint, UnionType):  # X | None
            (hint,) = (t for t in get_args(hint) if t is not NoneType)
        keys.append(_Key(f.name, get_origin(hint) or hint, f.default is MISSING, f.metadata))
    return tuple(keys)


_KEYS = _key_table()  # once, at import: get_type_hints is too slow to call per parse


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():  # like every file a run writes
            raise ConfigError(f"line {lineno}: {ascii(raw)} is not ASCII text, as a config must be")
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


def _take_scalar(entries, key, caster):
    value, lineno = entries.pop(key)
    try:
        return caster(value)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cannot parse {key} = {value!r} as {caster.__name__}") from exc


def _take_list(entries, key):
    value, lineno = entries.pop(key)
    try:
        items = tuple(float(tok) for tok in value.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: cannot parse {key} = {value!r} as comma-separated floats") from exc
    if not items:
        raise ConfigError(f"line {lineno}: {key} is empty")
    return items


def _take_group(entries, group) -> FieldSpec:
    """The group's kind and its parameters, each cast to the type of its
    catalog default and the unset ones defaulted."""
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
        params[pname] = _take_scalar(entries, key, type(params[pname]))
    return FieldSpec(kind=kind, params=tuple(sorted(params.items())))


def parse_config(path) -> Scenario:
    """Parse and validate a scenario config file, which must be ASCII text."""
    # latin-1 maps each byte to one character, so the parse names a non-ASCII byte
    return parse_config_text(Path(path).read_text(encoding="latin-1"))


def parse_config_text(text: str) -> Scenario:
    """Parse and validate scenario config text (same grammar as files)."""
    entries = _parse_lines(text)

    for key in _KEYS:
        if key.required and key.name not in entries:
            raise ConfigError(f"missing required key {key.name!r}")

    kwargs = {}
    for key in (k for k in _KEYS if k.name in entries):
        if key.rule is FieldSpec:
            kwargs[key.name] = _take_group(entries, key.name)
        elif key.rule is tuple:
            kwargs[key.name] = _take_list(entries, key.name)
        else:
            kwargs[key.name] = _take_scalar(entries, key.name, key.rule)

    if entries:
        key = min(entries, key=lambda k: entries[k][1])
        raise ConfigError(f"line {entries[key][1]}: unknown key {key!r}")

    scenario = Scenario(**kwargs)
    _validate_scenario(scenario)
    return scenario


def _validate_scenario(s: Scenario) -> None:
    for key in _KEYS:
        value = getattr(s, key.name)
        if value is None:
            continue
        if key.rule is FieldSpec:
            numbers = [(f"{key.name}.{pname}", v) for pname, v in value.params]
        else:
            numbers = [(key.name, v) for v in (value if key.rule is tuple else (value,))]
        # NaN passes every ordering guard, so non-finite input is refused first.
        for label, v in numbers:
            if isinstance(v, float) and not np.isfinite(v):
                raise ConfigError(f"{label} must be finite, got {v}")
            # a Gaussian's width divides its exponent
            if label.endswith((".width", ".width2")) and not v > 0:
                raise ConfigError(f"{label} must be positive, got {v}")
        above, least = key.bounds.get("above"), key.bounds.get("min")
        if above is not None and not value > above:
            must = "be positive" if above == 0 else f"exceed {above}"
            raise ConfigError(f"{key.name} must {must}, got {value}")
        if least is not None and value < least:
            raise ConfigError(f"{key.name} must be >= {least}, got {value}")
    if s.T_grid is not None:
        if any(t <= 0 for t in s.T_grid):
            raise ConfigError(f"T_grid times must be positive, got {s.T_grid}")
        if any(b <= a for a, b in zip(s.T_grid, s.T_grid[1:])):
            raise ConfigError("T_grid must be strictly increasing")
    # the run's own constructors; first-eigenfunction needs the run's spectrum
    try:
        mesh = grid(s.nx, s.ny).mesh  # the grid every run of this size reads
        if s.u0.kind != "first-eigenfunction":
            catalog.initial_state(mesh, s.u0.kind, s.u0.params_dict())
    except (ValueError, OSError) as exc:
        raise ConfigError(f"grid {s.nx}x{s.ny} with u0 = {s.u0.kind}: {exc}") from exc
    a = catalog.coefficient_values(mesh, s.coefficient.kind, s.coefficient.params_dict())
    checked = [("coefficient", a)]
    if s.perturbation is not None:
        p = s.perturbation
        checked.append(("perturbation", catalog.coefficient_values(mesh, p.kind, p.params_dict())))
    if s.eta is not None:  # the verify-spectral sweep's a + s*eta, one per scale
        eta = catalog.direction_values(mesh, s.eta.kind, s.eta.params_dict())
        with np.errstate(over="ignore"):  # make_field refuses the inf an overflow leaves
            checked += [(f"coefficient + s*eta at s={x:g}", a + x * eta) for x in s.scales]
    for label, values in checked:
        try:
            make_field(mesh, values, s.a_plus)
        except AdmissibilityError as exc:
            raise ConfigError(f"{label} is not admissible: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form, one key per field in field order (unset ones left out);
    parse_config_text(serialize_scenario(s)) == s."""
    lines = []
    for key in _KEYS:
        value = getattr(s, key.name)
        if value is None:
            continue
        if key.rule is FieldSpec:
            lines.append(f"{key.name} = {value.kind}")
            lines += [f"{key.name}.{pname} = {_fmt(v)}" for pname, v in value.params]
        elif key.rule is tuple:
            lines.append(f"{key.name} = " + ",".join(_fmt(v) for v in value))
        else:
            lines.append(f"{key.name} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def scenario_hash(s: Scenario) -> str:
    return hashlib.sha256(serialize_scenario(s).encode()).hexdigest()

