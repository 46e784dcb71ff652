import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatcoef import catalog
from heatcoef.mesh import build_structured_mesh, grid_text
from heatcoef.scenario import (
    ConfigError,
    Scenario,
    parse_config,
    parse_config_text,
    scenario_hash,
    serialize_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

MINIMAL = "name = t\ncoefficient = constant\n"

FULL = """\
name = full
nx = 16
ny = 16
a_plus = 2.5
coefficient = gaussian-bump
coefficient.amplitude = 0.4
u0 = sine-product
u0.m = 2
u0.n = 3
T = 0.3
T_grid = 0.15,0.3,0.6
modes = 12
noise = 1e-6
seed = 7
perturbation = two-bump
eta = gaussian-bump
eta.amplitude = 0.02
scales = 0.001,0.01
"""

# scenario_hash of each bundled config, which keys its runs' config_sha256;
# a bundled config fails test_bundled_scenarios_round_trip until pinned here.
_BUNDLED_HASHES = {
    "bump_invert": "a25d814f2f6a8dc241cfa2807d2a9ea284410fd33868d3eb6660a463c0ec2ea0",
    "bump_invert64": "ac322bcb559138d8b689a09078620a619ff95b024427e2a717408e6e9d2248c3",
    "constant_invert": "39a1bc64b6655e7b64b2dae7edd4841abe7ee1fda64bf2c1f56f4c94bd571198",
    "forward_decay": "695d3c4d8283311403df9233cabc1df4b588a2c009625e27aca6357fd7eab308",
    "stability_sweep": "6440fee9d78878a87e23ca1e154b8079cae3da2ddaa99de4629cbf6a3b7c1133",
    "verify_spectral": "1a97ae6d81ca0192e586f4d54f743308f3095f0ec72778240af923fa43faf85a",
}


@pytest.mark.parametrize("cfg", sorted(SCENARIO_DIR.glob("*.cfg")), ids=lambda p: p.stem)
def test_bundled_scenarios_round_trip(cfg):
    s = parse_config(cfg)
    assert parse_config_text(serialize_scenario(s)) == s
    assert scenario_hash(s) == scenario_hash(parse_config_text(serialize_scenario(s)))
    assert scenario_hash(s) == _BUNDLED_HASHES[cfg.stem]


def test_full_variant_round_trips():
    s = parse_config_text(FULL)
    assert s.u0.kind == "sine-product" and s.u0.params_dict() == {"m": 2, "n": 3}
    assert s.T_grid == (0.15, 0.3, 0.6)
    assert s.perturbation.kind == "two-bump"
    assert dict(s.eta.params)["amplitude"] == 0.02
    assert parse_config_text(serialize_scenario(s)) == s


def test_defaults_are_filled_in():
    s = parse_config_text(MINIMAL)
    assert (s.nx, s.ny) == (32, 32)
    assert s.a_plus == 2.0
    assert s.u0.kind == "d_Omega"
    assert s.modes == 40
    assert s.scales == (1e-3, 1e-2, 1e-1)
    assert dict(s.coefficient.params)["value"] == 1.0  # catalog default


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nname = c  # trailing\ncoefficient = constant\n\n"
    assert parse_config_text(text).name == "c"


class TestRejections:
    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'name' \(first set on line 1\)"):
            parse_config_text("name = a\ncoefficient = constant\nname = b\n")

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match="line 3: unknown key 'bogus'"):
            parse_config_text(MINIMAL + "bogus = 3\n")

    @pytest.mark.parametrize("key", ["alpha", "tol_fp", "max_iter", "eta_hat"])
    def test_removed_keys_are_unknown(self, key):
        # module constants of inversion and spectral, not keys: a config that
        # sets one is refused rather than run with a value it would not get
        with pytest.raises(ConfigError, match=rf"^line 3: unknown key '{key}'$"):
            parse_config_text(MINIMAL + f"{key} = 1\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required key 'name'"):
            parse_config_text("coefficient = constant\n")
        with pytest.raises(ConfigError, match="missing required key 'coefficient'"):
            parse_config_text("name = x\n")

    def test_unparsable_scalar(self):
        with pytest.raises(ConfigError, match="line 3: cannot parse T = 'abc' as float"):
            parse_config_text(MINIMAL + "T = abc\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("name a\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty key or value"):
            parse_config_text("name =\n")

    def test_unknown_coefficient_kind(self):
        with pytest.raises(ConfigError, match="line 2: unknown coefficient kind 'wiggle'"):
            parse_config_text("name = x\ncoefficient = wiggle\n")

    def test_unknown_direction_kind(self):
        with pytest.raises(ConfigError, match="unknown direction kind"):
            parse_config_text(MINIMAL + "eta = vortex\n")

    def test_invalid_group_parameter(self):
        with pytest.raises(ConfigError, match=r"parameter 'coefficient.banana' not valid"):
            parse_config_text(MINIMAL + "coefficient.banana = 2\n")

    def test_unknown_u0_kind(self):
        with pytest.raises(ConfigError, match="unknown initial-state kind"):
            parse_config_text(MINIMAL + "u0 = blob\n")

    @pytest.mark.parametrize("u0,stray,allowed", [
        ("d_Omega", "u0.m = 5", "[]"),
        ("sine-product", "u0.path = u0.grid", "['m', 'n']"),
        ("custom", "u0.n = 2", "['path']"),
        ("first-eigenfunction", "u0.n = 2", "[]"),
    ])
    def test_u0_kind_refuses_parameters_outside_its_table(self, u0, stray, allowed):
        key = stray.split(" = ")[0]
        message = (f"line 4: parameter '{key}' not valid for u0 kind '{u0}' "
                   f"(allowed: {allowed})")
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_text(MINIMAL + f"u0 = {u0}\n{stray}\n")

    def test_t_grid_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            parse_config_text(MINIMAL + "T_grid = 0.3,0.15\n")
        with pytest.raises(ConfigError, match="positive"):
            parse_config_text(MINIMAL + "T_grid = -1,2\n")
        with pytest.raises(ConfigError, match="T_grid is empty"):
            parse_config_text(MINIMAL + "T_grid = ,\n")

    def test_scalar_range_checks(self):
        for bad, message in (
            ("a_plus = 1.0", "a_plus must exceed 1"),
            ("T = 0", "T must be positive"),
            ("modes = 0", "modes must be >= 1"),
            ("gamma = -1", "gamma must be >= 0"),
            ("delta = 0", "delta must be positive"),
            ("noise = -1e-6", "noise must be >= 0"),
            ("seed = -1", "seed must be >= 0"),
            # the grid and u0 rules are their constructors', named with u0
            ("nx = 1", r"^grid 1x32 with u0 = d_Omega: grid must have at least 2 cells per side"),
            ("u0 = sine-product\nu0.m = 0",
             r"^grid 32x32 with u0 = sine-product: sine-product orders must be >= 1, got m=0, n=1$"),
            ("u0 = sine-product\nu0.n = -2",
             r"^grid 32x32 with u0 = sine-product: sine-product orders must be >= 1, got m=1, n=-2$"),
        ):
            with pytest.raises(ConfigError, match=message):
                parse_config_text(MINIMAL + bad + "\n")

    def test_inadmissible_coefficient_rejected(self):
        text = "name = x\ncoefficient = constant\ncoefficient.value = 3.0\n"
        with pytest.raises(ConfigError, match="coefficient is not admissible"):
            parse_config_text(text)

    def test_inadmissible_perturbation_rejected(self):
        text = MINIMAL + "perturbation = constant\nperturbation.value = 0.5\n"
        with pytest.raises(ConfigError, match="perturbation is not admissible"):
            parse_config_text(text)

    @pytest.mark.parametrize("amplitude,scale,bound", [("20", "0.1", "> a_plus=2"),
                                                       ("-0.5", "0.001", "< 1")])
    def test_inadmissible_eta_sweep_rejected_with_its_scale(self, amplitude, scale, bound):
        # verify-spectral solves the pencil of a + s*eta for every s in scales
        text = MINIMAL + (f"nx = 16\nny = 16\neta = gaussian-bump\neta.amplitude = {amplitude}\n"
                          "scales = 0.001,0.01,0.1\n")
        with pytest.raises(ConfigError, match=rf"^coefficient \+ s\*eta at s={scale} is not "
                                              rf"admissible: coefficient value \S+ {bound} at node "):
            parse_config_text(text)

    def test_custom_u0_requires_existing_path(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^grid 32x32 with u0 = custom: custom initial state "
                                              r"needs u0.path$"):
            parse_config_text(MINIMAL + "u0 = custom\n")
        with pytest.raises(ConfigError, match=r"^grid 32x32 with u0 = custom: .*No such file.*"
                                              r"/nonexistent.grid"):
            parse_config_text(MINIMAL + "u0 = custom\nu0.path = /nonexistent.grid\n")
        with pytest.raises(ConfigError, match=r"^grid 32x32 with u0 = custom: .*Is a directory"):
            parse_config_text(MINIMAL + f"u0 = custom\nu0.path = {tmp_path}\n")
        p = tmp_path / "u0.grid"
        p.write_text(grid_text(build_structured_mesh(32, 32), np.zeros(33 * 33)))
        s = parse_config_text(MINIMAL + f"u0 = custom\nu0.path = {p}\n")
        assert s.u0.params_dict() == {"path": str(p)}

    @pytest.mark.parametrize("n,node,value,message", [
        (2, None, 0.0, "custom initial state is 2x2 but the mesh is 8x8"),
        (8, 40, float("nan"), r"custom initial state value nan is not finite at node 40 \(x=0.5"),
        (8, 40, float("inf"), r"custom initial state value inf is not finite at node 40"),
        (8, 3, 0.5, "custom initial state must vanish on the boundary"),
    ])
    def test_custom_u0_the_run_would_refuse_is_refused_at_parse(self, tmp_path, n, node, value,
                                                               message):
        # the run's u0 constructor refuses each, so the parse does
        v = np.zeros((n + 1) ** 2)
        if node is not None:
            v[node] = value
        (tmp_path / "u0.grid").write_text(grid_text(build_structured_mesh(n, n), v))
        text = (f"name = t\nnx = 8\nny = 8\ncoefficient = constant\n"
                f"u0 = custom\nu0.path = {tmp_path / 'u0.grid'}\n")
        with pytest.raises(ConfigError, match=rf"^grid 8x8 with u0 = custom: {message}"):
            parse_config_text(text)

    @pytest.mark.parametrize("raw,shown", [
        (b"name = caf\xc3\xa9\n", r"'name = caf\xc3\xa9'"),  # UTF-8
        (b"# r\xe9sum\xe9\nname = t\n", r"'# r\xe9sum\xe9'"),  # latin-1, in a comment
        (b"name = t\xff\n", r"'name = t\xff'"),  # no encoding's text
    ])
    def test_a_byte_that_is_not_ascii_is_refused_with_its_line(self, tmp_path, raw, shown):
        cfg = tmp_path / "case.cfg"
        cfg.write_bytes(b"coefficient = constant\n" + raw)
        with pytest.raises(ConfigError, match=rf"^line 2: {re.escape(shown)} is not ASCII text"):
            parse_config(cfg)


@pytest.mark.parametrize("line,key", [
    ("T = nan", "T"),
    ("T = inf", "T"),
    ("a_plus = nan", "a_plus"),
    ("noise = nan", "noise"),
    ("delta = nan", "delta"),
    ("T_grid = 1, nan, 3", "T_grid"),
    ("coefficient.amplitude = nan", "coefficient.amplitude"),
])
def test_non_finite_input_rejected(line, key):
    text = f"name = t\ncoefficient = gaussian-bump\n{line}\n"
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite"):
        parse_config_text(text)


class TestHashAndOverrides:
    def test_hash_is_stable_and_sensitive(self):
        s = parse_config_text(MINIMAL)
        h = scenario_hash(s)
        assert h == "85daad9a618a2001690c48d597d4a5ab047ef4bdebbfe954bbc6bfdbb6ec0a24"
        assert h == scenario_hash(parse_config_text(MINIMAL))
        assert h != scenario_hash(parse_config_text(MINIMAL + "seed = 5\n"))

    def test_full_config_hash_is_pinned(self):
        # The canonical text (sine-product writes u0.m and u0.n) is what
        # every run's config_sha256 hashes; a change to it re-keys them all.
        s = parse_config_text(FULL)
        assert "\nu0 = sine-product\nu0.m = 2\nu0.n = 3\nT = 0.29999999999999999\n" in serialize_scenario(s)
        assert scenario_hash(s) == "e4a28b692d519240ac15dfe8d082d2b0f6074c30dff0e1a1dc943c560df0866d"


# --- fuzzing -----------------------------------------------------------------

# The required keys (no default), which _config_text always sets, and every
# other key: the Scenario fields and each catalog group's parameters.
_REQUIRED = [f.name for f in fields(Scenario) if f.default is MISSING]
_KEYS = sorted(
    {f.name for f in fields(Scenario) if f.default is not MISSING}
    | {f"{group}.{p}" for group, kinds in catalog.GROUPS.items()
       for kind in kinds for p in catalog.group_defaults(group, kind)}
)
# Single-line text: str.splitlines also breaks on these categories.
_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), min_size=1, max_size=12)
_NUMBER = st.one_of(st.integers(-10, 100).map(str), st.floats().map(repr))


def _is_int(value: str) -> bool:
    try:
        int(value.split("#", 1)[0])
    except ValueError:
        return False
    return True


def _value(key: str):
    if key in ("nx", "ny"):  # parsing builds the mesh, so keep it small
        return st.one_of(st.integers(-2, 64).map(str), _TEXT.filter(lambda v: not _is_int(v)))
    if key == "coefficient":  # a valid kind, so the fuzz reaches the later checks
        return st.sampled_from(catalog.COEFFICIENT_KINDS)
    if key in catalog.GROUPS:
        return st.one_of(st.sampled_from(catalog.GROUPS[key]), _TEXT)
    if key in ("T_grid", "scales"):
        return st.one_of(st.lists(_NUMBER, min_size=1, max_size=6).map(",".join), _TEXT)
    return st.one_of(_NUMBER, _TEXT)


@st.composite
def _config_text(draw):
    keys = draw(st.lists(st.sampled_from(_KEYS), unique=True, max_size=10))
    keys = _REQUIRED + keys  # test_missing_required_keys covers their absence
    return "\n".join(f"{key} = {draw(_value(key))}" for key in keys) + "\n"


@given(_config_text())
@settings(max_examples=200, deadline=None)
def test_fuzzed_config_parses_or_raises_config_error(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass
