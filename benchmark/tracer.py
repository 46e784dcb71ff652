"""In-memory span tracing of heatcoef's public layer functions.

The tracer wraps public functions of the package from outside: it changes
no package source.  Modules import each other's functions by name
(``from .spectral import solve_generalized_eig``), so a wrapper installed
only on the defining module would miss most calls.  ``Tracer.install``
therefore replaces every binding of each wrapped function in every loaded
``heatcoef`` module, including the defining module's own global, which
also catches calls made from inside that module.

Each wrapped call records one span: name, start, end, parent span, case
id and a few call facts (pencil size and K for eigensolves, the capped
flag of admissible projections).  Spans stay in memory until the run
writes them out.  ``layer_metrics`` turns the spans of one case into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# Wrapped functions: "module.function" -> layer metric prefix that receives
# the span's self time.  Every span's self time lands in exactly one
# prefix, so the prefixes' self times add up to the root spans' time.
LAYER_OF = {
    "mesh.build_structured_mesh": "mesh.build",
    "scenario.parse_config_text": "scenario.parse",
    "fem.assemble_stiffness": "fem.assemble",
    "fem.assemble_mass": "fem.assemble",
    "fem.assemble_pair": "fem.assemble",
    "fem.apply_dirichlet": "fem.dirichlet",
    "fem.compute_norms": "fem.norms",
    "spectral.solve_generalized_eig": None,  # eig_k1 or eig_kmany, by K
    "spectral.projection_difference_norm": "spectral.proj_norm",
    "spectral.mass_sqrt": "spectral.mass_sqrt",
    "heat.evolve": "heat.evolve",
    "heat.compute_F": "heat.F",
    "heat.lower_bound_check": "heat.bounds",
    "heat.certify_decay_threshold": "heat.bounds",
    "heat.f_lipschitz_experiment": "heat.lipschitz",
    "inversion.assemble_transport_operator": "inversion.transport_build",
    "inversion.build_transport_system": "inversion.transport_build",
    "inversion.solve_transport_ls": "inversion.transport_solve",
    "inversion.admissible_projection": "inversion.projection",
    "inversion.fixed_point_invert": "inversion.invert_self",
    "inversion.stability_ratio_experiment": "inversion.stability_self",
    "runner.run_scenario": "runner.run_self",
    "runner.write_reports": "runner.report",
}

EIG = "spectral.solve_generalized_eig"

# Call counts: metric -> span name whose calls it counts.
CALL_METRICS = {
    "spectral.proj_norm_calls": "spectral.projection_difference_norm",
    "spectral.mass_sqrt_calls": "spectral.mass_sqrt",
    "inversion.transport_calls": "inversion.solve_transport_ls",
    "inversion.projection_calls": "inversion.admissible_projection",
    "fem.assemble_calls": "fem.assemble_stiffness",
    "fem.mass_assemble_calls": "fem.assemble_mass",
    "fem.dirichlet_calls": "fem.apply_dirichlet",
    "fem.norms_calls": "fem.compute_norms",
    "heat.evolve_calls": "heat.evolve",
    "heat.F_calls": "heat.compute_F",
    "mesh.build_calls": "mesh.build_structured_mesh",
}

TIME_METRICS = tuple(sorted(
    {p for p in LAYER_OF.values() if p} | {"spectral.eig_k1", "spectral.eig_kmany"}
))

# Mirrors the inner closure budget per outer step of fixed_point_invert.
CLOSURE_EVAL_CAP = 7


@dataclass
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: int
    case: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _eig_info(args, kwargs, result) -> dict:
    pair = args[0] if args else kwargs["pair"]
    K = args[1] if len(args) > 1 else kwargs["K"]
    return {"K": int(K), "n": int(pair.stiffness.shape[0])}


def _projection_info(args, kwargs, result) -> dict:
    return {"capped": bool(result[1])}


_INFO = {
    EIG: _eig_info,
    "inversion.admissible_projection": _projection_info,
}


class Tracer:
    """Records spans from wrapped calls while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.case = -1
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else -1, self.case)
            self.spans.append(span)
            self._stack.append(span.index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap every binding of the LAYER_OF functions; returns bindings replaced.

        A function the package no longer defines is skipped, so its
        metrics read zero instead of the run failing.
        """
        for name in LAYER_OF:
            importlib.import_module("heatcoef." + name.split(".")[0])
        modules = [m for key, m in list(sys.modules.items())
                   if key == "heatcoef" or key.startswith("heatcoef.")]
        replaced = 0
        for name in LAYER_OF:
            mod, func = name.split(".")
            original = getattr(sys.modules["heatcoef." + mod], func, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
                        replaced += 1
        return replaced

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def case_spans(self, case: int) -> list[Span]:
        return [s for s in self.spans if s.case == case]


def _prefix(span: Span) -> str:
    if span.name == EIG:
        return "spectral.eig_k1" if span.info["K"] == 1 else "spectral.eig_kmany"
    return LAYER_OF[span.name]


def closure_steps(spans: list[Span], children: dict[int, list[Span]]) -> list[int]:
    """Closure evaluations per outer step of every fixed_point_invert span.

    A step opens with the eigensolve whose spectrum feeds compute_F (the
    K = modes solve); each later solve_transport_ls in that step is one
    closure evaluation (it is paired with a K=1 eigensolve).
    """
    steps: list[int] = []
    for span in spans:
        if span.name != "inversion.fixed_point_invert":
            continue
        kids = children.get(span.index, [])
        for i, kid in enumerate(kids):
            if kid.name == EIG and i + 1 < len(kids) and kids[i + 1].name == "heat.compute_F":
                steps.append(0)
            elif kid.name == "inversion.solve_transport_ls" and steps:
                steps[-1] += 1
    return steps


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer self times, call counts and closure counts of one case.

    ``wall`` is the case's traced wall time; ``bench.untraced_s`` is the
    part of it no root span covers, so the ``_s`` self times plus
    ``bench.untraced_s`` add up to ``wall``.
    """
    children: dict[int, list[Span]] = {}
    self_time = {s.index: s.duration for s in spans}
    roots = 0.0
    for s in spans:
        if s.parent in self_time:
            self_time[s.parent] -= s.duration
            children.setdefault(s.parent, []).append(s)
        else:
            roots += s.duration

    m: dict[str, float] = {p + "_s": 0.0 for p in TIME_METRICS}
    for s in spans:
        m[_prefix(s) + "_s"] += self_time[s.index]
    names = [s.name for s in spans]
    for metric, name in CALL_METRICS.items():
        m[metric] = names.count(name)
    eigs = [s for s in spans if s.name == EIG]
    m["spectral.eig_k1_calls"] = sum(1 for s in eigs if s.info["K"] == 1)
    m["spectral.eig_kmany_calls"] = len(eigs) - m["spectral.eig_k1_calls"]
    m["spectral.eig_max_n"] = max((s.info["n"] for s in eigs), default=0)
    m["inversion.smoothing_capped"] = sum(
        1 for s in spans if s.name == "inversion.admissible_projection" and s.info["capped"])

    steps = closure_steps(spans, children)
    m["inversion.outer_iters"] = len(steps)
    m["inversion.closure_evals"] = sum(steps)
    m["inversion.closure_capped_steps"] = sum(1 for n in steps if n >= CLOSURE_EVAL_CAP)
    m["inversion.closure_accept_ratio"] = len(steps) / sum(steps) if sum(steps) else 0.0
    m["bench.untraced_s"] = wall - roots
    return m
