"""In-memory spans around the gmapprox layers, installed from outside the package.

A layer is a public function. The tracer replaces it at every module attribute
that holds it (``fill_rows`` is bound in ``drift``, ``neuro`` and ``sde``), so
callers that look it up by name reach the wrapper. Spans nest on one stack:
the benchmark passes ``--threads 1`` everywhere, and generators such as
``drift.iter_Z_chunks`` run inside the call that consumes them, so every span
lies inside its parent. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

# Spanned layers: name -> (module that defines the function, function name).
SPANNED = {
    "timebase.derive_stream": ("timebase", "derive_stream"),
    "timebase.split_stream": ("timebase", "split_stream"),
    "timebase.fill_rows": ("timebase", "fill_rows"),
    "drift.sample_Z_path": ("drift", "sample_Z_path"),
    "drift.moments_Z_mc": ("drift", "moments_Z_mc"),
    "neuro.first_passage_time": ("neuro", "first_passage_time"),
    "neuro.build_drift_from_network": ("neuro", "build_drift_from_network"),
    "neuro.run_table2": ("neuro", "run_table2"),
    "approx.F4_from_moments": ("approx", "F4_from_moments"),
    "approx.F2_analytic": ("approx", "F2_analytic"),
    "costs.run_table1": ("costs", "run_table1"),
    "costs.cost_block": ("costs", "cost_block"),
    "costs.per_path_cost_matrix": ("costs", "per_path_cost_matrix"),
    "bounds.d2_closed": ("bounds", "d2_closed"),
    "bounds.d2_generic": ("bounds", "d2_generic"),
    "bounds.pointwise_mse_streaming": ("bounds", "pointwise_mse_streaming"),
    "response.response_moment_curves": ("response", "response_moment_curves"),
    "sde.apply_I": ("sde", "apply_I"),
    "sde.apply_I_inv": ("sde", "apply_I_inv"),
    "cli.load_config": ("cli", "load_config"),
}
# Every subcommand is one "cli.output" span: its self time is what the command
# does outside the library layers above, i.e. formatting and writing its files.
CLI_COMMANDS = ("cmd_simulate", "cmd_approx", "cmd_bound", "cmd_costs",
                "cmd_table1", "cmd_table2", "cmd_neuron")
# Counted without a span: one call per grid node would cost more to span than
# the per-node work the F4 layer is measured by.
COUNTED = {"approx.cubic_el_root": ("approx", "cubic_el_root")}

DRIFT_VARIANTS = ("single_shot", "poisson", "compound_poisson", "brownian",
                  "ornstein_uhlenbeck", "shot_noise")


def model_label(obj) -> str | None:
    """Scenario label of a drift or embedded-neuron model, None for other objects."""
    name = type(obj).__name__
    if name == "ShotNoise":
        return f"shot_noise.{type(obj.arrival).__name__.lower()}"
    if name == "EmbeddedNeuronModel":
        return "network" if type(obj.firing).__name__ == "SimulatedFiring" else None
    return {
        "SingleShot": "single_shot",
        "Poisson": "poisson",
        "CompoundPoisson": "compound_poisson",
        "BrownianDrift": "brownian",
        "OUDrift": "ornstein_uhlenbeck",
    }.get(name)


def _work(layer: str, args, result) -> float:
    """Units of work a call did, for the per-unit costs."""
    if layer == "approx.F4_from_moments":
        return args[0].grid.n_nodes
    if layer == "costs.per_path_cost_matrix":
        return args[3]
    if layer == "neuro.first_passage_time":
        return float(math.isfinite(result))  # fired before the cap
    return 1.0


@dataclass
class Span:
    layer: str
    scenario: str
    depth: int  # number of open spans when this one began
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by direct children
    work: float = 1.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)
    scenario: str = ""  # label for spans outside any model-taking call

    def install(self, pkg) -> None:
        """Wrap every layer of the imported package ``pkg`` at all its bindings."""
        for layer, (mod, fn) in SPANNED.items():
            rebind(pkg, getattr(getattr(pkg, mod), fn), self._spanned(layer), self._saved)
        for cmd in CLI_COMMANDS:
            rebind(pkg, getattr(pkg.cli, cmd), self._spanned("cli.output"), self._saved)
        for layer, (mod, fn) in COUNTED.items():
            rebind(pkg, getattr(getattr(pkg, mod), fn), self._counted(layer), self._saved)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _spanned(self, layer):
        stack, spans = self._stack, self.spans

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label = model_label(args[0]) if args else None
                parent = stack[-1] if stack else None
                scenario = label or (parent.scenario if parent else self.scenario)
                span = Span(layer, scenario, len(stack), time.perf_counter())
                stack.append(span)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    span.end = time.perf_counter()
                    stack.pop()
                    if parent is not None:
                        parent.child += span.end - span.start
                    span.work = _work(layer, args, result) if result is not None else 0.0
                    spans.append(span)

            return wrapper

        return wrap

    def _counted(self, layer):
        counts = self.counts

        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[layer] = counts.get(layer, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        return wrap


MODULES = ("timebase", "response", "drift", "sde", "approx", "bounds", "costs", "neuro", "cli")


def rebind(pkg, fn, wrap, saved: list) -> None:
    """Replace ``fn`` by ``wrap(fn)`` at every module attribute of ``pkg`` that holds it.

    ``saved`` receives (module, attribute, old value) so the caller can undo it.
    """
    wrapped = wrap(fn)
    for name in MODULES:
        mod = getattr(pkg, name)
        for attr, value in list(vars(mod).items()):
            if value is fn:
                saved.append((mod, attr, value))
                setattr(mod, attr, wrapped)


def layer_names() -> list[str]:
    return sorted(list(SPANNED) + ["cli.output"])


def per_layer_metrics(spans, counts, n_reps: int) -> dict:
    """Per-rep layer figures from the spans of ``n_reps`` traced reps."""
    metrics = {}
    calls = {name: 0 for name in layer_names()}
    self_s = {name: 0.0 for name in layer_names()}
    work = {name: 0.0 for name in layer_names()}
    variant_s = {v: 0.0 for v in DRIFT_VARIANTS}
    variant_n = {v: 0 for v in DRIFT_VARIANTS}
    for s in spans:
        calls[s.layer] += 1
        self_s[s.layer] += s.self_s
        work[s.layer] += s.work
        if s.layer == "drift.sample_Z_path":
            variant = s.scenario.split(".")[0]
            variant_s[variant] += s.self_s
            variant_n[variant] += 1
    for name in layer_names():
        metrics[f"{name}.calls"] = (calls[name] / n_reps, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / n_reps, "s")
    for v in DRIFT_VARIANTS:
        metrics[f"drift.sample_Z_path.{v}.us_per_path"] = (
            1e6 * variant_s[v] / variant_n[v] if variant_n[v] else 0.0, "us")
    per_unit = (
        ("neuro.first_passage_time.us_per_call", "neuro.first_passage_time", calls),
        ("approx.F4_from_moments.us_per_node", "approx.F4_from_moments", work),
        ("costs.per_path_cost_matrix.us_per_path", "costs.per_path_cost_matrix", work),
    )
    for metric, layer, base in per_unit:
        metrics[metric] = (1e6 * self_s[layer] / base[layer] if base[layer] else 0.0, "us")
    fpt = "neuro.first_passage_time"
    metrics["neuro.fired_share"] = (work[fpt] / calls[fpt] if calls[fpt] else 0.0, "share")
    for name in COUNTED:
        metrics[f"{name}.calls"] = (counts.get(name, 0) / n_reps, "count")
    return metrics
