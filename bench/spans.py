"""Span tracer that wraps sivcav's public functions from outside the package.

`Tracer.install()` replaces each target function with a timing wrapper at
every import site: every loaded `sivcav.*` module global that refers to the
original is rebound, so `sivcav.protocols.field_map_grid` is wrapped as well
as `sivcav.magnetics.field_map_grid`. Classes are wrapped by patching their
`__init__` in place, which all import sites share.

A span is `[name, start, end, parent, op, info]`. `parent` is the index of
the enclosing span or -1, and `op` is a label the caller sets per operation.
A wrapped call made directly inside a span of the same name is merged into
it, so `evolve` -> `evolve_with_final` counts as one propagation.
"""

from __future__ import annotations

import functools
import sys
import time

#: (module, attribute, span name). Missing attributes are skipped, so the
#: same table serves a later version that replaces the three solve_ivp paths
#: with one `propagate` without editing the benchmark.
FUNCTION_TARGETS = (
    ("sivcav.config", "load_config", "config.load_config"),
    ("sivcav.protocols", "run_protocol", "protocols.run_protocol"),
    ("sivcav.siv_levels", "transition_table", "siv_levels.transition_table"),
    ("sivcav.magnetics", "field_map_grid", "magnetics.field_map_grid"),
    ("sivcav.magnetics", "cuboid_field", "magnetics.cuboid_field"),
    ("sivcav.magnetics", "field_map_to_csv", "magnetics.field_map_to_csv"),
    ("sivcav.dynamics.engine", "build_liouvillian", "engine.build_liouvillian"),
    ("sivcav.dynamics.engine", "steady_state", "engine.steady_state"),
    ("sivcav.dynamics.engine", "evolve", "engine.propagate"),
    ("sivcav.dynamics.engine", "evolve_with_final", "engine.propagate"),
    ("sivcav.dynamics.engine", "final_state", "engine.propagate"),
    ("sivcav.dynamics.engine", "propagate", "engine.propagate"),
    ("sivcav.dynamics.experiments", "simulate_spin_pumping",
     "experiments.simulate_spin_pumping"),
    ("sivcav.dynamics.experiments", "simulate_t1_recovery",
     "experiments.simulate_t1_recovery"),
    ("sivcav.dynamics.experiments", "simulate_cpt_scan",
     "experiments.simulate_cpt_scan"),
    ("sivcav.dynamics.experiments", "simulate_ple_scan",
     "experiments.simulate_ple_scan"),
    ("sivcav.dynamics.experiments", "extract_initialization_fidelity",
     "experiments.extract_initialization_fidelity"),
    ("sivcav.dynamics.experiments", "fit_cpt_scan_forward",
     "experiments.fit_cpt_scan_forward"),
    ("sivcav.fitting", "lm_fit", "fitting.lm_fit"),
)

CLASS_TARGETS = (
    ("sivcav.dynamics.engine", "LevelSystem", "engine.level_system"),
    ("sivcav.dynamics.engine", "DensityState", "engine.density_state"),
)


def _fit_info(result):
    return (int(getattr(result, "n_iterations", 0)),
            bool(getattr(result, "converged", False)))


_INFO = {"fitting.lm_fit": _fit_info}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        info = _INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(out)
            return out

        return wrapper

    def install(self):
        """Wrap every target; returns the span names actually installed."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sivcav" or n.startswith("sivcav."))]
        installed = set()
        for mod_name, attr, span in FUNCTION_TARGETS:
            mod = sys.modules.get(mod_name)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                continue
            wrapper = self.wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
            installed.add(span)
        for mod_name, attr, span in CLASS_TARGETS:
            cls = getattr(sys.modules.get(mod_name), attr, None)
            if cls is None:
                continue
            self._undo.append((cls, "__init__", cls.__init__))
            cls.__init__ = self.wrap(span, cls.__init__)
            installed.add(span)
        return installed

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


def self_times(spans, offset=0):
    """Per-span self time: duration minus the durations of direct children.

    Spans on one thread nest properly, so direct children never overlap and
    their summed durations are the part of the parent they cover. `spans`
    may be a slice starting at index `offset` of the list the parent indices
    refer to; every parent must lie inside the slice.
    """
    own = [end - start for _n, start, end, _p, _o, _i in spans]
    for _n, start, end, parent, _o, _i in spans:
        if parent >= 0:
            own[parent - offset] -= end - start
    return own


def summarize(spans, offset=0):
    """{name: {"calls", "self_s", "total_s"}} plus fallback and fit counters."""
    out = {}
    own = self_times(spans, offset)
    fallbacks = set()
    iterations = converged = 0
    for i, (name, start, end, parent, _op, info) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        s["calls"] += 1
        s["self_s"] += own[i]
        s["total_s"] += end - start
        if name == "engine.propagate" and parent >= 0 \
                and spans[parent - offset][0] == "engine.steady_state":
            fallbacks.add(parent)
        if info is not None and name == "fitting.lm_fit":
            iterations += info[0]
            converged += info[1]
    out["_counters"] = {"steady_state_fallbacks": len(fallbacks),
                        "lm_iterations": iterations, "lm_converged": converged}
    return out


def merge(span_lists):
    """Concatenate span lists recorded separately, re-basing parent indices."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        for name, start, end, parent, op, info in spans:
            merged.append([name, start, end, parent + base if parent >= 0 else -1,
                           op, info])
    return merged


def layer_metrics(summary, output_bytes, grid_rows, masked_rows):
    """Per-layer metrics of one pass, named as in BENCHMARK.json."""
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    counters = summary.get("_counters", {})
    fits = calls("fitting.lm_fit")
    grid_s = summary.get("magnetics.field_map_grid", {}).get("total_s", 0.0)
    m = {
        "config.load_config.calls": calls("config.load_config"),
        "config.load_config.self_s": self_s("config.load_config"),
        "protocols.run_protocol.self_s": self_s("protocols.run_protocol"),
        "protocols.output_bytes": output_bytes,
        "siv_levels.transition_table.calls": calls("siv_levels.transition_table"),
        "siv_levels.transition_table.self_s": self_s("siv_levels.transition_table"),
        "magnetics.field_map_grid.self_s": self_s("magnetics.field_map_grid"),
        "magnetics.cuboid_field.calls": calls("magnetics.cuboid_field"),
        "magnetics.cuboid_field.self_s": self_s("magnetics.cuboid_field"),
        "magnetics.field_map_to_csv.self_s": self_s("magnetics.field_map_to_csv"),
        "magnetics.us_per_point": 1e6 * grid_s / grid_rows if grid_rows else 0.0,
        "magnetics.masked_frac": masked_rows / grid_rows if grid_rows else 0.0,
        "experiments.self_s": sum(v["self_s"] for k, v in summary.items()
                                  if k.startswith("experiments.")),
        "fitting.lm_fit.calls": fits,
        "fitting.lm_fit.self_s": self_s("fitting.lm_fit"),
        "fitting.lm_fit.iterations": counters.get("lm_iterations", 0),
        "fitting.lm_fit.converged_frac":
            counters.get("lm_converged", 0) / fits if fits else 1.0,
        "engine.steady_state.fallbacks": counters.get("steady_state_fallbacks", 0),
    }
    for layer in ("level_system", "build_liouvillian", "steady_state",
                  "propagate", "density_state"):
        m[f"engine.{layer}.calls"] = calls(f"engine.{layer}")
        m[f"engine.{layer}.self_s"] = self_s(f"engine.{layer}")
    return m


def write_spans(path, spans):
    """Write spans as CSV: index,name,start,end,parent,op."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,op\n")
        for i, (name, start, end, parent, op, _info) in enumerate(spans):
            fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},{op}\n")
