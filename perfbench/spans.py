"""In-memory span recorder, call-site hooks and per-layer metrics.

The traced run replaces module-level names that straingrid's modules
call each other through (for example ``straingrid.validate.simulate_full``)
with wrappers that record a span per call, and wraps the rhs and monitor
callables handed to ``ode.integrate``. Nothing inside the package is
edited. A span's name is ``<layer>.<what>``; the layer is the package
module that does the work.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from contextlib import contextmanager
from time import perf_counter

ROOT = "unit"

# (module, attribute, span name): every place a module reaches another
# module's function through a module-level name.
CALL_SITES = [
    ("straingrid.cli", "load_config", "config.load"),
    ("straingrid.cli", "collect_issues", "config.validate"),
    ("straingrid.cli", "build_model", "config.build_model"),
    ("straingrid.cli", "initial_frequencies", "config.init"),
    ("straingrid.cli", "integrator_settings", "config.integrator"),
    ("straingrid.cli", "config_hash", "config.hash"),
    ("straingrid.config", "build_model", "config.build_model"),
    ("straingrid.config", "build_connectivity", "config.connectivity"),
    ("straingrid.config", "validate_connectivity", "connectivity.validate"),
    ("straingrid.config", "volume_matrix", "connectivity.volume_matrix"),
    ("straingrid.config", "renormalize_to_density", "connectivity.renormalize"),
    # ConnectivityMatrix imports this lazily on every construction.
    ("straingrid.connectivity", "validate_connectivity", "connectivity.validate"),
    ("straingrid.cli", "neutral_equilibrium", "reduction.equilibrium"),
    ("straingrid.cli", "left_eigenvector", "reduction.eigenvector"),
    ("straingrid.cli", "drift_matrix", "reduction.drift"),
    ("straingrid.cli", "fitness_structure", "reduction.fitness"),
    ("straingrid.cli", "migration_matrix", "reduction.migration"),
    ("straingrid.validate", "neutral_equilibrium", "reduction.equilibrium"),
    ("straingrid.validate", "left_eigenvector", "reduction.eigenvector"),
    ("straingrid.replicator", "neutral_equilibrium", "reduction.equilibrium"),
    ("straingrid.replicator", "left_eigenvector", "reduction.eigenvector"),
    ("straingrid.replicator", "fitness_structure", "reduction.fitness"),
    ("straingrid.replicator", "migration_matrix", "reduction.migration"),
    ("straingrid.cli", "simulate_full", "fullsim.simulate"),
    ("straingrid.cli", "init_on_manifold", "fullsim.init"),
    ("straingrid.validate", "simulate_full", "fullsim.simulate"),
    ("straingrid.validate", "init_on_manifold", "fullsim.init"),
    ("straingrid.validate", "extract_frequencies", "fullsim.extract"),
    ("straingrid.cli", "setup_from_model", "replicator.setup"),
    ("straingrid.cli", "simulate_replicator", "replicator.simulate"),
    ("straingrid.validate", "setup_from_model", "replicator.setup"),
    ("straingrid.validate", "simulate_replicator", "replicator.simulate"),
    ("straingrid.cli", "convergence_study", "validate.study"),
    ("straingrid.cli", "default_tau_horizon", "validate.horizon"),
    ("straingrid.validate", "reduction_error", "validate.reduction_error"),
    ("straingrid.ode", "Trajectory.at", "ode.sample"),
    ("straingrid.cli", "run_simulation", "cli.run_simulation"),
    ("straingrid.cli", "_sweep_worker", "cli.sweep_task"),
    ("straingrid.cli", "_full_csv", "cli.csv"),
    ("straingrid.cli", "_reduced_csv", "cli.csv"),
    ("straingrid.cli", "_loglog_svg", "cli.svg"),
    ("straingrid.cli", "_write_manifest", "cli.manifest"),
    ("straingrid.cli", "_atomic_write", "cli.write"),
]

# ode.integrate as seen by each system, with the span name of its rhs.
INTEGRATE_SITES = [
    ("straingrid.fullsim", "integrate", "fullsim.rhs"),
    ("straingrid.replicator", "integrate", "replicator.rhs"),
]


class SpanRecorder:
    """Spans kept as parallel lists: name, start, end, parent index."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open = [-1]

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(math.nan)
        self._open.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int):
        self.ends[idx] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return traced

    def dump(self, path):
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        doc = {"names": table, "name": [code[n] for n in self.names],
               "start": self.starts, "end": self.ends, "parent": self.parents}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(names, starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx in range(len(names)):
        covered = 0.0
        cursor = starts[idx]
        for child in sorted(children.get(idx, ()), key=starts.__getitem__):
            lo = max(starts[child], cursor)
            hi = min(ends[child], ends[idx])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(ends[idx] - starts[idx] - covered)
    return out


def _resolve(module: str, attribute: str):
    """(owner, name) for a dotted attribute, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


def _traced_integrate(rec: SpanRecorder, integrate, rhs_span: str):
    @functools.wraps(integrate)
    def traced(rhs, *args, **kwargs):
        rhs = rec.wrap(rhs_span, rhs)
        if "monitors" in kwargs:
            kwargs["monitors"] = [rec.wrap("ode.monitor", m) for m in kwargs["monitors"]]
        elif len(args) >= 3:
            args = (*args[:2], [rec.wrap("ode.monitor", m) for m in args[2]], *args[3:])
        return integrate(rhs, *args, **kwargs)
    return rec.wrap("ode.integrate", traced)


@contextmanager
def hooks(rec: SpanRecorder, missing: list[str]):
    """Install every call-site wrapper; hooks whose target no longer
    exists are appended to `missing` instead of failing."""
    saved = []
    sites = [(m, a, s, False) for m, a, s in CALL_SITES]
    sites += [(m, a, s, True) for m, a, s in INTEGRATE_SITES]
    try:
        for module, attribute, span, is_integrate in sites:
            target = _resolve(module, attribute)
            if target is None:
                missing.append(f"{module}.{attribute}")
                continue
            owner, name = target
            original = owner.__dict__.get(name, getattr(owner, name))
            saved.append((owner, name, original))
            wrapped = (_traced_integrate(rec, original, span) if is_integrate
                       else rec.wrap(span, original))
            setattr(owner, name, wrapped)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def layer_metrics(names, starts, ends, parents, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced unit (spans rooted at one `unit`).

    The `*_s` values are disjoint self times; with trace.unattributed_s
    (the root span's own time) they add up to the traced unit's wall time.
    """
    own = self_times(names, starts, ends, parents)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, t in zip(names, own):
        total[name] = total.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1

    def t(*spans):
        return sum(total.get(s, 0.0) for s in spans)

    def n(*spans):
        return sum(calls.get(s, 0) for s in spans)

    def layer(prefix, exclude=()):
        return sum(v for k, v in total.items()
                   if k.startswith(prefix + ".") and k not in exclude)

    def per_call(seconds, count):
        return seconds / count * 1e6 if count else 0.0

    evals = n("fullsim.rhs", "replicator.rhs")
    cli_s = layer("cli")
    return {
        "fullsim.rhs_s": t("fullsim.rhs"),
        "fullsim.rhs_us_per_call": per_call(t("fullsim.rhs"), n("fullsim.rhs")),
        "fullsim.extract_s": t("fullsim.extract"),
        "fullsim.extract_calls": n("fullsim.extract"),
        "fullsim.self_s": layer("fullsim", ("fullsim.rhs", "fullsim.extract")),
        "ode.self_s": t("ode.integrate"),
        "ode.self_us_per_eval": per_call(t("ode.integrate"), evals),
        "ode.rhs_evals": evals,
        "ode.monitor_s": t("ode.monitor"),
        "ode.monitor_calls": n("ode.monitor"),
        "ode.sample_s": t("ode.sample"),
        "replicator.rhs_s": t("replicator.rhs"),
        "replicator.rhs_us_per_call": per_call(t("replicator.rhs"), n("replicator.rhs")),
        "replicator.self_s": layer("replicator", ("replicator.rhs",)),
        "validate.self_s": layer("validate"),
        "reduction.self_s": layer("reduction"),
        "reduction.equilibrium_calls": n("reduction.equilibrium"),
        "config.self_s": layer("config"),
        "config.validate_calls": n("config.validate"),
        "connectivity.self_s": layer("connectivity"),
        "cli.self_s": cli_s,
        "cli.bytes_out": bytes_out,
        "cli.out_mb_per_s": bytes_out / 1e6 / cli_s if cli_s > 0 else 0.0,
        "trace.unattributed_s": t(ROOT),
    }


def unit_slices(rec: SpanRecorder):
    """Split the recording into one (names, starts, ends, parents) per
    root span, with parent indices local to the slice."""
    roots = [i for i, p in enumerate(rec.parents) if p < 0]
    bounds = roots[1:] + [len(rec.names)]
    for lo, hi in zip(roots, bounds):
        yield (rec.names[lo:hi], rec.starts[lo:hi], rec.ends[lo:hi],
               [p - lo if p >= 0 else -1 for p in rec.parents[lo:hi]])
