"""Configuration documents.

A single JSON document describes a model: per-patch baseline rates,
strain trait deviations, connectivity (either an explicit matrix or
volumes plus pair weights), the scale (eps, d), and optional initial
frequencies and integrator settings.

One pass parses and validates a document: ``collect_issues`` returns
its itemized report, ``build_model`` the model it built or a ConfigError
listing the issues. Hashing is canonical (stable under key reordering).
Random initial frequencies come from a named, versioned generator so
results are portable.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial

import numpy as np

from .connectivity import renormalize_to_density, volume_matrix
# Re-exported, not called here: perfbench/spans.py still hooks these names.
from .connectivity import validate_connectivity as validate_connectivity
from .errors import ConfigError, ConfigParseError, InvalidConnectivity
from .fullsim import FullModel
from .ode import IntegratorConfig
from .types import (ConnectivityMatrix, FrequencyState, PatchParams,
                    ScaleParams, StrainPerturbations)

FREQUENCY_GENERATOR = "dirichlet-pcg64-v1"


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigParseError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def config_hash(doc: dict) -> str:
    """SHA-256 of the canonical (sorted-key) JSON serialization."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _section(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    return value


def _parsed(what: str, value, convert=partial(np.asarray, dtype=float)):
    """convert(value), a float array by default, with a value of the wrong
    type reported as ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _strain_arrays(doc: dict, P: int):
    strains = _section(doc, "strains")
    N = _parsed("strains.N", strains.get("N", 1), int)
    if N < 1:
        raise ConfigError("strains.N must be >= 1")

    def arr(name, shape):
        raw = strains.get(name)
        if raw is None:
            return np.zeros(shape)
        a = _parsed(f"strains.{name}", raw)
        if a.shape != shape:
            raise ConfigError(f"strains.{name} must have shape {shape}, got {a.shape}")
        return a

    return StrainPerturbations(
        b=arr("b", (P, N)),
        nu=arr("nu", (P, N)),
        c_pair=arr("c_pair", (P, N, N)),
        w=arr("w", (P, N, N)),
        alpha=arr("alpha", (P, N, N)),
    )


def build_connectivity(doc: dict, P: int) -> ConnectivityMatrix:
    conn = doc.get("connectivity")
    if conn is None:
        if P == 1:
            return ConnectivityMatrix(entries=np.zeros((1, 1)))
        raise ConfigError("connectivity section required for P > 1")
    if not isinstance(conn, dict):
        raise ConfigError("connectivity must be a JSON object")
    has_matrix = "matrix" in conn
    has_volumes = "volumes" in conn or "weights" in conn
    if has_matrix and has_volumes:
        raise ConfigError("connectivity: give either a matrix or volumes+weights, not both")
    if has_matrix:
        entries = _parsed("connectivity.matrix", conn["matrix"])
        if entries.shape != (P, P):
            raise ConfigError(f"connectivity: expected {P}x{P} matrix, got {entries.shape}")
    elif has_volumes:
        if "volumes" not in conn or "weights" not in conn:
            raise ConfigError("connectivity: volumes and weights must both be given")
        V = _parsed("connectivity.volumes", conn["volumes"])
        x = _parsed("connectivity.weights", conn["weights"])
        entries = renormalize_to_density(volume_matrix(V, x), V)
        if entries.shape != (P, P):
            raise ConfigError(f"connectivity must be {P}x{P}, got {entries.shape}")
    else:
        raise ConfigError("connectivity: expected 'matrix' or 'volumes'+'weights'")
    return ConnectivityMatrix(entries=entries)


def _connectivity(doc: dict, P: int, issues: list[str]) -> ConnectivityMatrix | None:
    """The coupling matrix, or None with its faults appended to issues;
    an explicit matrix is reported per failed property."""
    conn = doc.get("connectivity")
    explicit = isinstance(conn, dict) and "matrix" in conn
    try:
        return build_connectivity(doc, P)
    except ConfigError as exc:
        if not explicit:
            issues.append(f"connectivity: {exc}")
        elif isinstance(exc, InvalidConnectivity):
            issues.extend(f"connectivity: {item}" for item in exc.report.failures())
        else:
            issues.append(str(exc))
    return None


def _validate(doc: dict) -> tuple[FullModel | None, list[str]]:
    """The single validation pass: the model, or the itemized issues. Patch
    and connectivity faults are all listed; past them, only the first."""
    raw_patches = doc.get("patches")
    if not raw_patches or not isinstance(raw_patches, list):
        return None, ["config needs a non-empty 'patches' array"]

    issues: list[str] = []
    patches = []
    for idx, p in enumerate(raw_patches):
        try:
            pp = PatchParams(r=float(p["r"]), beta=float(p["beta"]),
                             gamma=float(p["gamma"]), k=float(p["k"]))
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            issues.append(f"patch {idx}: {exc}")
            continue
        patches.append(pp)
        if not pp.supercritical:
            issues.append(
                f"patch {idx}: subcritical, beta={pp.beta} <= r+gamma={pp.r + pp.gamma}")

    P = len(raw_patches)
    connectivity = _connectivity(doc, P, issues)
    if issues:
        return None, issues

    try:
        scale = _section(doc, "scale")
        model = FullModel(
            patches=tuple(patches), pert=_strain_arrays(doc, P),
            scale=ScaleParams(eps=_parsed("scale.eps", scale.get("eps", 0.0), float),
                              d=_parsed("scale.d", scale.get("d", 0.0), float)),
            connectivity=connectivity)
        initial_frequencies(doc, P, model.n_strains)
        IntegratorConfig(**integrator_settings(doc))
    except ConfigError as exc:
        return None, [str(exc)]
    return model, []


def collect_issues(doc: dict) -> list[str]:
    """Itemized validation report; empty list means the config is valid.
    Checks structure, value types, supercritical patches, connectivity,
    admissible strain rates, initial frequencies and integration settings."""
    return _validate(doc)[1]


def build_model(doc: dict) -> FullModel:
    """The model of a valid config; raises ConfigError listing the issues
    of an invalid one."""
    model, issues = _validate(doc)
    if issues:
        raise ConfigError("; ".join(issues))
    return model


def initial_frequencies(doc: dict, P: int, N: int) -> FrequencyState:
    """Initial simplex frequencies: explicit z0, seeded Dirichlet draw,
    or uniform when the init section is absent."""
    init = _section(doc, "init")
    if "z0" in init:
        z = _parsed("init.z0", init["z0"])
        if z.shape != (P, N):
            raise ConfigError(f"init.z0 must have shape {(P, N)}, got {z.shape}")
        z0 = FrequencyState(z=z)
        z0.require_simplex()
        return z0
    if "seed" in init:
        rng = _parsed("init.seed", init["seed"], lambda s: np.random.default_rng(int(s)))
        return FrequencyState(z=rng.dirichlet(np.ones(N), size=P))
    return FrequencyState(z=np.full((P, N), 1.0 / N))


def integrator_settings(doc: dict) -> dict:
    """Integration overrides from the config; defaults live with the CLI."""
    integ = _section(doc, "integration")
    allowed = {"rel_tol", "abs_tol", "t_end", "max_step", "initial_step",
               "monitor_period"}
    unknown = set(integ) - allowed
    if unknown:
        raise ConfigError(f"unknown integration settings: {sorted(unknown)}")
    return {k: _parsed(f"integration.{k}", v, float) for k, v in integ.items()}
