"""Configuration documents.

A single JSON document describes a model: per-patch baseline rates,
strain trait deviations, connectivity (either an explicit matrix or
volumes plus pair weights), the scale (eps, d), and optional initial
frequencies and integrator settings, whose defaults are applied here so
that validation checks the settings every run uses.

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
from .types import ConnectivityMatrix, StrainPerturbations, rate_issue, require_simplex

FREQUENCY_GENERATOR = "dirichlet-pcg64-v1"

# Budget of values in one (P, N, N) trait array, checked before any is
# allocated: 2**24 float64 values are 128 MiB.
MAX_TRAIT_VALUES = 2**24

# The keys each object of a document may hold.
PATCH_KEYS = {"r", "beta", "gamma", "k"}
SECTION_KEYS = {
    "strains": {"N", "b", "nu", "c_pair", "w", "alpha"},
    "connectivity": {"matrix", "volumes", "weights"},
    "scale": {"eps", "d"},
    "init": {"z0", "seed"},
    "integration": {"rel_tol", "abs_tol", "t_end", "max_step", "initial_step",
                    "monitor_period"},
}


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
    type, or an integer beyond the float range, reported as ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _number(what: str, value) -> float:
    """A JSON number as float; ConfigError for anything else, bools and
    numeric strings included, and for an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{what} is an integer beyond the float range") from None


def _integer(what: str, value) -> int:
    """An integral number as int (2.0 passes); ConfigError for anything
    else, bools included."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _unknown_keys(what: str, obj, allowed: set) -> list[str]:
    """The issue naming the keys of obj outside allowed, if obj is an
    object with any."""
    unknown = sorted(set(obj) - allowed) if isinstance(obj, dict) else []
    return [f"unknown {what} settings: {unknown}"] if unknown else []


def _strain_arrays(doc: dict, P: int):
    strains = _section(doc, "strains")
    N = _integer("strains.N", strains.get("N", 1))
    if N < 1:
        raise ConfigError("strains.N must be >= 1")
    if P * N * N > MAX_TRAIT_VALUES:
        raise ConfigError(f"strains.N = {N}: P*N^2 = {P * N * N} values per trait array "
                          f"exceed the budget of {MAX_TRAIT_VALUES}")

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
        if V.shape != (P,):
            raise ConfigError(f"connectivity: expected {P} volumes, got shape {V.shape}")
        try:
            entries = renormalize_to_density(volume_matrix(V, x), V)
        except ConfigError as exc:
            raise ConfigError(f"connectivity: {exc}") from None
    else:
        raise ConfigError("connectivity: expected 'matrix' or 'volumes'+'weights'")
    return ConnectivityMatrix(entries=entries)


def _connectivity(doc: dict, P: int, issues: list[str]) -> ConnectivityMatrix | None:
    """The coupling matrix, or None with its faults appended to issues;
    a matrix that fails structural properties is reported per property."""
    try:
        return build_connectivity(doc, P)
    except InvalidConnectivity as exc:
        issues.extend(f"connectivity: {item}" for item in exc.failures)
    except ConfigError as exc:
        issues.append(str(exc))
    return None


def _validate(doc: dict) -> tuple[FullModel | None, list[str]]:
    """The single validation pass: the model, or the itemized issues.
    Unknown keys, patch and connectivity faults are all listed; past them,
    only the first."""
    raw_patches = doc.get("patches")
    if not raw_patches or not isinstance(raw_patches, list):
        return None, ["config needs a non-empty 'patches' array"]

    issues = _unknown_keys("top-level", doc, {"patches", *SECTION_KEYS})
    for name, allowed in SECTION_KEYS.items():
        issues += _unknown_keys(name, doc.get(name), allowed)
    rates = []                  # one (r, beta, gamma, k) row per patch
    for idx, p in enumerate(raw_patches):
        issues += [f"patch {idx}: {item}" for item in _unknown_keys("patch", p, PATCH_KEYS)]
        try:
            r, beta, gamma, k = (_number(name, p[name]) for name in ("r", "beta", "gamma", "k"))
        except (KeyError, TypeError, ConfigError) as exc:
            issues.append(f"patch {idx}: {exc}")
            continue
        issue = rate_issue(r, beta, gamma, k)
        if issue:
            issues.append(f"patch {idx}: {issue}")
            continue
        rates.append((r, beta, gamma, k))
        if not beta > r + gamma:
            issues.append(f"patch {idx}: subcritical, beta={beta} <= r+gamma={r + gamma}")

    P = len(raw_patches)
    connectivity = _connectivity(doc, P, issues)
    if issues:
        return None, issues

    try:
        scale = _section(doc, "scale")
        model = FullModel(
            *np.array(rates).T, pert=_strain_arrays(doc, P),
            eps=_number("scale.eps", scale.get("eps", 0.0)),
            d=_number("scale.d", scale.get("d", 0.0)),
            connectivity=connectivity)
        initial_frequencies(doc, P, model.n_strains)
        integrator_settings(doc)
    except ConfigError as exc:
        return None, [str(exc)]
    return model, []


def collect_issues(doc: dict) -> list[str]:
    """Itemized validation report; empty list means the config is valid.
    Checks structure, unknown keys, value types, supercritical patches,
    connectivity, admissible strain rates, initial frequencies and
    integration settings."""
    return _validate(doc)[1]


def build_model(doc: dict) -> FullModel:
    """The model of a valid config; raises ConfigError listing the issues
    of an invalid one."""
    model, issues = _validate(doc)
    if issues:
        raise ConfigError("; ".join(issues))
    return model


def initial_frequencies(doc: dict, P: int, N: int) -> np.ndarray:
    """Initial simplex frequencies (P, N): explicit z0, seeded Dirichlet
    draw, or uniform when the init section is absent."""
    init = _section(doc, "init")
    if "z0" in init:
        z = _parsed("init.z0", init["z0"])
        if z.shape != (P, N):
            raise ConfigError(f"init.z0 must have shape {(P, N)}, got {z.shape}")
        return require_simplex(z)
    if "seed" in init:
        rng = _parsed("init.seed", _integer("init.seed", init["seed"]), np.random.default_rng)
        return rng.dirichlet(np.ones(N), size=P)
    return np.full((P, N), 1.0 / N)


def integrator_settings(doc: dict) -> IntegratorConfig:
    """The integrator settings of a run: the `integration` section over
    the defaults t_end = 200 and monitor_period = t_end / 200 (201
    samples), the rest as IntegratorConfig has them. ConfigError for an
    unknown key, a value that is not a number, or an inadmissible one."""
    integ = _section(doc, "integration")
    unknown = _unknown_keys("integration", integ, SECTION_KEYS["integration"])
    if unknown:
        raise ConfigError(unknown[0])
    settings = {"t_end": 200.0,
                **{k: _number(f"integration.{k}", v) for k, v in integ.items()}}
    settings.setdefault("monitor_period", settings["t_end"] / 200)
    return IntegratorConfig(**settings)
