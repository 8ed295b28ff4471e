"""Workload definitions and the seeded config generator.

Each workload is one straingrid CLI call (a "unit") repeated in a closed
loop on configs generated from the run's seed. The program under test
only ever sees the generated JSON documents.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMPARE_EPS = "0.05,0.025,0.0125"
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # "compare" | "simulate" | "sweep"
    P: int
    N: int
    connectivity: str          # "ring" | "volumes"
    # The trait deviations are scaled so that straingrid's default tau
    # horizon equals this value: the horizon sets the compare
    # integration span, so fixing it keeps the work per unit close
    # across seeds.
    tau_horizon: float
    configs: int = 1           # configs per run, used in turn by the units
    t_end: float | None = None
    sweep_values: int = 0
    jobs: int = 1


# Why each workload exists: see README.md. converge-small uses 16 configs
# per run because a 3x3 config's solver cost varies by about 15% between
# draws. sweep-reduced stops at tau = 20, ten selection horizons.
WORKLOADS = {w.name: w for w in (
    Workload("converge-small", "compare", P=3, N=3, connectivity="ring",
             tau_horizon=1.0, configs=16),
    Workload("converge-wide", "compare", P=30, N=30, connectivity="ring",
             tau_horizon=0.25),
    Workload("simulate-artifacts", "simulate", P=20, N=20, connectivity="ring",
             tau_horizon=1.0, t_end=50.0),
    Workload("sweep-reduced", "sweep", P=8, N=4, connectivity="volumes",
             tau_horizon=2.0, t_end=20.0, sweep_values=16, jobs=2),
)}


def _rng(workload: Workload, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, zlib.crc32(workload.name.encode())])


def _ring(rng, P: int) -> np.ndarray:
    """Density-convention ring coupling with random edge rates."""
    M = np.zeros((P, P))
    for p in range(P):
        q = (p + 1) % P
        if q != p:
            M[p, q] += rng.uniform(0.5, 1.5)
            M[q, p] += rng.uniform(0.5, 1.5)
    np.fill_diagonal(M, -M.sum(axis=1))
    return M


def _volumes(rng, P: int) -> dict:
    """Patch volumes with ring pair weights (irreducible for P >= 2)."""
    x = np.zeros((P, P))
    for p in range(P):
        q = (p + 1) % P
        x[min(p, q), max(p, q)] = rng.uniform(0.5, 1.5)
    return {"volumes": rng.uniform(0.5, 2.0, P).tolist(), "weights": x.tolist()}


def _draw(workload: Workload, rng: np.random.Generator) -> dict:
    from straingrid.config import build_model
    from straingrid.replicator import setup_from_model
    from straingrid.validate import default_tau_horizon

    P, N = workload.P, workload.N
    r = rng.uniform(0.5, 1.5, P)
    gamma = rng.uniform(0.5, 1.5, P)
    k = rng.uniform(0.5, 2.0, P)
    r0 = rng.uniform(1.5, 3.0, P)
    patches = [{"r": float(r[p]), "beta": float((r[p] + gamma[p]) * r0[p]),
                "gamma": float(gamma[p]), "k": float(k[p])} for p in range(P)]
    shapes = {"b": (P, N), "nu": (P, N), "c_pair": (P, N, N), "w": (P, N, N),
              "alpha": (P, N, N)}
    traits = {name: np.clip(rng.normal(size=shape), -2.0, 2.0)
              for name, shape in shapes.items()}
    if workload.connectivity == "ring":
        connectivity = {"matrix": _ring(rng, P).tolist()}
    else:
        connectivity = _volumes(rng, P)
    doc = {
        "patches": patches,
        "strains": {"N": N, **{name: a.tolist() for name, a in traits.items()}},
        "connectivity": connectivity,
        "scale": {"eps": 0.0, "d": float(rng.uniform(0.5, 1.5))},
        "init": {"seed": int(rng.integers(2**31))},
    }
    # The fitness matrices are linear in the deviations and the speeds do
    # not depend on them, so one scale factor sets the horizon exactly.
    # eps = 0 keeps every assembled rate admissible while measuring it.
    horizon = default_tau_horizon(setup_from_model(build_model(doc)))
    factor = horizon / workload.tau_horizon
    for name, a in traits.items():
        doc["strains"][name] = (a * factor).tolist()
    doc["scale"]["eps"] = 0.05
    if workload.t_end is not None:
        doc["integration"] = {"t_end": workload.t_end}
    return doc


def make_config(workload: Workload, seed: int, index: int = 0) -> dict:
    """Config document number `index` of a run with the given seed.

    Draws again, from the same stream, until `collect_issues` accepts the
    document (scaled deviations can push a rate out of range at eps =
    0.05), so every returned config is valid.
    """
    from straingrid.config import collect_issues

    rng = _rng(workload, seed, index)
    for _ in range(20):
        doc = _draw(workload, rng)
        if not collect_issues(doc):
            return doc
    raise ValueError(f"{workload.name}: no valid config for seed {seed}, index {index}")


def sweep_values(workload: Workload) -> list[float]:
    return [float(v) for v in np.linspace(0.0, 3.0, workload.sweep_values)]


def unit_argv(workload: Workload, config: Path, out: Path, jobs: int | None = None) -> list[str]:
    """Arguments of `straingrid` for one unit."""
    if workload.command == "compare":
        return ["compare", str(config), "--eps", COMPARE_EPS, "--out", str(out)]
    if workload.command == "simulate":
        return ["simulate", str(config), "--mode", "full", "--out", str(out)]
    values = ",".join(repr(v) for v in sweep_values(workload))
    return ["sweep", str(config), "--mode", "reduced", "--axis", "scale.d",
            "--values", values, "--jobs", str(jobs or workload.jobs), "--out", str(out)]


def write_configs(workload: Workload, seed: int, directory: Path) -> list[Path]:
    """Generate and write the run's configs; all pass `collect_issues`."""
    paths = []
    for index in range(workload.configs):
        path = directory / f"config_{index}.json"
        path.write_text(json.dumps(make_config(workload, seed, index)))
        paths.append(path)
    return paths
