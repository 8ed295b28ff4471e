"""Correctness gate for one unit's artifacts.

Every check returns a list of problems (empty means the unit passed).
Tolerances sit at the scale of the solver's accuracy, not at byte
equality, so a change that reorders floating-point work still passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import deque
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

# compare: reduction errors and fitted order against the reference. The
# interpolated sampling of the integrator moves the errors by up to a
# few 1e-7, so these leave room for an exact dense output.
ERROR_ATOL = 2e-6
ORDER_ATOL = 5e-3
# At eps = 0.05 some configs are still pre-asymptotic: over 160 random
# 3x3 configs the fitted order ranged from 0.64 to 1.10.
ORDER_BAND = (0.5, 1.5)
# simulate: the mass defect and final-row tolerances follow from the
# default rel_tol = 1e-8, abs_tol = 1e-10 of the CLI.
MASS_DEFECT_MAX = 1e-6
FINAL_ATOL = 1e-7
# sweep: rows of the reduced trajectories lie on the simplex.
SIMPLEX_TOL = 1e-6
# Samples per trajectory: the CLI samples [0, t_end] in 200 intervals.
N_SAMPLES = 201


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every artifact except the manifests, which record wall
    time and so differ between reruns."""
    return {str(p.relative_to(out)): sha256(p)
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def compare_summary(out: Path) -> dict:
    report = json.loads((out / "reduction_report.json").read_text())
    return {"errors": report["errors"], "fitted_order": report["fitted_order"]}


def check_compare(out: Path, reference: dict | None) -> list[str]:
    summary = compare_summary(out)
    errors, order = summary["errors"], summary["fitted_order"]
    problems = []
    if not all(math.isfinite(e) and e > 0 for e in errors):
        problems.append(f"reduction errors not finite and positive: {errors}")
    elif not all(b < a for a, b in zip(errors, errors[1:])):
        problems.append(f"reduction errors do not shrink with eps: {errors}")
    if order is None or not ORDER_BAND[0] <= order <= ORDER_BAND[1]:
        problems.append(f"fitted order {order} outside {ORDER_BAND}")
    if reference is not None and not problems:
        ref_err = reference["errors"]
        if len(ref_err) != len(errors) or any(
                abs(a - b) > ERROR_ATOL for a, b in zip(errors, ref_err)):
            problems.append(f"reduction errors {errors} differ from reference {ref_err}")
        if abs(order - reference["fitted_order"]) > ORDER_ATOL:
            problems.append(f"fitted order {order} differs from reference "
                            f"{reference['fitted_order']}")
    return problems


def full_header(N: int) -> list[str]:
    return (["t", "patch", "S"] + [f"I_{i}" for i in range(1, N + 1)]
            + [f"D_{i}{j}" for i in range(1, N + 1) for j in range(1, N + 1)]
            + ["mass_defect"])


def final_summary(rows: np.ndarray, N: int) -> dict:
    """Final-time block of a full trajectory reduced to S, I and both
    marginals of D, per patch."""
    P = rows.shape[0]
    D = rows[:, 3 + N:3 + N + N * N].reshape(P, N, N)
    return {"S": rows[:, 2].tolist(), "I": rows[:, 3:3 + N].tolist(),
            "D_first": D.sum(axis=2).tolist(), "D_second": D.sum(axis=1).tolist()}


def read_full_csv(path: Path, P: int, N: int):
    """(header, row count, max mass defect, final block as floats)."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        count = 0
        worst = 0.0
        tail: deque[str] = deque(maxlen=P)
        for line in fh:
            count += 1
            worst = max(worst, abs(float(line[line.rindex(",") + 1:])))
            tail.append(line)
    final = np.array([[float(v) for v in line.split(",")] for line in tail])
    return header, count, worst, final


def check_simulate(out: Path, P: int, N: int, reference: dict | None) -> list[str]:
    header, count, worst, final = read_full_csv(out / "trajectory_full.csv", P, N)
    problems = []
    if header != full_header(N):
        problems.append("trajectory_full.csv header is wrong")
    if count != P * N_SAMPLES:
        problems.append(f"trajectory_full.csv has {count} rows, expected {P * N_SAMPLES}")
    if not worst <= MASS_DEFECT_MAX:
        problems.append(f"mass defect {worst} exceeds {MASS_DEFECT_MAX}")
    if final.shape != (P, len(full_header(N))):
        problems.append("final block has the wrong shape")
    elif reference is not None:
        got = final_summary(final, N)
        for key, ref in reference.items():
            gap = float(np.max(np.abs(np.asarray(got[key]) - np.asarray(ref))))
            if not gap <= FINAL_ATOL:
                problems.append(f"final {key} differs from reference by {gap}")
    return problems


def check_sweep(out: Path, values: list[float], P: int, N: int) -> list[str]:
    with open(out / "sweep.csv") as fh:
        rows = list(csv.reader(fh))
    problems = []
    if rows[0] != ["scale.d", "status", "detail"] or len(rows) != len(values) + 1:
        return ["sweep.csv has the wrong header or row count"]
    for idx, (row, value) in enumerate(zip(rows[1:], values)):
        if float(row[0]) != value or row[1] != "ok":
            problems.append(f"sweep task {idx}: {row}")
            continue
        data = np.loadtxt(out / f"run_{idx:03d}" / "trajectory_reduced.csv",
                          delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (P * N_SAMPLES, 3 + N):
            problems.append(f"sweep task {idx}: trajectory shape {data.shape}")
            continue
        z = data[:, 2:2 + N]
        defect = float(np.max(np.abs(z.sum(axis=1) - 1.0)))
        if not (defect <= SIMPLEX_TOL and z.min() >= -SIMPLEX_TOL):
            problems.append(f"sweep task {idx}: rows leave the simplex "
                            f"(defect {defect}, min {z.min()})")
    return problems
