"""Command-line interface.

Subcommands: validate, equilibria, fitness, simulate, compare, sweep.
All outputs are pure functions of (config, seed, command): trajectory
CSVs, report JSON/CSV and SVG plots are byte-identical across reruns
(the run manifest additionally records the wall time). Files are written
to temporary names and renamed on completion, so there are no partial
writes. The output root defaults to the current directory and can be
overridden with STRAINGRID_OUT; it is checked before any run and made
only when a command writes, so a rejected command leaves no directory.

Exit codes: 0 success, 1 domain/validation failure, 2 usage/parse failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .config import (FREQUENCY_GENERATOR, build_model, collect_issues,
                     config_hash, initial_frequencies, integrator_settings,
                     load_config)
from .errors import ConfigError, ConfigParseError, StrainGridError
from .fullsim import init_on_manifold, simulate_full
# Re-exported, not called here: perfbench/spans.py still hooks these names.
from .reduction import (drift_matrix as drift_matrix, fitness_structure as fitness_structure,
                        left_eigenvector as left_eigenvector, migration_matrix as migration_matrix,
                        neutral_equilibrium as neutral_equilibrium)
from .replicator import setup_from_model, simulate_replicator
from .validate import convergence_study, default_tau_horizon

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _fmt(x: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def _sig15(obj):
    """Round all floats in a JSON-ready structure to 15 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, list):
        return [_sig15(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _sig15(v) for k, v in obj.items()}
    return obj


def _atomic_write(path: Path, chunks):
    """Write the text chunks, in order, to a temporary name and rename it
    to path."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.writelines(chunks)
    os.replace(tmp, path)


def _out_root(arg) -> Path:
    """The output directory: arg, else STRAINGRID_OUT, else the current one.
    It is only checked here, not made: NotADirectoryError when it, or its
    nearest existing ancestor, is not a directory."""
    path = Path(arg or os.environ.get("STRAINGRID_OUT") or ".")
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"output path {path}: {existing} is not a directory")
    return path


def _manifest_fields(doc: dict) -> dict:
    """What the run manifest records of a valid config document: its hash,
    seed and frequency generator. A command takes them once the document
    is loaded and validated, so it need not hold the document while it
    runs."""
    init = doc.get("init", {})
    return {"config_hash": config_hash(doc), "seed": init.get("seed"),
            "frequency_generator": FREQUENCY_GENERATOR if "seed" in init else None}


def _write_manifest(outdir: Path, fields: dict, command: str, outputs: list[str],
                    wall_time: float):
    manifest = {
        "tool": "straingrid",
        "version": __version__,
        "command": command,
        **fields,
        "wall_time_s": round(wall_time, 3),
        "outputs": sorted(outputs),
    }
    _atomic_write(outdir / "manifest.json", [json.dumps(manifest, indent=2) + "\n"])


def _write_run(outdir: Path, files: dict, fields: dict, command: str, start: float):
    """Make outdir, write each {name: chunks} entry, then the manifest
    (with the _manifest_fields `fields`) listing exactly those names,
    with the wall time since start."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, chunks in files.items():
        _atomic_write(outdir / name, chunks)
    _write_manifest(outdir, fields, command, list(files), time.perf_counter() - start)


# ---------------------------------------------------------------- validate

def cmd_validate(args) -> int:
    doc = load_config(args.config)
    issues = collect_issues(doc)
    if issues:
        print(f"INVALID: {len(issues)} issue(s)")
        for item in issues:
            print(f"  - {item}")
        return EXIT_DOMAIN
    print("OK: configuration is valid")
    return EXIT_OK


# ------------------------------------------------------- equilibria/fitness

def cmd_equilibria(args) -> int:
    bg = build_model(load_config(args.config)).background
    out = [{"patch": idx,
            "S_star": bg.S_star[idx], "I_star": bg.I_star[idx],
            "D_star": bg.D_star[idx], "T_star": bg.T_star[idx],
            "phi": bg.phi[idx], "psi": bg.psi[idx],
            "drift_matrix": bg.drift[idx].tolist()}
           for idx in range(len(bg.S_star))]
    print(json.dumps(_sig15({"patches": out}), indent=2))
    return EXIT_OK


def cmd_fitness(args) -> int:
    bg = build_model(load_config(args.config)).background
    patches = [{"patch": idx, "Theta": bg.Theta[idx],
                "theta": bg.theta[idx].tolist(), "Lambda": bg.Lambdas[idx].tolist()}
               for idx in range(len(bg.Theta))]
    doc_out = {
        "patches": patches,
        "migration_matrix": bg.migration.tolist(),
        "advection": bg.advection.tolist(),
    }
    print(json.dumps(_sig15(doc_out), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------- simulate

def _csv(header: list[str], traj, P):
    """The lines of the CSV, one at a time: the header, then `time, patch,
    *row p of the state, monitor 0` per sample and patch, each number
    as _fmt writes it."""
    yield ",".join(header) + "\n"
    for t, y, diag in zip(traj.times.tolist(), traj.states, traj.diagnostics[:, 0].tolist()):
        t_txt, mon = repr(t), repr(diag)
        for p, row in enumerate(y.reshape(P, -1).tolist()):
            yield ",".join([t_txt, str(p), *map(repr, row), mon]) + "\n"


def _full_csv(traj, P, N):
    return _csv(["t", "patch", "S", *(f"I_{i + 1}" for i in range(N)),
                 *(f"D_{i + 1}{j + 1}" for i in range(N) for j in range(N)), "mass_defect"],
                traj, P)


def _reduced_csv(traj, P, N):
    return _csv(["tau", "patch", *(f"z_{i + 1}" for i in range(N)), "simplex_defect"], traj, P)


def run_simulation(doc: dict, mode: str, outdir: Path, command: str):
    """Shared by cmd_simulate and the sweep workers."""
    model = build_model(doc)
    P, N = model.n_patches, model.n_strains
    z0 = initial_frequencies(doc, P, N)
    fields = _manifest_fields(doc)
    start = time.perf_counter()
    cfg = integrator_settings(doc)
    if mode == "full":
        traj, = simulate_full([model], init_on_manifold(z0, model.background), [cfg])
        files = {"trajectory_full.csv": _full_csv(traj, P, N)}
    else:
        traj = simulate_replicator(setup_from_model(model), z0, cfg)
        files = {"trajectory_reduced.csv": _reduced_csv(traj, P, N)}
    _write_run(outdir, files, fields, command, start)


def cmd_simulate(args) -> int:
    doc = load_config(args.config)
    outdir = _out_root(args.out)
    run_simulation(doc, args.mode, outdir,
                   command=f"simulate --mode {args.mode}")
    print(f"wrote {outdir}")
    return EXIT_OK


# ----------------------------------------------------------------- compare

def _loglog_svg(eps_values, errors, slope) -> str:
    """Minimal hand-built log-log scatter with the fitted line."""
    width, height, margin = 480, 360, 50
    lx = [math.log10(e) for e in eps_values]
    ly = [math.log10(max(v, 1e-300)) for v in errors]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(v):
        return margin + (v - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">log10 eps</text>',
        f'<text x="14" y="{height / 2:.1f}" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.1f})" text-anchor="middle">log10 error</text>',
    ]
    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="4" fill="steelblue"/>')
    if math.isfinite(slope):
        parts.append(
            f'<text x="{width - margin}" y="{margin}" text-anchor="end" '
            f'font-size="12">fitted order {slope:.3f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_compare(args) -> int:
    doc = load_config(args.config)
    model = build_model(doc)
    eps_list = args.eps
    if len(eps_list) < 3:
        print("compare needs at least 3 eps values", file=sys.stderr)
        return EXIT_USAGE
    z0 = initial_frequencies(doc, model.n_patches, model.n_strains)
    fields = _manifest_fields(doc)
    del doc     # not held during the study: 2.8 MB of objects at P = N = 30
    T = args.tau_end if args.tau_end is not None else default_tau_horizon(setup_from_model(model))
    window = (0.1 * T, T)

    outdir = _out_root(args.out)
    start = time.perf_counter()
    report = convergence_study(model, z0, eps_list, window)

    lines = ["eps,error,aggregate_deviation"]
    for eps, err, agg in zip(report.eps_values, report.errors,
                             report.aggregate_deviations):
        lines.append(f"{_fmt(eps)},{_fmt(err)},{_fmt(agg)}")
    files = {
        "reduction_report.json": [json.dumps(report.as_dict(), indent=2) + "\n"],
        "reduction_errors.csv": ["\n".join(lines) + "\n"],
        "reduction_loglog.svg": [_loglog_svg(report.eps_values, report.errors,
                                             report.fitted_order)],
    }
    _write_run(outdir, files, fields, f"compare --eps {','.join(map(_fmt, eps_list))}", start)
    print(f"wrote {outdir}")
    return EXIT_OK


# ------------------------------------------------------------------- sweep

def _set_path(doc: dict, dotted: str, value: float) -> dict:
    """A copy of doc with a scalar assigned at a dotted config path;
    numeric segments index into arrays (e.g. patches.0.beta), and missing
    object keys are made. Only the dicts and lists on the path are
    copied: the rest, however deep, is shared with doc."""
    *keys, last = dotted.split(".")
    root = node = copy.copy(doc)
    try:
        for key in keys:
            key = int(key) if isinstance(node, list) else key
            child = copy.copy(node[key] if isinstance(node, list) else node.setdefault(key, {}))
            node[key] = child
            node = child
        node[int(last) if isinstance(node, list) else last] = value
    except (AttributeError, IndexError, TypeError, ValueError):
        raise ConfigError(f"axis path {dotted!r} does not address a scalar") from None
    return root


def _sweep_worker(task):
    doc, value, axis, mode, rundir = task
    doc = _set_path(doc, axis, value)
    try:
        run_simulation(doc, mode, Path(rundir), command=f"sweep {axis}={_fmt(value)}")
        return value, "ok", ""
    except StrainGridError as exc:
        return value, "failed", str(exc)


def cmd_sweep(args) -> int:
    doc = load_config(args.config)
    outdir = _out_root(args.out)
    values = args.values
    tasks = []
    for idx, value in enumerate(values):
        rundir = outdir / f"run_{idx:03d}"
        tasks.append((doc, value, args.axis, args.mode, str(rundir)))

    # The pool starts all its workers at the first submit: never more
    # than there are tasks or CPUs.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(t) for t in tasks]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([args.axis, "status", "detail"])
    any_failed = False
    for value, status, detail in results:
        any_failed |= status != "ok"
        writer.writerow([_fmt(value), status, detail])
    outdir.mkdir(parents=True, exist_ok=True)
    _atomic_write(outdir / "sweep.csv", [buf.getvalue()])
    print(f"wrote {outdir / 'sweep.csv'}")
    return EXIT_DOMAIN if any_failed else EXIT_OK


# ------------------------------------------------------------------ parser

def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="straingrid",
        description="Multi-strain co-colonization SIS metapopulation lab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a configuration document")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("equilibria", help="dump per-patch equilibria and eigenvectors")
    p.add_argument("config")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("fitness", help="dump speeds, fitness and migration matrices")
    p.add_argument("config")
    p.set_defaults(func=cmd_fitness)

    p = sub.add_parser("simulate", help="run the full or reduced dynamics")
    p.add_argument("config")
    p.add_argument("--mode", choices=("full", "reduced"), required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="eps-convergence study of the reduction")
    p.add_argument("config")
    p.add_argument("--eps", type=_float_list, required=True,
                   help="comma-separated decreasing eps values (>= 3)")
    p.add_argument("--tau-end", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="grid sweep over one scalar config path")
    p.add_argument("config")
    p.add_argument("--axis", required=True, help="dotted config path, e.g. scale.d")
    p.add_argument("--values", type=_float_list, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--mode", choices=("full", "reduced"), default="reduced")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StrainGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
