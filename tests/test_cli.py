"""Command-line tool: exit codes, output files and determinism."""

import csv
import hashlib
import json
import os
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import straingrid.cli
import straingrid.connectivity
import straingrid.fullsim
import straingrid.ode
import straingrid.reduction
import straingrid.validate
from straingrid import FullModel
from straingrid.cli import main
from straingrid.errors import ConfigError
from straingrid.config import initial_frequencies

WORKED_DOC = {
    "patches": [
        {"r": 1.0, "beta": 4.0, "gamma": 1.0, "k": 1.0},
        {"r": 0.5, "beta": 2.0, "gamma": 0.5, "k": 2.0},
    ],
    "strains": {"N": 2, "b": [[1.0, 0.0], [0.5, -0.5]]},
    "connectivity": {"matrix": [[-1.0, 1.0], [1.0, -1.0]]},
    "scale": {"eps": 0.05, "d": 1.0},
    "init": {"z0": [[0.3, 0.7], [0.6, 0.4]]},
    "integration": {"t_end": 5.0},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, WORKED_DOC)
    assert main(["validate", cfg]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_subcritical_named(tmp_path, capsys):
    doc = json.loads(json.dumps(WORKED_DOC))
    doc["patches"][0]["beta"] = 2.0    # equals r + gamma
    cfg = write_config(tmp_path, doc)
    assert main(["validate", cfg]) == 1
    out = capsys.readouterr().out
    assert "patch 0" in out and "subcritical" in out


def test_validate_metzler_named(tmp_path, capsys):
    doc = json.loads(json.dumps(WORKED_DOC))
    doc["connectivity"]["matrix"] = [[0.0, -1.0], [1.0, 0.0]]
    cfg = write_config(tmp_path, doc)
    assert main(["validate", cfg]) == 1
    assert "Metzler" in capsys.readouterr().out


def test_parse_failure_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    assert main(["validate", str(path)]) == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/config.json"]) == 2


def test_equilibria_json(tmp_path, capsys):
    cfg = write_config(tmp_path, WORKED_DOC)
    assert main(["equilibria", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    first = doc["patches"][0]
    assert first["S_star"] == pytest.approx(0.5, abs=1e-14)
    assert first["phi"] == pytest.approx(12.0 / 7.0, rel=1e-14)
    assert doc["patches"][1]["D_star"] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_fitness_json(tmp_path, capsys):
    cfg = write_config(tmp_path, WORKED_DOC)
    assert main(["fitness", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["patches"][0]["Theta"] == pytest.approx(37.0 / 7.0, rel=1e-14)
    assert doc["migration_matrix"][0][1] == pytest.approx(22.0 / 21.0, rel=1e-14)
    assert doc["advection"][0][1] == pytest.approx(1.0 / 21.0, rel=1e-12)
    lam = np.array(doc["patches"][0]["Lambda"])
    assert np.all(np.diag(lam) == 0)


def test_simulate_reduced_neutral_constant(tmp_path, capsys):
    doc = json.loads(json.dumps(WORKED_DOC))
    doc["strains"] = {"N": 2}
    doc["init"] = {"z0": [[0.5, 0.5], [0.5, 0.5]]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--mode", "reduced", "--out", str(out)]) == 0
    with open(out / "trajectory_reduced.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(row["z_1"]) == 0.5 for row in rows)


@pytest.mark.parametrize("mode", ["reduced", "full"])
def test_simulate_writes_201_samples_per_patch(tmp_path, capsys, mode):
    """t_end = 57 once gave a near-duplicate last sample (202 rows per patch)."""
    cfg = write_config(tmp_path, with_section("integration", {"t_end": 57.0}))
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--mode", mode, "--out", str(out)]) == 0
    with open(out / f"trajectory_{mode}.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(WORKED_DOC["patches"]) * 201
    assert float(rows[-1][0]) == 57.0 and float(rows[-3][0]) < 57.0 - 0.25


# SHA-256 of the worked config's artifacts; changes to how states are
# stored and passed must leave them byte for byte as they are. The full
# runs' hashes move only with the order of the rhs's floating-point sums
# (the term table of small systems moved them once; see CHANGES.md).
GOLDEN_SHA256 = {
    "full": "1e37819b4d1825b6fd8ac88bf1c581f6c5ff829c3f6bf3e9933fe53fe53727cc",
    "reduced": "9a87ccd57e721708db705806c2fcb41103e153f827f178551971e31e34166101",
    "equilibria": "b8a718c7396344c9e826db211c508189a6b5de91492be08bdae438a32ee61a72",
    "fitness": "14084c2d26429b36e80a95cb54174e65f4431a09b55cc74f8318cc965f83eaff",
    "reduction_errors.csv": "69fa6d4ea6bd35328e58a9ec2c23d2d15ffce3eac5288b958b1ce23e704ed6f5",
    "reduction_report.json": "c13c8052c20a280232d626cf2e0620e08151c0a006deba3bf3f7f023e8d9d85a",
}


def test_worked_config_artifacts_are_golden(tmp_path, capsys):
    cfg = write_config(tmp_path, WORKED_DOC)
    got = {}
    for mode in ("full", "reduced"):
        out = tmp_path / mode
        assert main(["simulate", cfg, "--mode", mode, "--out", str(out)]) == 0
        got[mode] = (out / f"trajectory_{mode}.csv").read_bytes()
    out = tmp_path / "cmp"
    assert main(["compare", cfg, "--eps", "0.2,0.1,0.05", "--tau-end", "0.5",
                 "--out", str(out)]) == 0
    for name in ("reduction_errors.csv", "reduction_report.json"):
        got[name] = (out / name).read_bytes()
    capsys.readouterr()
    for command in ("equilibria", "fitness"):
        assert main([command, cfg]) == 0
        got[command] = capsys.readouterr().out.encode()
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == GOLDEN_SHA256


def test_simulate_full_single_strain_endemic(tmp_path, capsys):
    doc = {
        "patches": [{"r": 1.0, "beta": 4.0, "gamma": 1.0, "k": 1.0}],
        "strains": {"N": 1},
        "scale": {"eps": 0.0, "d": 0.0},
        "integration": {"t_end": 200.0},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--mode", "full", "--out", str(out)]) == 0
    with open(out / "trajectory_full.csv") as fh:
        rows = list(csv.DictReader(fh))
    last = rows[-1]
    assert float(last["S"]) == pytest.approx(0.5, abs=1e-6)
    assert float(last["I_1"]) == pytest.approx(0.25, abs=1e-6)
    assert float(last["D_11"]) == pytest.approx(0.25, abs=1e-6)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "straingrid"
    assert "trajectory_full.csv" in manifest["outputs"]


def test_simulate_env_var_out_root(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, WORKED_DOC)
    root = tmp_path / "envout"
    monkeypatch.setenv("STRAINGRID_OUT", str(root))
    assert main(["simulate", cfg, "--mode", "reduced"]) == 0
    assert (root / "trajectory_reduced.csv").exists()


def test_compare_requires_three_eps(tmp_path, capsys):
    cfg = write_config(tmp_path, WORKED_DOC)
    assert main(["compare", cfg, "--eps", "0.1,0.05",
                 "--out", str(tmp_path / "cmp")]) == 2


def test_compare_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, WORKED_DOC)
    out = tmp_path / "cmp"
    assert main(["compare", cfg, "--eps", "0.08,0.04,0.02",
                 "--tau-end", "3.0", "--out", str(out)]) == 0
    report = json.loads((out / "reduction_report.json").read_text())
    assert report["fitted_order"] is not None
    assert 0.7 < report["fitted_order"] < 1.3
    assert (out / "reduction_errors.csv").exists()
    svg = (out / "reduction_loglog.svg").read_text()
    assert svg.startswith("<svg")


def test_loglog_svg_labels_only_a_finite_order():
    """A NaN fitted order (degenerate study) draws the points without the
    order label."""
    eps, errors = (0.1, 0.05, 0.025), (1e-9, 1e-9, 1e-9)
    assert "fitted order 1.000" in straingrid.cli._loglog_svg(eps, errors, 1.0)
    assert "fitted order" not in straingrid.cli._loglog_svg(eps, errors, float("nan"))


@pytest.mark.parametrize("tau_end", ["0", "-1"])
def test_compare_rejects_an_empty_tau_window(tmp_path, capsys, tau_end):
    cfg = write_config(tmp_path, WORKED_DOC)
    out = tmp_path / "cmp"
    assert main(["compare", cfg, "--eps", "0.2,0.1,0.05", f"--tau-end={tau_end}",
                 "--out", str(out)]) == 1
    assert "invalid tau window" in capsys.readouterr().err
    assert not (out / "reduction_report.json").exists()


@pytest.mark.parametrize("eps", ["0.2,0.1,0", "inf,0.1,0.05", "8,6,5"])
def test_compare_checks_every_eps_before_the_first_run(tmp_path, capsys, monkeypatch, eps):
    """A nonpositive or infinite eps, or one whose strain rates are
    inadmissible (patch 1's beta + eps * b is negative at each of 8, 6, 5),
    fails before either system runs."""
    runs = []
    for name in ("simulate_full", "simulate_replicator"):
        monkeypatch.setattr(straingrid.validate, name, lambda *args, **kwargs: runs.append(args))
    cfg = write_config(tmp_path, WORKED_DOC)
    out = tmp_path / "cmp"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", cfg, "--eps", eps, "--tau-end", "0.5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: assembled strain rates leave the admissible range; "
                          "reduce eps" if eps == "8,6,5" else
                          "error: eps values must be finite and positive")
    assert "Warning" not in err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("threshold, code, err", [
    (1.008, 1, "error: no strain mass left in patch 1\n"),
    (1.001, 0, ""),
], ids=["window-sample", "only-before-the-window"])
def test_compare_names_the_patch_of_the_windows_least_strain_mass(tmp_path, capsys, monkeypatch,
                                                                   threshold, code, err):
    """A patch total u_p below the extinction threshold in the window stops
    compare with exit 1, naming the patch of the window's least total: at
    eps 0.08 that is patch 1 (1.0053), although patch 0 holds the least
    total (1.0076) of the window's first sample and every sample before
    the window starts at total 1. Samples before the window raise
    nothing."""
    monkeypatch.setattr(straingrid.fullsim, "EXTINCTION_THRESHOLD", threshold)
    cfg = write_config(tmp_path, with_section("init", {"z0": [[0.1, 0.9], [0.9, 0.1]]}))
    out = tmp_path / "cmp"
    assert main(["compare", cfg, "--eps", "0.08,0.04,0.02", "--tau-end", "3.0",
                 "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert (out / "reduction_report.json").exists() == (code == 0)


@pytest.mark.parametrize("budget", [14, 3 * 42, None], ids=["one-row", "few-rows", "default"])
def test_an_extinct_sample_in_a_block_names_the_same_patch(tmp_path, capsys, monkeypatch,
                                                           budget):
    """The window-sample compare of
    test_compare_names_the_patch_of_the_windows_least_strain_mass stops
    with exit 1 naming patch 1 whether its three full runs (14 values a
    state) are folded in blocks of one sample, of three or of the default
    97: a block that holds an extinct sample is folded one sample at a
    time."""
    if budget is not None:
        monkeypatch.setattr(straingrid.ode, "BATCH_VALUES", budget)
    monkeypatch.setattr(straingrid.fullsim, "EXTINCTION_THRESHOLD", 1.008)
    cfg = write_config(tmp_path, with_section("init", {"z0": [[0.1, 0.9], [0.9, 0.1]]}))
    assert main(["compare", cfg, "--eps", "0.08,0.04,0.02", "--tau-end", "3.0",
                 "--out", str(tmp_path / "cmp")]) == 1
    assert capsys.readouterr().err == "error: no strain mass left in patch 1\n"


def random_doc(P, N, seed):
    """A valid (P, N) config on a ring, with trait deviations in [-1, 1]
    and rates admissible for eps <= 0.2."""
    rng = np.random.default_rng(seed)
    patches = []
    for _ in range(P):
        r, gamma = rng.uniform(0.5, 1.5, size=2)
        patches.append({"r": r, "beta": (r + gamma) * rng.uniform(2.0, 3.0), "gamma": gamma,
                        "k": rng.uniform(0.5, 2.0)})
    ring = np.roll(np.eye(P), 1, axis=1) + np.roll(np.eye(P), -1, axis=1) - 2 * np.eye(P)

    def dev(*shape):
        return rng.uniform(-1.0, 1.0, size=(P, *shape)).tolist()
    return {"patches": patches,
            "strains": {"N": N, "b": dev(N), "nu": dev(N), "c_pair": dev(N, N), "w": dev(N, N),
                        "alpha": dev(N, N)},
            "connectivity": {"matrix": ring.tolist()},
            "scale": {"eps": 0.05, "d": 1.0},
            "init": {"seed": seed}}


def test_compare_working_set_is_the_integrations(tmp_path, capsys, monkeypatch):
    """Each full run of a 12x12 compare, run alone, keeps 2 values per
    sample, and the command's traced peak stays below 1 MB (0.72 MB
    measured): holding the document through the study, a P(1+N)-wide
    table per run and a window's (samples, P, N) gap arrays take it to
    1.24 MB."""
    monkeypatch.setattr(straingrid.fullsim, "BATCH_VALUES", 1)
    tables = []
    run = straingrid.validate.simulate_full

    def recorded(*args, **kwargs):
        trajs = run(*args, **kwargs)
        tables.extend(traj.states.shape for traj in trajs)
        return trajs
    monkeypatch.setattr(straingrid.validate, "simulate_full", recorded)
    cfg = write_config(tmp_path, random_doc(12, 12, seed=5))
    argv = ["compare", cfg, "--eps", "0.2,0.1,0.05", "--tau-end", "0.5",
            "--out", str(tmp_path / "cmp")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables == [(201, 2)] * 3
    assert peak < 1e6


def test_sweep_with_failing_row(tmp_path, capsys):
    doc = json.loads(json.dumps(WORKED_DOC))
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    # d is harmless; sweep eps instead so one value breaks admissibility
    code = main(["sweep", cfg, "--axis", "scale.d", "--values", "0.0,0.5,1.0",
                 "--mode", "reduced", "--out", str(out)])
    assert code == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(row["status"] == "ok" for row in rows)


def test_sweep_records_failures(tmp_path, capsys):
    doc = json.loads(json.dumps(WORKED_DOC))
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    # beta = 2.0 makes patch 0 subcritical: that row fails, the other runs
    code = main(["sweep", cfg, "--axis", "patches.0.beta",
                 "--values", "4.0,2.0", "--mode", "reduced", "--out", str(out)])
    assert code == 1
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "failed"
    assert "subcritical" in rows[1]["detail"]


def test_sweep_parallelism_invariant(tmp_path, capsys):
    cfg = write_config(tmp_path, WORKED_DOC)
    out1, out4 = tmp_path / "s1", tmp_path / "s4"
    assert main(["sweep", cfg, "--axis", "scale.d", "--values", "0.0,0.5,1.0",
                 "--jobs", "1", "--mode", "reduced", "--out", str(out1)]) == 0
    assert main(["sweep", cfg, "--axis", "scale.d", "--values", "0.0,0.5,1.0",
                 "--jobs", "4", "--mode", "reduced", "--out", str(out4)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out4 / "sweep.csv").read_bytes()
    for run in ("run_000", "run_001", "run_002"):
        a = (out1 / run / "trajectory_reduced.csv").read_bytes()
        b = (out4 / run / "trajectory_reduced.csv").read_bytes()
        assert a == b


class InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs, cpus, workers", [(5000, 8, 3), (5000, 2, 2), (2, 8, 2),
                                                 (5000, 1, None)])
def test_sweep_caps_workers(tmp_path, capsys, monkeypatch, jobs, cpus, workers):
    monkeypatch.setattr(straingrid.cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = write_config(tmp_path, WORKED_DOC)
    assert main(["sweep", cfg, "--axis", "scale.d", "--values", "0.0,0.5,1.0",
                 "--jobs", str(jobs), "--out", str(tmp_path / "s")]) == 0
    assert InlinePool.sizes == ([] if workers is None else [workers])


@pytest.mark.parametrize("options, message", [
    pytest.param(["--values", "0.0,0.5", "--jobs=0"], "--jobs: must be at least 1", id="0"),
    pytest.param(["--values", "0.0,0.5", "--jobs=-3"], "--jobs: must be at least 1", id="-3"),
    pytest.param(["--values="], "--values: expected at least one number", id="no-value"),
    pytest.param(["--values", ","], "--values: expected at least one number", id="only-a-comma"),
    pytest.param(["--values", "0.5,x"], "--values: could not convert string to float: 'x'",
                 id="not-a-number"),
    pytest.param(["--values", "0.0,0.5", "--jobs", "1.5"],
                 "--jobs: invalid literal for int() with base 10: '1.5'", id="fractional-jobs"),
])
def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys, monkeypatch, options, message):
    """Too few jobs, or no value to sweep, is a usage error before any work."""
    monkeypatch.setattr(straingrid.cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(InlinePool, "sizes", [])
    cfg = write_config(tmp_path, WORKED_DOC)
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", cfg, "--axis", "scale.d", *options, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert InlinePool.sizes == []
    assert not out.exists()


def test_compare_rejects_an_eps_that_is_not_a_number(tmp_path, capsys):
    cfg = write_config(tmp_path, WORKED_DOC)
    out = tmp_path / "cmp"
    with pytest.raises(SystemExit) as exc:
        main(["compare", cfg, "--eps", "0.1,x,0.05", "--out", str(out)])
    assert exc.value.code == 2
    assert "--eps: could not convert string to float: 'x'" in capsys.readouterr().err
    assert not out.exists()


def with_section(section, value):
    """WORKED_DOC with one section replaced."""
    doc = json.loads(json.dumps(WORKED_DOC))
    doc[section] = value
    return doc


def test_off_simplex_z0_rejected_by_validate_and_reduced_run(tmp_path, capsys):
    cfg = write_config(tmp_path, with_section("init", {"z0": [[2.0, -1.0], [0.5, 0.5]]}))
    assert main(["validate", cfg]) == 1
    assert "off the simplex" in capsys.readouterr().out
    for mode in ("reduced", "full"):
        out = tmp_path / mode
        assert main(["simulate", cfg, "--mode", mode, "--out", str(out)]) == 1
        assert "off the simplex" in capsys.readouterr().err
        assert not (out / f"trajectory_{mode}.csv").exists()


@pytest.mark.parametrize("where, section, value", [
    pytest.param(where, where.split(".")[0], value, id=where)
    for where, value in [
        ("strains.N", {"N": "abc"}),
        ("strains.b", {"N": 2, "b": [["x", 0.0], [0.5, -0.5]]}),
        ("init.seed", {"seed": "abc"}),
        ("integration.t_end", {"t_end": "abc"}),
    ]])
def test_wrong_value_types_are_itemized_issues(tmp_path, capsys, where, section, value):
    cfg = write_config(tmp_path, with_section(section, value))
    assert main(["validate", cfg]) == 1
    out = capsys.readouterr().out
    assert "INVALID: 1 issue(s)" in out and where in out
    assert main(["simulate", cfg, "--mode", "reduced",
                 "--out", str(tmp_path / "out")]) == 1
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
def test_non_finite_t_end_is_an_issue(tmp_path, capsys, t_end):
    cfg = write_config(tmp_path, with_section("integration", {"t_end": t_end}))
    assert main(["validate", cfg]) == 1
    assert "must be finite" in capsys.readouterr().out
    assert main(["simulate", cfg, "--mode", "reduced",
                 "--out", str(tmp_path / "out")]) == 1
    assert "must be finite" in capsys.readouterr().err


def with_value(dotted, value):
    """WORKED_DOC with the value at a dotted path replaced."""
    return straingrid.cli._set_path(WORKED_DOC, dotted, value)


@pytest.mark.parametrize("dotted, value, where", [
    ("patches.0.beta", float("inf"), "patch 0: rates must be finite"),
    ("patches.1.k", float("inf"), "patch 1: rates must be finite"),
    ("patches.0.gamma", float("nan"), "patch 0: rates must be finite"),
    ("scale.d", float("inf"), "d must be finite"),
    ("scale.eps", float("inf"), "eps must be finite"),
    ("scale.eps", float("nan"), "eps must be finite"),
])
def test_non_finite_rates_and_scales_are_issues(tmp_path, capsys, dotted, value, where):
    cfg = write_config(tmp_path, with_value(dotted, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", cfg]) == 1
        out = capsys.readouterr().out
        assert "INVALID: 1 issue(s)" in out and where in out
        assert main(["equilibria", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert where in captured.err and "Warning" not in captured.err


@pytest.mark.parametrize("section, value, message", [
    ("strains", {"N": 2.7, "b": [[1.0, 0.0], [0.5, -0.5]]}, "strains.N must be an integer, got 2.7"),
    ("strains", {"N": True}, "strains.N must be a number, got True"),
    ("init", {"seed": 1.5}, "init.seed must be an integer, got 1.5"),
    ("init", {"seed": True}, "init.seed must be a number, got True"),
], ids=["N-2.7", "N-true", "seed-1.5", "seed-true"])
def test_non_integral_integer_settings_are_issues(tmp_path, capsys, section, value, message):
    cfg = write_config(tmp_path, with_section(section, value))
    assert main(["validate", cfg]) == 1
    out = capsys.readouterr().out
    assert "INVALID: 1 issue(s)" in out and f"  - {message}\n" in out
    assert main(["simulate", cfg, "--mode", "reduced", "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_integral_floats_are_integer_settings(tmp_path, capsys):
    doc = with_section("init", {"seed": 3.0})
    doc["strains"]["N"] = 2.0
    assert main(["validate", write_config(tmp_path, doc)]) == 0
    assert np.array_equal(initial_frequencies(doc, 2, 2),
                          initial_frequencies(with_section("init", {"seed": 3}), 2, 2))


def test_unknown_keys_are_itemized_issues(tmp_path, capsys):
    doc = json.loads(json.dumps(WORKED_DOC))
    doc["scenario"] = 1
    doc["patches"][1]["bta"] = 4.0
    for section, key in (("strains", "NN"), ("scale", "dd"), ("init", "sed"),
                         ("connectivity", "matrx")):
        doc[section][key] = 1
    cfg = write_config(tmp_path, doc)
    assert main(["validate", cfg]) == 1
    out = capsys.readouterr().out
    assert "INVALID: 6 issue(s)" in out
    for item in ("unknown top-level settings: ['scenario']",
                 "patch 1: unknown patch settings: ['bta']",
                 "unknown strains settings: ['NN']", "unknown scale settings: ['dd']",
                 "unknown init settings: ['sed']", "unknown connectivity settings: ['matrx']"):
        assert f"  - {item}\n" in out
    assert main(["equilibria", cfg]) == 1
    assert "unknown top-level settings" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["scale.dd", ""])
def test_sweep_over_an_unknown_key_fails_every_row(tmp_path, capsys, axis):
    cfg = write_config(tmp_path, WORKED_DOC)
    out = tmp_path / "sweep"
    assert main(["sweep", cfg, "--axis", axis, "--values", "0.5,2.5", "--out", str(out)]) == 1
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["failed", "failed"]
    assert all(row["detail"].startswith("unknown ") for row in rows)


@pytest.mark.parametrize("argv", [
    ["simulate", "--mode", "reduced"],
    ["compare", "--eps", "0.08,0.04,0.02", "--tau-end", "0.5"],
    ["sweep", "--axis", "scale.d", "--values", "0.5"],
], ids=lambda argv: argv[0])
def test_unusable_output_path_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    """The path is rejected before any run starts."""
    runs = []
    monkeypatch.setattr(straingrid.validate, "simulate_full",
                        lambda *args, **kwargs: runs.append(args))
    cfg = write_config(tmp_path, WORKED_DOC)
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for out in (blocker, blocker / "below"):
        assert main([argv[0], cfg, *argv[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    monkeypatch.setenv("STRAINGRID_OUT", str(blocker))
    assert main([argv[0], cfg, *argv[1:]]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert blocker.read_text() == "kept"
    assert runs == []


def test_oversized_strain_count_is_an_issue(tmp_path, capsys):
    """N = 1e10 is reported against the trait budget before any array
    is allocated, by validate and by a sweep row alike."""
    cfg = write_config(tmp_path, {"patches": [{"r": 1.0, "beta": 4.0, "gamma": 1.0, "k": 1.0}],
                                  "strains": {"N": 10_000_000_000}})
    out = tmp_path / "sweep"
    tracemalloc.start()
    try:
        assert main(["validate", cfg]) == 1
        assert main(["sweep", write_config(tmp_path, WORKED_DOC, "worked.json"),
                     "--axis", "strains.N", "--values", "1e10", "--out", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "exceed the budget of 16777216" in capsys.readouterr().out
    with open(out / "sweep.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "failed"
    assert "P*N^2 = 200000000000000000000 values per trait array" in row["detail"]


def test_step_budget_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(straingrid.ode, "MAX_STEPS", 5)
    tiny_steps = write_config(tmp_path, with_section(
        "integration", {"t_end": 5.0, "max_step": 1e-12, "initial_step": 1e-12}), "tiny.json")
    assert main(["validate", tiny_steps]) == 0
    capsys.readouterr()
    for cfg, mode in ((tiny_steps, "reduced"), (write_config(tmp_path, WORKED_DOC), "full")):
        out = tmp_path / mode
        assert main(["simulate", cfg, "--mode", mode, "--out", str(out)]) == 1
        assert "budget of 5 steps" in capsys.readouterr().err
        assert not (out / f"trajectory_{mode}.csv").exists()


def test_overflowing_error_estimate_exits_1(tmp_path, capsys):
    """At rel_tol = abs_tol = 1e-300 the error norm of finite stages
    overflows: both systems stop on that, with no numpy warning."""
    cfg = write_config(tmp_path, with_section(
        "integration", {"t_end": 5.0, "rel_tol": 1e-300, "abs_tol": 1e-300}))
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    for mode in ("reduced", "full"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", cfg, "--mode", mode, "--out", str(tmp_path / mode)]) == 1
        assert not caught
        assert capsys.readouterr().err == (
            "error: error estimate overflowed at t=0.0: rel_tol=1e-300 and abs_tol=1e-300 "
            "are too small\n")


@pytest.mark.parametrize("dotted", ["patches.0.k", "patches.0.beta", "strains.b.0.1", "scale.d"])
def test_huge_rates_fail_at_t0_without_a_numpy_warning(tmp_path, capsys, dotted):
    """validate accepts 1e300 in a rate or a scale; the runs of simulate
    --mode full and compare then turn non-finite at t=0, which exits 1
    with the typed message and no numpy warning."""
    cfg = write_config(tmp_path, with_value(dotted, 1e300))
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    for argv in (["simulate", cfg, "--mode", "full", "--out", str(tmp_path / "sim")],
                 ["compare", cfg, "--eps", "0.05,0.025,0.0125", "--tau-end", "1",
                  "--out", str(tmp_path / "cmp")]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert not caught
        err = capsys.readouterr().err
        assert err == "error: non-finite right-hand side at t=0.0\n" and "Warning" not in err


def test_first_step_below_the_underflow_floor_runs(tmp_path, capsys):
    """At t_end = 1e11 the floor 1e-14 t_end lies above the default first
    step of 1e-4; only a step shrunk after a rejection is held to it."""
    cfg = write_config(tmp_path, {"patches": [{"r": 1, "beta": 4, "gamma": 1, "k": 1}],
                                  "integration": {"t_end": 1e11}})
    assert main(["validate", cfg]) == 0
    for mode in ("reduced", "full"):
        out = tmp_path / mode
        assert main(["simulate", cfg, "--mode", mode, "--out", str(out)]) == 0
        with open(out / f"trajectory_{mode}.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 201
        assert float(rows[-1][0]) == 1e11


def test_step_size_underflow_names_the_floor_set_by_t_end(tmp_path, capsys):
    """At t_end = 1e300 the step floor 1e-14 t_end is 1e286, which the
    reduced run's steps meet after a rejection: the error says so."""
    cfg = write_config(tmp_path, with_section("integration", {"t_end": 1e300}))
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    assert main(["simulate", cfg, "--mode", "reduced", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step size underflow at t=")
    assert err.endswith(" is below the floor 1e-14 * t_end = 1e+286\n")


def test_sample_table_budget_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, with_section(
        "integration", {"t_end": 1e300, "monitor_period": 1e-300}))
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    for mode in ("reduced", "full"):
        assert main(["simulate", cfg, "--mode", mode, "--out", str(tmp_path / mode)]) == 1
        assert "exceed the budget" in capsys.readouterr().err


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"name": "Zürich"}'.encode("latin-1"))
    assert main(["validate", str(tmp_path)]) == 2
    assert main(["validate", str(latin1)]) == 2


def test_unknown_integration_keys_share_one_exit_code(tmp_path, capsys):
    codes = set()
    for key in ("parse_me", "t_end_typo"):
        cfg = write_config(tmp_path, with_section("integration", {key: 1}))
        assert main(["validate", cfg]) == 1
        assert "unknown integration settings" in capsys.readouterr().out
        codes.add(main(["simulate", cfg, "--mode", "reduced",
                        "--out", str(tmp_path / key)]))
    assert codes == {1}


def count_calls(monkeypatch, counts, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


@pytest.fixture
def call_counts(monkeypatch):
    counts = Counter()
    for name in ("neutral_equilibrium", "left_eigenvector", "fitness_structure",
                 "migration_matrix"):
        count_calls(monkeypatch, counts, straingrid.reduction, name)
    count_calls(monkeypatch, counts, straingrid.cli, "build_model")
    count_calls(monkeypatch, counts, straingrid.connectivity, "validate_connectivity")
    for name in ("init_on_manifold", "simulate_full", "simulate_replicator"):
        count_calls(monkeypatch, counts, straingrid.validate, name)
    count_calls(monkeypatch, counts, FullModel, "with_eps")
    return counts


def test_compare_builds_model_and_background_once(tmp_path, capsys, call_counts):
    cfg = write_config(tmp_path, WORKED_DOC)
    assert main(["compare", cfg, "--eps", "0.08,0.04,0.02", "--tau-end", "0.5",
                 "--out", str(tmp_path / "cmp")]) == 0
    # each closed form runs once over all patches, the replicator once per
    # study and the full system once per study: its three eps runs are one
    # ensemble, of eps models built once each
    assert call_counts == {"neutral_equilibrium": 1, "left_eigenvector": 1,
                           "fitness_structure": 1, "migration_matrix": 1,
                           "build_model": 1, "validate_connectivity": 1,
                           "init_on_manifold": 1, "simulate_replicator": 1,
                           "simulate_full": 1, "with_eps": 3}


def test_simulate_builds_model_once(tmp_path, capsys, call_counts):
    cfg = write_config(tmp_path, WORKED_DOC)
    assert main(["simulate", cfg, "--mode", "full",
                 "--out", str(tmp_path / "sim")]) == 0
    assert call_counts["build_model"] == 1
    assert call_counts["validate_connectivity"] == 1
    assert call_counts["neutral_equilibrium"] == 1


def test_rejected_simulate_leaves_no_directory(tmp_path, capsys):
    doc = with_value("patches.0.beta", 2.0)    # subcritical: equals r + gamma
    cfg = write_config(tmp_path, doc)
    assert main(["simulate", cfg, "--mode", "reduced",
                 "--out", str(tmp_path / "p5" / "out" / "deep")]) == 1
    assert "subcritical" in capsys.readouterr().err
    assert not (tmp_path / "p5").exists()


def test_validate_checks_the_integration_defaults(tmp_path, capsys):
    """The default monitor_period t_end / 200 underflows to 0 for the
    smallest t_end; validate reports what the run would."""
    cfg = write_config(tmp_path, {"patches": [{"r": 1, "beta": 4, "gamma": 1, "k": 1}],
                                  "integration": {"t_end": 5e-324}})
    assert main(["validate", cfg]) == 1
    assert "  - monitor_period must be positive\n" in capsys.readouterr().out
    assert main(["simulate", cfg, "--mode", "reduced", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: monitor_period must be positive\n"


def test_run_ends_on_a_t_end_its_last_step_rounds_short_of(tmp_path, capsys):
    doc = with_section("integration", {"t_end": 0.3669556192236367, "rel_tol": 1e-6})
    doc["strains"]["b"] = [[1e-3, 0.0], [0.5e-3, -0.5e-3]]
    doc["scale"]["d"] = 0.0
    cfg = write_config(tmp_path, doc)
    assert main(["validate", cfg]) == 0
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--mode", "reduced", "--out", str(out)]) == 0
    with open(out / "trajectory_reduced.csv") as fh:
        times = [float(row["tau"]) for row in csv.DictReader(fh)]
    assert len(times) == len(WORKED_DOC["patches"]) * 201
    assert times[-1] == 0.3669556192236367


@pytest.mark.parametrize("dotted", ["patches.2.beta", "patches.x.beta", "patches.0.beta.x",
                                    "strains.b.0.5", "strains.N.0"],
                         ids=["index-out-of-range", "non-integer-index", "through-a-scalar",
                              "last-index-out-of-range", "last-through-a-scalar"])
def test_set_path_rejects_paths_to_no_scalar(dotted):
    with pytest.raises(ConfigError, match=f"axis path '{dotted}' does not address a scalar"):
        with_value(dotted, 1.0)


def test_set_path_copies_only_the_path():
    """The document is left as it was; the new one copies the dicts and
    lists on the path, makes a missing key, and shares everything else."""
    before = json.dumps(WORKED_DOC)
    doc = straingrid.cli._set_path(WORKED_DOC, "patches.1.k", 2.5)
    new = straingrid.cli._set_path(doc, "extra.x", 3)
    assert json.dumps(WORKED_DOC) == before
    assert doc["patches"][1]["k"] == 2.5 and new["extra"] == {"x": 3}
    assert doc["patches"] is not WORKED_DOC["patches"]
    assert doc["patches"][1] is not WORKED_DOC["patches"][1]
    assert doc["patches"][0] is WORKED_DOC["patches"][0]
    assert doc["strains"] is WORKED_DOC["strains"] and new["patches"] is doc["patches"]
    assert "extra" not in doc


def test_sweep_of_a_deeply_nested_document_exits_typed(tmp_path, capsys, monkeypatch):
    """A value nested 600 lists deep, under an unknown key, fails every
    sweep row with the issue that validate reports, not a RecursionError,
    in process and in a pool of two workers, which are sent the document
    as text because pickle would recurse through it."""
    nested = 1.0
    for _ in range(600):
        nested = [nested]
    cfg = write_config(tmp_path, {**WORKED_DOC, "extra": nested})
    assert main(["validate", cfg]) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for jobs in ("1", "2"):
        out = tmp_path / f"sweep_{jobs}"
        assert main(["sweep", cfg, "--axis", "scale.d", "--values", "1,2", "--jobs", jobs,
                     "--out", str(out)]) == 1
        assert "Traceback" not in "".join(capsys.readouterr())
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["failed", "failed"]
        assert {row["detail"] for row in rows} == {"unknown top-level settings: ['extra']"}


def test_pool_sweep_of_the_deepest_parsed_document_exits_typed(tmp_path, capsys, monkeypatch):
    """A forked pool worker runs deeper in the stack than the parent that
    parsed the document, so it must not parse the document again: at the
    deepest nesting load_config accepts here, both rows of a two-worker
    sweep still fail with the issue that validate reports."""
    path = tmp_path / "config.json"
    head = json.dumps(WORKED_DOC)[:-1] + ', "extra": '

    def parses(depth):
        path.write_text(head + "[" * depth + "1" + "]" * depth + "}")
        return main(["validate", str(path)]) == 1
    low, high = 1, 5000                  # parses(low), not parses(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if parses(mid) else (low, mid)
    assert parses(low)
    capsys.readouterr()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--axis", "scale.d", "--values", "1,2", "--jobs", "2",
                 "--out", str(out)]) == 1
    assert "Traceback" not in "".join(capsys.readouterr())
    with open(out / "sweep.csv") as fh:
        assert {(row["status"], row["detail"]) for row in csv.DictReader(fh)} == {
            ("failed", "unknown top-level settings: ['extra']")}
