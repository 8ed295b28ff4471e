"""Empirical reduction checks: error metric, convergence study and the
neutral-limit product structure."""

import tracemalloc

import numpy as np
import pytest

import straingrid.fullsim
import straingrid.ode
import straingrid.validate
from straingrid import (ConfigError, ConnectivityMatrix, FullModel, IntegratorConfig,
                        ReductionReport, StrainGridError, StrainPerturbations,
                        convergence_study, default_tau_horizon,
                        extract_frequencies, init_on_manifold,
                        reduction_error, setup_from_model,
                        simulate_full, simulate_replicator)
from straingrid.fullsim import slow_observables
from straingrid.types import full_views
from straingrid.validate import VALIDATION_SAMPLES, _validation_cfg

from conftest import stacked
from oracles import neutral_limit_check

VALIDATION_ROWS = VALIDATION_SAMPLES + 1   # samples of one validation run


def generic_pert():
    return StrainPerturbations(
        b=np.array([[1.0, 0.0], [0.5, -0.5]]),
        nu=np.array([[0.0, 0.5], [0.2, 0.0]]),
        c_pair=np.array([[[0.0, 0.3], [0.1, 0.0]], [[0.2, 0.0], [0.0, 0.4]]]),
        w=np.array([[[0.0, 0.2], [-0.2, 0.0]], [[0.0, -0.1], [0.1, 0.0]]]),
        alpha=np.array([[[0.0, 0.1], [0.2, 0.0]], [[0.1, 0.0], [0.0, 0.2]]]))


def two_patch_model(worked_patch, second_patch, conn, d=1.0):
    return FullModel(*stacked(worked_patch, second_patch), pert=generic_pert(), eps=0.05,
                     d=d, connectivity=conn)


def test_neutral_config_error_at_tolerance(worked_patch):
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
    model = FullModel(*stacked(worked_patch),
                      pert=StrainPerturbations.zeros(1, 2),
                      eps=0.05, d=0.0, connectivity=conn)
    z0 = np.array([[0.3, 0.7]])
    (err,), (agg,) = reduction_error(model, z0, [0.05], tau_window=(0.1, 1.0))
    assert err < 1e-8
    assert agg < 1e-8


def test_single_patch_error_decreases_with_eps(worked_patch):
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
    pert = StrainPerturbations(
        b=np.array([[1.0, 0.0]]), nu=np.zeros((1, 2)),
        c_pair=np.zeros((1, 2, 2)), w=np.zeros((1, 2, 2)),
        alpha=np.zeros((1, 2, 2)))
    model = FullModel(*stacked(worked_patch), pert=pert,
                      eps=0.1, d=0.0, connectivity=conn)
    z0 = np.array([[0.3, 0.7]])
    window = (0.3, 3.0)
    errs, _ = reduction_error(model, z0, [0.1, 0.05], window)
    assert errs[1] < errs[0]
    assert 0.3 < errs[1] / errs[0] < 0.7


def test_reduction_error_input_guards(worked_patch):
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
    model = FullModel(*stacked(worked_patch),
                      pert=StrainPerturbations.zeros(1, 2),
                      eps=0.05, d=0.0, connectivity=conn)
    z0 = np.array([[0.3, 0.7]])
    for eps_values in ([0.05, 0.0], [np.inf, 0.05]):
        with pytest.raises(ConfigError, match="requires finite eps > 0"):
            reduction_error(model, z0, eps_values, tau_window=(0.1, 1.0))
    with pytest.raises(ConfigError):
        reduction_error(model, z0, [0.05], tau_window=(1.0, 0.5))


def test_error_monotone_under_window_shrink(worked_patch, second_patch,
                                            two_patch_conn):
    model = two_patch_model(worked_patch, second_patch, two_patch_conn)
    z0 = np.array([[0.3, 0.7], [0.6, 0.4]])
    wide = reduction_error(model, z0, [0.05], (0.2, 4.0))
    narrow = reduction_error(model, z0, [0.05], (1.0, 4.0))
    assert narrow[0][0] <= wide[0][0] + 1e-15
    assert narrow[1][0] <= wide[1][0] + 1e-15


def random_model(P, N, seed):
    """A (P, N) model whose rates stay admissible for eps <= 0.2, and a z0."""
    rng = np.random.default_rng(seed)
    patches = []
    for _ in range(P):
        r, gamma = rng.uniform(0.5, 1.5, size=2)
        patches.append((r, (r + gamma) * rng.uniform(1.5, 3.0), gamma, rng.uniform(0.5, 2.0)))

    def dev(*shape):
        return rng.uniform(-1.0, 1.0, size=(P, *shape))
    pert = StrainPerturbations(b=dev(N), nu=dev(N), c_pair=dev(N, N), w=dev(N, N),
                               alpha=dev(N, N))
    conn = ConnectivityMatrix(entries=np.ones((P, P)) - P * np.eye(P))
    z0 = rng.uniform(0.5, 1.0, size=(P, N))
    model = FullModel(*stacked(*patches), pert=pert, eps=0.05, d=1.0, connectivity=conn)
    return model, z0 / z0.sum(axis=1, keepdims=True)


def full_state_reduction_error(model, z0, eps, tau_window):
    """reduction_error computed from the full states of the full run."""
    tau0, T = tau_window
    model = model.with_eps(eps)
    P, N = model.n_patches, model.n_strains
    bg = model.background
    full, = simulate_full([model], init_on_manifold(z0, bg), [_validation_cfg(T / eps)])
    red = simulate_replicator(setup_from_model(model), z0, _validation_cfg(T))
    first = int(np.searchsorted(red.times, tau0))
    y = full.states[first:]
    assert y.shape[1] == P * (1 + N + N * N)
    err = np.max(np.abs(extract_frequencies(y, bg) - red.states[first:].reshape(-1, P, N)))
    agg = np.max(np.abs(full_views(y, P, N)[0] - bg.S_star))
    return float(err), float(agg)


@pytest.mark.parametrize("P, N", [(2, 2), (10, 10)])
def test_reduction_error_equals_the_full_state_reference(monkeypatch, P, N):
    """The folded run gives the full-state result bit for bit, from a
    table of 2 columns."""
    model, z0 = random_model(P, N, seed=P)
    tables = []

    def recorded(*args, **kwargs):
        trajs = simulate_full(*args, **kwargs)
        tables.extend(traj.states for traj in trajs)
        return trajs
    monkeypatch.setattr(straingrid.validate, "simulate_full", recorded)
    errors, aggs = reduction_error(model, z0, [0.1, 0.05], (0.1, 1.0))
    assert list(zip(errors, aggs)) == \
        [full_state_reduction_error(model, z0, eps, (0.1, 1.0)) for eps in (0.1, 0.05)]
    assert [t.shape for t in tables] == [(VALIDATION_ROWS, 2)] * 2


def test_sample_budget_counts_the_observed_width(monkeypatch):
    """A budget between the observed and the full-state table sizes lets
    reduction_error run and stops a full-state run before it steps."""
    P, N, eps, T = 2, 2, 0.1, 1.0
    model, z0 = random_model(P, N, seed=3)
    rows = VALIDATION_ROWS + 1          # the check's (t_end / period + 2) rows
    monkeypatch.setattr(straingrid.ode, "MAX_SAMPLE_VALUES",
                        rows * P * (1 + N) + rows * P * N * N // 2)
    reduction_error(model, z0, [eps], (0.1, T))
    model = model.with_eps(eps)
    with pytest.raises(ConfigError, match="exceed the budget"):
        simulate_full([model], init_on_manifold(z0, model.background),
                      [_validation_cfg(T / eps)])


def test_reduction_error_does_not_hold_the_full_state_table():
    """The traced peak of one 10x10 call stays below the 201 x dim table
    the full states would take."""
    P = N = 10
    model, z0 = random_model(P, N, seed=11)
    model.background
    tracemalloc.start()
    try:
        reduction_error(model, z0, [0.1], (0.1, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < VALIDATION_ROWS * P * (1 + N + N * N) * 8


def test_convergence_study_report(worked_patch, second_patch, two_patch_conn):
    model = two_patch_model(worked_patch, second_patch, two_patch_conn)
    z0 = np.array([[0.3, 0.7], [0.6, 0.4]])
    report = convergence_study(model, z0, [0.08, 0.04, 0.02], (0.4, 4.0))
    assert report.slope_applicable
    assert 0.7 < report.fitted_order < 1.3
    for ratio in report.error_ratios():
        assert 0.35 < ratio < 0.7
    d = report.as_dict()
    assert d["eps_values"] == [0.08, 0.04, 0.02]
    assert len(d["errors"]) == 3


def test_convergence_study_degenerate_neutral(worked_patch):
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
    model = FullModel(*stacked(worked_patch),
                      pert=StrainPerturbations.zeros(1, 2),
                      eps=0.05, d=0.0, connectivity=conn)
    z0 = np.array([[0.3, 0.7]])
    report = convergence_study(model, z0, [0.08, 0.04, 0.02], (0.1, 1.0))
    assert not report.slope_applicable
    assert report.as_dict()["fitted_order"] is None


def test_convergence_study_input_validation(worked_patch, second_patch,
                                            two_patch_conn):
    model = two_patch_model(worked_patch, second_patch, two_patch_conn)
    z0 = np.array([[0.3, 0.7], [0.6, 0.4]])
    with pytest.raises(ConfigError):
        convergence_study(model, z0, [0.1, 0.05], (0.1, 1.0))
    with pytest.raises(ConfigError):
        convergence_study(model, z0, [0.05, 0.1, 0.2], (0.1, 1.0))


# Patch 1's transmission beta + eps * b is negative at each of these eps.
INADMISSIBLE_EPS = [8.0, 6.0, 5.0]


@pytest.mark.parametrize("eps_list", [[0.2, 0.1, 0.0], [0.2, 0.1, -0.1],
                                      [np.inf, 0.1, 0.05], [np.nan, 0.1, 0.05],
                                      INADMISSIBLE_EPS])
def test_convergence_study_checks_every_eps_first(worked_patch, second_patch,
                                                  two_patch_conn, monkeypatch,
                                                  eps_list):
    runs = []
    for name in ("simulate_full", "simulate_replicator"):
        monkeypatch.setattr(straingrid.validate, name, lambda *args, **kwargs: runs.append(args))
    model = two_patch_model(worked_patch, second_patch, two_patch_conn)
    message = ("^assembled strain rates leave the admissible range; reduce eps$"
               if eps_list is INADMISSIBLE_EPS else "finite and positive")
    with pytest.raises(ConfigError, match=message):
        convergence_study(model, np.array([[0.3, 0.7], [0.6, 0.4]]), eps_list, (0.1, 1.0))
    assert runs == []


def test_default_tau_horizon(worked_patch, second_patch, two_patch_conn):
    model = two_patch_model(worked_patch, second_patch, two_patch_conn)
    setup = setup_from_model(model)
    T = default_tau_horizon(setup)
    expected = 10.0 / (float(np.max(setup.Theta))
                       * float(np.max(np.abs(setup.Lambdas))))
    assert T == pytest.approx(expected)
    neutral = setup_from_model(FullModel(
        *stacked(worked_patch), pert=StrainPerturbations.zeros(1, 2), eps=0.05, d=0.0,
        connectivity=ConnectivityMatrix(entries=np.zeros((1, 1)))))
    assert default_tau_horizon(neutral) == 1.0


def test_neutral_limit_manifold_start(worked_patch):
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
    model = FullModel(*stacked(worked_patch),
                      pert=StrainPerturbations.zeros(1, 3),
                      eps=0.0, d=0.0, connectivity=conn)
    z0 = np.array([[0.2, 0.3, 0.5]])
    y0 = init_on_manifold(z0, model.background)
    residual = neutral_limit_check(model, y0, t_end=50.0)
    assert residual < 1e-8


def test_report_ratio_helpers():
    report = ReductionReport(eps_values=(0.1, 0.05), errors=(0.4, 0.2),
                             fitted_order=1.0, tau_window=(0.1, 1.0),
                             aggregate_deviations=(0.8, 0.4))
    assert report.error_ratios() == [pytest.approx(0.5)]
    agg = report.aggregate_deviations
    assert agg[1] / agg[0] == pytest.approx(0.5)


def test_reduction_error_rejects_runs_of_unequal_length(monkeypatch, worked_patch):
    """A reduced run on another sampling grid is an error, not a
    misaligned gap."""
    run = straingrid.validate.simulate_replicator
    monkeypatch.setattr(straingrid.validate, "simulate_replicator",
                        lambda setup, z0, cfg: run(setup, z0, IntegratorConfig(
                            t_end=cfg.t_end, monitor_period=cfg.t_end / 100)))
    model = FullModel(*stacked(worked_patch), pert=StrainPerturbations.zeros(1, 2),
                      eps=0.05, d=0.0, connectivity=ConnectivityMatrix(entries=np.zeros((1, 1))))
    with pytest.raises(StrainGridError, match="full and reduced runs have 201 and 101 samples"):
        reduction_error(model, np.array([[0.3, 0.7]]), [0.05], tau_window=(0.1, 1.0))


# ------------------------------------------------------------------ ensembles

def worked_model(worked_patch, second_patch, two_patch_conn):
    return two_patch_model(worked_patch, second_patch, two_patch_conn), \
        np.array([[0.3, 0.7], [0.6, 0.4]])


@pytest.mark.parametrize("case", ["worked", "random-3x3"])
@pytest.mark.parametrize("observed", [False, True], ids=["states", "observed"])
def test_ensemble_members_equal_their_runs_alone(worked_patch, second_patch, two_patch_conn,
                                                 case, observed, monkeypatch):
    """simulate_full of three eps runs gives each run's trajectory bit for
    bit, on the worked model and on a random 3x3 model with d > 0. Both
    are small enough to run on the term table: rhs_full is never called."""
    def unused(*args, **kwargs):
        raise AssertionError("rhs_full called below the term table's gate")
    monkeypatch.setattr(straingrid.fullsim, "rhs_full", unused)
    model, z0 = (worked_model(worked_patch, second_patch, two_patch_conn) if case == "worked"
                 else random_model(3, 3, seed=7))
    assert model.d > 0
    bg = model.background
    y0 = init_on_manifold(z0, bg)
    observe = (lambda i, y: slow_observables(y, bg)) if observed else None
    models = [model.with_eps(eps) for eps in (0.08, 0.04, 0.02)]
    cfgs = [_validation_cfg(0.5 / m.eps) for m in models]
    ensemble = simulate_full(models, y0, cfgs, observe=observe)
    for m, cfg, traj in zip(models, cfgs, ensemble):
        solo, = simulate_full([m], y0, [cfg], observe=observe)
        for name in ("times", "states", "diagnostics", "monitor_max"):
            assert np.array_equal(getattr(traj, name), getattr(solo, name)), name


def test_long_eps_list_is_split_by_the_budget(worked_patch, second_patch, two_patch_conn,
                                              monkeypatch):
    """Ten eps values run as one ensemble, in groups of four under a budget
    of four states, or one at a time, and give the same errors."""
    model, z0 = worked_model(worked_patch, second_patch, two_patch_conn)
    eps_list = list(np.geomspace(0.2, 0.05, 10))
    groups = []

    def recorded(models, *args, **kwargs):
        groups.append([m.eps for m in models])
        return simulate_full(models, *args, **kwargs)
    monkeypatch.setattr(straingrid.validate, "simulate_full", recorded)
    dim = init_on_manifold(z0, model.background).size
    default = straingrid.validate.BATCH_VALUES
    results = {}
    for budget in (default, 4 * dim, 1):
        monkeypatch.setattr(straingrid.validate, "BATCH_VALUES", budget)
        groups.clear()
        results[budget] = convergence_study(model, z0, eps_list, (0.1, 0.5)).as_dict()
        assert sum(groups, []) == eps_list
        results[budget, "sizes"] = [len(g) for g in groups]
    assert results[default, "sizes"] == [10]
    assert results[4 * dim, "sizes"] == [4, 4, 2]
    assert results[1, "sizes"] == [1] * 10
    assert results[default] == results[4 * dim] == results[1]
