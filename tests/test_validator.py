"""Empirical reduction checks: error metric, convergence study and the
neutral-limit product structure."""

import numpy as np
import pytest

from straingrid import (ConfigError, ConnectivityMatrix, FullModel,
                        ReductionReport, ScaleParams, StrainPerturbations,
                        convergence_study, default_tau_horizon,
                        init_on_manifold, neutral_limit_check,
                        reduction_error, setup_from_model)


def generic_pert():
    return StrainPerturbations(
        b=np.array([[1.0, 0.0], [0.5, -0.5]]),
        nu=np.array([[0.0, 0.5], [0.2, 0.0]]),
        c_pair=np.array([[[0.0, 0.3], [0.1, 0.0]], [[0.2, 0.0], [0.0, 0.4]]]),
        w=np.array([[[0.0, 0.2], [-0.2, 0.0]], [[0.0, -0.1], [0.1, 0.0]]]),
        alpha=np.array([[[0.0, 0.1], [0.2, 0.0]], [[0.1, 0.0], [0.0, 0.2]]]))


def two_patch_model(worked_patch, second_patch, conn, d=1.0):
    return FullModel(patches=(worked_patch, second_patch), pert=generic_pert(),
                     scale=ScaleParams(eps=0.05, d=d), connectivity=conn)


def test_neutral_config_error_at_tolerance(worked_patch):
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
    model = FullModel(patches=(worked_patch,),
                      pert=StrainPerturbations.zeros(1, 2),
                      scale=ScaleParams(eps=0.05, d=0.0), connectivity=conn)
    z0 = np.array([[0.3, 0.7]])
    err, agg = reduction_error(model, z0, eps=0.05, tau_window=(0.1, 1.0))
    assert err < 1e-8
    assert agg < 1e-8


def test_single_patch_error_decreases_with_eps(worked_patch):
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
    pert = StrainPerturbations(
        b=np.array([[1.0, 0.0]]), nu=np.zeros((1, 2)),
        c_pair=np.zeros((1, 2, 2)), w=np.zeros((1, 2, 2)),
        alpha=np.zeros((1, 2, 2)))
    model = FullModel(patches=(worked_patch,), pert=pert,
                      scale=ScaleParams(eps=0.1, d=0.0), connectivity=conn)
    z0 = np.array([[0.3, 0.7]])
    window = (0.3, 3.0)
    errs = [reduction_error(model, z0, eps, window)[0] for eps in (0.1, 0.05)]
    assert errs[1] < errs[0]
    assert 0.3 < errs[1] / errs[0] < 0.7


def test_reduction_error_input_guards(worked_patch):
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
    model = FullModel(patches=(worked_patch,),
                      pert=StrainPerturbations.zeros(1, 2),
                      scale=ScaleParams(eps=0.05, d=0.0), connectivity=conn)
    z0 = np.array([[0.3, 0.7]])
    with pytest.raises(ConfigError):
        reduction_error(model, z0, eps=0.0, tau_window=(0.1, 1.0))
    with pytest.raises(ConfigError):
        reduction_error(model, z0, eps=0.05, tau_window=(1.0, 0.5))


def test_error_monotone_under_window_shrink(worked_patch, second_patch,
                                            two_patch_conn):
    model = two_patch_model(worked_patch, second_patch, two_patch_conn)
    z0 = np.array([[0.3, 0.7], [0.6, 0.4]])
    wide = reduction_error(model, z0, 0.05, (0.2, 4.0))
    narrow = reduction_error(model, z0, 0.05, (1.0, 4.0))
    assert narrow[0] <= wide[0] + 1e-15
    assert narrow[1] <= wide[1] + 1e-15


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
    model = FullModel(patches=(worked_patch,),
                      pert=StrainPerturbations.zeros(1, 2),
                      scale=ScaleParams(eps=0.05, d=0.0), connectivity=conn)
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


def test_default_tau_horizon(worked_patch, second_patch, two_patch_conn):
    model = two_patch_model(worked_patch, second_patch, two_patch_conn)
    setup = setup_from_model(model)
    T = default_tau_horizon(setup)
    expected = 10.0 / (float(np.max(setup.Theta))
                       * float(np.max(np.abs(setup.Lambdas))))
    assert T == pytest.approx(expected)
    neutral = setup_from_model(FullModel(
        patches=(worked_patch,), pert=StrainPerturbations.zeros(1, 2),
        scale=ScaleParams(eps=0.05, d=0.0),
        connectivity=ConnectivityMatrix(entries=np.zeros((1, 1)))))
    assert default_tau_horizon(neutral) == 1.0


def test_neutral_limit_manifold_start(worked_patch):
    conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
    model = FullModel(patches=(worked_patch,),
                      pert=StrainPerturbations.zeros(1, 3),
                      scale=ScaleParams(eps=0.0, d=0.0), connectivity=conn)
    z0 = np.array([[0.2, 0.3, 0.5]])
    y0 = init_on_manifold(z0, model.background)
    residual = neutral_limit_check(model, y0, t_end=50.0)
    assert residual < 1e-8


def test_report_ratio_helpers():
    report = ReductionReport(eps_values=(0.1, 0.05), errors=(0.4, 0.2),
                             fitted_order=1.0, tau_window=(0.1, 1.0),
                             aggregate_deviations=(0.8, 0.4))
    assert report.error_ratios() == [pytest.approx(0.5)]
    assert report.aggregate_ratios() == [pytest.approx(0.5)]
