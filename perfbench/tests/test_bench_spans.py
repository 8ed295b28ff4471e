"""Span recorder, self-time arithmetic and call-site hooks."""

import pytest

import spans
from spans import SpanRecorder, hooks, layer_metrics, self_times, unit_slices


def test_self_time_subtracts_children():
    #   unit [0, 10]
    #     fullsim.rhs [1, 4]
    #       ode.monitor [2, 3]
    #     cli.csv [5, 9]
    names = ["unit", "fullsim.rhs", "ode.monitor", "cli.csv"]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(names, starts, ends, parents) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    names = ["unit", "a", "b"]
    starts, ends, parents = [0.0, 1.0, 3.0], [10.0, 5.0, 7.0], [-1, 0, 0]
    assert self_times(names, starts, ends, parents)[0] == pytest.approx(4.0)


def test_layer_metrics_partition_the_unit():
    names = ["unit", "validate.study", "fullsim.rhs", "ode.integrate", "fullsim.rhs",
             "ode.sample", "cli.write"]
    starts = [0.0, 1.0, 1.5, 1.2, 3.0, 5.0, 8.0]
    ends = [10.0, 7.0, 2.5, 4.5, 4.0, 6.0, 9.0]
    parents = [-1, 0, 3, 1, 3, 1, 0]
    m = layer_metrics(names, starts, ends, parents, bytes_out=2_000_000)
    assert m["fullsim.rhs_s"] == pytest.approx(2.0)
    assert m["fullsim.rhs_us_per_call"] == pytest.approx(1e6)
    assert m["ode.self_s"] == pytest.approx(1.3)
    assert m["ode.rhs_evals"] == 2
    assert m["ode.self_us_per_eval"] == pytest.approx(0.65e6)
    assert m["ode.sample_s"] == pytest.approx(1.0)
    assert m["validate.self_s"] == pytest.approx(6.0 - 3.3 - 1.0)
    assert m["cli.out_mb_per_s"] == pytest.approx(2.0)
    assert m["trace.unattributed_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    parts = [v for k, v in m.items() if k.endswith("_s") and k != "cli.out_mb_per_s"]
    assert sum(parts) == pytest.approx(10.0)


def test_recorder_nests_and_slices_per_unit():
    rec = SpanRecorder()
    inner = rec.wrap("reduction.equilibrium", lambda x: x + 1)
    outer = rec.wrap("unit", lambda: inner(1) + inner(2))
    assert outer() == 5
    assert outer() == 5
    pieces = list(unit_slices(rec))
    assert len(pieces) == 2
    names, starts, ends, parents = pieces[1]
    assert names == ["unit", "reduction.equilibrium", "reduction.equilibrium"]
    assert parents == [-1, 0, 0]
    assert all(e >= s for s, e in zip(starts, ends))


def test_hooks_wrap_and_restore_and_report_missing(monkeypatch):
    import straingrid.fullsim as fullsim
    import straingrid.ode as ode
    import straingrid.validate as validate

    sites = spans.CALL_SITES + [("straingrid.validate", "no_such_function", "validate.x"),
                                ("straingrid.no_such_module", "f", "cli.x")]
    monkeypatch.setattr(spans, "CALL_SITES", sites)
    before = (validate.simulate_full, fullsim.integrate, ode.Trajectory.at)
    rec, missing = SpanRecorder(), []
    with hooks(rec, missing):
        assert validate.simulate_full is not before[0]
        assert fullsim.integrate is not before[1]
        traj = ode.integrate(lambda t, y: -y, [1.0], ode.IntegratorConfig(t_end=0.1))
        traj.at(0.05)
    assert (validate.simulate_full, fullsim.integrate, ode.Trajectory.at) == before
    assert missing == ["straingrid.validate.no_such_function", "straingrid.no_such_module.f"]
    assert rec.names == ["ode.sample"]


def test_integrate_hook_wraps_rhs_and_monitors():
    import straingrid.fullsim as fullsim

    rec, missing = SpanRecorder(), []
    cfg = fullsim.IntegratorConfig(t_end=0.1)
    with hooks(rec, missing):
        fullsim.integrate(lambda t, y: -y, [1.0], cfg, monitors=[lambda y: float(y[0])])
    assert rec.names[0] == "ode.integrate"
    assert {"fullsim.rhs", "ode.monitor"} == set(rec.names[1:])
    assert all(p == 0 for p in rec.parents[1:])
