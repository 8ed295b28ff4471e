"""Acceptance suite: the ten headline checks of the package.

Each test prints a single pass/fail line (visible with pytest -s or in
captured output) and enforces the stated tolerances and runtime budgets.
Run with: pytest tests/test_acceptance.py -v -s
"""

import contextlib
import json
import time
from fractions import Fraction

import numpy as np

from straingrid import (ConnectivityMatrix, FullModel, IntegratorConfig,
                        PatchParams, ReplicatorSetup,
                        ScaleParams, StrainPerturbations, convergence_study,
                        drift_matrix, fitness_structure, full_state,
                        init_on_manifold, left_eigenvector,
                        migration_matrix, neutral_equilibrium,
                        patch_rates, reduction_error,
                        renormalize_to_density, rhs_replicator, simulate_full,
                        simulate_replicator, speed_and_weights,
                        validate_connectivity, volume_matrix)
from straingrid.cli import main as cli_main

from conftest import random_supercritical_patch
from oracles import neutral_limit_check, rhs_replicator_advection


@contextlib.contextmanager
def criterion(num, name):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS "
          f"({time.perf_counter() - start:.2f}s)")


WORKED = PatchParams(r=1.0, beta=4.0, gamma=1.0, k=1.0)
SECOND = PatchParams(r=0.5, beta=2.0, gamma=0.5, k=2.0)
TWO_PATCH = ConnectivityMatrix(entries=np.array([[-1.0, 1.0], [1.0, -1.0]]))


def generic_two_strain_pert():
    return StrainPerturbations(
        b=np.array([[1.0, 0.0], [0.5, -0.5]]),
        nu=np.array([[0.0, 0.5], [0.2, 0.0]]),
        c_pair=np.array([[[0.0, 0.3], [0.1, 0.0]], [[0.2, 0.0], [0.0, 0.4]]]),
        w=np.array([[[0.0, 0.2], [-0.2, 0.0]], [[0.0, -0.1], [0.1, 0.0]]]),
        alpha=np.array([[[0.0, 0.1], [0.2, 0.0]], [[0.1, 0.0], [0.0, 0.2]]]))


def test_criterion_01_closed_form_reduction_objects():
    with criterion(1, "closed-form reduction objects on 100 random patches"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(100):
            rates = patch_rates([random_supercritical_patch(rng)])
            eq = S, I, D, _ = neutral_equilibrium(rates)
            A = drift_matrix(rates, eq)[0]
            om = np.concatenate(left_eigenvector(eq))
            X = np.concatenate([I, D])
            _, theta = speed_and_weights(rates, eq)
            pert = StrainPerturbations(
                b=rng.normal(size=(1, 3)), nu=rng.normal(size=(1, 3)),
                c_pair=rng.normal(size=(1, 3, 3)), w=rng.normal(size=(1, 3, 3)),
                alpha=rng.normal(size=(1, 3, 3)))
            lam = fitness_structure(rates, eq, pert)[2][0]
            assert abs(S[0] + I[0] + D[0] - 1.0) < 1e-12
            assert abs(om @ X - 1.0) < 1e-12
            assert np.max(np.abs(A @ X)) < 1e-12
            assert np.max(np.abs(om @ A)) < 1e-12
            assert abs(theta[0].sum() - 1.0) < 1e-12
            assert np.max(np.abs(np.diag(lam))) < 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_02_worked_patch_constants():
    with criterion(2, "worked-patch constants vs rational substitution oracle"):
        r, gamma, beta, k = map(Fraction, (1, 1, 4, 1))
        S = (r + gamma) / beta
        T = 1 - S
        I = beta * T * S / (r + gamma + k * beta * T)
        D = k * beta * T * I / (r + gamma)
        P = 2 * T * T - I * D
        phi, psi = (T + I) / P, 2 * T / P
        Th = [2 * (r + gamma) * T * T / P, gamma * I * (I + T) / P,
              gamma * T * D / P, 2 * (r + gamma) * T * D / P,
              beta * I * T / P]
        assert (float(S), float(I), float(D)) == (0.5, 0.25, 0.25)
        assert (phi, psi) == (Fraction(12, 7), Fraction(16, 7))
        assert sum(Th) == Fraction(37, 7)

        rates = patch_rates([WORKED])
        eq = S_star, I_star, D_star, _ = neutral_equilibrium(rates)
        phi_star, psi_star = left_eigenvector(eq)
        Theta, theta = speed_and_weights(rates, eq)
        assert abs(S_star[0] - 0.5) < 1e-14
        assert abs(I_star[0] - 0.25) < 1e-14
        assert abs(D_star[0] - 0.25) < 1e-14
        assert abs(phi_star[0] - float(phi)) < 1e-14
        assert abs(psi_star[0] - float(psi)) < 1e-14
        assert abs(Theta[0] - 37.0 / 7.0) < 1e-14
        expected_theta = np.array([float(t / sum(Th)) for t in Th])
        assert np.allclose(expected_theta, np.array([16, 3, 2, 8, 8]) / 37.0,
                           atol=1e-16)
        assert np.max(np.abs(theta[0] - expected_theta)) < 1e-14


def test_criterion_03_connectivity_toolkit():
    with criterion(3, "volume matrices and density renormalization"):
        hand = volume_matrix(np.array([1.0, 2.0]),
                             np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(hand, np.array([[-2.0, 1.0], [2.0, -1.0]]))

        rng = np.random.default_rng(103)
        for _ in range(100):
            P = int(rng.integers(2, 7))
            V = rng.uniform(0.3, 4.0, size=P)
            x = np.triu(rng.uniform(0.0, 3.0, size=(P, P)), k=1)
            for i in range(P - 1):
                x[i, i + 1] = max(x[i, i + 1], 0.05)
            M = volume_matrix(V, x)
            scale = max(np.max(np.abs(M)), 1.0)
            assert np.max(np.abs(M.sum(axis=0))) < 1e-12 * scale
            assert np.max(np.abs(M @ V)) < 1e-12 * scale * np.max(V)
            Dhat = renormalize_to_density(M, V)
            assert np.max(np.abs(Dhat.sum(axis=1))) < 1e-12 * np.max(np.abs(Dhat))
            assert validate_connectivity(Dhat) == []


def test_criterion_04_mass_conservation():
    with criterion(4, "mass conservation over t in [0, 400]"):
        start = time.perf_counter()
        rng = np.random.default_rng(104)
        pert = StrainPerturbations(
            b=rng.normal(size=(2, 3)), nu=rng.normal(size=(2, 3)),
            c_pair=rng.normal(size=(2, 3, 3)), w=rng.normal(size=(2, 3, 3)) * 0.3,
            alpha=rng.normal(size=(2, 3, 3)))
        model = FullModel(patches=(WORKED, SECOND), pert=pert,
                          scale=ScaleParams(eps=0.05, d=1.0),
                          connectivity=TWO_PATCH)
        z0 = rng.dirichlet(np.ones(3), size=2)
        y0 = init_on_manifold(z0, model.background)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-10, t_end=400.0,
                               monitor_period=2.0)
        traj = simulate_full(model, y0, cfg)
        assert traj.monitor_max[0] < 1e-8
        assert time.perf_counter() - start < 30.0


def test_criterion_05_neutral_limit_product_structure():
    with criterion(5, "neutral-limit product structure at t = 200"):
        start = time.perf_counter()
        rng = np.random.default_rng(105)
        conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
        model = FullModel(patches=(WORKED,),
                          pert=StrainPerturbations.zeros(1, 3),
                          scale=ScaleParams(eps=0.0, d=0.0), connectivity=conn)
        # random interior start with unit mass and every strain present
        S = np.array([rng.uniform(0.2, 0.5)])
        I = rng.uniform(0.05, 0.3, size=(1, 3))
        D = rng.uniform(0.01, 0.1, size=(1, 3, 3))
        rest = (1.0 - S) / (I.sum() + D.sum())
        y0 = full_state(S, I * rest, D * rest)
        residual = neutral_limit_check(model, y0, t_end=200.0)
        assert residual < 1e-6
        assert time.perf_counter() - start < 10.0


def test_criterion_06_homogeneity_collapse():
    with criterion(6, "migration matrix collapse and hand overlap"):
        conn = ConnectivityMatrix(entries=np.array(
            [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]]))
        eq = neutral_equilibrium(patch_rates([WORKED] * 3))
        M, _ = migration_matrix(conn, eq, left_eigenvector(eq))
        assert np.max(np.abs(M - conn.entries)) < 1e-12

        eq = neutral_equilibrium(patch_rates([WORKED, SECOND]))
        M, _ = migration_matrix(TWO_PATCH, eq, left_eigenvector(eq))
        assert abs(M[0, 1] - 22.0 / 21.0) < 1e-14


def test_criterion_07_replicator_oracle():
    with criterion(7, "logistic closed form and rhs-form identity"):
        setup = ReplicatorSetup(Theta=np.array([2.0]),
                                Lambdas=np.array([[[0.0, 0.5], [-0.5, 0.0]]]),
                                migration=np.zeros((1, 1)), d=0.0)
        z0 = np.array([[0.1, 0.9]])
        # cap the step so the linear dense output resolves the sampled
        # sup-norm below the 1e-6 band
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=5.0,
                               monitor_period=0.1, max_step=5e-3,
                               initial_step=1e-4)
        traj = simulate_replicator(setup, z0, cfg)
        rate = 2.0 * 0.5
        exact = 0.1 * np.exp(rate * traj.times) \
            / (0.9 + 0.1 * np.exp(rate * traj.times))
        assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-6

        rng = np.random.default_rng(107)
        for _ in range(100):
            P, N = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            entries = rng.uniform(0.1, 1.0, size=(P, P))
            np.fill_diagonal(entries, 0.0)
            np.fill_diagonal(entries, -entries.sum(axis=1))
            conn = ConnectivityMatrix(entries=entries)
            overlap = rng.uniform(0.5, 1.5, size=(P, P))
            np.fill_diagonal(overlap, 1.0)   # self-overlap is exactly 1
            nu = overlap - 1.0
            np.fill_diagonal(nu, 0.0)
            M = entries * overlap
            np.fill_diagonal(M, 0.0)
            np.fill_diagonal(M, -M.sum(axis=1))
            Lambdas = rng.normal(size=(P, N, N))
            for p in range(P):
                np.fill_diagonal(Lambdas[p], 0.0)
            setup = ReplicatorSetup(
                Theta=rng.uniform(0.5, 3.0, size=P), Lambdas=Lambdas,
                migration=M,
                d=rng.uniform(0.1, 2.0))
            z = rng.dirichlet(np.ones(N), size=P)
            a = rhs_replicator(0.0, z.ravel(), setup).reshape(P, N)
            b = rhs_replicator_advection(z, setup, conn, nu)
            assert np.max(np.abs(a - b)) < 1e-13


def test_criterion_08_reduction_theorem():
    with criterion(8, "O(eps) reduction convergence, eps in {0.05, 0.025, 0.0125}"):
        start = time.perf_counter()
        model = FullModel(patches=(WORKED, SECOND),
                          pert=generic_two_strain_pert(),
                          scale=ScaleParams(eps=0.05, d=1.0),
                          connectivity=TWO_PATCH)
        z0 = np.array([[0.3, 0.7], [0.6, 0.4]])
        T = 8.75
        report = convergence_study(model, z0, [0.05, 0.025, 0.0125],
                                   (0.1 * T, T))
        for ratio in report.error_ratios():
            assert 0.35 < ratio < 0.7
        assert 0.7 < report.fitted_order < 1.3
        agg = report.aggregate_deviations
        for a, b in zip(agg, agg[1:]):
            assert 0.35 < b / a < 0.75
        assert time.perf_counter() - start < 300.0


def test_criterion_09_decoupling():
    with criterion(9, "d = 0 reduction errors match per-patch runs"):
        pert = generic_two_strain_pert()
        model = FullModel(patches=(WORKED, SECOND), pert=pert,
                          scale=ScaleParams(eps=0.05, d=0.0),
                          connectivity=TWO_PATCH)
        z0 = np.array([[0.3, 0.7], [0.6, 0.4]])
        window = (0.3, 3.0)
        (joint,), _ = reduction_error(model, z0, [0.05], window)

        single_conn = ConnectivityMatrix(entries=np.zeros((1, 1)))
        per_patch = []
        for p, patch in enumerate(model.patches):
            slice_pert = StrainPerturbations(
                b=pert.b[p:p + 1], nu=pert.nu[p:p + 1],
                c_pair=pert.c_pair[p:p + 1], w=pert.w[p:p + 1],
                alpha=pert.alpha[p:p + 1])
            single = FullModel(patches=(patch,), pert=slice_pert,
                               scale=ScaleParams(eps=0.05, d=0.0),
                               connectivity=single_conn)
            per_patch.append(reduction_error(
                single, z0[p:p + 1], [0.05], window)[0][0])
        assert abs(joint - max(per_patch)) < 1e-9


def test_criterion_10_cli_determinism(tmp_path, capsys):
    with criterion(10, "byte-identical CLI reruns and parallel sweeps"):
        doc = {
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
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))

        def manifest_modulo_timing(path):
            data = json.loads(path.read_text())
            data.pop("wall_time_s")
            return data

        for mode in ("full", "reduced"):
            outs = []
            for run in ("a", "b"):
                out = tmp_path / f"sim_{mode}_{run}"
                assert cli_main(["simulate", str(cfg), "--mode", mode,
                                 "--out", str(out)]) == 0
                outs.append(out)
            name = f"trajectory_{mode}.csv"
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            assert manifest_modulo_timing(outs[0] / "manifest.json") \
                == manifest_modulo_timing(outs[1] / "manifest.json")

        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"cmp_{run}"
            assert cli_main(["compare", str(cfg), "--eps", "0.08,0.04,0.02",
                             "--tau-end", "3.0", "--out", str(out)]) == 0
            outs.append(out)
        for name in ("reduction_report.json", "reduction_errors.csv",
                     "reduction_loglog.svg"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

        sweeps = []
        for jobs in (1, 4):
            out = tmp_path / f"sweep_{jobs}"
            assert cli_main(["sweep", str(cfg), "--axis", "scale.d",
                             "--values", "0.0,0.5,1.0", "--jobs", str(jobs),
                             "--mode", "reduced", "--out", str(out)]) == 0
            sweeps.append(out)
        assert (sweeps[0] / "sweep.csv").read_bytes() \
            == (sweeps[1] / "sweep.csv").read_bytes()
        for run in ("run_000", "run_001", "run_002"):
            a = (sweeps[0] / run / "trajectory_reduced.csv").read_bytes()
            b = (sweeps[1] / run / "trajectory_reduced.csv").read_bytes()
            assert a == b
