"""The seeded generator: valid, reproducible configs at the set horizon."""

import json

import pytest

import run  # noqa: F401  (pins the BLAS threads before numpy loads)
from straingrid.cli import main as cli_main
from straingrid.config import build_model, collect_issues
from straingrid.replicator import setup_from_model
from straingrid.validate import default_tau_horizon
from workloads import WORKLOADS, make_config, write_configs

SEEDS = (0, 1, 7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_configs_are_valid_at_the_set_horizon(name, seed):
    w = WORKLOADS[name]
    doc = make_config(w, seed, index=w.configs - 1)
    assert collect_issues(doc) == []
    model = build_model(doc)
    assert (model.n_patches, model.n_strains) == (w.P, w.N)
    horizon = default_tau_horizon(setup_from_model(model))
    assert horizon == pytest.approx(w.tau_horizon, rel=1e-9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_config_and_seeds_differ(name):
    w = WORKLOADS[name]
    assert make_config(w, 3) == make_config(w, 3)
    assert make_config(w, 3) != make_config(w, 4)
    assert make_config(w, 3, index=0) != make_config(w, 3, index=1)


def test_volume_connectivity_for_the_sweep():
    conn = make_config(WORKLOADS["sweep-reduced"], 0)["connectivity"]
    assert set(conn) == {"volumes", "weights"}


def test_written_configs_pass_straingrid_validate(tmp_path, capsys):
    w = WORKLOADS["converge-small"]
    paths = write_configs(w, 5, tmp_path)
    assert len(paths) == w.configs
    for path in paths:
        assert cli_main(["validate", str(path)]) == 0
        assert json.loads(path.read_text())["scale"]["eps"] == 0.05
    assert capsys.readouterr().out.count("OK") == w.configs
