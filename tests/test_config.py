"""Configuration documents: parsing, hashing, validation reports and
reproducible initial frequencies."""

import json
import tracemalloc

import numpy as np
import pytest

from straingrid import ConfigError, ConfigParseError, FullModel
from straingrid.config import (_read, build_connectivity, build_model, collect_issues,
                               config_hash, initial_frequencies,
                               integrator_settings, load_config)
from straingrid.ode import IntegratorConfig
from straingrid.validate import reduction_error

from oracles import one_shot_config_hash
from test_cli import WORKED_DOC, random_doc


def base_doc():
    return {
        "patches": [
            {"r": 1.0, "beta": 4.0, "gamma": 1.0, "k": 1.0},
            {"r": 0.5, "beta": 2.0, "gamma": 0.5, "k": 2.0},
        ],
        "strains": {"N": 2, "b": [[1.0, 0.0], [0.5, -0.5]]},
        "connectivity": {"matrix": [[-1.0, 1.0], [1.0, -1.0]]},
        "scale": {"eps": 0.05, "d": 1.0},
        "init": {"z0": [[0.3, 0.7], [0.6, 0.4]]},
    }


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_config_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigParseError):
        load_config(str(path))


def test_load_config_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(path))


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, '{"a": ' + "1" * 5000 + "}"],
                         ids=["deep-nesting", "long-integer"])
def test_load_config_undecodable_json_is_a_parse_error(tmp_path, text):
    """JSON that the decoder gives up on, past its recursion depth or
    Python's digit limit for an integer, is a parse error too."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ConfigParseError):
        load_config(str(path))


def test_config_hash_stable_under_key_order():
    doc = base_doc()
    reordered = dict(reversed(list(doc.items())))
    assert config_hash(doc) == config_hash(reordered)
    changed = base_doc()
    changed["scale"]["eps"] = 0.1
    assert config_hash(doc) != config_hash(changed)


EDGE_DOCS = [
    {"patches": [{"r": 1.0}], "é": {"ключ": [1, 2], "名前": "値", "\u2028": None}},
    {}, {"a": {}}, {"a": []}, {"a": [[]]}, {"a": [{}]}, {"a": [[], [[]], [{}]]},
    {"a": {"b": {"c": {}}, "d": [[[]]]}},
    {"x": [-0.0, 1e-300, 2**53 + 1, -(2**64), 10**30], "y": [[-0.0], [1e-300]],
     "z": [float("inf"), float("nan")], "w": -0.0},
    {"a": [[[{"b": 1}, {"c": [{"d": []}, {"e": -0.0}]}]], [[{"f": [[1.5]]}]]]},
    {"ragged": [1, [2, [3]], {"k": [4]}], "rows": [[1], [[2]], []], "t": True, "s": "x"},
]


@pytest.mark.parametrize("doc", [WORKED_DOC, *(random_doc(P, N, seed=P) for P, N in
                                               [(1, 1), (3, 3), (12, 5), (30, 30)]),
                                 *EDGE_DOCS])
def test_config_hash_equals_the_one_shot_hash(doc):
    assert config_hash(doc) == one_shot_config_hash(doc)


def test_config_hash_does_not_build_the_whole_text():
    """On a 30x30 document, whose canonical text is 1.6 MB, the hash
    allocates under 0.5 MB at its peak."""
    doc = random_doc(30, 30, seed=0)
    tracemalloc.start()
    try:
        config_hash(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e5


def test_build_model_roundtrip():
    model = build_model(base_doc())
    assert model.n_patches == 2 and model.n_strains == 2
    assert model.eps == 0.05
    assert model.pert.b[0, 0] == 1.0
    assert np.all(model.pert.nu == 0)    # omitted arrays default to zero


def test_built_model_holds_no_eps_level_arrays(monkeypatch):
    """build_model checks the assembled (P, N, N) rates without keeping
    them, and after a reduction study neither the config's model nor any
    of the study's eps models holds a (P, N, N) array."""
    doc = random_doc(2, 3, seed=4)
    model = build_model(doc)
    eps_models = []
    with_eps = FullModel.with_eps

    def recorded(self, eps):
        eps_models.append(with_eps(self, eps))
        return eps_models[-1]
    monkeypatch.setattr(FullModel, "with_eps", recorded)

    def eps_level(m):
        return [name for name, value in vars(m).items() if np.shape(value) == (2, 3, 3)]
    assert not eps_level(model)
    reduction_error(model, initial_frequencies(doc, 2, 3), [0.1, 0.05], (0.0, 0.05))
    assert len(eps_models) == 2
    assert not eps_level(model) and not any(map(eps_level, eps_models))


def test_build_model_peaks_near_its_trait_arrays():
    """At P = 1, N = 256, building a model peaks at about 3.1 times one
    (P, N, N) trait array: the three parsed deviations, kept rather than
    copied, with nothing assembled from them. Adding the background
    peaks at about 10.0 times, set by reduction.fitness_matrix's
    temporaries."""
    doc = random_doc(1, 256, seed=1)
    one = 256 * 256 * 8
    tracemalloc.start()
    try:
        model = build_model(doc)
        built = tracemalloc.get_traced_memory()[1]
        model.background
        with_background = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < 3.5 * one
    assert with_background < 10.5 * one


def test_build_model_missing_patches():
    with pytest.raises(ConfigError):
        build_model({})


def test_strain_array_shape_checked():
    doc = base_doc()
    doc["strains"]["b"] = [[1.0]]
    with pytest.raises(ConfigError):
        build_model(doc)


def test_connectivity_from_volumes():
    doc = base_doc()
    doc["connectivity"] = {"volumes": [1.0, 2.0],
                           "weights": [[0.0, 1.0], [0.0, 0.0]]}
    conn = build_connectivity(doc, 2)
    assert np.allclose(conn.entries, [[-2.0, 2.0], [1.0, -1.0]])


def test_connectivity_both_forms_rejected():
    doc = base_doc()
    doc["connectivity"]["volumes"] = [1.0, 2.0]
    with pytest.raises(ConfigError):
        build_connectivity(doc, 2)


def test_connectivity_required_for_multiple_patches():
    doc = base_doc()
    del doc["connectivity"]
    with pytest.raises(ConfigError):
        build_connectivity(doc, 2)
    single = {"patches": [{"r": 1.0, "beta": 4.0, "gamma": 1.0, "k": 1.0}]}
    conn = build_connectivity(single, 1)
    assert conn.entries.shape == (1, 1)


def test_collect_issues_valid_config():
    assert collect_issues(base_doc()) == []


def test_collect_issues_names_subcritical_patch():
    doc = base_doc()
    doc["patches"][1]["beta"] = 1.0    # equals r + gamma
    issues = collect_issues(doc)
    assert any("patch 1" in item and "subcritical" in item for item in issues)


def test_collect_issues_keeps_the_patch_order():
    """A bad rate in patch 0 is listed before an unknown key of patch 1."""
    doc = base_doc()
    doc["patches"][0]["r"] = 0.0
    doc["patches"][1]["bta"] = 4.0
    assert collect_issues(doc) == [
        "patch 0: r and beta must be positive, got r=0.0, beta=4.0",
        "patch 1: unknown patch settings: ['bta']"]


def test_collect_issues_names_metzler_violation():
    doc = base_doc()
    doc["connectivity"]["matrix"] = [[0.0, -1.0], [1.0, 0.0]]
    issues = collect_issues(doc)
    assert any("Metzler" in item for item in issues)


def test_build_model_raises_the_itemized_issues():
    doc = base_doc()
    doc["patches"][1]["beta"] = 1.0
    doc["connectivity"]["matrix"] = [[0.0, -1.0], [1.0, 0.0]]
    issues = collect_issues(doc)
    assert len(issues) == 4
    with pytest.raises(ConfigError) as info:
        build_model(doc)
    assert str(info.value) == "; ".join(issues)


def test_collect_issues_checks_init_and_integration():
    doc = base_doc()
    doc["init"]["z0"] = [[0.3, 0.7]]
    assert collect_issues(doc) == ["init.z0 must have shape (2, 2), got (1, 2)"]
    doc = base_doc()
    doc["integration"] = {"t_end": -1.0}
    assert collect_issues(doc) == ["t_end must be positive"]


def test_initial_frequencies_explicit():
    z = initial_frequencies(base_doc(), 2, 2)
    assert np.allclose(z, [[0.3, 0.7], [0.6, 0.4]])
    doc = base_doc()
    doc["init"]["z0"] = [[0.3, 0.7]]
    with pytest.raises(ConfigError):
        initial_frequencies(doc, 2, 2)


def test_initial_frequencies_seeded_and_uniform():
    doc = base_doc()
    doc["init"] = {"seed": 11}
    a = initial_frequencies(doc, 2, 3)
    b = initial_frequencies(doc, 2, 3)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-12
    doc["init"] = {}
    uniform = initial_frequencies(doc, 2, 4)
    assert np.allclose(uniform, 0.25)


def test_integrator_settings():
    doc = base_doc()
    doc["integration"] = {"rel_tol": 1e-9, "t_end": 50.0}
    assert integrator_settings(doc) == IntegratorConfig(rel_tol=1e-9, t_end=50.0,
                                                        monitor_period=0.25)
    assert integrator_settings(base_doc()) == IntegratorConfig(t_end=200.0, monitor_period=1.0)
    doc["integration"]["bogus"] = 1
    with pytest.raises(ConfigError):
        integrator_settings(doc)


@pytest.mark.parametrize("connectivity, message", [
    ({"volumes": [1.0, 2.0]}, "connectivity: volumes and weights must both be given"),
    ({}, "connectivity: expected 'matrix' or 'volumes'+'weights'"),
    (None, "connectivity section required for P > 1"),
    (3, "connectivity must be a JSON object"),
], ids=["volumes-only", "empty", "missing", "not-an-object"])
def test_connectivity_issues_name_their_section_once(connectivity, message):
    doc = base_doc()
    del doc["connectivity"]
    if connectivity is not None:
        doc["connectivity"] = connectivity
    issues = collect_issues(doc)
    assert issues == [message]
    assert not any("connectivity: connectivity" in item for item in issues)


@pytest.mark.parametrize("section, value, message", [
    ("scale", 3, "scale must be a JSON object"),
    ("strains", {"N": 0}, "strains.N must be >= 1"),
    ("connectivity", {"matrix": [[-1.0, 1.0]]}, "connectivity.matrix must have shape (2, 2), got (1, 2)"),
    ("connectivity", {"volumes": [1.0, 2.0, 3.0], "weights": np.triu(np.ones((3, 3)), 1).tolist()},
     "connectivity.volumes must have shape (2,), got (3,)"),
    ("connectivity", {"volumes": 3.0, "weights": [[0.0, 1.0], [0.0, 0.0]]},
     "connectivity.volumes must have shape (2,), got ()"),
    ("connectivity", {"volumes": [[1.0], [2.0]], "weights": [[0.0, 1.0], [0.0, 0.0]]},
     "connectivity.volumes must have shape (2,), got (2, 1)"),
    ("connectivity", {"volumes": [1.0, 2.0], "weights": [[0.0, 1.0]]},
     "connectivity.weights must have shape (2, 2), got (1, 2)"),
    ("connectivity", {"volumes": [1.0, float("inf")], "weights": [[0.0, 1.0], [0.0, 0.0]]},
     "connectivity: volumes must be finite"),
    ("connectivity", {"volumes": [float("nan"), 2.0], "weights": [[0.0, 1.0], [0.0, 0.0]]},
     "connectivity: volumes must be finite"),
    ("connectivity", {"volumes": [1.0, 2.0], "weights": [[0.0, float("inf")], [0.0, 0.0]]},
     "connectivity: pair weights must be finite"),
    ("connectivity", {"volumes": [1e300, 1e-300], "weights": [[0.0, 1e300], [0.0, 0.0]]},
     "connectivity: exchange stencil overflows the float range"),
    ("connectivity", {"volumes": [1e200, 1e200], "weights": [[0.0, 1.0], [0.0, 0.0]]},
     "connectivity: density matrix overflows the float range"),
    ("connectivity", {"matrix": [[1e308, 1e308], [1e308, 1e308]]},
     "connectivity: row sums are not zero"),
    ("scale", {"eps": True, "d": 1.0}, "scale.eps must be a number, got True"),
    ("scale", {"eps": "0.1", "d": 1.0}, "scale.eps must be a number, got '0.1'"),
    ("scale", {"eps": 0.05, "d": False}, "scale.d must be a number, got False"),
    ("scale", {"eps": 0.05, "d": "1"}, "scale.d must be a number, got '1'"),
    ("scale", {"eps": 0.05, "d": 10**400}, "scale.d is an integer beyond the float range"),
    ("integration", {"t_end": True}, "integration.t_end must be a number, got True"),
    ("integration", {"initial_step": 0}, "initial_step and max_step must be positive"),
    ("integration", {"max_step": 0, "initial_step": 0},
     "initial_step and max_step must be positive"),
    ("integration", {"initial_step": -1e-3}, "initial_step and max_step must be positive"),
    ("integration", {"max_step": -1.0}, "initial_step and max_step must be positive"),
    ("strains", {"N": 2, "b": [[10**400, 0.0], [0.5, -0.5]]},
     "strains.b[0][0] is an integer beyond the float range"),
    ("strains", {"N": 2, "b": [[True, 0.0], [0.5, -0.5]]},
     "strains.b[0][0] must be a number, got True"),
    ("strains", {"N": 2, "b": [["0.5", 0.0], [0.5, -0.5]]},
     "strains.b[0][0] must be a number, got '0.5'"),
    ("init", {"z0": [[True, False], [0.6, 0.4]]}, "init.z0[0][0] must be a number, got True"),
    ("init", {"z0": [["0.5", "0.5"], [0.6, 0.4]]},
     "init.z0[0][0] must be a number, got '0.5'"),
    ("connectivity", {"matrix": [[-1.0, True], [1.0, -1.0]]},
     "connectivity.matrix[0][1] must be a number, got True"),
    ("connectivity", {"matrix": [[-1.0, 1.0], [{"x": 1}, -1.0]]},
     "connectivity.matrix[1][0] must be a number, got {'x': 1}"),
    ("connectivity", {"volumes": [1.0, None], "weights": [[0.0, 1.0], [0.0, 0.0]]},
     "connectivity.volumes[1] must be a number, got None"),
    ("connectivity", {"volumes": [1.0, 2.0], "weights": [[0.0, 10**400], [0.0, 0.0]]},
     "connectivity.weights[0][1] is an integer beyond the float range"),
    ("strains", {"N": 2, "b": None}, "strains.b must be a number, got None"),
    ("strains", {"N": 2, "b": [[1.0, 0.0], [0.5]]}, "strains.b is a ragged array"),
    ("init", {"z0": [[0.3, 0.7], 0.5]}, "init.z0 is a ragged array"),
    ("scale", {"eps": [0.05], "d": 1.0}, "scale.eps must be a number, got [0.05]"),
    ("strains", {"N": [2]}, "strains.N must be a number, got [2]"),
    ("strains", {"N": 10**400}, "strains.N is an integer beyond the float range"),
    ("init", {"seed": 10**400}, "init.seed is an integer beyond the float range"),
    ("init", {"seed": None}, "init.seed must be a number, got None"),
    ("init", {"seed": -1}, "init.seed must be >= 0"),
], ids=["section-not-an-object", "N-0", "matrix-shape", "three-volumes", "scalar-volumes",
        "2d-volumes", "weights-shape", "infinite-volume", "nan-volume", "infinite-weight",
        "overflowing-stencil", "overflowing-density", "overflowing-row-sums", "bool-eps",
        "string-eps", "bool-d", "string-d", "huge-integer-d", "bool-t_end",
        "zero-initial_step", "zero-steps", "negative-initial_step", "negative-max_step",
        "huge-integer-trait", "bool-trait", "string-trait", "bool-z0", "string-z0",
        "bool-matrix", "object-matrix", "null-volume", "huge-integer-weight", "null-trait",
        "ragged-trait", "mixed-z0", "list-eps", "list-N", "huge-integer-N",
        "huge-integer-seed", "null-seed", "negative-seed"])
def test_malformed_sections_are_issues(section, value, message):
    doc = base_doc()
    doc[section] = value
    assert collect_issues(doc) == [message]


def test_read_gives_the_floats_numpy_gives():
    """Valid values parse to numpy's floats, bit for bit: integers past
    2**53, -0.0 and subnormal-range values included; a float subclass such
    as np.float64 is a number, and an integral setting keeps its exact int."""
    values = [[-0.0, 1e-300, 2**53 + 1], [-(2**64), 10**30, np.float64(1.5)]]
    assert _read("x", values, (2, 3)).tobytes() == np.asarray(values, dtype=float).tobytes()
    assert _read("x", [], (0,)).shape == (0,) and _read("x", 1, ()).shape == ()
    assert _read("x", 2**53 + 1) == float(2**53 + 1) and _read("x", np.float64(0.5)) == 0.5
    assert _read("x", 2.0, int) == 2 and _read("x", 2**70 + 1, int) == 2**70 + 1


def test_rates_must_be_json_numbers():
    """Booleans, numeric strings and integers beyond the float range are
    itemized per patch; integers pass as floats."""
    doc = base_doc()
    doc["patches"] = [{"r": True, "beta": 4.0, "gamma": 1.0, "k": 1.0},
                      {"r": 0.5, "beta": "2.0", "gamma": 0.5, "k": 2.0},
                      {"r": 1, "beta": 4, "gamma": 1, "k": False},
                      {"r": 1.0, "beta": 4.0, "gamma": 10**400, "k": 1.0}]
    doc["connectivity"] = {"matrix": (np.ones((4, 4)) - 4 * np.eye(4)).tolist()}
    assert collect_issues(doc) == ["patch 0: r must be a number, got True",
                                   "patch 1: beta must be a number, got '2.0'",
                                   "patch 2: k must be a number, got False",
                                   "patch 3: gamma is an integer beyond the float range"]
    doc["patches"][2]["k"] = 1
    del doc["patches"][:2], doc["patches"][1]
    doc["connectivity"] = {"matrix": [[-1.0, 1.0], [1.0, -1.0]]}
    doc["patches"].append(dict(doc["patches"][0]))
    assert collect_issues(doc) == []
    assert build_model(doc).r.tolist() == [1.0, 1.0]
