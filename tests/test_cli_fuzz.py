"""The command line under mutated config documents: whatever a document
holds, validate, both simulate modes, compare and sweep exit 0, 1 or 2
with no traceback and no warning, and a document that validate accepts
never makes a run exit 2."""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

import straingrid.ode  # noqa: E402
from straingrid.cli import _set_path, main  # noqa: E402
from straingrid.errors import ConfigError  # noqa: E402

from test_cli import WORKED_DOC  # noqa: E402

# The sweep's one row runs the document with scale.d = 0.5.
SWEPT = ("scale.d", 0.5)
RUNS = [["simulate", "--mode", "full"], ["simulate", "--mode", "reduced"],
        ["compare", "--eps", "0.05,0.025,0.0125", "--tau-end", "0.05"],
        ["sweep", "--mode", "reduced", "--axis", SWEPT[0], "--values", str(SWEPT[1]),
         "--jobs", "1"]]

# What a mutation puts in place of a value or under a new key: the wrong
# JSON types, numbers at and past the float range, and the non-finite
# floats that Python's json module reads and writes.
ODD_VALUES = [True, False, "0.5", "1", None, [], [0.5], [[0.5, 0.5], [0.5, 0.5]], {},
              {"x": 1.0}, 10**400, -10**400, 1e300, -1e300, float("nan"), float("inf"),
              float("-inf"), 0, -1.0]
# What a number is multiplied by, so that many mutated documents still
# pass validation and run.
FACTORS = [1e-300, 1e-3, 0.5, 2.0, 1e3, 1e300]
# New keys: unknown everywhere, or known in some object and so misplaced
# or doubled in others.
NEW_KEYS = ["extra", "seed", "max_step", "monitor_period", "volumes", "alpha", "N"]


def _positions(node, path=()):
    """The path of every value of node, containers included, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _positions(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


VALUE_PATHS = list(_positions(WORKED_DOC))
OBJECT_PATHS = [()] + [p for p in VALUE_PATHS if isinstance(_at(WORKED_DOC, p), dict)]
NUMBER_PATHS = [p for p in VALUE_PATHS if isinstance(_at(WORKED_DOC, p), float)]

# Up to two scalings, which keep a document of numbers, then up to two
# mutations that break its types or keys.
MUTATIONS = st.builds(
    lambda scalings, breaks: scalings + breaks,
    st.lists(st.tuples(st.just("scale"), st.sampled_from(NUMBER_PATHS),
                       st.sampled_from(FACTORS)), max_size=2),
    st.lists(st.one_of(
        st.tuples(st.just("set"), st.sampled_from(VALUE_PATHS), st.sampled_from(ODD_VALUES)),
        st.tuples(st.just("add"), st.sampled_from(OBJECT_PATHS), st.sampled_from(NEW_KEYS),
                  st.sampled_from(ODD_VALUES))), max_size=2))


def _mutated(mutations):
    """WORKED_DOC with the mutations made in turn; one whose place an
    earlier mutation took away, or whose product leaves the float range,
    is skipped."""
    doc = json.loads(json.dumps(WORKED_DOC))
    for kind, path, *rest in copy.deepcopy(mutations):
        try:
            if kind == "set":
                _at(doc, path[:-1])[path[-1]] = rest[0]
            elif kind == "scale":
                _at(doc, path[:-1])[path[-1]] *= rest[0]
            elif isinstance(node := _at(doc, path), dict):
                node[rest[0]] = rest[1]
        except (KeyError, IndexError, TypeError, OverflowError):
            pass
    return doc


def _exit_code(argv):
    """main(argv)'s exit code, with its output captured and every warning an
    error, so that a warning escapes main as a traceback would."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(MUTATIONS)
def test_mutated_documents_exit_typed(monkeypatch, mutations):
    """validate exits 0 or 1; on a document it accepts every run exits 0
    or 1, and on one it rejects every run exits 1. The sweep is held to
    the verdict on its row's document, which setting scale.d can mend
    or break, and exits 1 where the axis addresses no scalar. Unmutated,
    each run takes under 100 steps; a budget of 5,000 ends a run whose
    scaled t_end or rates are past what the integrator reaches in seconds
    with the exit 1 that the default budget gives in minutes."""
    monkeypatch.setattr(straingrid.ode, "MAX_STEPS", 5_000)
    doc = _mutated(mutations)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        accepted = _exit_code(["validate", str(cfg)])
        assert accepted in (0, 1)
        try:
            swept = _set_path(doc, *SWEPT)
        except ConfigError:
            swept_accepted = 1
        else:
            (Path(tmp) / "swept.json").write_text(json.dumps(swept))
            swept_accepted = _exit_code(["validate", str(Path(tmp) / "swept.json")])
        for n, run in enumerate(RUNS):
            code = _exit_code([run[0], str(cfg), *run[1:], "--out", str(Path(tmp) / str(n))])
            verdict = swept_accepted if run[0] == "sweep" else accepted
            assert code in ((0, 1) if verdict == 0 else (1,))
