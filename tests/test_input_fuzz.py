"""The input contract under generated input: every run exits 0, 1 or 2.

Documents and matrices are drawn small, both in their own shape (with bad
values mixed into every slot) and as arbitrary JSON.  A run may pass, fail a
check or refuse its input with one ``error:`` line; it may never end in an
internal error or a traceback.
"""

import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clirun import invoke

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None)

# arbitrary JSON: json.dumps writes non-finite floats as NaN and Infinity,
# which json.loads reads back
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

JUNK = [None, True, 3, "", [], {}, "1e5000", "-2.5e-9000", "1e999999999", "3/0",
        float("nan"), float("inf")]


def picker(rng):
    """Choose among good values, or one of JUNK about one time in twelve."""
    def pick(*good):
        return rng.choice(JUNK) if rng.random() < 1 / 12 else rng.choice(good)
    return pick


def draw_document(rng) -> dict:
    """A small document in the document shape, some of its values bad."""
    pick = picker(rng)
    base = [{"name": pick(f"b{i + 1}"), "parity": pick("even", "odd")}
            for i in range(rng.randint(0, 2))]
    fibre = [{"name": pick(f"s{i + 1}"), "parity": pick("even", "odd")}
             for i in range(rng.randint(1, 3))]
    names = [e["name"] for e in base + fibre]
    q_terms = []
    for _ in range(rng.randint(0, 3)):
        fibre_names = [e["name"] for e in fibre]
        monomial = sorted(rng.sample(fibre_names, rng.randint(0, len(fibre_names))),
                          key=fibre_names.index)
        base_monomial = [[e["name"], pick(1, 2)] for e in base if rng.random() < 0.3]
        q_terms.append({"target": pick(*names), "coefficient": pick("1", "-1/2", "2.5e-1", 3),
                        "monomial": pick(monomial), "base_monomial": pick(base_monomial)})
    return {"name": pick("fuzz"), "base": pick(base), "fibre": pick(fibre),
            "q_terms": pick(q_terms)}


def draw_matrix(rng) -> list:
    """Mostly 2 x 2, the shape derham needs, with some entries bad."""
    pick = picker(rng)
    size = rng.choice([2, 2, 2, 3])
    return [[pick(-2, -1, 0, 1, 2, "1/2") for _ in range(size)] for _ in range(size)]


# a seeded Random, not st.randoms: those draws lean to the ends of each range,
# which would make every document bad
RANDOMS = st.integers(0, 2**32 - 1).map(Random)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_contract(result):
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exception)
    assert result.exit_code in (0, 1, 2), result.stderr
    lines = result.stderr.splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines
    assert not result.stderr.startswith("error: internal"), result.stderr


def run_document(workdir, command, document):
    path = workdir / "doc.json"
    path.write_text(json.dumps(document))
    assert_contract(invoke([command, str(path), "--json"]))


@pytest.mark.parametrize("command", ["check-q", "describe"])
@FUZZ
@given(rng=RANDOMS)
def test_documents(workdir, command, rng):
    run_document(workdir, command, draw_document(rng))


@pytest.mark.parametrize("command", ["check-q", "describe"])
@FUZZ
@given(value=JSON)
def test_arbitrary_json_documents(workdir, command, value):
    run_document(workdir, command, value)


def run_naturality(workdir, matrix):
    path = workdir / "matrix.json"
    path.write_text(json.dumps(matrix))
    args = ["naturality", "derham", "--matrix", str(path), "--json"]
    assert_contract(invoke(args))


@FUZZ
@given(rng=RANDOMS)
def test_matrices(workdir, rng):
    run_naturality(workdir, draw_matrix(rng))


@FUZZ
@given(value=JSON)
def test_arbitrary_json_matrices(workdir, value):
    run_naturality(workdir, value)
