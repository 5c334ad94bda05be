"""Property tests: whatever bytes an input file holds, the CLI ends in a documented exit code.

Every example reaches cli.main with a valid command line (experiment custom,
tensors at most 10x4x4); the property is an exit code in {0, 1, 2, 3} and no
exception escaping main.  The round trips at the end hold bit for bit for any
finite floats, -0.0 and subnormals included: unfold and fold, the T3/M2 text
files, and the model JSON.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from btucker import datagen, decomp, select, tensor
from btucker.cli import main

EXIT_CODES = {0, 1, 2, 3}
EXAMPLES = settings(derandomize=True, deadline=None, max_examples=40)

# an input that makes the numerics warn has found a case that should end in an exit code
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _bytes_after(*prefixes: bytes):
    """Arbitrary bytes, alone or after a header that a reader looks for first."""
    body = st.binary(max_size=80)
    return st.one_of(body, *(body.map(lambda b, p=p: p + b) for p in prefixes))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=8,
)
MODEL_FIELDS = ("ranks", "dims", "core", "u1", "u2", "u3", "alpha", "beta", "fit_report")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A valid 10x4x4 tensor, its fitted model, a selection and a truth mask."""
    root = tmp_path_factory.mktemp("properties")
    t = tensor.Tensor3(np.random.default_rng(5).normal(size=(10, 4, 4)))
    tensor.write_tensor(t, root / "data.txt")
    model, report = decomp.hooi(t, (2, 2, 2))
    decomp.save_model(model, root / "model.json", beta=decomp.estimate_beta(t, model),
                      alpha=0.0, report=report)
    selection = select.select_features(np.full(10, 0.5), 0.05)
    select.write_selection_csv(selection, root / "selection.csv")
    datagen.write_truth_csv(np.arange(10) < 3, root / "truth.csv")
    return root


def run(run_dir, command, flag, content: bytes) -> None:
    """cli.main on `command` with `content` as the --flag file and the valid run's other files."""
    files = {"data": "data.txt", "model": "model.json", "selection": "selection.csv",
             "truth": "truth.csv", "config": None}
    files[flag] = f"bad-{flag}"
    (run_dir / files[flag]).write_bytes(content)
    needs = {"select": ("data", "model", "config"), "decompose": ("data", "config"),
             "evaluate": ("selection", "truth")}[command]
    argv = [command, "--experiment", "custom", "--out-dir", str(run_dir / "out")]
    argv += [arg for f in needs if files[f] for arg in (f"--{f}", str(run_dir / files[f]))]
    if command == "evaluate":
        argv += ["--out", str(run_dir / "out" / "confusion.json")]
    assert main(argv) in EXIT_CODES


@EXAMPLES
@given(content=_bytes_after(b"T3 2 2 2\n", b"M2 2 2\n"),
       command=st.sampled_from(["select", "decompose"]))
def test_any_data_file(run_dir, content, command):
    run(run_dir, command, "data", content)


@EXAMPLES
@given(values=st.lists(st.floats(), min_size=8, max_size=8),
       command_header=st.sampled_from([("decompose", b"T3 2 2 2"), ("decompose", b"T3 8 1 1"),
                                       ("select", b"M2 2 4"), ("select", b"M2 8 1")]))
def test_any_numbers_in_a_data_file(run_dir, values, command_header):
    # an entry near sqrt(float max) overflows HOOI's squared norms: exit 3, not a traceback
    command, header = command_header
    run(run_dir, command, "data", header + b"\n" + " ".join(map(repr, values)).encode())


@EXAMPLES
@given(content=_bytes_after(b'{"ranks": [2, 2, 2], "core": '))
def test_any_model_file(run_dir, content):
    run(run_dir, "select", "model", content)


@EXAMPLES
@given(field=st.sampled_from(MODEL_FIELDS), value=JSON_VALUES)
def test_model_with_one_field_replaced(run_dir, field, value):
    doc = json.loads((run_dir / "model.json").read_text())
    doc[field] = value
    run(run_dir, "select", "model", json.dumps(doc).encode())


@EXAMPLES
@given(content=_bytes_after(b'{"ranks": [2, 2, 2], "components": '))
def test_any_config_file(run_dir, content):
    run(run_dir, "select", "config", content)


@EXAMPLES
@given(content=_bytes_after(b"feature_index,statistic,p_raw,p_adjusted,selected\n"))
def test_any_selection_csv(run_dir, content):
    run(run_dir, "evaluate", "selection", content)


@EXAMPLES
@given(content=_bytes_after(b"truth\n"))
def test_any_truth_csv(run_dir, content):
    run(run_dir, "evaluate", "truth", content)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
DIMS = st.tuples(*[st.integers(1, 4)] * 3)


def finite_arrays(shape):
    return arrays(np.float64, shape, elements=FINITE)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@EXAMPLES
@given(data=st.data(), dims=DIMS, mode=st.sampled_from([1, 2, 3]))
def test_fold_unfold_round_trip(data, dims, mode):
    t = tensor.Tensor3(data.draw(finite_arrays(dims)))
    assert same_bits(tensor._folding(tensor.unfold(t, mode), mode, dims), t.values)
    m = data.draw(finite_arrays((dims[mode - 1], t.values.size // dims[mode - 1])))
    assert same_bits(tensor.unfold(tensor.Tensor3(tensor._folding(m, mode, dims)), mode), m)


@EXAMPLES
@given(data=st.data(), dims=DIMS)
def test_text_file_round_trip(run_dir, data, dims):
    t = tensor.Tensor3(data.draw(finite_arrays(dims)))
    tensor.write_tensor(t, run_dir / "round-trip.txt")
    assert same_bits(tensor.read_tensor(run_dir / "round-trip.txt").values, t.values)
    x = data.draw(finite_arrays(dims[:2]))
    tensor.write_matrix(x, run_dir / "round-trip.txt")
    assert same_bits(tensor.read_matrix(run_dir / "round-trip.txt"), x)


@st.composite
def tucker_models(draw):
    dims = draw(DIMS)
    ranks = tuple(draw(st.integers(1, d)) for d in dims)
    factors = [draw(finite_arrays((r, d))) for r, d in zip(ranks, dims)]
    return decomp.TuckerModel(draw(finite_arrays(ranks)), *factors)


@EXAMPLES
@given(model=tucker_models(),
       alpha=st.floats(min_value=0.0, allow_infinity=False),
       beta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_model_file_round_trip(run_dir, model, alpha, beta):
    decomp.save_model(model, run_dir / "round-trip.json", beta=beta, alpha=alpha)
    loaded, meta = decomp.load_model(run_dir / "round-trip.json")
    for name in ("core", "u1", "u2", "u3"):
        assert same_bits(getattr(loaded, name), getattr(model, name))
    assert same_bits(meta["alpha"], alpha) and same_bits(meta["beta"], beta)
