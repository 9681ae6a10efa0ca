import csv
import json

import numpy as np
import pytest

from wildbregman.cli import main
from wildbregman.design import (FixedDesignDataset, PredictionMatrix,
                                _write_json, empirical_discrepancy,
                                load_dataset, sample_sign_matrix, save_dataset)
from wildbregman.errors import RejectedInputError
from wildbregman.harness import SyntheticSpec, generate_synthetic
from wildbregman.potentials import builtin_loss

# values whose text form is easy to get wrong: a signed zero, the smallest
# subnormal, a float printed in exponent form, the largest float, and 1/3
AWKWARD = FixedDesignDataset(
    np.array([[-0.0, 5e-324, 1e16], [1.0 / 3.0, -1e-300, 1.7976931348623157e308]]),
    np.array([[1.0 / 3.0, -0.0], [5e-324, 1e16]]))


def test_dataset_shapes_and_props():
    data = FixedDesignDataset(np.zeros((5, 3)), np.ones((5, 2)))
    assert data.n == 5 and data.d == 2


def test_dataset_rejects_nonfinite():
    with pytest.raises(RejectedInputError):
        FixedDesignDataset(None, np.array([[np.nan]]))


def test_dataset_rejects_mismatched_inputs():
    with pytest.raises(RejectedInputError):
        FixedDesignDataset(np.zeros((4, 2)), np.zeros((5, 1)))


def test_sign_matrix_entries_and_determinism():
    s1 = sample_sign_matrix(50, 3, seed=7)
    s2 = sample_sign_matrix(50, 3, seed=7)
    assert np.array_equal(s1, s2)
    assert np.all(np.abs(s1) == 1.0)
    s3 = sample_sign_matrix(50, 3, seed=8)
    assert not np.array_equal(s1, s3)


def test_empirical_discrepancy_squared_l2():
    loss = builtin_loss("squared_l2", 2)
    F = PredictionMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    G = PredictionMatrix(np.array([[0.0, 0.0], [0.0, 2.0]]))
    # mean of {0.5, 2.0}
    assert empirical_discrepancy(loss, F, G) == pytest.approx(1.25)


def test_empirical_discrepancy_shape_mismatch():
    loss = builtin_loss("squared_l2", 2)
    with pytest.raises(RejectedInputError):
        empirical_discrepancy(loss, PredictionMatrix(np.zeros((2, 2))),
                              PredictionMatrix(np.zeros((3, 2))))


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    data = FixedDesignDataset(rng.normal(size=(10, 3)), rng.normal(size=(10, 2)))
    for name, ds in (("ds", data), ("awkward", AWKWARD)):
        csv_path = save_dataset(tmp_path / name, ds, seed=42,
                                potential_kind="squared_l2")
        loaded = load_dataset(csv_path)
        # bit for bit, so a lost sign of zero shows too
        assert loaded.inputs.tobytes() == ds.inputs.tobytes()
        assert loaded.responses.tobytes() == ds.responses.tobytes()
    manifest = json.loads((tmp_path / "ds.json").read_text())
    assert manifest == {"n": 10, "d": 2, "p": 3, "seed": 42,
                        "potential_kind": "squared_l2"}


def _reference_csv(path, blocks):
    """The CSV format frozen as `csv.writer` rows of repr(float(v)) cells."""
    n = blocks[0][1].shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{name}_{j + 1}" for name, A in blocks
                         for j in range(A.shape[1])])
        for i in range(n):
            writer.writerow([repr(float(v)) for _, A in blocks for v in A[i]])


@pytest.mark.parametrize("data", [
    AWKWARD,
    FixedDesignDataset(np.array([[0.1, -2.5]]), np.array([[1e-7, 3.0]])),
    FixedDesignDataset(None, np.array([[1.0 / 3.0], [-0.0], [5e-324]])),
], ids=["awkward", "n1", "no_inputs"])
def test_dataset_file_format_frozen(tmp_path, data):
    save_dataset(tmp_path / "ds", data, seed=7, potential_kind="squared_l2")
    blocks = [("y", data.responses)]
    if data.inputs is not None:
        blocks.insert(0, ("x", data.inputs))
    _reference_csv(tmp_path / "ref.csv", blocks)
    assert (tmp_path / "ds.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    manifest = {"n": data.n, "d": data.d,
                "p": 0 if data.inputs is None else data.inputs.shape[1],
                "seed": 7, "potential_kind": "squared_l2"}
    assert (tmp_path / "ds.json").read_text() == json.dumps(
        manifest, sort_keys=True, indent=2) + "\n"


def test_json_layout_frozen(tmp_path):
    # one sorted top-level key a line; each value on that line, nested
    # values with sorted keys and the default separators
    payload = {"rows": [[0.1, -2.5], [1e-07, 1.0 / 3.0]], "total": 2.0,
               "config": {"trainer": "linear", "bound": 2.5, "data": None}}
    _write_json(tmp_path / "out.json", payload)
    text = (tmp_path / "out.json").read_text()
    assert text == (
        '{\n'
        '  "config": {"bound": 2.5, "data": null, "trainer": "linear"},\n'
        '  "rows": [[0.1, -2.5], [1e-07, 0.3333333333333333]],\n'
        '  "total": 2.0\n'
        '}\n')
    assert json.loads(text) == payload


@pytest.mark.parametrize("A", [AWKWARD.inputs, AWKWARD.responses,
                               np.array([[-0.0]]), np.array([1e-07, 2.5]),
                               np.empty((0, 2)), np.empty((2, 0))],
                         ids=["awkward_x", "awkward_y", "one", "flat",
                              "no_rows", "no_columns"])
def test_json_arrays_written_as_their_lists(tmp_path, A):
    # a float array is written as json writes its nested lists, bit for bit
    _write_json(tmp_path / "a.json", {"fhat": A, "rho": 1.0})
    _write_json(tmp_path / "b.json", {"fhat": A.tolist(), "rho": 1.0})
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_arrays_refuse_non_finite_entries(tmp_path, bad):
    # json would write NaN or Infinity, which is no JSON
    A = np.array([[0.5, bad], [1.0, 2.0]])
    with pytest.raises(RejectedInputError, match="residues"):
        _write_json(tmp_path / "a.json", {"residues": A})
    assert not (tmp_path / "a.json").exists()


@pytest.mark.parametrize("n", [1, 9])
def test_oracle_file_format_frozen(tmp_path, n):
    assert main(["simulate", "--n", str(n), "--d", "2", "--seed", "4",
                 "--out", str(tmp_path / "data")]) == 0
    _, oracle = generate_synthetic(SyntheticSpec(n=n, d=2, seed=4))
    _reference_csv(tmp_path / "ref.csv", [("fstar", oracle.fstar_preds.values),
                                          ("w", oracle.noise)])
    assert ((tmp_path / "data_oracle.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_save_load_without_inputs(tmp_path):
    data = FixedDesignDataset(None, np.array([[1.5], [2.5]]))
    csv_path = save_dataset(tmp_path / "ds", data)
    loaded = load_dataset(csv_path)
    assert loaded.inputs is None
    assert np.array_equal(loaded.responses, data.responses)


def test_save_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    data = FixedDesignDataset(rng.normal(size=(8, 2)), rng.normal(size=(8, 1)))
    p1 = save_dataset(tmp_path / "a", data, seed=1, potential_kind="squared_l2")
    p2 = save_dataset(tmp_path / "b", data, seed=1, potential_kind="squared_l2")
    assert p1.read_bytes() == p2.read_bytes()
