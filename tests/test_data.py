import numpy as np
import numpy.testing as npt
import pytest

from gfda.data import load_dataset, save_dataset
from gfda.errors import ValidationError


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 4))
    labels = [f"c{i % 3}" for i in range(7)]
    path = tmp_path / "set.csv"
    save_dataset(path, X, labels)
    X2, labels2 = load_dataset(path)
    npt.assert_array_equal(X2, X)  # repr round-trips floats exactly
    assert labels2 == labels


def test_header_detected(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("label,x1,x2\nA,1.0,2.0\nB,3.0,4.0\n")
    X, labels = load_dataset(path)
    npt.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
    assert labels == ["A", "B"]


def test_headerless_numeric_first_row(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("A,1.0,2.0\nB,3.0,4.0\n")
    X, labels = load_dataset(path)
    assert X.shape == (2, 2)


def test_malformed_row_names_line(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("A,1.0,2.0\nB,oops,4.0\n")
    with pytest.raises(ValidationError, match=":2"):
        load_dataset(path)


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("A,1.0,2.0\nB,3.0\n")
    with pytest.raises(ValidationError, match=":2"):
        load_dataset(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("")
    with pytest.raises(ValidationError):
        load_dataset(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_value_names_line(tmp_path, value):
    path = tmp_path / "set.csv"
    path.write_text(f"A,1.0,2.0\nB,3.0,4.0\nC,{value},4.0\n")
    with pytest.raises(ValidationError, match=r"set\.csv:3: non-finite"):
        load_dataset(path)
