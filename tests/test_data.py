import csv
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


# ---------------------------------------------------------------------------
# the streaming reader: exact values, csv labels, line numbers, memory
# ---------------------------------------------------------------------------

_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 2.225073858507201e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 0.1, 1 / 3]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from(_EDGE_DOUBLES)))
def test_finite_doubles_round_trip_bit_for_bit(tmp_path_factory, X):
    path = tmp_path_factory.mktemp("doubles") / "set.csv"
    save_dataset(path, X, ["c"] * X.shape[0])
    X2, _ = load_dataset(path)
    npt.assert_array_equal(X2.view(np.uint64), X.view(np.uint64))


def test_edge_doubles_round_trip_bit_for_bit(tmp_path):
    X = np.array([_EDGE_DOUBLES])
    path = tmp_path / "set.csv"
    save_dataset(path, X, ["c"])
    X2, _ = load_dataset(path)
    npt.assert_array_equal(X2.view(np.uint64), X.view(np.uint64))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(st.text(alphabet='ab ,"\'\té1', max_size=8), min_size=1,
                max_size=5))
def test_labels_round_trip(tmp_path_factory, labels):
    path = tmp_path_factory.mktemp("labels") / "set.csv"
    X = np.arange(2.0 * len(labels)).reshape(len(labels), 2)
    save_dataset(path, X, labels)
    X2, labels2 = load_dataset(path)
    npt.assert_array_equal(X2, X)
    assert labels2 == labels


def test_quoted_labels(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text('"a,b",1.0\n"say ""hi""",2.0\n" c ",3.0\n"p"q,4.0\n')
    X, labels = load_dataset(path)
    npt.assert_array_equal(X, [[1.0], [2.0], [3.0], [4.0]])
    assert labels == ["a,b", 'say "hi"', " c ", "pq"]


def test_unterminated_quoted_label_names_line(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text('A,1.0\n"B,2.0\nC",3.0\n')
    with pytest.raises(ValidationError, match=r"set\.csv:2: unterminated"):
        load_dataset(path)


def test_line_break_in_label_not_saved(tmp_path):
    with pytest.raises(ValidationError, match="line breaks"):
        save_dataset(tmp_path / "set.csv", np.ones((1, 2)), ["a\nb"])


def test_crlf_blank_lines_and_header(tmp_path):
    path = tmp_path / "set.csv"
    path.write_bytes(b"label,x1,x2\r\nA,1.0,2.0\r\n\r\n   \r\n\t\r\n"
                     b"B,3.0,4.0\r\n\r\n")
    X, labels = load_dataset(path)
    npt.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
    assert labels == ["A", "B"]


def test_error_line_counts_skipped_lines(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("label,x1\n\nA,1.0\n  \nB,oops\n")
    with pytest.raises(ValidationError, match=r"set\.csv:5: malformed value"):
        load_dataset(path)


def test_malformed_value_past_chunk_boundary(tmp_path):
    # numpy converts text in chunks of 50 000 lines; the line number must
    # still be the physical one
    path = tmp_path / "set.csv"
    path.write_text("A,1.0,2.0\n" * 60000 + "B,1.0,oops\n")
    with pytest.raises(ValidationError,
                       match=r"set\.csv:60001: malformed value .*'oops'"):
        load_dataset(path)


def test_first_bad_line_wins_over_later_ragged_line(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("A,1.0,2.0\nB,oops,2.0\nC,1.0\n")
    with pytest.raises(ValidationError, match=r"set\.csv:2: malformed value"):
        load_dataset(path)


def test_ragged_row_with_bad_value_is_malformed(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("A,1.0,2.0\nB,oops\n")
    with pytest.raises(ValidationError, match=r"set\.csv:2: malformed value"):
        load_dataset(path)


@pytest.mark.parametrize("value", ["1_0", "١", '"1.5"', "", "0x10"])
def test_value_outside_float_syntax_names_line(tmp_path, value):
    path = tmp_path / "set.csv"
    path.write_text(f"A,1.0\nB,2.0\nC,{value}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"set\.csv:3: malformed value"):
        load_dataset(path)


def test_label_without_features_names_line(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("A,1.0\nB\n")
    with pytest.raises(ValidationError, match=r"set\.csv:2: row has a label"):
        load_dataset(path)


def test_not_utf8_rejected(tmp_path):
    path = tmp_path / "set.csv"
    path.write_bytes(b"A,1.0\n\xff,2.0\n")
    with pytest.raises(ValidationError, match="not UTF-8"):
        load_dataset(path)


@pytest.mark.parametrize("text", ["", "\n \n", "label,x1\n"])
def test_no_data_raises_without_warning(tmp_path, text):
    path = tmp_path / "set.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="no data rows"):
            load_dataset(path)


def test_load_peak_is_about_one_array(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((300, 1024))
    path = tmp_path / "set.csv"
    save_dataset(path, X, [f"c{i % 30:02d}" for i in range(300)])
    tracemalloc.start()
    try:
        X2, _ = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    npt.assert_array_equal(X2, X)
    assert peak <= 2 * X.nbytes


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet='a ,"', max_size=10))
def test_label_field_read_as_csv_reads_it(tmp_path_factory, field):
    # any label field the csv module reads as one field before "1.0" loads
    # as the same label
    row = next(csv.reader([field + ",1.0"]))
    assume(len(row) == 2 and row[1] == "1.0")
    path = tmp_path_factory.mktemp("field") / "set.csv"
    path.write_text("first,0.0\n" + field + ",1.0\n", encoding="utf-8")
    X, labels = load_dataset(path)
    npt.assert_array_equal(X, [[0.0], [1.0]])
    assert labels == ["first", row[0]]
