"""Labeled-vector CSV datasets.

Row format is ``label,x1,...,xL``.  load_dataset skips blank lines and a
header row on line 1, detected by non-numeric fields; save_dataset writes
none.  Labels follow csv quoting; a label holds no line break.  Floats are
written with repr so files round-trip exactly and identical runs produce
identical bytes.
"""

import csv
import itertools

import numpy as np

from .errors import ValidationError


def _split_label(line):
    """(label, feature text) of one line, reading a quoted label as the csv
    module does: "" inside stands for ", and text between the closing quote
    and the next comma is kept.  The feature text is None when the line has
    no comma after its label, and both are None for an unterminated quote."""
    label, sep, features = line.partition(",")
    if line.startswith('"'):
        end = line.find('"', 1)
        while end > 0 and line.startswith('"', end + 1):
            end = line.find('"', end + 2)
        if end < 0:
            return None, None
        extra, sep, features = line[end + 1:].partition(",")
        label = line[1:end].replace('""', '"') + extra
    return label, (features if sep else None)


def load_dataset(path):
    """Read a labeled dataset; returns (X (n, L) float array, labels list).

    One pass over the lines: each data line's feature text goes straight to
    numpy's text reader, so the peak is about one copy of the array.  Values
    use Python float syntax without digit-group underscores or non-ASCII
    digits, and must be finite.  An error names the first bad line.
    """
    labels = []
    linenos = []
    failure = []  # first structural error; raised once the rows before it convert

    def feature_lines(fh):
        width = None
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                label, features = _split_label(line)
                if lineno == 1 and features is not None:
                    try:
                        [float(v) for v in next(csv.reader([line]))[1:]]
                    except ValueError:
                        continue  # header row
                if features is None:
                    if label is None:
                        failure.append(f"{path}:{lineno}: unterminated "
                                       "quoted label")
                    elif label.strip():
                        failure.append(f"{path}:{lineno}: row has a label "
                                       "but no features")
                    else:
                        continue  # blank line
                    return
                count = features.count(",") + 1
                if width is None:
                    width = count
                if count != width or not features:  # numpy skips empty lines
                    try:
                        [float(v) for v in features.split(",")]
                        failure.append(f"{path}:{lineno}: expected {width} "
                                       f"features, got {count}")
                    except ValueError as exc:
                        failure.append(
                            f"{path}:{lineno}: malformed value ({exc})")
                    return
                labels.append(label)
                linenos.append(lineno)
                yield features
        except UnicodeDecodeError as exc:
            failure.append(f"{path}: not UTF-8 text ({exc})")

    with open(path, encoding="utf-8") as fh:
        lines = feature_lines(fh)
        first = next(lines, None)  # no loadtxt call, and no warning, on no data
        try:
            X = None if first is None else np.loadtxt(
                itertools.chain([first], lines), delimiter=",", comments=None,
                ndmin=2)
        except ValueError as exc:
            # numpy: "could not convert string 'x' to float64 at row R, column C."
            text, _, where = str(exc).rpartition(" to float64 at row ")
            row = where.partition(",")[0]
            if not row.isdigit():
                raise ValidationError(
                    f"{path}: malformed value ({exc})") from None
            value = text.removeprefix("could not convert string ")
            raise ValidationError(
                f"{path}:{linenos[int(row)]}: malformed value (could not "
                f"convert string to float: {value})") from None
    if failure:
        raise ValidationError(failure[0])
    if X is None:
        raise ValidationError(f"{path}: no data rows")
    bad = np.nonzero(~np.isfinite(X).all(axis=1))[0]
    if bad.size:
        raise ValidationError(
            f"{path}:{linenos[bad[0]]}: non-finite value (nan or inf)")
    return X, labels


def save_dataset(path, X, labels):
    """Write a labeled dataset in the row format above."""
    X = np.asarray(X, dtype=float)
    if X.shape[0] != len(labels):
        raise ValidationError("labels do not align with rows")
    if any("\n" in str(label) or "\r" in str(label) for label in labels):
        raise ValidationError("labels must not contain line breaks")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for label, row in zip(labels, X):
            writer.writerow([label] + [repr(float(v)) for v in row])
