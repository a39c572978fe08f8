"""Labeled-vector CSV datasets.

Row format is ``label,x1,...,xL``.  load_dataset skips a header row,
detected by non-numeric fields; save_dataset writes none.  Floats are
written with repr so files round-trip exactly and identical runs produce
identical bytes.
"""

import csv

import numpy as np

from .errors import ValidationError


def load_dataset(path):
    """Read a labeled dataset; returns (X (n, L) float array, labels list).

    Features must be finite: a nan or inf is reported with its line.
    """
    rows = []
    labels = []
    linenos = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            values = row[1:]
            if lineno == 1 and values:
                try:
                    [float(v) for v in values]
                except ValueError:
                    continue  # header row
            if not values:
                raise ValidationError(
                    f"{path}:{lineno}: row has a label but no features")
            try:
                vec = [float(v) for v in values]
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: malformed value ({exc})") from None
            if width is None:
                width = len(vec)
            elif len(vec) != width:
                raise ValidationError(
                    f"{path}:{lineno}: expected {width} features, got {len(vec)}")
            labels.append(row[0])
            rows.append(vec)
            linenos.append(lineno)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    X = np.asarray(rows, dtype=float)
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for label, row in zip(labels, X):
            writer.writerow([label] + [repr(float(v)) for v in row])
