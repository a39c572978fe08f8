import contextlib
import io
import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gfda as gfda_module
from gfda import checks, cli, linalg
from gfda.classify import evaluate
from gfda.data import load_dataset
from gfda.errors import ValidationError


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def gaussian_sets(tmp_path):
    # same class definitions (seed), independent draws (sample seeds)
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    assert run("synth", "--kind", "gaussian", "--classes", "4", "--dim", "40",
               "--count", "12", "--mean-norm", "8", "--sigma-max", "1",
               "--seed", "5", "--sample-seed", "51", "--out", str(train)) == 0
    assert run("synth", "--kind", "gaussian", "--classes", "4", "--dim", "40",
               "--count", "12", "--mean-norm", "8", "--sigma-max", "1",
               "--seed", "5", "--sample-seed", "52", "--out", str(test)) == 0
    return train, test


class TestSynth:
    def test_gaussian_dataset_shape(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run("synth", "--kind", "gaussian", "--classes", "3", "--dim",
                   "10", "--count", "4", "--seed", "1", "--out", str(out)) == 0
        X, labels = load_dataset(out)
        assert X.shape == (12, 10)
        assert sorted(set(labels)) == ["c00", "c01", "c02"]

    @pytest.mark.parametrize("kind", ["mixture-set1", "mixture-set2"])
    def test_mixture_dataset_unit_norm(self, tmp_path, kind):
        out = tmp_path / "m.csv"
        assert run("synth", "--kind", kind, "--classes", "3", "--dim", "20",
                   "--count", "5", "--seed", "2", "--out", str(out)) == 0
        X, _ = load_dataset(out)
        npt.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)

    def test_sample_seed_shares_class_definitions(self, tmp_path):
        # same seed, different sample seeds: a model fitted on one draw
        # classifies the other draw nearly perfectly
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out, ss in ((a, "1"), (b, "2")):
            assert run("synth", "--kind", "gaussian", "--classes", "4",
                       "--dim", "30", "--count", "10", "--mean-norm", "8",
                       "--seed", "3", "--sample-seed", ss,
                       "--out", str(out)) == 0
        Xa, ya = load_dataset(a)
        Xb, yb = load_dataset(b)
        assert np.any(Xa != Xb)
        model = gfda_module.reg_lda(Xa, ya)
        rep = evaluate(model, Xb, yb)
        assert rep.recognition_rate >= 95.0

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("synth", "--kind", "mixture-set1", "--classes", "3",
                       "--dim", "15", "--count", "6", "--seed", "9",
                       "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args,message", [
        (["--kind", "gaussian", "--dim", "-5"], "got 10 and -5"),
        (["--kind", "mixture-set1", "--dim", "-5"], "got 10, -5, 9 and 0.4"),
        (["--kind", "mixture-set1", "--basis-count", "-1"],
         "got 10, 50, -1 and 0.4"),
        (["--kind", "mixture-set2", "--spread", "nan"],
         "got 10, 50, 9 and nan"),
        (["--kind", "gaussian", "--mean-norm", "nan"],
         "got 50, nan, 1.0 and 20"),
        (["--kind", "gaussian", "--sigma-max", "inf"],
         "got 50, 5.0, inf and 20"),
    ])
    def test_bad_parameters_exit_1_without_file(self, tmp_path, capsys,
                                                args, message):
        out = tmp_path / "s.csv"
        assert run("synth", *args, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestFitEval:
    def test_fit_writes_model(self, gaussian_sets, tmp_path):
        train, _ = gaussian_sets
        model_path = tmp_path / "model.json"
        assert run("fit", "--train", str(train), "--method", "regLDA",
                   "--out", str(model_path)) == 0
        payload = json.loads(model_path.read_text())
        assert payload["format"] == cli.MODEL_FORMAT
        assert payload["model"]["method"] == "regLDA"

    def test_fit_load_eval_matches_in_process(self, gaussian_sets, tmp_path):
        # a saved model scores as the model built in process does, normalized
        # (+N) or not, under either rule
        train, test = gaussian_sets
        X, y = load_dataset(train)
        Xte, yte = load_dataset(test)
        model_path = tmp_path / "model.json"
        out_path = tmp_path / "eval.csv"
        for options, classifier in (
                ({"method": "gfda-linear", "subspace_dim": "5",
                  "normalize": "true"}, "cosine"),
                ({"method": "regLDA", "normalize": "true"}, "nearest-mean"),
                ({"method": "gds", "gamma": "0.5"}, "nearest-mean")):
            flags = [a for k, v in options.items()
                     for a in (["--normalize"] if k == "normalize" else
                               ["--" + k.replace("_", "-"), v])]
            assert run("fit", "--train", str(train), *flags,
                       "--out", str(model_path)) == 0
            assert run("eval", "--model", str(model_path), "--test",
                       str(test), "--classifier", classifier,
                       "--out", str(out_path)) == 0
            rows = out_path.read_text().strip().splitlines()
            rec_file = float(rows[1].split(",")[2])
            eer_file = float(rows[1].split(",")[3])

            model = cli.build_model(
                cli.ExperimentConfig.from_mapping(options), X, y)
            rep = evaluate(model, Xte, yte, rule=classifier)
            assert rec_file == pytest.approx(rep.recognition_rate, abs=1e-12)
            assert eer_file == pytest.approx(rep.eer, abs=1e-12)

    def test_protocol_rows_and_summary(self, gaussian_sets, tmp_path):
        train, test = gaussian_sets
        out_path = tmp_path / "eval.csv"
        assert run("eval", "--train", str(train), "--test", str(test),
                   "--method", "regLDA", "--train-count", "5",
                   "--repetitions", "4", "--seed", "3",
                   "--out", str(out_path)) == 0
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "repetition,train_count,recognition_rate,eer"
        assert len(rows) == 1 + 4 + 2  # header, reps, mean, std
        assert rows[-2].startswith("mean,")
        assert rows[-1].startswith("std,")

    def test_heldout_split_when_no_test_file(self, gaussian_sets, tmp_path):
        train, _ = gaussian_sets
        out_path = tmp_path / "eval.csv"
        assert run("eval", "--train", str(train), "--method", "regLDA",
                   "--train-count", "6", "--repetitions", "2", "--seed", "4",
                   "--out", str(out_path)) == 0
        assert out_path.exists()

    def test_raw_score_export(self, gaussian_sets, tmp_path):
        train, test = gaussian_sets
        out = tmp_path / "eval.csv"
        scores = tmp_path / "scores.csv"
        for args in (["--method", "regLDA"], ["--method", "gds"],
                     ["--method", "gds", "--normalize",
                      "--classifier", "cosine"]):
            assert run("eval", "--train", str(train), "--test", str(test),
                       *args, "--train-count", "5", "--repetitions", "2",
                       "--seed", "3", "--out", str(out),
                       "--scores", str(scores)) == 0
            rows = scores.read_text().strip().splitlines()
            assert rows[0] == "repetition,kind,score"
            # 48 test samples per repetition: one genuine and C-1 impostor
            assert len(rows) == 1 + 2 * (48 + 48 * 3)
            values = np.array([float(r.split(",")[2]) for r in rows[1:]])
            assert np.isfinite(values).all()
            if "cosine" not in args:  # minus a squared distance
                assert values.max() <= 0

    def test_repeat_run_byte_identical(self, gaussian_sets, tmp_path):
        train, test = gaussian_sets
        outs = [tmp_path / "e1.csv", tmp_path / "e2.csv"]
        for out in outs:
            assert run("eval", "--train", str(train), "--test", str(test),
                       "--method", "gfda", "--train-count", "4",
                       "--repetitions", "1", "--seed", "11",
                       "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_single_training_sample_per_class(self, tmp_path):
        # the one-sample regime: the linear-combination form still fits and
        # classifies well above chance
        train = tmp_path / "train.csv"
        assert run("synth", "--kind", "gaussian", "--classes", "3", "--dim",
                   "40", "--count", "10", "--mean-norm", "8", "--sigma-max",
                   "1", "--seed", "31", "--out", str(train)) == 0
        out = tmp_path / "eval.csv"
        assert run("eval", "--train", str(train), "--method", "gfda-linear",
                   "--train-count", "1", "--repetitions", "3", "--seed", "2",
                   "--out", str(out)) == 0
        mean_row = out.read_text().strip().splitlines()[-2].split(",")
        assert mean_row[0] == "mean"
        assert float(mean_row[2]) > 100.0 / 3.0  # well above chance

    @pytest.mark.parametrize("count", [[], ["--train-count", "12"]])
    def test_nothing_drawn_fits_once(self, gaussian_sets, tmp_path,
                                     monkeypatch, count):
        # every class is taken whole (no train count, or one equal to every
        # class size): one fit serves all repetitions, and the file is the
        # one a fit per repetition writes
        train, test = gaussian_sets
        out = tmp_path / "eval.csv"
        build = cli.build_model
        calls = []
        monkeypatch.setattr(cli, "build_model", lambda *a: calls.append(1)
                            or build(*a))
        assert run("eval", "--train", str(train), "--test", str(test),
                   "--method", "gfda-linear", *count, "--repetitions", "4",
                   "--out", str(out)) == 0
        assert len(calls) == 1
        rows = out.read_text().splitlines()[1:5]
        assert len({row.split(",", 1)[1] for row in rows}) == 1

        cfg = cli.ExperimentConfig(method="gfda-linear", repetitions=4,
                                   train_count=12 if count else None)
        X, y = load_dataset(train)
        Xte, yte = load_dataset(test)
        reports = [evaluate(build(cfg, X, y), Xte, yte, rule=cfg.classifier)
                   for _ in range(4)]
        expected = tmp_path / "expected.csv"
        cli._write_eval_csv(expected, cfg, reports)
        assert out.read_bytes() == expected.read_bytes()

    def test_small_class_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "train.csv"
        rng = np.random.default_rng(12)
        rows = []
        for lab, n in (("a", 8), ("b", 8), ("tiny", 2)):
            for _ in range(n):
                rows.append([lab] + list(rng.standard_normal(5) +
                                         (10.0 if lab == "a" else 0.0)))
        path.write_text("\n".join(",".join(map(str, r)) for r in rows))
        out = tmp_path / "eval.csv"
        assert run("eval", "--train", str(path), "--method", "regLDA",
                   "--train-count", "4", "--repetitions", "1", "--seed", "0",
                   "--out", str(out)) == 0
        assert "skipped" in capsys.readouterr().err

    def test_identical_classes_linear_form_recorded(self, tmp_path):
        # a fully degenerate linear form is recorded, not raised: the model
        # is written, its selected eigenvalue is that of the doubled class
        # projection (2), not zero, and the warning is printed once
        import subprocess
        import sys

        rows = np.random.default_rng(13).standard_normal((4, 6))
        path = tmp_path / "train.csv"
        path.write_text("".join(f"{lab},{','.join(map(repr, r.tolist()))}\n"
                                for lab in "ab" for r in rows))
        model = tmp_path / "model.json"
        proc = subprocess.run(
            [sys.executable, "-m", "gfda", "fit", "--train", str(path),
             "--method", "gfda-linear", "--out", str(model)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("warning: ") == 1
        assert "0 of 1 selected eigenvalues are near zero" in proc.stderr
        info = json.loads(model.read_text())["model"]["info"]
        npt.assert_allclose(info["selected_eigenvalues"], [2.0], rtol=0,
                            atol=1e-12)


    def test_gds_selection_recorded_in_model_file(self, gaussian_sets,
                                                  tmp_path):
        train, _ = gaussian_sets
        path = tmp_path / "gds.json"
        assert run("fit", "--train", str(train), "--method", "gds",
                   "--gds-dims", "2", "--out", str(path)) == 0
        selection = json.loads(path.read_text())["model"]["info"]["selection"]
        assert selection == {"rule": "fixed", "dims": 2, "gamma": None,
                             "beta": None, "achieved_power": None}
        assert run("fit", "--train", str(train), "--method", "gds",
                   "--gamma", "0.5", "--out", str(path)) == 0
        selection = json.loads(path.read_text())["model"]["info"]["selection"]
        assert set(selection) == {"rule", "dims", "gamma", "beta",
                                  "achieved_power"}
        assert selection["rule"] == "power" and selection["gamma"] == 0.5
        assert selection["beta"] == pytest.approx(4 * 3 * 0.5)
        assert selection["achieved_power"] >= selection["beta"] - 1e-9

    def test_python_warning_printed_as_one_line(self, tmp_path, capsys):
        # the overlap warning reads like the CLI's own warnings: no source
        # path or echoed source line
        train = tmp_path / "train.csv"
        assert run("synth", "--kind", "mixture-set1", "--classes", "10",
                   "--dim", "60", "--count", "9", "--seed", "1",
                   "--sample-seed", "11", "--out", str(train)) == 0
        assert run("fit", "--train", str(train), "--method", "gfda-linear",
                   "--out", str(tmp_path / "model.json")) == 0
        err = capsys.readouterr().err
        assert "warning: only " in err
        assert "cli.py:" not in err
        assert all(line.startswith("warning: ") for line in err.splitlines())

    def test_null_lda_means_in_within_range_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        span = rng.standard_normal((4, 10))
        rows = rng.standard_normal((12, 4)) @ span
        path = tmp_path / "train.csv"
        path.write_text("".join(f"{lab},{','.join(map(repr, r.tolist()))}\n"
                                for lab, r in zip("aaaabbbbcccc", rows)))
        model = tmp_path / "model.json"
        assert run("fit", "--train", str(path), "--method", "nullLDA",
                   "--out", str(model)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nullLDA does not apply" in err
        assert not model.exists()

    def test_reg_lda_rows_with_no_variance_exit_1(self, tmp_path, capsys):
        path = tmp_path / "train.csv"
        path.write_text("a,1.0,2.0,3.0\n" * 3 + "b,1.0,2.0,3.0\n" * 3)
        model = tmp_path / "model.json"
        assert run("fit", "--train", str(path), "--method", "regLDA",
                   "--out", str(model)) == 1
        assert capsys.readouterr().err == "error: pooled data has no variance\n"
        assert not model.exists()


    @pytest.mark.parametrize("method,delta", [("regLDA", "0.0001"),
                                              ("pcaLDA", "1e-08")])
    def test_ridge_below_scatter_rounding_exit_1(self, tmp_path, capsys,
                                                 method, delta):
        # rows of scale 1e6: the within scatter's rounding (~1e-4) swamps
        # the ridge, which raised numpy's LinAlgError as a traceback
        X = 1e6 * np.random.default_rng(0).standard_normal((20, 40))
        path = tmp_path / "big.csv"
        path.write_text("".join(f"c{i % 4},{','.join(map(repr, r.tolist()))}\n"
                                for i, r in enumerate(X)))
        out = tmp_path / "eval.csv"
        assert run("eval", "--train", str(path), "--method", method,
                   "--train-count", "3", "--repetitions", "2",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: within-class scatter (largest entry ")
        assert f"plus the ridge delta = {delta} is not positive" in err
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("method", ["regLDA", "pcaLDA", "nullLDA",
                                        "gfda-linear", "gds", "gfda"])
    def test_overflowing_rows_exit_1(self, tmp_path, capsys, method):
        # rows of scale 1e160: the Gram of the centred rows (FDA family) and
        # the squared singular values of the class fits overflow, which
        # raised numpy's LinAlgError or read as rank 0
        X = 1e160 * np.random.default_rng(0).standard_normal((20, 40))
        path = tmp_path / "huge.csv"
        path.write_text("".join(f"c{i % 4},{','.join(map(repr, r.tolist()))}\n"
                                for i, r in enumerate(X)))
        out = tmp_path / "eval.csv"
        assert run("eval", "--train", str(path), "--method", method,
                   "--train-count", "3", "--repetitions", "2",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow" in err and "rescale the data" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("args", [
        ["--method", "nullLDA"],
        ["--method", "nullLDA", "--normalize"],
        ["--method", "gfda-linear", "--normalize"],
        ["--method", "gfda-linear", "--classifier", "cosine"],
        ["--method", "gfda", "--normalize"],
        ["--method", "gfda", "--classifier", "cosine"],
        ["--method", "gds", "--normalize"],
        ["--method", "gds", "--classifier", "cosine"],
    ], ids=["nullLDA", "nullLDA+N", "gfda-linear+N", "gfda-linear-cosine",
            "gfda+N", "gfda-cosine", "gds+N", "gds-cosine"])
    def test_scale_free_configurations_ignore_scale(self, tmp_path, args):
        # rows scaled by 2^k, an exact rescale: where neither the method
        # (no absolute ridge) nor the classifier (normalized or cosine
        # scores) carries a scale, every eval CSV is byte-identical.
        # Plain nearest-mean gFDA/GDS compare with unit first basis
        # vectors, and regLDA/pcaLDA add an absolute ridge, so those move
        X = np.random.default_rng(0).standard_normal((20, 40))
        outs = []
        for k in [0, -400, -60, 60, 400]:
            path = tmp_path / f"x{k}.csv"
            path.write_text("".join(
                f"c{i % 4},{','.join(map(repr, r.tolist()))}\n"
                for i, r in enumerate(np.ldexp(X, k))))
            out = tmp_path / f"eval{k}.csv"
            assert run("eval", "--train", str(path), "--train-count", "3",
                       "--repetitions", "2", "--out", str(out), *args) == 0
            outs.append(out.read_bytes())
        assert all(o == outs[0] for o in outs[1:])


def write_rows(path, rows, labels):
    path.write_text("".join(f"{lab},{','.join(map(repr, r.tolist()))}\n"
                            for lab, r in zip(labels, rows)))
    return path


def synth_mixture(path, kind, count, sample_seed):
    assert run("synth", "--kind", kind, "--classes", "5", "--dim", "40",
               "--count", count, "--seed", "1", "--sample-seed", sample_seed,
               "--out", str(path)) == 0
    return path


def edge_set(tmp_path, family):
    """The training set, test set and protocol options of one family."""
    if family == "near-overlap":
        # six 3-dimensional classes at separation 0.01 in L = 20, 8 rows each
        # in its class subspace: the union span's s^2_min / s^2_max is below
        # the guard's eps / ORTHO_IP_TOL = 2.2e-6
        ens = gfda_module.subspace_config(6, 3, 20, separation=0.01, seed=5)
        rng = np.random.default_rng(5)
        rows = np.vstack([rng.standard_normal((8, 3)) @ c.basis.T
                          for c in ens.classes])
        labels = [f"c{c.label}" for c in ens.classes for _ in range(8)]
        train = write_rows(tmp_path / "train.csv", rows, labels)
        return train, train, ["--repetitions", "1"]
    if family == "near-cut":
        # 20 rows in 4 classes, 40 features; the centred rows' singular
        # values fall geometrically to 1e-4 of the largest, so s^2 spans
        # 1e-8, below the guard's 2.2e-6
        rng = np.random.default_rng(1)
        left = rng.standard_normal((20, 19))
        left = np.linalg.qr(left - left.mean(axis=0))[0]
        right = np.linalg.qr(rng.standard_normal((40, 19)))[0]
        rows = (left * 1e-4 ** (np.arange(19) / 18)) @ right.T + 3.0
        train = write_rows(tmp_path / "train.csv", rows,
                           [f"c{i % 4}" for i in range(20)])
        return train, train, ["--repetitions", "1"]
    test = synth_mixture(tmp_path / "test.csv", "mixture-set2", "10", "12")
    if family == "mixture":
        train = synth_mixture(tmp_path / "train.csv", "mixture-set1", "24",
                              "11")
        return train, test, ["--train-count", "20", "--repetitions", "2"]
    # repeated: 20 rows, each appended a second time, so n = 40 rows whose
    # centred rank is at most 19 < n - 1 = L - 1
    rows = synth_mixture(tmp_path / "rows.csv", "mixture-set1", "4", "13")
    train = tmp_path / "train.csv"
    train.write_text(rows.read_text() * 2)
    return train, test, ["--repetitions", "1"]


@pytest.mark.parametrize("family,method,error", [
    ("mixture", ["fda"], None),
    ("mixture", ["fda", "--normalize"], None),
    ("near-overlap", ["gds", "--gds-dims", "5"], None),
    ("near-overlap", ["gfda-linear"], None),
    ("near-cut", ["regLDA"], None),
    ("near-cut", ["pcaLDA"], None),
    ("near-cut", ["nullLDA"], None),
    ("repeated", ["regLDA"], None),
    ("repeated", ["pcaLDA"], None),
    ("repeated", ["nullLDA"], None),
    ("repeated", ["fda"], "error: within-class scatter is singular"),
], ids=["mixture-fda", "mixture-fda+N", "near-overlap-gds",
        "near-overlap-gfda-linear", "near-cut-regLDA", "near-cut-pcaLDA",
        "near-cut-nullLDA", "repeated-regLDA", "repeated-pcaLDA",
        "repeated-nullLDA", "repeated-fda"])
def test_eval_on_edge_sets(tmp_path, capsys, monkeypatch, family, method,
                           error):
    # each eval writes every row, or prints one error line and no file; only
    # the near sets' frames take the guard's lifted route (CholeskyQR pass)
    train, test, options = edge_set(tmp_path, family)
    lifted = []
    real = linalg._lifted_frame
    monkeypatch.setattr(linalg, "_lifted_frame",
                        lambda *args: lifted.append(1) or real(*args))
    out = tmp_path / "eval.csv"
    capsys.readouterr()
    code = run("eval", "--train", str(train), "--test", str(test),
               "--method", *method, *options, "--out", str(out))
    err = capsys.readouterr().err
    if error:
        assert code == 1 and not out.exists()
        assert err.startswith(error) and err.count("\n") == 1
    else:
        assert code == 0, err
        assert len(out.read_text().splitlines()) == 1 + int(options[-1]) + 2
    assert bool(lifted) == family.startswith("near")


class TestSweep:
    def test_sweep_table(self, tmp_path):
        train = tmp_path / "train.csv"
        assert run("synth", "--kind", "mixture-set1", "--classes", "3",
                   "--dim", "30", "--count", "10", "--seed", "21",
                   "--out", str(train)) == 0
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--train", str(train), "--method", "gfda-linear",
                   "--min-n", "2", "--max-n", "9", "--repetitions", "3",
                   "--seed", "1", "--out", str(out)) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("train_count,")
        assert len(rows) == 1 + 8  # one row per training count 2..9
        ns = [int(r.split(",")[0]) for r in rows[1:]]
        assert ns == list(range(2, 10))


def write_classes(path, sizes, seed):
    """A CSV with sizes[label] rows per label, class a offset from the rest."""
    rng = np.random.default_rng(seed)
    lines = []
    for lab, n in sizes.items():
        for row in rng.standard_normal((n, 5)) + (10.0 if lab == "a" else 0.0):
            lines.append(f"{lab},{','.join(map(repr, row.tolist()))}\n")
    path.write_text("".join(lines))
    return path


class TestSkippedClassWarnings:
    """A class below train_count is skipped once per protocol, not once per
    repetition."""

    def test_eval_warns_once_per_protocol(self, tmp_path, capsys):
        sizes = {"a": 8, "b": 8, "tiny": 2}
        train = write_classes(tmp_path / "train.csv", sizes, 15)
        test = write_classes(tmp_path / "test.csv", sizes, 16)
        out = tmp_path / "eval.csv"
        assert run("eval", "--train", str(train), "--test", str(test),
                   "--method", "regLDA", "--train-count", "4",
                   "--repetitions", "5", "--seed", "0",
                   "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: class 'tiny' has 2 < 4 samples; skipped",
            "warning: test samples of skipped classes ignored"]
        assert captured.out.startswith("5 repetition(s): ")
        assert len(out.read_text().splitlines()) == 1 + 5 + 2

    def test_sweep_warns_once_per_row(self, tmp_path, capsys):
        train = write_classes(tmp_path / "train.csv",
                              {"a": 8, "b": 8, "tiny": 2}, 17)
        assert run("sweep", "--train", str(train), "--method", "regLDA",
                   "--min-n", "1", "--max-n", "6", "--repetitions", "3",
                   "--seed", "0", "--out", str(tmp_path / "sweep.csv")) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: class 'tiny' has 2 < {n} samples; skipped"
            for n in range(3, 7)]

    def test_library_caller_gets_runtime_warnings(self, tmp_path):
        sizes = {"a": 6, "b": 6, "tiny": 1}
        train = write_classes(tmp_path / "train.csv", sizes, 18)
        test = write_classes(tmp_path / "test.csv", sizes, 19)
        cfg = cli.ExperimentConfig.from_mapping(
            {"train": str(train), "test": str(test), "method": "regLDA",
             "train_count": 2, "repetitions": 4})
        with pytest.warns(RuntimeWarning) as record:
            reports = cli.run_protocol(cfg)
        assert len(reports) == 4
        assert [str(w.message) for w in record] == [
            "class 'tiny' has 1 < 2 samples; skipped",
            "test samples of skipped classes ignored"]


def reference_split(X, y, n, rng, external):
    """One repetition's split as a per-class loop: n rows drawn per class
    with at least n rows, in sorted label order; the test set is the
    external one without the skipped classes, or the rows not drawn."""
    y = np.asarray(y)
    train_idx, test_idx, kept = [], [], []
    for label in sorted(set(y.tolist())):
        idx = np.nonzero(y == label)[0]
        if n is not None and idx.size < n:
            continue
        kept.append(label)
        if n is None:
            train_idx.extend(idx.tolist())
        else:
            chosen = np.zeros(idx.size, dtype=bool)
            chosen[rng.choice(idx.size, size=n, replace=False)] = True
            train_idx.extend(idx[chosen].tolist())
            test_idx.extend(idx[~chosen].tolist())
    if len(kept) < 2:
        return "fewer than 2 classes"
    if external is not None:
        Xte, yte = external
        mask = [lab in kept for lab in yte]
        return (X[train_idx], y[train_idx].tolist(),
                Xte[np.asarray(mask, dtype=bool)],
                [lab for lab, m in zip(yte, mask) if m])
    if not test_idx:
        return "no held-out samples"
    return (X[train_idx], y[train_idx].tolist(), X[test_idx],
            y[test_idx].tolist())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=2, max_size=5),
       n=st.sampled_from([None, 1, 2, 3, 4]),
       external=st.booleans(), repetitions=st.integers(1, 3),
       seed=st.integers(0, 2**16), order_seed=st.integers(0, 2**16))
def test_protocol_split_matches_reference(sizes, n, external, repetitions,
                                          seed, order_seed):
    # build_model and evaluate record their inputs, which must be the
    # reference split's, bit for bit, in every repetition
    rng = np.random.default_rng(order_seed)
    labels = [f"c{c}" for c, k in enumerate(sizes) for _ in range(k)]
    y = [labels[i] for i in rng.permutation(len(labels))]
    X = rng.standard_normal((len(y), 3))
    ext = None
    if external:  # label c<len(sizes)> is in no training class
        ext = (rng.standard_normal((7, 3)),
               [f"c{c}" for c in rng.integers(0, len(sizes) + 1, 7)])
    expected = [reference_split(X, y, n, np.random.default_rng(seed + rep),
                                ext) for rep in range(repetitions)]
    cfg = cli.ExperimentConfig(train_count=n, repetitions=repetitions,
                               seed=seed)
    calls = []
    with pytest.MonkeyPatch.context() as mp, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mp.setattr(cli, "build_model", lambda cfg, Xtr, ytr:
                   calls.append((Xtr, ytr)) or "model")
        mp.setattr(cli, "evaluate", lambda model, Xte, yte, rule:
                   calls.append((Xte, yte)) or model)
        if isinstance(expected[0], str):
            with pytest.raises(ValidationError, match=expected[0]):
                cli.run_protocol(cfg, (X, y, ext))
        else:
            reports = cli.run_protocol(cfg, (X, y, ext))
            assert reports == ["model"] * repetitions
    if isinstance(expected[0], str):
        assert calls == []
    else:
        # with nothing drawn, one fit and one evaluation serve every
        # repetition (the reference splits are then all equal)
        whole = n is None or all(k == n for k in sizes if k >= n)
        builds = 1 if whole else repetitions
        assert len(calls) == 2 * builds
        for rep, (Xtr, ytr, Xte, yte) in enumerate(expected[:builds]):
            npt.assert_array_equal(calls[2 * rep][0], Xtr)
            assert calls[2 * rep][1] == ytr
            npt.assert_array_equal(calls[2 * rep + 1][0], Xte)
            assert calls[2 * rep + 1][1] == yte
    skipped = sum(n is not None and k < n for k in sizes)
    assert sum("samples; skipped" in str(w.message) for w in caught) == skipped


def test_external_test_set_reaches_evaluate_uncopied():
    # no class is skipped, so every repetition scores the caller's own test
    # matrix, and the protocol leaves the caller's arrays as they were
    rng = np.random.default_rng(20)
    y = [f"c{i % 3}" for i in range(15)]
    X = rng.standard_normal((15, 6))
    Xte = rng.standard_normal((9, 6))
    yte = [f"c{i % 3}" for i in range(9)]
    before = (X.tobytes(), Xte.tobytes(), list(y), list(yte))
    cfg = cli.ExperimentConfig(method="regLDA", train_count=3,
                               repetitions=3, seed=4)
    seen = []
    real_evaluate = cli.evaluate
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")  # a skipped class would warn
        mp.setattr(cli, "evaluate", lambda model, Xe, ye, rule:
                   seen.append(Xe) or real_evaluate(model, Xe, ye, rule))
        reports = cli.run_protocol(cfg, (X, y, (Xte, yte)))
    assert len(reports) == len(seen) == 3
    assert all(np.shares_memory(Xe, Xte) for Xe in seen)
    assert (X.tobytes(), Xte.tobytes(), y, yte) == before


def test_interleaved_protocols_match_fresh_evals(tmp_path):
    # perfbench's warm loop on small-protocol's shape: one repetition per
    # call, configurations interleaved over shared read-only arrays, forward
    # and reversed.  Each report must print as the same repetition of a fresh
    # eval does, so no call writes into an input or leaves state behind
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    for kind, count, sample_seed, path in (
            ("mixture-set1", "9", "101", train),
            ("mixture-set2", "50", "102", test)):
        assert run("synth", "--kind", kind, "--classes", "10", "--dim", "60",
                   "--count", count, "--seed", "1", "--sample-seed",
                   sample_seed, "--out", str(path)) == 0
    configs = [{"method": method, "normalize": normalize, "classifier": rule}
               for method in ("pcaLDA", "regLDA", "nullLDA", "gfda",
                              "gfda-linear", "gds")
               for normalize in (False, True)
               for rule in ("nearest-mean", "cosine")]
    expected = []
    for c, config in enumerate(configs):
        out = tmp_path / f"eval{c}.csv"
        assert run("eval", "--train", str(train), "--test", str(test),
                   "--method", config["method"], "--classifier",
                   config["classifier"], *["--normalize"] * config["normalize"],
                   "--train-count", "4", "--repetitions", "4", "--seed", "1",
                   "--out", str(out)) == 0
        expected.append([row.split(",")[2:] for row in
                         out.read_text().splitlines()[1:5]])
    X, y = load_dataset(train)
    Xte, yte = load_dataset(test)
    X.flags.writeable = Xte.flags.writeable = False
    order = list(range(len(configs)))
    for rep, sequence in enumerate([order, order[::-1]] * 2):
        for c in sequence:
            cfg = cli.ExperimentConfig.from_mapping(
                dict(configs[c], train_count=4, repetitions=1, seed=1 + rep))
            report, = cli.run_protocol(cfg, (X, y, (Xte, yte)))
            assert [cli._fmt(report.recognition_rate),
                    cli._fmt(report.eer)] == expected[c][rep], configs[c]


class TestInvariantsCommand:
    def test_default_scope_passes(self, capsys):
        assert run("invariants") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == len(checks.BATTERIES)

    def test_single_scope(self, capsys):
        assert run("invariants", "--scope", "gap") == 0
        out = capsys.readouterr().out
        assert "gap-index" in out and "sigma(100)=1.98" in out

    def test_unknown_scope_exit_1(self, capsys):
        # the scope is checked before any battery runs
        assert run("invariants", "--scope", "gap", "--scope", "bogus") == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: unknown scope 'bogus'; pick from "
                       f"{sorted(checks.BATTERIES)}\n")

    def test_failure_exit_code(self, monkeypatch, capsys):
        def fake_run(scopes=None):
            return [checks.CheckResult("forced", False, 1.0, 0.0, "test")]
        monkeypatch.setattr(checks, "run", fake_run)
        assert run("invariants") == 2


class TestEigencurves:
    def test_three_class_curves(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run("eigencurves", "--classes", "3", "--subspace-dim", "3",
                   "--ambient", "36", "--seed", "2", "--out", str(out)) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "index,eigenvalue_g,eigenvalue_ghat,power_g,power_ghat"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert data.shape[0] == 9  # rank of the summed projections
        # the first C-1 eigenvalues of the linear-combination matrix vanish
        assert np.all(np.abs(data[:2, 2]) <= 1e-8)
        # and their power column is flat at C
        npt.assert_allclose(data[:2, 4], [3.0, 3.0], atol=1e-8)

    def test_five_class_total_power(self, tmp_path):
        out = tmp_path / "curves.csv"
        assert run("eigencurves", "--classes", "5", "--subspace-dim", "3",
                   "--seed", "3", "--out", str(out)) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "index,eigenvalue_g,eigenvalue_ghat,power_g,power_ghat"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert data.shape[0] == 15  # the rank of G: C N
        npt.assert_allclose(data[:4, 4].sum(), 20.0, atol=1e-8)

    @pytest.mark.parametrize("C,N,separation", [(3, 2, 1.0), (4, 1, 0.3),
                                                (6, 3, 0.7)])
    def test_curves_match_reference_route(self, tmp_path, C, N, separation):
        """The L x L route: G = sum_c P_c and B from scatter_ladder, G's
        range as the frame, powers from discriminant_power_curve."""
        from gfda import reference
        out = tmp_path / "curves.csv"
        assert run("eigencurves", "--classes", str(C), "--subspace-dim",
                   str(N), "--separation", str(separation), "--seed", "5",
                   "--out", str(out)) == 0
        rows = out.read_text().strip().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
        ens = gfda_module.subspace_config(C, N, 4 * C * N,
                                          separation=separation, seed=5)
        pair = reference.scatter_ladder(ens, "gFDA")
        vals, vecs = np.linalg.eigh(pair.within)
        U = vecs[:, -C * N:]
        vals_h, V = np.linalg.eigh(U.T @ (pair.within - pair.between / C) @ U)
        npt.assert_allclose(data[:, 0], vals[-C * N:], atol=1e-10)
        npt.assert_allclose(data[:, 1], vals_h, atol=1e-10)
        npt.assert_allclose(data[:, 2], reference.discriminant_power_curve(
            U, pair), rtol=1e-8)
        npt.assert_allclose(data[:, 3], reference.discriminant_power_curve(
            U @ V, pair), rtol=1e-8)


class TestConfigHandling:
    def test_config_file_with_overrides(self, gaussian_sets, tmp_path):
        train, test = gaussian_sets
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"method = regLDA\ndelta = 1e-4  # ridge\ntrain = {train}\n"
            f"test = {test}\nrepetitions = 2\ntrain_count = 5\nseed = 1\n")
        out = tmp_path / "eval.csv"
        assert run("eval", "--config", str(cfg), "--out", str(out)) == 0
        assert out.exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("methd = regLDA\n")
        assert run("eval", "--config", str(cfg), "--out",
                   str(tmp_path / "x.csv")) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_parameter_method_mismatch(self, gaussian_sets, tmp_path, capsys):
        train, _ = gaussian_sets
        assert run("fit", "--train", str(train), "--method", "regLDA",
                   "--gamma", "0.9", "--out", str(tmp_path / "m.json")) == 1
        assert "only applies" in capsys.readouterr().err

    def test_malformed_dataset_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,1.0,2.0\nb,oops,3.0\n")
        assert run("fit", "--train", str(bad), "--method", "regLDA",
                   "--out", str(tmp_path / "m.json")) == 1
        assert ":2" in capsys.readouterr().err

    def test_missing_out_rejected(self, gaussian_sets):
        train, _ = gaussian_sets
        assert run("fit", "--train", str(train), "--method", "regLDA") == 1

    @pytest.mark.parametrize("args,named", [
        (["--train-count", "3"], "train_count"),
        (["--repetitions", "5"], "repetitions"),
        (["--test", "TEST"], "test"),
        (["--seed", "9"], "seed"),
        (["--classifier", "cosine"], "classifier"),
    ])
    def test_fit_rejects_evaluation_options(self, gaussian_sets, tmp_path,
                                            capsys, args, named):
        train, test = gaussian_sets
        out = tmp_path / "model.json"
        args = [str(test) if a == "TEST" else a for a in args]
        assert run("fit", "--train", str(train), "--method", "regLDA",
                   *args, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: fit trains one model on every training row; evaluation "
            f"options do not apply: {named}\n")
        assert not out.exists()

    def test_fit_rejects_evaluation_options_from_config(
            self, gaussian_sets, tmp_path, capsys):
        train, test = gaussian_sets
        config = tmp_path / "run.cfg"
        config.write_text(f"method = regLDA\ntest = {test}\nseed = 4\n")
        out = tmp_path / "model.json"
        assert run("fit", "--config", str(config), "--train", str(train),
                   "--out", str(out)) == 1
        assert "evaluation options do not apply: seed, test" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_train_count(self, gaussian_sets, tmp_path, capsys):
        train, test = gaussian_sets
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--train", str(train), "--test", str(test),
                   "--method", "regLDA", "--train-count", "7",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: sweep runs every train_count from --min-n to --max-n; "
            "the option does not apply: train_count\n")
        assert not out.exists()

    def test_sweep_rejects_train_count_from_config(self, gaussian_sets,
                                                   tmp_path, capsys):
        train, test = gaussian_sets
        config = tmp_path / "run.cfg"
        config.write_text(f"method = regLDA\ntest = {test}\ntrain_count = 7\n")
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--config", str(config), "--train", str(train),
                   "--out", str(out)) == 1
        assert "the option does not apply: train_count" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_maps_to_one(self):
        assert run("eigencurves") == 1  # missing required arguments

    @pytest.mark.parametrize("argv", [
        "synth --kind gaussian --classes x --out x.csv",
        "eval --train train.csv --method regLDA --delta -1e-3 --out e.csv",
        "eval --train train.csv --bogus 1 --out e.csv",
        "eigencurves --out c.csv",
    ])
    def test_parse_error_is_one_line(self, gaussian_sets, monkeypatch,
                                     capsys, argv):
        monkeypatch.chdir(gaussian_sets[0].parent)
        before = sorted(p.name for p in gaussian_sets[0].parent.iterdir())
        capsys.readouterr()
        assert run(*argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert "usage:" not in captured.err
        assert sorted(p.name for p in gaussian_sets[0].parent.iterdir()) == before

    def test_help_exits_zero(self, capsys):
        assert run("eval", "--help") == 0
        assert capsys.readouterr().out.startswith("usage: gfda eval")

    def test_non_finite_dataset_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,1.0,2.0,0.5\na,1.1,2.0,0.4\nb,0.2,nan,3.0\n"
                       "b,0.1,1.0,3.0\n")
        assert run("eval", "--train", str(bad), "--method", "gfda-linear",
                   "--train-count", "1", "--repetitions", "1",
                   "--out", str(tmp_path / "e.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.csv:3" in err

    def test_gds_dims_with_gamma_rejected(self, gaussian_sets, tmp_path,
                                          capsys):
        train, test = gaussian_sets
        out = tmp_path / "e.csv"
        assert run("eval", "--train", str(train), "--test", str(test),
                   "--method", "gds", "--gamma", "0.5", "--gds-dims", "3",
                   "--train-count", "5", "--repetitions", "1",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: give exactly one of dims or gamma\n")
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("repetitions = abc", "repetitions: not an integer: 'abc'"),
        ("seed = 1.5", "seed: not an integer: '1.5'"),
        ("delta = abc", "delta: not a finite number: 'abc'"),
        ("delta = nan", "delta: not a finite number: 'nan'"),
    ])
    def test_unparsable_config_value(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"method = regLDA\n{line}\n")
        assert run("eval", "--config", str(cfg), "--out",
                   str(tmp_path / "x.csv")) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"


    def test_non_utf8_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"method=regLDA\n\xff\xfe=1\n")
        out = tmp_path / "x.csv"
        assert run("eval", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: not UTF-8 text (")
        assert "Traceback" not in err and not out.exists()

    def test_repeated_key_rejected(self, gaussian_sets, tmp_path, capsys):
        train, _ = gaussian_sets
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("method = regLDA\nmethod = gds\n")
        out = tmp_path / "m.json"
        assert run("fit", "--config", str(cfg), "--train", str(train),
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: key 'method' repeated\n")
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("seed", "x"), ("repetitions", "0"), ("delta", "nan"),
        ("method", "bogus"), ("classifier", "bogus"), ("train_count", "4.5"),
        ("gamma", "abc"), ("gds_dims", "1.5"), ("subspace_dim", "x"),
        ("energy", "inf"), ("residual_threshold", "nan"),
    ])
    def test_flag_and_config_line_fail_alike(self, gaussian_sets, tmp_path,
                                             capsys, key, value):
        train, _ = gaussian_sets
        out = tmp_path / "e.csv"
        base = {"method": "regLDA", "train": str(train), "train_count": "3"}
        base[key] = value
        flags = [a for k, v in base.items()
                 for a in ("--" + k.replace("_", "-"), v)]
        capsys.readouterr()
        assert run("eval", *flags, "--out", str(out)) == 1
        from_flag = capsys.readouterr().err
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
        assert run("eval", "--config", str(cfg), "--out", str(out)) == 1
        from_config = capsys.readouterr().err
        assert from_flag == from_config
        assert from_flag.startswith("error: ") and from_flag.count("\n") == 1
        assert "usage:" not in from_flag and not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("train_count", 4.5), ("repetitions", 2.9), ("seed", float("inf")),
        ("gds_dims", "3.0"),
    ])
    def test_non_integer_number_rejected(self, key, value):
        with pytest.raises(ValidationError,
                           match=f"^{key}: not an integer: {value!r}$"):
            cli.ExperimentConfig.from_mapping({"method": "gds", key: value})

    def test_integral_number_accepted(self):
        cfg = cli.ExperimentConfig.from_mapping({"train_count": 4.0,
                                                 "repetitions": 3})
        assert (cfg.train_count, cfg.repetitions) == (4, 3)
        assert isinstance(cfg.train_count, int)


@pytest.mark.parametrize("argv", [
    ["eval", "--train", "{train}", "--test", "{test}", "--method", "regLDA",
     "--train-count", "3", "--repetitions", "2", "--seed", "-1"],
    ["sweep", "--config", "{config}", "--min-n", "2", "--max-n", "3",
     "--repetitions", "2"],
    ["synth", "--kind", "gaussian", "--seed", "-3"],
    ["synth", "--kind", "mixture-set1", "--sample-seed", "-2"],
    ["eigencurves", "--classes", "3", "--seed", "-2"],
], ids=["eval", "sweep-config", "synth-seed", "synth-sample-seed",
        "eigencurves"])
def test_negative_seed_exit_1_without_file(gaussian_sets, tmp_path, capsys,
                                           argv):
    train, test = gaussian_sets
    config = tmp_path / "exp.cfg"
    config.write_text(f"method = regLDA\ntrain = {train}\nseed = -4\n")
    out = tmp_path / "out.csv"
    capsys.readouterr()
    argv = [a.format(train=train, test=test, config=config) for a in argv]
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


class TestModelFile:
    @pytest.fixture()
    def model_payload(self, gaussian_sets, tmp_path):
        train, _ = gaussian_sets
        path = tmp_path / "model.json"
        assert run("fit", "--train", str(train), "--method", "gfda",
                   "--subspace-dim", "2", "--out", str(path)) == 0
        return json.loads(path.read_text())

    def _eval_model(self, gaussian_sets, tmp_path, text):
        _, test = gaussian_sets
        path = tmp_path / "bad.json"
        path.write_text(text)
        return run("eval", "--model", str(path), "--test", str(test),
                   "--out", str(tmp_path / "e.csv"))

    def test_malformed_json(self, gaussian_sets, tmp_path, capsys):
        assert self._eval_model(gaussian_sets, tmp_path, '{"format": ') == 1
        assert "JSONDecodeError" in capsys.readouterr().err

    def test_payload_not_an_object(self, gaussian_sets, tmp_path, capsys):
        assert self._eval_model(gaussian_sets, tmp_path, "[1, 2]") == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_model_entry(self, gaussian_sets, tmp_path, capsys):
        text = json.dumps({"format": cli.MODEL_FORMAT})
        assert self._eval_model(gaussian_sets, tmp_path, text) == 1
        assert "KeyError: 'model'" in capsys.readouterr().err

    def test_missing_model_keys(self, gaussian_sets, tmp_path, capsys):
        text = json.dumps({"format": cli.MODEL_FORMAT, "model": {}})
        assert self._eval_model(gaussian_sets, tmp_path, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "KeyError" in err

    @pytest.mark.parametrize("key,value", [
        ("class_refs", [[1.0, 2.0]]),
        ("whitening_map", [[1.0, 0.0], [0.0, 1.0]]),
        ("basis", [1.0, 0.0]),
        ("basis", [[1.0, "x"]]),
        ("class_refs", [[1.0], [1.0, 2.0]]),
        ("class_refs", [[float("nan")] * 3] * 4),
        ("class_labels", ["c00", "c00", "c01", "c02"]),
        ("class_labels", 3),
        ("info", [1]),
        ("basis", 5),
        ("projector", [1.0, 0.0]),
        ("projector", [[1.0, "x"]]),
        ("projector", 5),
        ("normalized", "false"),
        ("normalized", 1),
    ])
    def test_malformed_model_entry(self, gaussian_sets, tmp_path, capsys,
                                  model_payload, key, value):
        model_payload["model"][key] = value
        text = json.dumps(model_payload)
        assert self._eval_model(gaussian_sets, tmp_path, text) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("normalized,suffix", [(True, ""),
                                                   (False, "+N")])
    def test_normalized_disagrees_with_method(self, gaussian_sets, tmp_path,
                                              capsys, model_payload,
                                              normalized, suffix):
        model_payload["model"]["normalized"] = normalized
        model_payload["model"]["method"] += suffix
        text = json.dumps(model_payload)
        assert self._eval_model(gaussian_sets, tmp_path, text) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "+N suffix" in err

    def test_wrong_format_tag(self, gaussian_sets, tmp_path, capsys,
                              model_payload):
        model_payload["format"] = "gfda-model-v0"
        text = json.dumps(model_payload)
        assert self._eval_model(gaussian_sets, tmp_path, text) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'bad.json'}: not a {cli.MODEL_FORMAT} file\n")

    def test_v1_format_tag_rejected(self, gaussian_sets, tmp_path, capsys,
                                    model_payload):
        model_payload["format"] = "gfda-model-v1"
        text = json.dumps(model_payload)
        assert self._eval_model(gaussian_sets, tmp_path, text) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'bad.json'}: not a {cli.MODEL_FORMAT} file\n")

    def test_round_trip_still_loads(self, gaussian_sets, tmp_path,
                                    model_payload):
        text = json.dumps(model_payload)
        assert self._eval_model(gaussian_sets, tmp_path, text) == 0

    def test_file_holds_format_and_model_only(self, model_payload):
        # classifier and seed are options of a run, not of the model
        assert set(model_payload) == {"format", "model"}

    @pytest.mark.parametrize("args,named", [
        (["--normalize", "--method", "gds", "--train-count", "3"],
         "method, normalize, train_count"),
        (["--repetitions", "5"], "repetitions"),
        (["--train", "TRAIN"], "train"),
        (["--delta", "1e-3"], "delta"),
        (["--residual-threshold", "0.1"], "residual_threshold"),
        (["--gamma", "0.5"], "gamma"),
        (["--gds-dims", "2"], "gds_dims"),
        (["--subspace-dim", "2"], "subspace_dim"),
        (["--energy", "0.9"], "energy"),
        (["--seed", "3"], "seed"),
    ])
    def test_eval_model_rejects_training_options(self, gaussian_sets,
                                                 tmp_path, capsys,
                                                 model_payload, args, named):
        train, test = gaussian_sets
        path = tmp_path / "model.json"
        out = tmp_path / "e.csv"
        args = [str(train) if a == "TRAIN" else a for a in args]
        assert run("eval", "--model", str(path), "--test", str(test),
                   *args, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == ("error: --model scores the saved model as it is; "
                       f"training options do not apply: {named}\n")
        assert not out.exists()

    def test_eval_model_rejects_training_options_from_config(
            self, gaussian_sets, tmp_path, capsys, model_payload):
        _, test = gaussian_sets
        config = tmp_path / "run.cfg"
        config.write_text("classifier = cosine\nnormalize = true\n")
        out = tmp_path / "e.csv"
        assert run("eval", "--model", str(tmp_path / "model.json"),
                   "--test", str(test), "--config", str(config),
                   "--out", str(out)) == 1
        assert "training options do not apply: normalize" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_test_set_of_wrong_width(self, tmp_path, capsys):
        paths = {}
        for dim in (10, 12):
            paths[dim] = tmp_path / f"d{dim}.csv"
            assert run("synth", "--kind", "gaussian", "--classes", "3",
                       "--dim", str(dim), "--count", "4", "--seed", "1",
                       "--out", str(paths[dim])) == 0
        model = tmp_path / "model.json"
        assert run("fit", "--train", str(paths[10]), "--method", "regLDA",
                   "--out", str(model)) == 0
        capsys.readouterr()
        assert run("eval", "--model", str(model), "--test", str(paths[12]),
                   "--out", str(tmp_path / "e.csv")) == 1
        assert capsys.readouterr().err == (
            "error: test vectors have 12 features; the model expects 10\n")


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    """The bytes of a fitted product-form model, its test set, and a
    scratch directory."""
    root = tmp_path_factory.mktemp("fuzz")
    train, test, model = (root / "train.csv", root / "test.csv",
                          root / "model.json")
    for out, sample_seed in ((train, "1"), (test, "2")):
        assert run("synth", "--kind", "gaussian", "--classes", "3", "--dim",
                   "12", "--count", "4", "--seed", "7", "--sample-seed",
                   sample_seed, "--out", str(out)) == 0
    assert run("fit", "--train", str(train), "--method", "gfda",
               "--normalize", "--out", str(model)) == 0
    return model.read_bytes(), test, root


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_corrupted_model_file_fails_cleanly(saved_model, data):
    original, test, root = saved_model
    corrupted = bytearray(original)
    # mostly number bytes overwritten by number bytes, which keeps the file
    # valid JSON, so corruptions also reach the model's values
    numeric = [i for i, b in enumerate(original) if b in b"0123456789.-e"]
    pos = st.one_of(st.sampled_from(numeric),
                    st.integers(0, len(original) - 1))
    byte = st.one_of(st.sampled_from(b"0123456789-.e"), st.integers(0, 255))
    for i, b in data.draw(st.lists(st.tuples(pos, byte), min_size=1,
                                   max_size=4)):
        corrupted[i] = b
    if data.draw(st.sampled_from([False, False, False, True])):
        del corrupted[data.draw(st.integers(0, len(corrupted) - 1)):]
    path = root / "corrupted.json"
    path.write_bytes(bytes(corrupted))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("eval", "--model", str(path), "--test", str(test),
                   "--out", str(root / "e.csv"))
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; the runtime solves with numpy
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gfda.cli; assert 'scipy' not in sys.modules"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_eval_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma on its first call, a fixed cost of every
    # eval process; the EER takes its knots without it
    import subprocess
    import sys

    train = tmp_path / "train.csv"
    assert run("synth", "--kind", "mixture-set1", "--classes", "3", "--dim",
               "12", "--count", "6", "--seed", "4", "--out", str(train)) == 0
    argv = ["eval", "--train", str(train), "--train-count", "3",
            "--repetitions", "2", "--out", str(tmp_path / "eval.csv")]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\nfrom gfda import cli\n"
         f"assert cli.main({argv!r}) == 0\n"
         "assert 'numpy.ma' not in sys.modules"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
