"""Command-line driver: fit models, run evaluation protocols and sweeps,
check invariants, and emit eigenvalue/power curves as tables.

Every command is a pure function of its configuration, dataset bytes, and
seed; rerunning with the same inputs reproduces output files byte for byte.
Exit codes: 0 success, 1 validation error, 2 invariant failure.
"""

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import linalg
from .classify import RULES, evaluate
from .data import load_dataset, save_dataset
from .errors import GfdaError, ValidationError
from .fisher import (DiscriminantModel, ScatterPair, discriminant_power_curve,
                     fda, gds_discriminant, gfda_linear_form,
                     gfda_product_form, null_lda, pca_lda, reg_lda,
                     union_frame, with_normalization)
from .subspace import fit_ensemble, group_by_label

METHODS = ("fda", "pcaLDA", "regLDA", "nullLDA", "gfda", "gfda-linear", "gds")

# Which optional parameters make sense for which method.
_PARAM_METHODS = {
    "delta": {"regLDA"},
    "residual_threshold": {"pcaLDA"},
    "gamma": {"gds"},
    "gds_dims": {"gds"},
    "subspace_dim": {"gfda", "gfda-linear", "gds"},
    "energy": {"gfda", "gfda-linear", "gds"},
}

# The options a command would ignore, and how it says so: eval --model fits
# nothing, fit evaluates nothing, and sweep sets train_count itself.
_IGNORED_KEYS = {
    "eval --model": ({"train", "train_count", "repetitions", "seed", "method",
                      "normalize"} | set(_PARAM_METHODS),
                     "--model scores the saved model as it is; training "
                     "options do not apply"),
    "fit": ({"train_count", "repetitions", "test", "seed", "classifier"},
            "fit trains one model on every training row; evaluation "
            "options do not apply"),
    "sweep": ({"train_count"},
              "sweep runs every train_count from --min-n to --max-n; the "
              "option does not apply"),
}

MODEL_FORMAT = "gfda-model-v2"


@dataclass
class ExperimentConfig:
    method: str = "gfda-linear"
    normalize: bool = False
    delta: float = 1e-4
    residual_threshold: float = 1e-2
    gamma: Optional[float] = None
    gds_dims: Optional[int] = None
    subspace_dim: Optional[int] = None
    energy: Optional[float] = None
    classifier: str = "nearest-mean"
    train: Optional[str] = None
    test: Optional[str] = None
    train_count: Optional[int] = None
    repetitions: int = 60
    seed: int = 0
    out: Optional[str] = None

    _BOOL = {"normalize"}
    _INT = {"gds_dims", "subspace_dim", "train_count", "repetitions", "seed"}
    _FLOAT = {"delta", "residual_threshold", "gamma", "energy"}

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        cfg = cls()
        for key, value in raw.items():
            if key not in known:
                raise ValidationError(f"unknown config key {key!r}")
            if value is None:
                continue
            if key in cls._BOOL and isinstance(value, str):
                low = value.strip().lower()
                if low not in ("true", "false", "1", "0", "yes", "no"):
                    raise ValidationError(f"{key}: not a boolean: {value!r}")
                value = low in ("true", "1", "yes")
            elif key in cls._INT or key in cls._FLOAT:
                what = "an integer" if key in cls._INT else "a finite number"
                try:
                    number = (int if key in cls._INT else float)(value)
                except ValueError:
                    number = math.nan
                if not math.isfinite(number):
                    raise ValidationError(f"{key}: not {what}: {value!r}")
                value = number
            setattr(cfg, key, value)
        cfg._validate(set(raw) - {k for k, v in raw.items() if v is None})
        return cfg

    def _validate(self, given):
        if self.method not in METHODS:
            raise ValidationError(
                f"unknown method {self.method!r}; pick from {METHODS}")
        if self.classifier not in RULES:
            raise ValidationError(
                f"unknown classifier {self.classifier!r}; pick from {RULES}")
        for key, methods in _PARAM_METHODS.items():
            if key in given and self.method not in methods:
                raise ValidationError(
                    f"parameter {key!r} only applies to {sorted(methods)}, "
                    f"not {self.method!r}")
        for key, low in (("repetitions", 1), ("train_count", 1), ("seed", 0)):
            value = getattr(self, key)
            if value is not None and value < low:
                raise ValidationError(f"{key} must be >= {low}")


def load_config_file(path) -> dict:
    """Flat key=value configuration; '#' starts a comment."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(args) -> ExperimentConfig:
    """The config file's entries, overridden by the flags given.  An option
    the command would ignore (_IGNORED_KEYS) is an error."""
    raw = load_config_file(args.config) if getattr(args, "config", None) else {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            raw[f.name] = value
    command = ("eval --model" if getattr(args, "model", None)
               else getattr(args, "command", None))
    ignored, reason = _IGNORED_KEYS.get(command, (set(), ""))
    unused = sorted(raw.keys() & ignored)
    if unused:
        raise ValidationError(f"{reason}: " + ", ".join(unused))
    return ExperimentConfig.from_mapping(raw)


def build_model(cfg: ExperimentConfig, X, y) -> DiscriminantModel:
    """Fit the configured method on labeled training data; with normalize
    set, return its "+N" variant."""
    if cfg.method == "fda":
        model = fda(X, y)
    elif cfg.method == "regLDA":
        model = reg_lda(X, y, delta=cfg.delta)
    elif cfg.method == "pcaLDA":
        model = pca_lda(X, y, residual_threshold=cfg.residual_threshold)
    elif cfg.method == "nullLDA":
        model = null_lda(X, y)
    else:
        ensemble = fit_ensemble(X, y, dim=cfg.subspace_dim, energy=cfg.energy)
        if cfg.method == "gfda":
            model = gfda_product_form(ensemble)
        elif cfg.method == "gfda-linear":
            model = gfda_linear_form(ensemble)
        else:  # gds_discriminant rejects dims and gamma given together
            unset = cfg.gds_dims is None and cfg.gamma is None
            model = gds_discriminant(ensemble, dims=cfg.gds_dims,
                                     gamma=0.90 if unset else cfg.gamma)
    return with_normalization(model, cfg.normalize)


def _require_out(cfg: ExperimentConfig):
    if not cfg.out:
        raise ValidationError("an output path is required (--out)")
    return cfg.out


def save_model(path, model: DiscriminantModel):
    payload = {"format": MODEL_FORMAT, "model": model.to_dict()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path) -> DiscriminantModel:
    """Read a model file; a malformed file raises ValidationError."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            if payload["format"] != MODEL_FORMAT:
                raise ValidationError(f"not a {MODEL_FORMAT} file")
            return DiscriminantModel.from_dict(payload["model"])
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: malformed model file "
                                  f"({type(exc).__name__}: {exc})") from None


# ---------------------------------------------------------------------------
# evaluation protocol
# ---------------------------------------------------------------------------

def load_protocol_data(cfg: ExperimentConfig):
    """The protocol's datasets: (X, y, external test set or None)."""
    if not cfg.train:
        raise ValidationError("a training dataset is required (train=...)")
    X, y = load_dataset(cfg.train)
    return X, y, load_dataset(cfg.test) if cfg.test else None


def run_protocol(cfg: ExperimentConfig, data=None):
    """Repeated random-subset evaluation; returns one report per repetition.

    data is what load_protocol_data(cfg) returns, for callers that run
    several protocols over the same datasets; by default it is loaded here.
    Classes with fewer than train_count rows are skipped once, with one
    RuntimeWarning; repetition i draws from the rest with seed + i.  When
    nothing is drawn (no train_count, or every kept class has exactly
    train_count rows) every repetition would train on the same rows, so the
    model is built and scored once and its report repeated.
    """
    X, y, external = load_protocol_data(cfg) if data is None else data
    y = np.asarray(y)
    n = cfg.train_count
    labels, groups = group_by_label(np.arange(len(y)), y)
    kept = {label: idx for label, idx in zip(labels, groups)
            if n is None or idx.size >= n}
    for label, idx in zip(labels, groups):
        if label not in kept:
            warnings.warn(f"class {label!r} has {idx.size} < {n} samples; "
                          "skipped", RuntimeWarning)
    if len(kept) < 2:
        raise ValidationError("fewer than 2 classes have enough samples")
    whole = n is None or all(idx.size == n for idx in kept.values())
    if external is not None:
        Xte, yte = external
        mask = np.array([label in kept for label in yte], dtype=bool)
        if not mask.all():
            warnings.warn("test samples of skipped classes ignored",
                          RuntimeWarning)
        Xte, yte = Xte[mask], [label for label, m in zip(yte, mask) if m]
    elif whole:
        raise ValidationError(
            "no held-out samples remain; provide a test dataset or a "
            "train_count below the class sizes")
    rows = np.concatenate(list(kept.values()))  # class by class, ascending
    if whole:
        model = build_model(cfg, X[rows], y[rows].tolist())
        return [evaluate(model, Xte, yte, rule=cfg.classifier)] * cfg.repetitions
    reports = []
    for rep in range(cfg.repetitions):
        rng = np.random.default_rng(cfg.seed + rep)
        train = np.concatenate([
            np.sort(idx[rng.choice(idx.size, size=n, replace=False)])
            for idx in kept.values()])
        if external is None:
            test = rows[~np.isin(rows, train)]
            Xte, yte = X[test], y[test].tolist()
        model = build_model(cfg, X[train], y[train].tolist())
        reports.append(evaluate(model, Xte, yte, rule=cfg.classifier))
    return reports


def _fmt(value):
    if value is None:
        return "NA"
    return repr(float(value))


def _summary(reports):
    """(mean, std) of the recognition rates and of the defined EERs; the EER
    pair is (None, None) when no repetition has one."""
    recs = [r.recognition_rate for r in reports]
    eers = [r.eer for r in reports if r.eer is not None]
    if not eers:
        return np.mean(recs), np.std(recs), None, None
    return np.mean(recs), np.std(recs), np.mean(eers), np.std(eers)


def _write_eval_csv(path, cfg, reports):
    rec_mean, rec_std, eer_mean, eer_std = _summary(reports)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["repetition", "train_count", "recognition_rate", "eer"])
        for rep, report in enumerate(reports):
            writer.writerow([rep, cfg.train_count if cfg.train_count is not None
                             else "all", _fmt(report.recognition_rate),
                             _fmt(report.eer)])
        writer.writerow(["mean", "", _fmt(rec_mean), _fmt(eer_mean)])
        writer.writerow(["std", "", _fmt(rec_std), _fmt(eer_std)])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    cfg = resolve_config(args)
    out = _require_out(cfg)
    X, y, _ = load_protocol_data(cfg)
    model = build_model(cfg, X, y)
    save_model(out, model)
    print(f"fitted {model.method}: {model.dim}-dimensional discriminant "
          f"space over {len(model.class_labels)} classes -> {out}")
    return 0


def _write_scores_csv(path, reports):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["repetition", "kind", "score"])
        for rep, report in enumerate(reports):
            for s in report.genuine_scores:
                writer.writerow([rep, "genuine", _fmt(s)])
            for s in report.impostor_scores:
                writer.writerow([rep, "impostor", _fmt(s)])


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    out = _require_out(cfg)
    if args.model:
        if not cfg.test:
            raise ValidationError("--model evaluation needs a test dataset")
        model = load_model(args.model)
        Xte, yte = load_dataset(cfg.test)
        reports = [evaluate(model, Xte, yte, rule=cfg.classifier)]
    else:
        reports = run_protocol(cfg)
    _write_eval_csv(out, cfg, reports)
    if args.scores:
        _write_scores_csv(args.scores, reports)
    rec_mean, _, eer_mean, _ = _summary(reports)
    eer_txt = "NA" if eer_mean is None else f"{eer_mean:.4f}"
    print(f"{len(reports)} repetition(s): recognition {rec_mean:.4f}% "
          f"mean, EER {eer_txt}% mean -> {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    out = _require_out(cfg)
    lo, hi = args.min_n, args.max_n
    if lo < 1 or hi < lo:
        raise ValidationError("need 1 <= min-n <= max-n")
    data = load_protocol_data(cfg)
    rows = []
    for n in range(lo, hi + 1):
        cfg.train_count = n
        reports = run_protocol(cfg, data)
        rows.append([n, len(reports)] + [_fmt(v) for v in _summary(reports)])
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["train_count", "repetitions", "mean_recognition",
                         "std_recognition", "mean_eer", "std_eer"])
        writer.writerows(rows)
    print(f"swept train_count {lo}..{hi} ({cfg.method}) -> {out}")
    return 0


def cmd_invariants(args) -> int:
    from . import checks
    results = checks.run(args.scope)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: max_residual="
              f"{r.max_residual:.3e} tol={r.tolerance:.3e} ({r.detail})")
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"{failed} invariant battery(ies) failed", file=sys.stderr)
        return 2
    return 0


def cmd_eigencurves(args) -> int:
    from .synth import subspace_config
    C, N, L = args.classes, args.subspace_dim, args.ambient
    if L is None:
        L = 4 * C * N
    ensemble = subspace_config(C, N, L, separation=args.separation,
                               seed=args.seed)
    # the gFDA pair (B, G) restricted to the union span, in frame coordinates
    _, vals_g, _, B_U = union_frame(ensemble)
    pair = ScatterPair(between=B_U, within=np.diag(vals_g), rung="gFDA")
    eig_h = linalg.sym_eig(pair.within - pair.between / C)

    power_g = discriminant_power_curve(np.eye(vals_g.size), pair)
    power_h = discriminant_power_curve(eig_h.vectors, pair)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "eigenvalue_g", "eigenvalue_ghat",
                         "power_g", "power_ghat"])
        for i in range(vals_g.size):
            writer.writerow([i + 1, _fmt(vals_g[i]), _fmt(eig_h.values[i]),
                             _fmt(power_g[i]), _fmt(power_h[i])])
    print(f"eigencurves for C={C}, N={N}, L={L} -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    from .synth import RNG_ALGORITHM, labeled_gaussians, labeled_mixtures
    params = {"classes": args.classes, "dim": args.dim, "count": args.count,
              "sample_seed": args.sample_seed}
    if args.kind == "gaussian":
        X, labels = labeled_gaussians(args.classes, args.dim, args.count,
                                      args.mean_norm, args.sigma_max,
                                      args.seed, sample_seed=args.sample_seed)
        params.update(mean_norm=args.mean_norm, sigma_max=args.sigma_max)
    else:
        mode = "Set1" if args.kind == "mixture-set1" else "Set2"
        X, labels = labeled_mixtures(args.classes, args.dim, args.count,
                                     mode, args.seed,
                                     basis_count=args.basis_count,
                                     anchor_spread=args.spread,
                                     sample_seed=args.sample_seed)
        params.update(mode=mode, basis_count=args.basis_count,
                      anchor_spread=args.spread,
                      simplex="normalized exponential draws")
    save_dataset(args.out, X, labels)
    print(json.dumps({"kind": args.kind, "seed": args.seed, "params": params,
                      "rng": RNG_ALGORITHM}, sort_keys=True))
    print(f"{X.shape[0]} samples of dimension {X.shape[1]} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_options(p):
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--normalize", action="store_const", const=True,
                   help="normalize projections and references (+N variants)")
    p.add_argument("--delta", type=float, help="regLDA ridge strength")
    p.add_argument("--residual-threshold", dest="residual_threshold",
                   type=float, help="pcaLDA residual-energy threshold")
    p.add_argument("--gamma", type=float,
                   help="GDS cumulative-power fraction (default 0.90 "
                        "unless --gds-dims is given)")
    p.add_argument("--gds-dims", dest="gds_dims", type=int,
                   help="fixed GDS dimension instead of the gamma rule")
    p.add_argument("--subspace-dim", dest="subspace_dim", type=int,
                   help="fixed class-subspace dimension (default: all)")
    p.add_argument("--energy", type=float,
                   help="class-subspace energy threshold dim rule")
    p.add_argument("--classifier", choices=RULES)
    p.add_argument("--train", help="training dataset CSV")
    p.add_argument("--test", help="test dataset CSV")
    p.add_argument("--train-count", dest="train_count", type=int,
                   help="training samples drawn per class and repetition")
    p.add_argument("--repetitions", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfda",
        description="subspace-based discriminant analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a discriminant model to a dataset")
    _add_config_options(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="run the repeated-split evaluation "
                                    "protocol (or score a saved model)")
    _add_config_options(p)
    p.add_argument("--model", help="saved model file to evaluate as-is")
    p.add_argument("--scores",
                   help="also write raw genuine/impostor scores to this CSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="evaluation protocol over a range of "
                                     "per-class training counts")
    _add_config_options(p)
    p.add_argument("--min-n", dest="min_n", type=int, default=2)
    p.add_argument("--max-n", dest="max_n", type=int, default=9)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("invariants", help="run the structural invariant "
                                          "batteries")
    p.add_argument("--scope", action="append",
                   help="battery to run (repeatable; default: all)")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("eigencurves", help="eigenvalue and power curves of "
                                           "the two projection matrices")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--subspace-dim", dest="subspace_dim", type=int, default=3)
    p.add_argument("--ambient", type=int, help="default 4*C*N")
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eigencurves)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--kind", required=True,
                   choices=("gaussian", "mixture-set1", "mixture-set2"))
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--dim", type=int, default=50)
    p.add_argument("--count", type=int, default=20,
                   help="samples per class")
    p.add_argument("--mean-norm", dest="mean_norm", type=float, default=5.0)
    p.add_argument("--sigma-max", dest="sigma_max", type=float, default=1.0)
    p.add_argument("--basis-count", dest="basis_count", type=int, default=9)
    p.add_argument("--spread", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-seed", dest="sample_seed", type=int,
                   help="seed for the draws only; class definitions stay "
                        "tied to --seed, so train/test pairs over the same "
                        "classes differ only here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a Python warning like the CLI's own: one line, no source."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = _show_warning
            return args.func(args)
    except (GfdaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
