"""gfda benchmark: run a workload as a user does and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ./src.
The inputs are synthetic CSVs generated from --seed, and the program under
test sees only those files.  Every child process gets one BLAS thread and
is pinned to the CPU that ran a short probe fastest just before it starts.

--trace 0 prints the end-to-end metrics (BENCHMARK.json "end_to_end").  The
run makes ROUNDS rounds of: setup processes, the workload's command sequence
with each command a fresh ``python -m gfda`` process, and a warm chunk of
--seconds / ROUNDS.
  setup_s      median time of fresh processes that import gfda and load the
               workload's CSVs
  wall_s       sum over the commands of each command's median round
  rep_ms_p50   warm in-process repetitions (split, build_model, evaluate)
               cycle through the workload's protocol configs; the mean over
               configs of each config's median repetition
  peak_rss_mb  largest peak RSS of any one command, from its own rusage
Printed but not gated: reps_per_s and raw_rep_ms_p50/p90 over all warm
repetitions (p90 only with 100 or more), the cold first repetition of each
warm process, failed_frac.

CPU speed on shared virtual machines drifts for seconds to minutes at a
time (see speed.py), so timings are normalized by a speed probe taken on
the same CPU alongside them.  setup_s and wall_s, measured from fresh
processes, are multiplied by the mean probe speed sampled every
PROBE_INTERVAL_S during the process.  Warm repetitions are normalized by
the probe taken just before them only on interpreter-bound workloads
(small-protocol); the image workloads' repetitions are memory-bound L x L
work that the probe does not track, and stay raw.

--trace 1 prints the per-layer metrics (BENCHMARK.json "per_layer"): the
command sequence untraced, then again with each command in a fresh process
that drives gfda.cli.main with every layer wrapped (tracer.py).  Result
files must match byte for byte; trace.overhead_s is the difference in
speed-normalized wall time.  linalg.eigh.order3_sum is computed (sum of n^3
over eigensolver calls), not measured.

Outputs are checked on every run: table structure, mean/std rows against
the per-repetition rows, a floor on every recognition rate, reruns byte for
byte, warm repetitions against the CLI's rows, and, at the default seed,
every recognition rate and EER against reference.json.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; an operation is one repetition.

    python3 perfbench/run.py --workload NAME --record-reference

rewrites that workload's entry of reference.json from the current code at
the default seed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path

import speed
from tracer import COUNTS as TRACER_COUNTS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1
TIME_BUDGET_S = 170.0
# Percentage points allowed between a recognition rate or EER and its
# reference value.  Both are ratios of counts at any fixed score order, so
# a legitimate refactor moves them by rounding only; a single changed
# decision moves a rate by at least 100/n_test.
REFERENCE_TOL = 1e-6
# Mean/std rows and warm repetitions recompute the same numbers; only the
# summation order differs.
CONSISTENCY_TOL = 1e-9
# Every workload separates its classes well (recognition 75-100% at the
# seed code, chance is 3-10%); a rate below this at any seed is a defect.
MIN_RECOGNITION = 50.0
SETUP_PROCESSES = 3
ROUNDS = 3
# One BLAS thread per process: on two shared vCPUs a threaded OpenBLAS made
# the first eigh of a process cost up to 0.7 s and added noise.
BLAS_THREADS = 1
PROBE_INTERVAL_S = 0.2
P90_MIN_SAMPLES = 100      # at least 10 samples beyond the 90th percentile

SMALL_REPS = 60
IMAGE_REPS = 1


def _mixture(kind, classes, dim, count, seed, sample_seed):
    return ["synth", "--kind", kind, "--classes", str(classes), "--dim",
            str(dim), "--count", str(count), "--seed", str(seed),
            "--sample-seed", str(sample_seed)]


def make_plan(workload, seed, data):
    """Inputs, command sequence, warm configs, required trace entries, and
    whether the workload's time is interpreter-bound (see speed.py).

    Commands are (output file, kind, repetitions, gfda argv); a sweep's
    repetitions are spread evenly over its rows.
    Configs are ExperimentConfig mappings for the warm loop, each with the
    output file and row that holds the CLI's result for the same
    repetitions.
    """
    train, test = str(data / "train.csv"), str(data / "test.csv")
    s = str(seed)
    if workload == "small-protocol":
        inputs = {
            train: _mixture("mixture-set1", 10, 60, 9, seed, 100 * seed + 1),
            test: _mixture("mixture-set2", 10, 60, 50, seed, 100 * seed + 2)}
        common = ["--train", train, "--test", test,
                  "--repetitions", str(SMALL_REPS), "--seed", s]
        commands = [
            ("sweep_gfda-linear.csv", "sweep", 6 * SMALL_REPS,
             ["sweep", "--method", "gfda-linear", "--min-n", "1",
              "--max-n", "6"] + common + ["--out", "sweep_gfda-linear.csv"]),
            ("eval_gfda.csv", "eval", SMALL_REPS,
             ["eval", "--method", "gfda", "--normalize", "--classifier",
              "cosine", "--train-count", "4"] + common
             + ["--out", "eval_gfda.csv"]),
        ]
        base = {"train": train, "test": test, "seed": seed}
        configs = [dict(base, method="gfda-linear", train_count=n,
                        _out="sweep_gfda-linear.csv", _row=n)
                   for n in range(1, 7)]
        configs.append(dict(base, method="gfda", normalize=True,
                            classifier="cosine", train_count=4,
                            _out="eval_gfda.csv", _row=None))
        required = ["data.load_dataset", "cli.run_protocol",
                    "subspace.fit_ensemble", "fisher.gfda_linear_form",
                    "fisher.gfda_product_form", "classify.evaluate",
                    "classify.equal_error_rate"]
        return {"inputs": inputs, "commands": commands, "configs": configs,
                "required": required, "interpreter_bound": True}

    inputs = {train: _mixture("mixture-set1", 30, 1024, 10, seed,
                              100 * seed + 1)}
    if workload == "image-gfda":
        inputs[test] = _mixture("mixture-set1", 30, 1024, 10, seed,
                                100 * seed + 2)
        methods = [("gfda-linear", []), ("gds", ["--gamma", "0.9"]),
                   ("gfda", [])]
        required = ["data.load_dataset", "cli.run_protocol", "cli.save_model",
                    "cli.load_model", "subspace.fit_ensemble",
                    "fisher.gfda_linear_form", "fisher.gds_discriminant",
                    "fisher.gfda_product_form", "classify.evaluate",
                    "classify.equal_error_rate"]
    elif workload == "image-baselines":
        methods = [("regLDA", []), ("pcaLDA", []), ("nullLDA", [])]
        required = ["data.load_dataset", "cli.run_protocol", "fisher.reg_lda",
                    "fisher.pca_lda", "fisher.null_lda", "classify.evaluate",
                    "classify.equal_error_rate"]
    else:
        raise ValueError(workload)
    commands, configs = [], []
    for method, extra in methods:
        out = f"eval_{method}.csv"
        commands.append((out, "eval", IMAGE_REPS,
                         ["eval", "--train", train, "--method", method] + extra
                         + ["--train-count", "5", "--repetitions",
                            str(IMAGE_REPS), "--seed", s, "--out", out]))
        config = {"train": train, "method": method, "train_count": 5,
                  "seed": seed, "_out": out, "_row": None}
        if extra:
            config["gamma"] = float(extra[1])
        configs.append(config)
    if workload == "image-gfda":
        commands.append(("model.json", "model", 1,
                         ["fit", "--train", train, "--method", "gfda",
                          "--out", "model.json"]))
        commands.append(("eval_model.csv", "eval", 1,
                         ["eval", "--model", "model.json", "--test", test,
                          "--out", "eval_model.csv"]))
    return {"inputs": inputs, "commands": commands, "configs": configs,
            "required": required, "interpreter_bound": False}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

Child = namedtuple("Child", "code wall_s rss_mb stdout speed")


class Runner:
    """Starts children one at a time, each timed and reaped with its own
    rusage, and kills any child still running at the deadline.

    Each child is pinned to the CPU that ran a short probe fastest just
    before it starts.  Shared virtual CPUs can slow down and recover
    independently of each other for seconds at a time, so this makes it
    likelier that a sample runs at full speed.
    """

    def __init__(self, work, deadline):
        self.cpus = sorted(os.sched_getaffinity(0))
        threads = str(min(BLAS_THREADS, len(self.cpus)))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        self.work = work
        self.deadline = deadline
        self._log = 0

    def _pin_fastest_cpu(self):
        probes = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            probes[cpu] = speed.probe()
        cpu = min(probes, key=probes.get)
        os.sched_setaffinity(0, {cpu})
        return probes[cpu]

    def run(self, argv, cwd):
        """Runs one child to completion.  Child.speed is the mean of speed
        probes taken on the child's CPU before, every PROBE_INTERVAL_S
        during, and after the child."""
        probes = [self._pin_fastest_cpu()]
        done = threading.Event()

        def sample():
            while not done.wait(PROBE_INTERVAL_S):
                probes.append(speed.probe())

        self._log += 1
        out_path = self.work / f"child{self._log}.out"
        err_path = self.work / f"child{self._log}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(
                max(self.deadline - time.perf_counter(), 0.0), proc.kill)
            timer.start()
            sampler = threading.Thread(target=sample)
            sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                done.set()
                sampler.join()
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        probes.append(speed.probe())
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     out_path.read_text(encoding="utf-8", errors="replace"),
                     speed.speed(probes))

    def gfda(self, argv, cwd):
        return self.run([sys.executable, "-m", "gfda"] + argv, cwd)

    def child(self, argv, cwd):
        return self.run([sys.executable, str(BENCH_DIR / "child.py")] + argv,
                        cwd)


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

class Invalid(Exception):
    pass


def _float(text):
    value = float(text)
    if not 0.0 <= value <= 100.0:
        raise Invalid(f"value {text} outside [0, 100]")
    return value


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def read_eval(path):
    """Per-repetition [recognition, eer] rows, after checking the mean/std
    rows against them."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split(",") for line in fh]
    if lines[0] != ["repetition", "train_count", "recognition_rate", "eer"]:
        raise Invalid(f"{path.name}: bad header")
    rows = []
    for i, line in enumerate(lines[1:-2]):
        if int(line[0]) != i:
            raise Invalid(f"{path.name}: repetition {line[0]} out of order")
        rows.append([_float(line[2]), _float(line[3])])
    if not rows:
        raise Invalid(f"{path.name}: no repetitions")
    for label, stat in (("mean", statistics.fmean),
                        ("std", statistics.pstdev)):
        line = lines[-2] if label == "mean" else lines[-1]
        if line[0] != label:
            raise Invalid(f"{path.name}: missing {label} row")
        for col in (0, 1):
            if not _close(float(line[2 + col]),
                          stat([r[col] for r in rows]), CONSISTENCY_TOL):
                raise Invalid(f"{path.name}: {label} row disagrees")
    return rows


def read_sweep(path, reps):
    """Rows [train_count, mean_rec, std_rec, mean_eer, std_eer]; reps is
    the count of repetitions per row."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split(",") for line in fh]
    if lines[0] != ["train_count", "repetitions", "mean_recognition",
                    "std_recognition", "mean_eer", "std_eer"]:
        raise Invalid(f"{path.name}: bad header")
    rows = []
    for line in lines[1:]:
        if int(line[1]) != reps:
            raise Invalid(f"{path.name}: {line[1]} repetitions, not {reps}")
        rows.append([int(line[0])] + [_float(v) for v in line[2:]])
    if not rows:
        raise Invalid(f"{path.name}: no rows")
    return rows


def read_table(path, kind):
    return read_eval(path) if kind == "eval" else read_sweep(path, SMALL_REPS)


def compare_rows(got, want, tol):
    """Indices of rows that differ beyond tol (or are missing)."""
    bad = set()
    for i, row in enumerate(want):
        if i >= len(got) or len(got[i]) != len(row) or not all(
                _close(a, b, tol) for a, b in zip(got[i], row)):
            bad.add(i)
    return bad | set(range(len(want), len(got)))


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)


def generate_inputs(runner, inputs, data):
    data.mkdir()
    for path, argv in inputs.items():
        if runner.gfda(argv + ["--out", path], data).code != 0:
            raise SystemExit(f"input generation failed: {' '.join(argv)}")


def run_sequence(runner, commands, outdir, tally, traced=False):
    """Runs every command in a fresh process; returns per-command records."""
    outdir.mkdir()
    records = []
    for i, (out, kind, reps, argv) in enumerate(commands):
        if traced:
            child = runner.child(
                ["traced", str(outdir / f"trace{i}.json")] + argv, outdir)
        else:
            child = runner.gfda(argv, outdir)
        records.append({"out": out, "code": child.code,
                        "wall_s": child.wall_s, "rss_mb": child.rss_mb,
                        "speed": child.speed})
        if child.code != 0:
            tally.problems.append(
                f"{argv[0]} -> {out}: exit code {child.code}")
    return records


def check_results(commands, records, outdir, workload, seed, tally,
                  reference=None):
    """Checks the result tables; returns {output: rows} of the good ones."""
    want = (reference or {}).get(workload) if seed == DEFAULT_SEED else None
    results = {}
    for (out, kind, reps, _), rec in zip(commands, records):
        if rec["code"] != 0:
            tally.add(reps, reps)
            continue
        if kind == "model":
            tally.add(reps, 0)
            continue
        try:
            rows = read_table(outdir / out, kind)
            if kind == "eval" and len(rows) != reps:
                raise Invalid(f"{len(rows)} repetitions, not {reps}")
        except (Invalid, ValueError, IndexError, OSError) as exc:
            tally.add(reps, reps, f"{out}: {exc}")
            continue
        rate = 0 if kind == "eval" else 1
        bad = {i for i, row in enumerate(rows) if row[rate] < MIN_RECOGNITION}
        if bad:
            tally.problems.append(f"{out}: rows {sorted(bad)} recognize "
                                  f"below {MIN_RECOGNITION}%")
        if want is not None:
            differ = compare_rows(rows, want[out], REFERENCE_TOL)
            if differ:
                tally.problems.append(
                    f"{out}: rows {sorted(differ)} differ from the reference")
            bad |= differ
        tally.add(reps, min(reps, reps // len(rows) * len(bad)))
        results[out] = rows
    return results


def check_identical(commands, records, first, again, tally):
    """A second run of the sequence (records, outputs in again) must
    reproduce every output of the first byte for byte."""
    for (out, _, reps, _), rec in zip(commands, records):
        same = (rec["code"] == 0 and (again / out).is_file()
                and (first / out).is_file()
                and (first / out).read_bytes() == (again / out).read_bytes())
        tally.add(reps, 0 if same else reps,
                  None if same else f"{out}: differs from {first.name}/{out}")


def check_warm(configs, reps, results, tally):
    """Warm repetition i of a config must reproduce the CLI's repetition i."""
    by_config = {}
    for c, i, _, rec, eer, error, _ in reps:
        if error:
            tally.add(1, 1, f"warm repetition failed: {error}")
        else:
            by_config.setdefault(c, {})[i] = (rec, eer)
            tally.add(1, 0)
    for c, config in enumerate(configs):
        rows = results.get(config["_out"])
        done = by_config.get(c, {})
        if rows is None:
            continue
        if config["_row"] is None:
            pairs = [(list(done[i]), rows[i]) for i in range(len(rows))
                     if i in done]
        else:
            row = {r[0]: r for r in rows}.get(config["_row"])
            if row is None or any(i not in done for i in range(SMALL_REPS)):
                continue
            values = [done[i] for i in range(SMALL_REPS)]
            mine = []
            for col in (0, 1):
                col_values = [v[col] for v in values]
                mine.append([statistics.fmean(col_values),
                             statistics.pstdev(col_values)])
            pairs = [([mine[0][0], mine[0][1], mine[1][0], mine[1][1]],
                      row[1:])]
        for got, want in pairs:
            if not all(_close(a, b, CONSISTENCY_TOL)
                       for a, b in zip(got, want)):
                tally.add(0, 1, f"warm repetition of {config['method']} "
                                f"disagrees with {config['_out']}")


def end_to_end(runner, plan, work, workload, seed, seconds, tally, reference):
    """Rounds spread the samples of every measurement over the whole run."""
    load_script = ("import sys, gfda\nfrom gfda.data import load_dataset\n"
                   "for p in sys.argv[1:]:\n    load_dataset(p)\n")
    commands, configs = plan["commands"], plan["configs"]
    spec = work / "warm_spec.json"
    spec.write_text(json.dumps({
        "files": list(plan["inputs"]), "seconds": seconds / ROUNDS,
        "configs": [{k: v for k, v in c.items() if not k.startswith("_")}
                    for c in configs]}), encoding="utf-8")
    setup, sequences, chunks, first_reps = [], [], [], []
    warm_elapsed = 0.0
    results = None
    for k in range(ROUNDS):
        for _ in range(math.ceil(SETUP_PROCESSES / ROUNDS)):
            child = runner.run([sys.executable, "-c", load_script]
                               + list(plan["inputs"]), work)
            if child.code != 0:
                tally.problems.append(f"setup process exit code {child.code}")
            setup.append(child.wall_s * child.speed)

        fresh = work / f"fresh{k}"
        records = run_sequence(runner, commands, fresh, tally)
        sequences.append(records)
        if k == 0:
            results = check_results(commands, records, fresh, workload, seed,
                                    tally, reference)
        else:
            check_identical(commands, records, work / "fresh0", fresh, tally)

        warm_out = work / f"warm{k}.json"
        code = runner.child(["warm", str(spec), str(warm_out)], work).code
        if code != 0:
            raise SystemExit(f"warm worker exit code {code}")
        warm = json.loads(warm_out.read_text(encoding="utf-8"))
        check_warm(configs, warm["reps"], results, tally)
        first_reps.append(warm["reps"][0][2])
        warm_elapsed += warm["elapsed_s"]
        chunks.append(warm["reps"][1:])

    by_config = {}
    warm_reps = [r for reps in chunks for r in reps]
    for c, _, seconds, _, _, _, probe_s in warm_reps:
        if plan["interpreter_bound"]:
            seconds *= speed.speed([probe_s])
        by_config.setdefault(c, []).append(seconds)
    times = [r[2] for r in warm_reps]
    metrics = {
        "wall_s": sum(statistics.median(seq[i]["wall_s"] * seq[i]["speed"]
                                        for seq in sequences)
                      for i in range(len(commands))),
        "setup_s": statistics.median(setup),
        "rep_ms_p50": 1000.0 * statistics.fmean(
            statistics.median(v) for v in by_config.values()),
        "peak_rss_mb": max(r["rss_mb"] for seq in sequences for r in seq),
    }
    report = {
        "warm_reps_speed_normalized": plan["interpreter_bound"],
        "sequences": sequences,
        "setup_s_samples": setup,
        "cold_first_rep_s": first_reps,
        "warm_reps": len(times),
        "reps_per_s": len(times) / warm_elapsed,
        "raw_rep_ms_p50": 1000.0 * statistics.median(times),
        "raw_rep_ms_p90": (
            1000.0 * statistics.quantiles(times, n=10, method="inclusive")[8]
            if len(times) >= P90_MIN_SAMPLES else None),
    }
    return metrics, report


def _stat(agg, fn, field):
    entry = agg["functions"].get(fn)
    return 0 if entry is None else entry[field]


def layer_metric(name, agg, layers):
    if name == "classify.samples_per_s":
        busy = _stat(agg, "classify.evaluate", 1)
        samples = agg["counts"].get("classify.evaluate.samples", 0)
        return samples / busy if busy else 0
    if name in ("cli.first_rep_s", "trace.overhead_s"):
        return agg[name]
    if name in TRACER_COUNTS:
        return agg["counts"].get(name, 0)
    head, _, field = name.rpartition(".")
    if head in layers and field == "self_s":
        return sum(v[2] for k, v in agg["functions"].items()
                   if k.startswith(head + "."))
    return _stat(agg, head, {"calls": 0, "s": 1, "self_s": 2}[field])


def per_layer(runner, plan, work, workload, seed, tally, reference):
    commands = plan["commands"]
    fresh, traced = work / "fresh", work / "traced"
    untraced_records = run_sequence(runner, commands, fresh, tally)
    check_results(commands, untraced_records, fresh, workload, seed, tally,
                  reference)
    traced_records = run_sequence(runner, commands, traced, tally,
                                  traced=True)
    check_identical(commands, traced_records, fresh, traced, tally)
    agg = {"functions": {}, "counts": {}}
    first_reps = []
    for i in range(len(commands)):
        path = traced / f"trace{i}.json"
        if not path.is_file():
            continue
        summary = json.loads(path.read_text(encoding="utf-8"))
        for fn, (calls, total, self_s) in summary["functions"].items():
            entry = agg["functions"].setdefault(fn, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for key, value in summary["counts"].items():
            if key == "linalg.eigh.max_order":
                agg["counts"][key] = max(agg["counts"].get(key, 0), value)
            else:
                agg["counts"][key] = agg["counts"].get(key, 0) + value
        if summary["first_rep_s"] is not None:
            first_reps.append(summary["first_rep_s"])
    # The first repetition of the first protocol process of the sequence;
    # every process's value is in the report.
    agg["cli.first_rep_s"] = first_reps[0] if first_reps else 0.0
    traced_wall = sum(r["wall_s"] * r["speed"] for r in traced_records)
    untraced_wall = sum(r["wall_s"] * r["speed"] for r in untraced_records)
    agg["trace.overhead_s"] = traced_wall - untraced_wall
    missing = [fn for fn in plan["required"] if _stat(agg, fn, 0) == 0]
    if missing:
        tally.problems.append(f"trace self-check: no calls to {missing}")
    report = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "first_rep_s_per_process": first_reps,
              "functions": agg["functions"], "counts": agg["counts"]}
    return agg, report


def record_reference(runner, commands, work, workload):
    tally = Tally()
    records = run_sequence(runner, commands, work / "fresh", tally)
    results = check_results(commands, records, work / "fresh", workload,
                            None, tally)
    if tally.failed or tally.problems:
        raise SystemExit(f"reference not written: {tally.problems}")
    ref = (json.loads(REFERENCE.read_text(encoding="utf-8"))
           if REFERENCE.is_file() else {"seed": DEFAULT_SEED, "workloads": {}})
    ref["workloads"][workload] = results
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"reference for {workload} at seed {DEFAULT_SEED} -> {REFERENCE}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("small-protocol", "image-gfda",
                                 "image-baselines"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 1:
        parser.error("--seed must be >= 1")

    if not (ROOT / "src" / "gfda" / "__init__.py").is_file():
        print(f"error: no gfda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    deadline = time.perf_counter() + TIME_BUDGET_S
    work = (ROOT / ".perfbench_work"
            / f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, deadline)
    seed = DEFAULT_SEED if args.record_reference else args.seed
    plan = make_plan(args.workload, seed, work / "data")
    generate_inputs(runner, plan["inputs"], work / "data")
    if args.record_reference:
        record_reference(runner, plan["commands"], work, args.workload)
        return 0

    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(
            REFERENCE.read_text(encoding="utf-8"))["workloads"]
    child = runner.child(["env"], work)
    if child.code != 0:
        raise SystemExit("environment probe failed")
    environment = dict(json.loads(child.stdout), nproc=len(runner.cpus))
    tally = Tally()
    if args.trace == 0:
        values, report = end_to_end(runner, plan, work, args.workload, seed,
                                    args.seconds, tally, reference)
        wanted = spec["end_to_end"]
    else:
        layers = {m["name"].split(".")[0] for m in spec["per_layer"]}
        agg, report = per_layer(runner, plan, work, args.workload, seed,
                                tally, reference)
        values = {m["name"]: layer_metric(m["name"], agg, layers)
                  for m in spec["per_layer"]}
        wanted = spec["per_layer"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = tally.failed == 0 and not tally.problems
    (work / "report.json").write_text(json.dumps(
        {"workload": args.workload, "seed": seed, "trace": args.trace,
         "environment": environment, "metrics": metrics, "report": report,
         "problems": tally.problems}, indent=1), encoding="utf-8")

    print(f"environment: {json.dumps(environment, sort_keys=True)}")
    print(f"workload {args.workload}, seed {seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if args.trace == 0:
        p90 = report["raw_rep_ms_p90"]
        print(f"  {'reps_per_s':40s} {report['reps_per_s']:>16.6g} 1/s")
        print(f"  {'raw_rep_ms_p50':40s} {report['raw_rep_ms_p50']:>16.6g} ms")
        print(f"  {'raw_rep_ms_p90':40s} "
              + (f"{p90:>16.6g} ms" if p90 is not None
                 else f"{'n/a':>16s} (fewer than {P90_MIN_SAMPLES} samples)")
              + f"  [{report['warm_reps']} warm repetitions]")
        print(f"  {'cold first repetition':40s} "
              + " ".join(f"{v:.6g}" for v in report["cold_first_rep_s"])
              + " s (excluded from warm)")
    else:
        print("  linalg.eigh.order3_sum is computed: sum of n^3 over "
              "eigensolver calls")
    failed_frac = tally.failed / max(tally.attempted, 1)
    print(f"  {'failed_frac':40s} {failed_frac:>16.6g}"
          f" ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
