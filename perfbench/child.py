"""Child processes of the benchmark; run.py starts each one fresh.

    child.py env
        print the environment block as JSON
    child.py warm SPEC.json OUT.json
        warm in-process repetitions of the workload's protocol configs
    child.py traced OUT.json GFDA-ARGS...
        one gfda command through gfda.cli.main with every layer traced
"""

import json
import os
import platform
import sys
import time


def environment():
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "cpu_model": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def warm(spec_path, out_path):
    """Repeat the protocol configs round-robin, one repetition per call.

    Repetition i of a config runs with seed + i, exactly as repetition i of
    the CLI protocol does, so its results can be checked against the CLI's
    result files.  The first repetition of the process is timed on its own
    (cold); the warm loop then runs whole rounds until the time is up.
    """
    import gfda.cli
    from gfda.errors import GfdaError
    from speed import probe

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    load = gfda.cli.load_dataset
    cache = {path: load(path) for path in spec["files"]}
    gfda.cli.load_dataset = cache.__getitem__

    def rep(config, i):
        """[seconds, recognition, eer, error, speed probe just before]"""
        cfg = gfda.cli.ExperimentConfig.from_mapping(
            dict(config, repetitions=1, seed=config["seed"] + i))
        probe_s = probe()
        start = time.perf_counter()
        try:
            report, = gfda.cli.run_protocol(cfg)
        except GfdaError as exc:
            return [time.perf_counter() - start, None, None, str(exc),
                    probe_s]
        return [time.perf_counter() - start, report.recognition_rate,
                report.eer, None, probe_s]

    configs = spec["configs"]
    first = rep(configs[0], 0)
    reps = [[0, 0] + first]
    index = [1] + [0] * (len(configs) - 1)
    start = time.perf_counter()
    while time.perf_counter() - start < spec["seconds"]:
        for c, config in enumerate(configs):
            reps.append([c, index[c]] + rep(config, index[c]))
            index[c] += 1
    elapsed = time.perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        # reps[0] is the cold first repetition; the rest are warm.
        json.dump({"elapsed_s": elapsed, "reps": reps}, fh)


def traced(out_path, argv):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import gfda.cli
    code = gfda.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


def main(argv):
    mode = argv[0]
    if mode == "env":
        print(json.dumps(environment(), sort_keys=True))
        return 0
    if mode == "warm":
        warm(argv[1], argv[2])
        return 0
    if mode == "traced":
        return traced(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
