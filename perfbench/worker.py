"""Child-process side of the benchmark.  ``run.py`` starts one process per
job so every timed command begins from a fresh interpreter, the way a user
runs mosr.

Usage: ``python3 perfbench/worker.py '<json job>'`` with ``src`` on
PYTHONPATH.  The job's ``mode`` is one of

* ``setup``: import, config, dataset and evaluator/measure preparation, then
  print the monotonic time at which evolution could start; after that, time
  the reference kernel (``reference_s``), which does not count as set-up;
* ``cli``: ``mosr.cli.main(job["argv"])`` under the tracer;
* ``check``: re-read each best model with ``parse_sexpr``, re-score it on
  the dataset ``job["config"]`` names and report every recorded NMSE that is
  not reproduced bit for bit.

The last stdout line is one JSON object.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import mosr.cli  # noqa: E402,F401  (cli.import_s covers this import)

_IMPORT_S = time.perf_counter() - _STARTED

from mosr import benchmarks, complexity, harness, metrics, sexpr, trees  # noqa: E402

from tracer import Tracer, merge_parts, write_spans  # noqa: E402


def _dataset(config_path):
    config = harness.load_config(config_path)
    data = benchmarks.load_csv(config.data_path, config.target, config.train_fraction)
    return config, data


def _cpu_s(who):
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# The reference kernel: a fixed amount of work of the two kinds a mosr run
# is made of, elementwise numpy over 15k-row columns (tree evaluation) and
# plain interpreter work (variation, selection, the engine loop).  It uses
# no mosr code, so a change to mosr cannot move it; its time measures how
# fast the machine is at the moment, and run.py divides the commands' times
# by it.  Either half alone tracked mosr's speed slightly less closely.
REFERENCE_ROWS = 15_000
REFERENCE_NUMPY_ROUNDS = 1000
REFERENCE_PYTHON_ROUNDS = 1_500_000


def _mix(a, b):
    return (a * 31 + b) % 1_000_003


def reference_s():
    import numpy

    x1, x2, x3 = numpy.random.default_rng(0).uniform(-1.0, 1.0, (3, REFERENCE_ROWS))
    acc = numpy.zeros(REFERENCE_ROWS)
    state = 0
    started = time.perf_counter()
    for _ in range(REFERENCE_NUMPY_ROUNDS):
        acc = numpy.sin(x1) * x2 + acc * 0.5 - x3 / (x2 * x2 + 1.0)
    for i in range(REFERENCE_PYTHON_ROUNDS):
        state = _mix(state, i)
    return time.perf_counter() - started


def setup(job):
    config, dataset = _dataset(job["config"])
    complexity.make_measure(config.objective2, config.rule_table())
    trees.make_matrix_evaluator(dataset.columns[dataset.train_rows])
    ready = time.monotonic()
    import numpy

    return {
        "ready": ready,
        "reference_s": reference_s(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }


def _finish_trace(tracer, trace_dir, wall, cpu):
    parts = [tracer.part()]
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("part-"):
            with open(os.path.join(trace_dir, name)) as handle:
                parts.append(json.load(handle))
    merged = merge_parts(parts)
    write_spans(merged.pop("spans"), os.path.join(trace_dir, "spans.jsonl"))
    merged.update(parts=len(parts), wall_s=wall, cpu_s=cpu, import_s=_IMPORT_S)
    return merged


def cli(job):
    tracer = Tracer()
    tracer.install(job["trace"])
    cpu0 = _cpu_s(resource.RUSAGE_SELF)
    wall0 = time.perf_counter()
    code = mosr.cli.main(job["argv"])
    wall = time.perf_counter() - wall0
    if code != 0:
        raise RuntimeError(f"mosr exited with {code}")
    # runs in this process plus those in the pool's workers, which have
    # been joined, so their CPU time is counted in RUSAGE_CHILDREN
    cpu = _cpu_s(resource.RUSAGE_SELF) - cpu0 + _cpu_s(resource.RUSAGE_CHILDREN)
    return {"trace": _finish_trace(tracer, job["trace"], wall, cpu)}


def _same(a, b):
    return a == b or (a != a and b != b)


def _rescore(text, data):
    tree = sexpr.parse_sexpr(text)
    pred_train = trees.evaluate_matrix(tree, data.X_train)
    train = 1.0 - metrics.pearson_r2(pred_train, data.y_train)
    slope, intercept = metrics.fit_linear_scaling(pred_train, data.y_train)
    pred_test = trees.evaluate_matrix(tree, data.X_test)
    return train, metrics.scaled_nmse(pred_test, data.y_test, slope, intercept)


def check(job):
    failures = []
    _, dataset = _dataset(job["config"])
    for item in job["items"]:
        try:
            train, test = _rescore(item["sexpr"], dataset)
        except ValueError as exc:  # ParseError and StructuralError included
            failures.append([item["id"], f"cannot re-score the best model: {exc}"])
            continue
        if not (_same(train, item["train_nmse"]) and _same(test, item["test_nmse"])):
            failures.append([
                item["id"],
                f"re-scored NMSE {train!r}/{test!r} != "
                f"recorded {item['train_nmse']!r}/{item['test_nmse']!r}",
            ])
    return {"checked": len(job["items"]), "failures": failures}


MODES = {"setup": setup, "cli": cli, "check": check}


def main():
    job = json.loads(sys.argv[1])
    result = MODES[job["mode"]](job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
