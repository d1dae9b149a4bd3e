"""mosr benchmark: seeded workloads, end-to-end metrics, outside-in traces.

Run from the root of a mosr source tree:

    python3 perfbench/run.py --workload keijzer5-20k --seed 1 --seconds 55 --trace 0

Every workload is one ``mosr experiment --config <cfg>`` command with a
generated config.  ``--trace 0`` repeats it, each time in a fresh process and
after fresh set-up samples, until ``--seconds`` would be exceeded and reports
the end-to-end metrics.  ``--trace 1`` runs the first command untraced and
traced (``tracer.py``) in alternation, at least twice each and more while
``--seconds`` allows, and reports per-layer metrics, the tracing overhead and
whether the traced runs counted exactly the same work.  Either way the
program's outputs are checked; a run whose outputs fail a check counts as
failed.  The last stdout line is the JSON result; ``perfbench/_work/``
keeps the inputs, artifacts, spans and a fuller ``result.json``.

The parent process never imports numpy or mosr: everything it times runs in
a child, and rusage from ``wait4`` gives each command's CPU time and peak
RSS including its own children.

The machine's speed drifts by a quarter and more over minutes, so the
end-to-end times are reported in units of a reference kernel (fixed numpy
and interpreter work, no mosr code; ``worker.reference_s``) timed in the
set-up processes before, between and after the commands: ``wall_ref`` is
the median command wall time over the mean kernel time of the same run.
The seconds themselves are printed, and kept in ``result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

POPULATION = 500
SETUP_SAMPLES = 3  # set-up rounds before, between and after the commands
# OpenBLAS threads per process.  mosr's kernels are elementwise numpy over
# columns, which a second OpenBLAS thread does not speed up: with two it
# only spins, doubling cpu_s, and one per process keeps jobs x threads
# within the cores.
BLAS_THREADS = 1
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 150

# Config lines of each workload's experiment and the generated CSV behind
# its "data" line.  Both evaluate trees on 15k training rows, where numpy
# kernels rather than the interpreter take most of the time: on a shared VM
# the interpreter's speed drifts by about a quarter over minutes, numpy's
# far less.
WORKLOADS = {
    # keijzer5's formula at 20k rows, objective2 = complexity, one run in
    # one process: the only workload running the recursive complexity fold
    "keijzer5-20k": {
        "csv": ("keijzer5", 20_000),
        "config": {"target": "y", "train_fraction": 0.75, "objective2": "complexity",
                   "rules": "eq1", "max_evaluations": 5_000, "repetitions": 1, "jobs": 1},
    },
    # a noisy 4-variable formula at 20k rows, objective2 = variables, four
    # runs over two processes: the only user of the process pool and of
    # several runs' artifact writes
    "csv-experiment": {
        "csv": ("noisy4", 20_000),
        "config": {"target": "y", "train_fraction": 0.75, "objective2": "variables",
                   "max_evaluations": 2_500, "repetitions": 4, "jobs": 2},
    },
}

END_TO_END = {  # name -> unit
    "wall_ref": "ref",
    "evals_per_ref": "1/ref",
    "setup_s": "s",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


# --- inputs ---------------------------------------------------------------

def _noisy4(rng):
    x1 = rng.uniform(-2.0, 2.0)
    x2 = rng.uniform(-2.0, 2.0)
    x3 = rng.uniform(0.5, 3.0)
    x4 = rng.uniform(-1.0, 1.0)
    y = x1 * x2 + 3.0 * math.sin(x3) * x4 - x4 * x4 / x3 + rng.gauss(0.0, 0.1)
    return (x1, x2, x3, x4), y


def _keijzer5(rng):
    # keijzer5 as mosr samples it: x1, x3 ~ U[-1, 1], x2 ~ U[1, 2], no noise
    x1 = rng.uniform(-1.0, 1.0)
    x2 = rng.uniform(1.0, 2.0)
    x3 = rng.uniform(-1.0, 1.0)
    return (x1, x2, x3), 30.0 * x1 * x3 / ((x1 - 10.0) * x2 * x2)


FORMULAS = {"noisy4": _noisy4, "keijzer5": _keijzer5}


def write_csv(path, formula, rows, seed):
    """``rows`` samples of a regression formula, reproducible from ``seed``."""
    rng = random.Random(seed)
    sample = FORMULAS[formula]
    lines = []
    for _ in range(rows):
        xs, y = sample(rng)
        lines.append(",".join(repr(v) for v in xs + (y,)))
    header = ",".join(f"x{i + 1}" for i in range(len(xs))) + ",y"
    with open(path, "w") as handle:
        handle.write(header + "\n" + "\n".join(lines) + "\n")


def write_config(path, settings):
    with open(path, "w") as handle:
        handle.write("".join(f"{key} = {value}\n" for key, value in settings.items()))


# --- processes ------------------------------------------------------------

class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        spec = WORKLOADS[workload]
        self.seed = seed
        self.settings = dict(spec["config"], population_size=POPULATION)
        self.jobs = self.settings["jobs"]
        self.work = os.path.join("perfbench", "_work", workload)
        shutil.rmtree(os.path.join(root, self.work), ignore_errors=True)
        os.makedirs(os.path.join(root, self.work))
        self.nproc = os.cpu_count() or 1
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = "src"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.settings["data"] = os.path.join(self.work, "data.csv")
        write_csv(os.path.join(root, self.settings["data"]), *spec["csv"], seed)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def spawn(self, argv, label):
        """Run one child to completion; see ``spawn_all``."""
        return self.spawn_all([(argv, label)])[0]

    def spawn_all(self, children):
        """Start every ``(argv, label)`` child at once and wait for all.

        Returns, per child, its stdout, wall seconds until it was reaped,
        CPU seconds and peak RSS in MB (both covering the child's own
        children) and its start time.
        """
        running, reaped = [], []
        try:
            for argv, label in children:
                with open(os.path.join(self.root, self.path(f"{label}.out")), "w") as out, \
                        open(os.path.join(self.root, self.path(f"{label}.err")), "w") as err:
                    started = time.monotonic()
                    proc = subprocess.Popen(
                        argv, cwd=self.root, env=self.env, stdout=out, stderr=err,
                        start_new_session=True,
                    )
                timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
                timer.start()
                running.append((label, proc, timer, started))
        finally:
            for label, proc, timer, started in running:
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                reaped.append((label, os.waitstatus_to_exitcode(status), usage,
                               time.monotonic() - started, started))
        results = []
        for label, code, usage, wall, started in reaped:
            if code != 0:
                with open(os.path.join(self.root, self.path(f"{label}.err"))) as handle:
                    tail = handle.read().strip().splitlines()[-1:] or ["(no stderr)"]
                raise BenchError(f"{label} exited with {code}: {tail[0]}")
            with open(os.path.join(self.root, self.path(f"{label}.out"))) as handle:
                stdout = handle.read()
            cpu = usage.ru_utime + usage.ru_stime
            results.append((stdout, wall, cpu, usage.ru_maxrss / 1024.0, started))
        return results

    def worker(self, job, label):
        stdout, wall, cpu, rss, started = self.spawn(
            [sys.executable, "perfbench/worker.py", json.dumps(job)], label
        )
        return last_json(stdout, label), wall, cpu, rss, started

    # --- one command of the workload ------------------------------------

    def run_seeds(self, index):
        """Seeds of the runs made by the ``index``-th command."""
        reps = self.settings["repetitions"]
        base = self.seed * 1000 + index * reps
        return list(range(base, base + reps))

    def config(self, label, base_seed):
        """Writes the experiment config ``<label>.cfg``; returns its path."""
        path = self.path(f"{label}.cfg")
        write_config(os.path.join(self.root, path), dict(self.settings, base_seed=base_seed))
        return path

    def command(self, index, traced=False, tag=""):
        """One ``mosr experiment`` command; returns its measurements and artifacts."""
        label = f"cmd{index}{tag}"
        out_dir = self.path(label)
        os.makedirs(os.path.join(self.root, out_dir))
        seeds = self.run_seeds(index)
        config = self.config(label, seeds[0])
        argv = ["experiment", "--config", config, "--out-dir", out_dir]
        if traced:
            job = {"mode": "cli", "argv": argv, "trace": out_dir}
            result, wall, cpu, rss, _ = self.worker(job, label)
        else:
            _, wall, cpu, rss, _ = self.spawn([sys.executable, "-m", "mosr.cli"] + argv, label)
            result = {}
        return {
            "label": label, "seeds": seeds, "config": config, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": rss, "out_dir": out_dir, "trace": result.get("trace"),
        }

    # --- reading and checking outputs -----------------------------------

    def read_runs(self, cmd):
        """Per run: evaluation count, best model NMSEs and the front rows.

        Runs whose artifacts are missing or unreadable are left out, which
        the checks report.
        """
        runs = {}
        try:
            self._read_runs(cmd, runs)
        except (OSError, ValueError, IndexError):
            pass
        return runs

    def _read_runs(self, cmd, runs):
        out_dir = os.path.join(self.root, cmd["out_dir"])
        with open(os.path.join(out_dir, "runs.csv")) as handle:
            rows = handle.read().splitlines()[1:]
        for row in rows:
            seed, train, test, length, evals, model = row.split(",", 5)
            runs[int(seed)] = {"evaluations": int(evals), "train_nmse": float(train),
                               "test_nmse": float(test), "sexpr": model}
        for seed in cmd["seeds"]:
            with open(os.path.join(out_dir, f"front_{seed}.csv")) as handle:
                runs.setdefault(seed, {})["front"] = handle.read().splitlines()[1:]

    def check_command(self, cmd):
        """Budget and front checks; returns (runs, per-run failure lists)."""
        runs = self.read_runs(cmd)
        budget = self.settings["max_evaluations"]
        failures = {}
        for seed in cmd["seeds"]:
            run = runs.get(seed)
            problems = failures.setdefault(seed, [])
            if run is None or "front" not in run or "evaluations" not in run:
                problems.append("missing artifacts")
                continue
            if not budget <= run["evaluations"] < budget + POPULATION:
                problems.append(f"{run['evaluations']} evaluations outside "
                                f"[{budget}, {budget + POPULATION})")
            obj2 = [float(row.split(",")[1]) for row in run["front"]]
            train = [float(row.split(",")[2]) for row in run["front"]]
            if not obj2:
                problems.append("empty front")
            for i in range(1, len(obj2)):
                if not (obj2[i] > obj2[i - 1] and train[i] < train[i - 1]):
                    problems.append(f"front not strictly monotone at row {i + 1}")
                    break
        return runs, failures

    def rescore(self, checked):
        """Bit-for-bit re-scoring of every best model, in one child.

        ``checked`` pairs each command with its runs; returns
        ``(run id, message)`` for every model whose NMSE is not reproduced.
        Every command's config names the same dataset.
        """
        items = [
            {"id": run_id(cmd, seed), "sexpr": run["sexpr"],
             "train_nmse": run["train_nmse"], "test_nmse": run["test_nmse"]}
            for cmd, runs in checked for seed, run in runs.items() if "sexpr" in run
        ]
        job = {"mode": "check", "config": checked[0][0]["config"], "items": items}
        result, *_ = self.worker(job, "check")
        return result["failures"]

    def digest(self, cmd):
        """SHA-256 over the command's artifacts (file names and bytes)."""
        h = hashlib.sha256()
        base = os.path.join(self.root, cmd["out_dir"])
        for name in sorted(os.listdir(base)):
            if name.startswith("part-") or name == "spans.jsonl":
                continue
            h.update(name.encode() + b"\0")
            with open(os.path.join(base, name), "rb") as handle:
                h.update(handle.read())
        return h.hexdigest()

    # --- set-up ----------------------------------------------------------

    def setup_job(self):
        return {"mode": "setup", "config": self.config("setup", self.run_seeds(0)[0])}

    def measure_setups(self, label):
        """Seconds from spawning a fresh process to ready-to-evolve, and the
        reference kernel's seconds, timed in that process once it is ready.

        ``jobs`` processes start at once, as the command runs ``jobs``
        processes that each load the dataset: the set-up and the kernel
        then share the machine the way the command's runs do.  Returns one
        pair per process.
        """
        argv = [sys.executable, "perfbench/worker.py", json.dumps(self.setup_job())]
        children = [(argv, f"{label}-{j}") for j in range(self.jobs)]
        pairs = []
        for stdout, _, _, _, started in self.spawn_all(children):
            result = last_json(stdout, label)
            pairs.append((result["ready"] - started, result["reference_s"]))
        return pairs


# --- statistics and reporting ---------------------------------------------

def last_json(stdout, label):
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{label} printed no result")
    return json.loads(lines[-1])


def run_id(cmd, seed):
    return f"{cmd['label']}/seed {seed}"


def tail_percentile(values):
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (50, 90, 99):
        if n * (100 - p) / 100.0 >= 10:
            best = p
    if best is None:
        return None
    return best, statistics.quantiles(values, n=100, method="inclusive")[best - 1]


def describe(name, unit, values):
    text = f"{name}: median {statistics.median(values):.6g} {unit}, n={len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        return text + " (no percentile has ten samples beyond it)"
    return text + f", p{tail[0]} {tail[1]:.6g} {unit}"


def environment(bench):
    """Versions, threads and hardware; its set-up process is also a warm-up."""
    info, *_ = bench.worker(bench.setup_job(), "env")
    commit = "unknown"  # a source tree without .git, such as an export
    if os.path.isdir(os.path.join(bench.root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = {
        "commit": commit, "python": info["python"], "numpy": info["numpy"],
        "blas_threads": info["blas_threads"], "jobs": bench.jobs,
        "nproc": bench.nproc, "cpu": cpu,
    }
    print("env: " + json.dumps(env))
    return env


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# --- the two modes --------------------------------------------------------

def check_commands(bench, commands, failed, notes):
    """Run every output check; adds failing run ids to ``failed``."""
    checked = {}
    for cmd in commands:
        runs, failures = bench.check_command(cmd)
        checked[cmd["label"]] = runs
        for seed, problems in failures.items():
            if problems:
                failed.add(run_id(cmd, seed))
                notes.extend(f"{run_id(cmd, seed)}: {p}" for p in problems)
    by_label = {cmd["label"]: cmd for cmd in commands}
    for rid, message in bench.rescore([(by_label[k], v) for k, v in checked.items()]):
        failed.add(rid)
        notes.append(f"{rid}: {message}")
    return checked


def end_to_end(bench, seconds):
    env = environment(bench)
    commands, crashed, notes, samples, references, cycles = [], [], [], [], [], []

    def sample_machine(index):
        """Set-up and reference samples, taken before, between and after
        the commands so they see the same machine as the commands."""
        for i in range(SETUP_SAMPLES):
            for setup_s, reference_s in bench.measure_setups(f"setup{index}-{i}"):
                samples.append(setup_s)
                references.append(reference_s)

    started = time.monotonic()
    sample_machine(0)
    for index in range(1000):
        cycle_start = time.monotonic()
        try:
            commands.append(bench.command(index))
        except BenchError as exc:  # counts as failed runs, not as a benchmark error
            crashed.extend(f"cmd{index}/seed {seed}" for seed in bench.run_seeds(index))
            notes.append(str(exc))
        sample_machine(index + 1)
        cycles.append(time.monotonic() - cycle_start)
        elapsed = time.monotonic() - started
        if index + 1 >= MIN_COMMANDS and elapsed + statistics.median(cycles) > seconds:
            break
    if not commands:
        raise BenchError("every command failed: " + "; ".join(notes))
    failed_runs = set(crashed)
    checked = check_commands(bench, commands, failed_runs, notes)
    for cmd in commands:
        cmd["evaluations"] = sum(r.get("evaluations", 0) for r in checked[cmd["label"]].values())
    attempted = sum(len(c["seeds"]) for c in commands) + len(crashed)
    series = {
        "wall_s": [c["wall_s"] for c in commands],
        "evals_per_s": [c["evaluations"] / c["wall_s"] for c in commands],
        "setup_s": samples,
        "cpu_s": [c["cpu_s"] for c in commands],
        "peak_rss_mb": [c["peak_rss_mb"] for c in commands],
        "reference_s": references,
    }
    info = {
        "env": env,
        "series": series,
        "best_train_nmse": [r["train_nmse"] for runs in checked.values()
                            for r in runs.values() if "train_nmse" in r],
        "artifact_digests": [bench.digest(c) for c in commands],
        "failures": notes,
    }
    units = {"wall_s": "s", "evals_per_s": "1/s", "setup_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "reference_s": "s"}
    for name, unit in units.items():
        print(describe(name, unit, series[name]))
    # The kernel's samples are short, so each lands in a fast or a slow
    # moment of the machine and their median jumps between the two; their
    # mean follows the share of slow time in the run, which is what the
    # commands' times depend on.
    reference = statistics.mean(references)
    medians = {name: statistics.median(values) for name, values in series.items()}
    metrics = {
        "wall_ref": medians["wall_s"] / reference,
        "evals_per_ref": medians["evals_per_s"] * reference,
        "setup_s": medians["setup_s"],
        "cpu_ref": medians["cpu_s"] / reference,
        "peak_rss_mb": medians["peak_rss_mb"],
    }
    print(f"reference_s: mean {reference:.6g} s")
    for name, unit in END_TO_END.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(f"runs_failed: {len(failed_runs)} of {attempted} runs_attempted")
    return metrics, attempted, len(failed_runs), info


def _percentile_ms(values, p):
    if not values:
        return 0.0
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def per_layer(bench, seconds):
    env = environment(bench)
    # the first command, untraced and traced in alternation so that machine
    # drift moves both alike: at least two pairs, more while time allows
    plain, traced, pairs = [], [], []
    started = time.monotonic()
    for i in range(1, 1000):
        pair_start = time.monotonic()
        plain.append(bench.command(0, tag=f"-plain{i}"))
        traced.append(bench.command(0, traced=True, tag=f"-traced{i}"))
        pairs.append(time.monotonic() - pair_start)
        elapsed = time.monotonic() - started
        if i >= 2 and elapsed + statistics.median(pairs) > seconds:
            break
    commands = plain + traced
    notes, failed = [], set()
    checked = check_commands(bench, commands, failed, notes)
    attempted = sum(len(c["seeds"]) for c in commands)
    traced_runs = {run_id(c, seed) for c in traced for seed in c["seeds"]}
    digests = [bench.digest(c) for c in commands]
    if len(set(digests)) != 1:
        failed |= traced_runs
        notes.append("traced artifacts differ from the untraced run's")
    traces = [t["trace"] for t in traced]
    first = traces[0]

    def counted(t):
        return t["counts"], {k: v[0] for k, v in t["stats"].items()}

    if any(counted(t) != counted(first) for t in traces[1:]):
        failed |= traced_runs
        notes.append("counts differ between traced runs of one seed")
    program_evals = sum(r.get("evaluations", 0) for r in checked[traced[0]["label"]].values())
    if first["counts"]["evaluations"] != program_evals:
        failed |= traced_runs
        notes.append("traced evaluation count differs from the program's")
    reps = len(commands[0]["seeds"])
    expected_parts = 1 + (reps if bench.jobs > 1 and reps > 1 else 0)
    parts = sorted({t["parts"] for t in traces})
    if parts != [expected_parts]:
        failed |= traced_runs
        notes.append(f"expected {expected_parts} trace parts, got {parts}")

    def median(fn):
        return statistics.median(fn(t) for t in traces)

    counts = first["counts"]
    m = {}
    for layer in ("trees.evaluate", "metrics.pearson_r2", "complexity.measure",
                  "trees.crossover", "trees.mutate", "trees.random_tree",
                  "nsga2.tournament_select", "nsga2.pareto_front", "sexpr.to_sexpr",
                  "benchmarks.load_csv"):
        calls = first["stats"].get(layer, [0, 0.0, 0.0])[0]
        total = median(lambda t: t["stats"].get(layer, [0, 0.0, 0.0])[1])
        m[f"{layer}.calls"] = calls
        m[f"{layer}.s"] = total
        m[f"{layer}.self_s"] = median(lambda t: t["stats"].get(layer, [0, 0.0, 0.0])[2])
        m[f"{layer}.us_per_call"] = 1e6 * total / calls if calls else 0.0
    m["trees.evaluate.nodes"] = counts["trees.evaluate.nodes"]
    m["trees.evaluate.rows"] = counts["trees.evaluate.rows"]
    crossovers = m["trees.crossover.calls"]
    m["trees.crossover.fallback_ratio"] = (
        counts["trees.crossover.fallbacks"] / crossovers if crossovers else 0.0)
    m["nsga2.evaluations"] = counts["evaluations"]
    m["nsga2.generations"] = counts["generations"]
    m["nsga2.selection.self_s"] = median(
        lambda t: t["stats"].get("nsga2.generation", [0, 0.0, 0.0])[2])
    generation_s = [g for t in traces for g in t["generation_s"]]
    m["nsga2.generation_ms.p50"] = _percentile_ms(generation_s, 50)
    m["nsga2.generation_ms.p90"] = _percentile_ms(generation_s, 90)
    m["nsga2.duplicate_ratio"] = (
        counts["duplicates"] / counts["offspring"] if counts["offspring"] else 0.0)
    m["nsga2.mean_tree_size"] = (
        counts["tree_nodes"] / counts["evaluations"] if counts["evaluations"] else 0.0)
    m["cli.import_s"] = median(lambda t: t["import_s"])
    m["harness.write.calls"] = first["stats"].get("harness.write", [0])[0]
    m["harness.write_s"] = median(lambda t: t["stats"].get("harness.write", [0, 0.0])[1])
    m["harness.parallel_efficiency"] = median(
        lambda t: t["cpu_s"] / (bench.jobs * t["wall_s"]))
    plain_wall = statistics.median(c["wall_s"] for c in plain)
    traced_wall = statistics.median(c["wall_s"] for c in traced)
    m["trace.overhead_s"] = traced_wall - plain_wall
    m["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    print("untraced wall " + " / ".join(f"{c['wall_s']:.4f}" for c in plain)
          + " s, traced wall " + " / ".join(f"{c['wall_s']:.4f}" for c in traced) + " s")
    for name, value in m.items():
        print(f"{name}: {value:.6g}")
    info = {"env": env, "digests": digests, "failures": notes,
            "spans": [os.path.join(t["out_dir"], "spans.jsonl") for t in traced]}
    return m, attempted, len(failed), info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mosr", "__init__.py")):
        print("error: run from the root of a mosr source tree (src/mosr not found)",
              file=sys.stderr)
        return 2
    try:
        units = expected_metrics(root, args.trace)
        bench = Bench(root, args.workload, args.seed)
        if args.trace:
            metrics, attempted, failed, info = per_layer(bench, args.seconds)
        else:
            metrics, attempted, failed, info = end_to_end(bench, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    for note in info["failures"]:
        print(f"FAILED {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(root, bench.path("result.json")), "w") as handle:
        json.dump(dict(result, workload=args.workload, seed=args.seed, **info), handle,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
