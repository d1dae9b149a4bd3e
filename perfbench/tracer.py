"""Outside-in tracer for mosr: per-layer spans and counts without touching
the program.

The tracer replaces public mosr functions at the module attributes their
callers look them up through (``mosr.nsga2.crossover`` is what
``nsga2.run`` calls, ``mosr.harness.pearson_r2`` is what the harness
objective calls, ...) with wrappers that record one span per call: name,
start, end, parent span and run id.  Spans stay in memory; the caller writes
them out once the traced work has ended.

A layer's self time is its span durations minus the part covered by its
child spans.  Generation spans are opened and closed from the public
``on_generation`` hook of ``nsga2.run``, so ``nsga2.selection`` self time is
a generation's time outside every wrapped call: environmental selection
plus loop overhead.

Counts are taken at the same boundaries: tree nodes and rows evaluated,
crossover calls that returned ``parent1`` unchanged, and evaluated trees
that are structurally equal to a tree already evaluated in the same run.
"""

from __future__ import annotations

import functools
import json
import os
import time

COUNTS = (
    "evaluations",
    "offspring",
    "duplicates",
    "tree_nodes",
    "trees.evaluate.nodes",
    "trees.evaluate.rows",
    "trees.crossover.fallbacks",
    "generations",
)


def structural_key(node):
    """Hashable key; equal keys iff the trees are structurally equal."""
    if not node.children:
        return (node.symbol, node.value)
    return (node.symbol, tuple(structural_key(c) for c in node.children))


class Tracer:
    def __init__(self):
        self._clock = time.perf_counter
        self._origin = self._clock()
        self.run_id = None
        self._reset()

    def _reset(self):
        self.spans = []  # (name, start_s, end_s, parent_index, run_id)
        self._stack = []  # [span_index, name, parent_index, start, child_time]
        self.stats = {}  # name -> [calls, seconds, self_seconds]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.generation_s = []
        self._seen = None
        self._in_run_evals = 0

    # --- spans ---------------------------------------------------------

    def enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, name, parent, self._clock(), 0.0])

    def exit(self):
        end = self._clock()
        index, name, parent, start, child = self._stack.pop()
        duration = end - start
        self.spans[index] = (
            name, start - self._origin, end - self._origin, parent, self.run_id
        )
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        return duration

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    # --- layer-specific wrappers ---------------------------------------

    def _wrap_crossover(self, fn):
        @functools.wraps(fn)
        def traced(parent1, *args, **kwargs):
            self.enter("trees.crossover")
            try:
                child = fn(parent1, *args, **kwargs)
            finally:
                self.exit()
            if child is parent1:
                self.counts["trees.crossover.fallbacks"] += 1
            return child

        return traced

    def _count_evaluation(self, tree, n_rows):
        self.counts["trees.evaluate.nodes"] += tree.size
        self.counts["trees.evaluate.rows"] += n_rows

    def _wrap_evaluator(self, fn, n_rows):
        @functools.wraps(fn)
        def traced(tree):
            self.enter("trees.evaluate")
            try:
                return fn(tree)
            finally:
                self.exit()
                self._count_evaluation(tree, n_rows)
                if self._seen is not None:
                    started = self._clock()
                    self._note_evaluated(tree)
                    # keep the structural key's cost out of the parent's self time
                    if self._stack:
                        self._stack[-1][4] += self._clock() - started

        return traced

    def _note_evaluated(self, tree):
        # the prepared evaluator runs exactly once per engine evaluation
        counts = self.counts
        counts["evaluations"] += 1
        counts["tree_nodes"] += tree.size
        key = structural_key(tree)
        self._in_run_evals += 1
        if self._in_run_evals > self._population_size:
            counts["offspring"] += 1
            if key in self._seen:
                counts["duplicates"] += 1
        self._seen.add(key)

    def _wrap_make_matrix_evaluator(self, fn):
        @functools.wraps(fn)
        def traced(X, *args, **kwargs):
            return self._wrap_evaluator(fn(X, *args, **kwargs), len(X))

        return traced

    def _wrap_evaluate_matrix(self, fn):
        @functools.wraps(fn)
        def traced(tree, X, *args, **kwargs):
            self.enter("trees.evaluate")
            try:
                return fn(tree, X, *args, **kwargs)
            finally:
                self.exit()
                self._count_evaluation(tree, len(X))

        return traced

    def _wrap_make_measure(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.wrap("complexity.measure", fn(*args, **kwargs))

        return traced

    def _wrap_run(self, fn):
        @functools.wraps(fn)
        def traced(config, objective_fn, n_variables, on_generation=None):
            self._seen = set()
            self._in_run_evals = 0
            self._population_size = config.population_size
            depth = len(self._stack)

            def hook(generation, population, evaluations):
                # a generation span runs from one hook call to the next
                if len(self._stack) > depth + 1:
                    self.generation_s.append(self.exit())
                self.counts["generations"] += 1
                if on_generation is not None:
                    on_generation(generation, population, evaluations)
                self.enter("nsga2.generation")

            self.enter("nsga2.run")
            try:
                return fn(config, objective_fn, n_variables, hook)
            finally:
                # drop the span opened by the last hook call: no generation
                # follows it, only the return from run
                while len(self._stack) > depth + 1:
                    if self._stack[-1][0] == len(self.spans) - 1:
                        self._stack.pop()
                        self.spans.pop()
                    else:  # a run that raised mid-generation
                        self.exit()
                self.exit()
                self._seen = None

        return traced

    def _wrap_execute_run(self, fn, flush_dir):
        owner = os.getpid()
        spanned = self.wrap("harness.execute_run", fn)

        @functools.wraps(fn)
        def traced(config, seed):
            self.run_id = seed
            try:
                return spanned(config, seed)
            finally:
                self.run_id = None
                if os.getpid() != owner:
                    # a pool worker: its spans never reach the parent's memory
                    self.write_part(os.path.join(flush_dir, f"part-{os.getpid()}-{seed}.json"))
                    self._reset()

        return traced

    # --- installation --------------------------------------------------

    def install(self, flush_dir):
        """Wrap mosr's public functions at the attributes their callers use.

        ``flush_dir`` receives one part file per run executed in a forked
        pool worker; runs in this process stay in memory.
        """
        from mosr import benchmarks, harness, nsga2, trees

        random_tree = self.wrap("trees.random_tree", trees.random_tree)
        nsga2.random_tree = random_tree  # initialization
        trees.random_tree = random_tree  # subtree mutation
        nsga2.crossover = self._wrap_crossover(nsga2.crossover)
        nsga2.mutate = self.wrap("trees.mutate", nsga2.mutate)
        nsga2.tournament_select = self.wrap("nsga2.tournament_select", nsga2.tournament_select)
        harness.run = self._wrap_run(harness.run)
        harness.make_matrix_evaluator = self._wrap_make_matrix_evaluator(
            harness.make_matrix_evaluator
        )
        harness.evaluate_matrix = self._wrap_evaluate_matrix(harness.evaluate_matrix)
        harness.pearson_r2 = self.wrap("metrics.pearson_r2", harness.pearson_r2)
        harness.make_measure = self._wrap_make_measure(harness.make_measure)
        harness.pareto_front = self.wrap("nsga2.pareto_front", harness.pareto_front)
        harness.to_sexpr = self.wrap("sexpr.to_sexpr", harness.to_sexpr)
        for name in ("write_front_csv", "write_runs_csv", "write_aggregate_csv"):
            setattr(harness, name, self.wrap("harness.write", getattr(harness, name)))
        benchmarks.load_csv = self.wrap("benchmarks.load_csv", benchmarks.load_csv)
        harness.execute_run = self._wrap_execute_run(harness.execute_run, flush_dir)
        os.register_at_fork(after_in_child=self._reset)

    # --- output ---------------------------------------------------------

    def part(self):
        return {
            "stats": self.stats,
            "counts": self.counts,
            "generation_s": self.generation_s,
            "spans": self.spans,
        }

    def write_part(self, path):
        with open(path, "w") as handle:
            json.dump(self.part(), handle, separators=(",", ":"))


def merge_parts(parts):
    """Combine the in-memory part with those written by pool workers."""
    stats, spans, generation_s = {}, [], []
    counts = dict.fromkeys(COUNTS, 0)
    for part in parts:
        for name, (calls, seconds, self_seconds) in part["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += seconds
            entry[2] += self_seconds
        for name, value in part["counts"].items():
            counts[name] += value
        generation_s.extend(part["generation_s"])
        offset = len(spans)
        for name, start, end, parent, run_id in part["spans"]:
            spans.append((name, start, end, parent + offset if parent >= 0 else -1, run_id))
    return {"stats": stats, "counts": counts, "generation_s": generation_s, "spans": spans}


def write_spans(spans, path):
    """One JSON array per line: name, start_s, end_s, parent line, run id."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span, separators=(",", ":")))
            handle.write("\n")
