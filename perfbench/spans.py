"""Spans around calls into each qdrabi layer, recorded from outside the package.

`install` replaces module attributes where callers look them up (for example
`qdrabi.runner.integrate`, which `run_single` calls) with wrappers that
record a span while the tracer is enabled.  A span is a tuple

    (id, parent id, name, start, end, counts or None)

kept in memory.  Sweep pool workers are forked while a span is open, so
they inherit the tracer; each worker attaches the spans of a point to the
outcome it returns, and the pool's `map` moves them into the parent's list.
Span ids carry the process id, so ids from different processes never clash.
`time.perf_counter` is CLOCK_MONOTONIC on Linux, shared by all processes.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

ID, PARENT, NAME, START, END, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self.pid = os.getpid()
        self._stack: list[int] = []
        self._next = 0

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span; `count` maps (args, result) to counts."""
        self._next += 1
        sid = (os.getpid() << 32) | self._next
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        result = ok = None
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            counts = count(args, result) if ok and count is not None else None
            self.spans.append((sid, parent, name, start, end, counts))


def _wrap(tracer, module, attr, name, count=None):
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        return tracer.call(name, fn, args, kwargs, count)

    setattr(module, attr, traced)


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _steps(args, result):
    return {"steps": args[0].grid.n_steps()}


def _oracle_size(args, result):
    dim, samples = len(args[1]), len(args[2])
    return {"dim": dim, "samples": samples, "components": dim * samples}


def _point(ok_status):
    def count(args, result):
        outcome = result[1] if isinstance(result, tuple) else result
        return {"points": 1, "points_failed": int(outcome.status != ok_status)}
    return count


def install(tracer: Tracer, qdrabi) -> None:
    """Wrap the public functions of each layer where their callers look them up."""
    cli, runner, oracle, serialize = qdrabi.cli, qdrabi.runner, qdrabi.oracle, qdrabi.serialize
    point = _point(runner.STATUS_OK)
    _wrap(tracer, cli, "parse_config_file", "config.parse_config_file")
    _wrap(tracer, cli, "run_single", "runner.run_single", point)
    _wrap(tracer, cli, "oracle_check", "runner.oracle_check", point)
    _wrap(tracer, cli, "run_sweep", "runner.run_sweep")
    _wrap(tracer, runner, "run_single", "runner.run_single")
    _wrap(tracer, runner, "integrate", "dynamics.integrate", _steps)
    _wrap(tracer, runner, "run_oracle", "oracle.run_oracle")
    _wrap(tracer, runner, "compare", "oracle.compare")
    _wrap(tracer, runner, "write_timeseries_csv", "serialize.write_timeseries_csv", _file_bytes)
    _wrap(tracer, runner, "write_p2_csv", "serialize.write_p2_csv", _file_bytes)
    _wrap(tracer, runner, "write_manifest", "serialize.write_manifest")
    _wrap(tracer, runner, "dominant_angular_frequency", "signal.dominant_angular_frequency")
    _wrap(tracer, oracle, "build_hamiltonian", "oracle.build_hamiltonian")
    _wrap(tracer, oracle, "propagate", "oracle.propagate", _oracle_size)
    _wrap(tracer, oracle, "to_interaction_picture", "oracle.to_interaction_picture")
    _wrap(tracer, serialize, "sha256_file", "serialize.sha256_file", _file_bytes)

    sweep_point = runner._sweep_point

    # pickled by its qualified name, which functools.wraps keeps
    @functools.wraps(sweep_point)
    def traced_point(job):
        if not tracer.enabled:
            return sweep_point(job)
        mark = len(tracer.spans)
        index, outcome = tracer.call("runner.sweep_point", sweep_point, (job,), None, point)
        if os.getpid() != tracer.pid:
            outcome.bench_spans = tracer.spans[mark:]
            del tracer.spans[mark:]
        return index, outcome

    runner._sweep_point = traced_point

    class TracedPool(runner.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            for index, outcome in super().map(fn, *iterables, **kwargs):
                tracer.spans.extend(outcome.__dict__.pop("bench_spans", ()))
                yield index, outcome

    runner.ProcessPoolExecutor = TracedPool


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals within it."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0.0
        edge = start
        for lo, hi in sorted(children.get(span[ID], ())):
            lo, hi = max(lo, edge), min(hi, end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        result[span[ID]] = (end - start) - covered
    return result


def layer_metrics(spans, ops: int, op_wall_s: float, lanes: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from the spans of `ops` traced ops.

    A share is the layer's busy time over the time the op could keep its
    lanes busy (op wall time times the number of concurrent point workers).
    """
    own = self_times(spans)
    total = defaultdict(float)
    selfs = defaultdict(float)
    counts = defaultdict(float)
    for span in spans:
        total[span[NAME]] += span[END] - span[START]
        selfs[span[NAME]] += own[span[ID]]
        for key, value in (span[COUNTS] or {}).items():
            counts[f"{span[NAME]}.{key}"] += value

    lane_s = op_wall_s * lanes

    def per_op(seconds):
        return seconds / ops

    integrate_s = total["dynamics.integrate"]
    steps = counts["dynamics.integrate.steps"]
    oracle_s = total["oracle.run_oracle"] + total["oracle.compare"]
    components = counts["oracle.propagate.components"]
    oracle_calls = sum(1 for s in spans if s[NAME] == "oracle.propagate")
    csv_s = total["serialize.write_timeseries_csv"] + total["serialize.write_p2_csv"]
    csv_bytes = (counts["serialize.write_timeseries_csv.bytes"]
                 + counts["serialize.write_p2_csv.bytes"])
    serialize_s = csv_s + total["serialize.write_manifest"]
    runner_names = ("runner.run_single", "runner.oracle_check", "runner.run_sweep",
                    "runner.sweep_point")
    cli_ids = {s[ID] for s in spans if s[NAME] == "cli.main"}
    top_s = sum(s[END] - s[START] for s in spans
                if s[PARENT] in cli_ids and s[NAME].startswith("runner."))
    point_spans = [s for s in spans if s[COUNTS] and "points" in s[COUNTS]]
    point_s = sum(s[END] - s[START] for s in point_spans)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "cli.self_s": (per_op(selfs["cli.main"]), "s"),
        "config.parse_s": (per_op(total["config.parse_config_file"]), "s"),
        "dynamics.integrate_s": (per_op(integrate_s), "s"),
        "dynamics.steps": (steps / ops, "count"),
        "dynamics.us_per_step": (ratio(integrate_s * 1e6, steps), "us"),
        "dynamics.share": (ratio(integrate_s, lane_s), "fraction"),
        "oracle.run_s": (per_op(total["oracle.run_oracle"]), "s"),
        "oracle.build_s": (per_op(total["oracle.build_hamiltonian"]), "s"),
        "oracle.propagate_s": (per_op(total["oracle.propagate"]), "s"),
        "oracle.project_s": (per_op(total["oracle.to_interaction_picture"]), "s"),
        "oracle.self_s": (per_op(selfs["oracle.run_oracle"]), "s"),
        "oracle.compare_s": (per_op(total["oracle.compare"]), "s"),
        "oracle.dim": (ratio(counts["oracle.propagate.dim"], oracle_calls), "count"),
        "oracle.components": (components / ops, "count"),
        "oracle.useful_ratio": (ratio(6 * counts["oracle.propagate.samples"], components),
                                "fraction"),
        "oracle.share": (ratio(oracle_s, lane_s), "fraction"),
        "serialize.csv_s": (per_op(csv_s), "s"),
        "serialize.manifest_s": (per_op(selfs["serialize.write_manifest"]), "s"),
        "serialize.sha256_s": (per_op(total["serialize.sha256_file"]), "s"),
        "serialize.bytes_written": (csv_bytes / ops, "B"),
        "serialize.mb_per_s": (ratio(csv_bytes / 1e6, csv_s), "MB/s"),
        "serialize.share": (ratio(serialize_s, lane_s), "fraction"),
        "runner.self_s": (per_op(sum(selfs[n] for n in runner_names)), "s"),
        "runner.points": (len(point_spans) / ops, "count"),
        "runner.points_failed": (sum(s[COUNTS]["points_failed"] for s in point_spans) / ops,
                                 "count"),
        "runner.parallel_efficiency": (ratio(point_s, top_s * lanes), "fraction"),
        "signal.freq_s": (per_op(total["signal.dominant_angular_frequency"]), "s"),
    }

