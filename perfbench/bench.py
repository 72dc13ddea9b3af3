"""Measurement loops, metrics and the result line of the benchmark.

End-to-end runs (``trace=False``) time a closed loop with one client for a
fixed number of seconds.  Traced runs (``trace=True``) classify a fixed list
of inputs with spans around the calls into each module, so their counts
repeat exactly for a seed; they also time the same number of inputs
untraced for the tracing overhead, and time the batch command line with and
without ``--parallel``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from time import perf_counter, process_time, thread_time
from typing import NamedTuple

import delpezzo.cli

from . import gen, tracing
from .workloads import WORKLOADS, Case, check, matches, verdict_of_json

BATCH_LINES = 200  # inputs per batch: a library chunk or the cli-batch file
WARM_OPS = 25  # untimed inputs before timing, so lazy set-up is done
SETUP_RUNS = 6  # fresh interpreters timed per run for setup_s (after one untimed)
SPEEDUP_RUNS = 3  # sequential and parallel batch runs each, for the speedup
TRACE_ROUNDS = 3  # untraced and traced passes each, for the overhead ratio
CLI_TIMEOUT = 120  # seconds one command-line process may take
TICK_EVERY_S = 0.01  # library loops time one gauge tick after this much work
SEGMENT_S = 0.25  # ... and scale the calls of each segment of this much work
TICK_GAP_S = 0.05  # beside a child process the gauge ticks this often
TICK_EQUATION = "w^2 + z^3 - 3*x^3*(x+4*y)*z + 2*x^4*(x^2+6*x*y+6*y^2)"
NOMINAL_TICK_S = 0.002  # time of one tick on the nominal machine
SETUP_WITNESS = "w^2 + z^3 + x^5*y"
SETUP_FIBERS = "II* + II"

END_TO_END = {
    "surfaces_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "batch_wall_s": "s",
    "cpu_ms_per_surface": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{name}.{kind}": unit
       for name in tracing.SPAN_NAMES
       for kind, unit in (("self_ms", "ms"), ("calls_per_surface", "count"))},
    "cli.parallel_speedup": "ratio",
    "cli.sequential_batch_s": "s",
    "cli.parallel_batch_s": "s",
    "setup.import_s": "s",
    "setup.first_call_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

_SETUP_PROBE = f"""
import json, time
start = time.perf_counter()
import delpezzo
imported = time.perf_counter()
report = delpezzo.classify_surface({SETUP_WITNESS!r})
done = time.perf_counter()
print(json.dumps({{"file": delpezzo.__file__, "import_s": imported - start,
                  "first_call_ms": (done - imported) * 1000,
                  "fibers": str(report.fibers)}}))
"""


class Gauge:
    """Scales measured times to a machine of nominal speed.

    A machine whose cores are shared with other tenants changes speed within
    a second, by a fifth or more, and CPU time changes with it.  The gauge
    times ticks of a fixed computation (one move of a sextic, the benchmark's
    own code) and times are multiplied by NOMINAL_TICK_S over the mean tick
    time, so they read as on a machine where a tick takes NOMINAL_TICK_S:

    * library calls: ticks are interleaved with the calls, and each segment
      of SEGMENT_S of calls is scaled by its own ticks;
    * command-line children: ticks run beside the child every TICK_GAP_S
      and are timed in CPU time of the ticking thread, so waiting for a core
      the child holds does not count.  A tick on a hardware thread whose
      sibling runs the child still slows down a little, so a change that
      makes the child busy on more cores reads somewhat faster than it is;
      judge such a change on the unscaled child times too.

    Set-up probes are not scaled (see Bench.probe_setup).
    """

    def __init__(self):
        self._base = gen.parse(TICK_EQUATION)
        self.tick()

    def tick(self, clock=perf_counter) -> float:
        start = clock()
        gen.move(self._base, random.Random(0))
        return clock() - start


class Child(NamedTuple):
    """A finished child process; wall and CPU time are scaled by the gauge."""

    wall: float
    cpu: float
    scale: float
    code: int
    stdout: str
    stderr: str


class Tally:
    """Operations attempted and failed; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 5:
                print(f"wrong answer: {what[:200]}", file=sys.stderr)
        return ok


class Bench:
    """One run of one workload inside the checkout at ``root``."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.out_dir = os.path.join(root, ".perfbench")
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join([self.src, root])}
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.tally = Tally()
        self.gauge = Gauge()
        self.unscaled: dict[str, float] = {}  # printed beside the scaled metrics
        self.setup: list[tuple[float, float, float]] = []  # set-up probe samples
        self.setup_probes = 0

    # -- set-up time ---------------------------------------------------------------

    def probe_setup(self) -> None:
        """Time one fresh interpreter importing delpezzo and classifying one
        witness, with the import and first-call parts.  Unscaled: a gauge
        ticking beside a starting interpreter slows down far more than
        beside a running one."""
        self.setup_probes += 1
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT)
        wall = perf_counter() - start
        try:
            probe = json.loads(proc.stdout.splitlines()[-1])
            ok = (proc.returncode == 0 and probe["fibers"] == SETUP_FIBERS
                  and probe["file"].startswith(self.src + os.sep))
        except (IndexError, ValueError, KeyError):
            ok = False
        if self.tally.add(ok, f"set-up probe: {proc.stdout}{proc.stderr}"):
            self.setup.append((wall, probe["import_s"], probe["first_call_ms"]))

    def probe_due(self, measured: float, seconds: float) -> float:
        """Run the next set-up probe once ``measured`` seconds of the run
        reach its slot (SETUP_RUNS slots spread evenly over the run, so the
        probes see the machine at different moments); returns the measured
        time left until the slot after it."""
        slot = seconds / SETUP_RUNS
        if self.setup_probes < SETUP_RUNS and measured >= self.setup_probes * slot:
            self.probe_setup()
        if self.setup_probes < SETUP_RUNS:
            return self.setup_probes * slot - measured
        return math.inf

    def setup_medians(self) -> tuple[float, float, float]:
        """Medians of set-up wall time, import time and first-call time."""
        while self.setup_probes < SETUP_RUNS:
            self.probe_setup()
        if not self.setup:
            raise RuntimeError("every set-up probe failed")
        return tuple(statistics.median(column) for column in zip(*self.setup))

    # -- library workloads -----------------------------------------------------------

    def call(self, case: Case):
        try:
            return self.workload.call(case)
        except Exception as exc:  # an unexpected error is a failed operation
            return exc

    def warm_up(self) -> None:
        for case in itertools.islice(self.workload.cases(f"warm/{self.seed}"), WARM_OPS):
            self.tally.add(check(case, self.call(case)), case.text)

    def run_cases(self, cases, seconds: float = math.inf) -> tuple[list, list, int, float]:
        """Call the cases until they run out or ``seconds`` pass.  Returns the
        scaled latency and CPU time of every call, the number answered
        correctly and the unscaled time of all calls."""
        latencies, cpus = [], []
        finished = 0
        raw = 0.0
        segment, ticks, work, since_tick = [], [], 0.0, 0.0
        start = perf_counter()
        for case in cases:
            t0, c0 = perf_counter(), process_time()
            result = self.call(case)
            elapsed, used = perf_counter() - t0, process_time() - c0
            finished += self.tally.add(check(case, result), case.text)
            segment.append((elapsed, used))
            work += elapsed
            since_tick += elapsed
            if since_tick >= TICK_EVERY_S:
                ticks.append(self.gauge.tick())
                since_tick = 0.0
            over = perf_counter() - start >= seconds
            if work >= SEGMENT_S or over:
                raw += self._scale_segment(segment, ticks, latencies, cpus)
                segment, ticks, work = [], [], 0.0
            if over:
                break
        if segment:
            raw += self._scale_segment(segment, ticks, latencies, cpus)
        return latencies, cpus, finished, raw

    def _scale_segment(self, segment, ticks, latencies, cpus) -> float:
        """Append the segment's scaled times; returns its unscaled time."""
        if not ticks:
            ticks.append(self.gauge.tick())
        scale = NOMINAL_TICK_S * len(ticks) / sum(ticks)
        latencies.extend(t * scale for t, _ in segment)
        cpus.extend(c * scale for _, c in segment)
        return sum(t for t, _ in segment)

    def measure_library(self, seconds: float) -> dict[str, float]:
        self.warm_up()
        cases = self.workload.cases(self.seed)
        latencies, cpus = [], []
        finished = 0
        raw = measured = 0.0
        pending = iter(())  # cases generated but not yet called
        while measured < seconds:
            until_probe = self.probe_due(measured, seconds)
            # generated untimed, in chunks; a probe can cut a chunk short
            pending = iter(list(pending) or list(itertools.islice(cases, BATCH_LINES)))
            start = perf_counter()
            lat, cpu, done, work = self.run_cases(pending, min(seconds - measured, until_probe))
            measured += perf_counter() - start
            latencies += lat
            cpus += cpu
            finished += done
            raw += work
        # a batch: BATCH_LINES consecutive calls; a short run scales its calls up
        batches = [sum(latencies[k:k + BATCH_LINES])
                   for k in range(0, len(latencies) - BATCH_LINES + 1, BATCH_LINES)]
        finished = max(finished, 1)
        self.unscaled["surfaces_per_s"] = finished / raw
        return {
            "surfaces_per_s": finished / sum(latencies),
            "latency_p50_ms": percentile(latencies, 0.5) * 1000,
            "latency_p90_ms": percentile(latencies, 0.9) * 1000,
            "batch_wall_s": statistics.median(
                batches or [sum(latencies) * BATCH_LINES / len(latencies)]),
            "cpu_ms_per_surface": sum(cpus) * 1000 / finished,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def trace_library(self) -> dict[str, float]:
        self.warm_up()
        stream = self.workload.cases(self.seed)
        traced = list(itertools.islice(stream, self.workload.trace_ops))
        plain = list(itertools.islice(stream, self.workload.trace_ops))
        spans, ratios = None, []
        for _ in range(TRACE_ROUNDS):  # alternate, for a steadier overhead ratio
            plain_s = sum(self.run_cases(plain)[0])
            tracer = tracing.Tracer()
            tracer.install()
            try:
                latencies, _, _, raw = self.run_cases(traced)
            finally:
                tracer.uninstall()
            if spans is None:  # spans and counts come from the first round
                spans, spans_scale = tracer.spans, sum(latencies) / raw
            ratios.append(sum(latencies) / plain_s)
        self.save_spans(spans)
        metrics = tracing.layer_metrics(spans, len(traced), spans_scale)
        metrics["trace.overhead_ratio"] = statistics.median(ratios)
        path = self.write_batch(traced)
        metrics.update(self.speedup(traced, lambda parallel: self.cli_in_process(path, parallel)))
        return metrics

    def cli_in_process(self, path: str, parallel: bool) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = delpezzo.cli.main(cli_args(path, parallel))
        return perf_counter() - start, code, out.getvalue()

    # -- command-line workload ---------------------------------------------------------

    def write_batch(self, cases: list[Case]) -> str:
        path = os.path.join(self.out_dir, f"batch-{self.workload.name}-{self.seed}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(case.text + "\n" for case in cases)
        return path

    def run_process(self, argv: list[str]) -> Child:
        """Run one child process while the gauge ticks every TICK_GAP_S
        beside it."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        ended = []
        ticks = []
        with open(os.path.join(self.out_dir, "child.out"), "w+", encoding="utf-8") as out, \
                open(os.path.join(self.out_dir, "child.err"), "w+", encoding="utf-8") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            waiter = threading.Thread(target=lambda: ended.append((proc.wait(), perf_counter())))
            waiter.start()
            while waiter.is_alive():
                if perf_counter() - start > CLI_TIMEOUT:
                    proc.kill()
                    waiter.join()
                    raise RuntimeError(f"child process ran over {CLI_TIMEOUT} s: {argv}")
                ticks.append(self.gauge.tick(thread_time))
                waiter.join(TICK_GAP_S)
            code, end = ended[0]
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        scale = NOMINAL_TICK_S * len(ticks) / sum(ticks)
        return Child((end - start) * scale, cpu * scale, scale, code, stdout, stderr)

    def check_batch(self, cases: list[Case], code: int, stdout: str) -> int:
        """Check every output line; returns the number answered correctly."""
        expected_code = 2 if any(isinstance(c.expect, str) for c in cases) else 0
        lines = stdout.splitlines()
        whole = code == expected_code and len(lines) == len(cases)
        finished = 0
        for case, line in zip(cases, lines if whole else [""] * len(cases)):
            try:
                ok = whole and matches(case.expect, verdict_of_json(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                ok = False
            finished += self.tally.add(ok, f"{case.text} -> {line} (exit {code})")
        return finished

    def cli_process(self, path: str, parallel: bool) -> tuple[float, int, str]:
        child = self.run_process(["-m", "delpezzo.cli", *cli_args(path, parallel)])
        return child.wall, child.code, child.stdout

    def batch_cases(self) -> list[Case]:
        return list(itertools.islice(self.workload.cases(self.seed), BATCH_LINES))

    def measure_cli(self, seconds: float) -> dict[str, float]:
        cases = self.batch_cases()
        argv = ["-m", "delpezzo.cli", *cli_args(self.write_batch(cases), True)]
        walls, raw = [], []
        cpu = 0.0
        finished = 0
        while sum(raw) < seconds:
            self.probe_due(sum(raw), seconds)
            child = self.run_process(argv)
            walls.append(child.wall)
            raw.append(child.wall / child.scale)
            cpu += child.cpu
            finished += self.check_batch(cases, child.code, child.stdout)
        finished = max(finished, 1)
        self.unscaled["batch_wall_s"] = statistics.median(raw)
        return {
            # a run holds few processes: the median one is steadier than the sum
            "surfaces_per_s": finished / len(walls) / statistics.median(walls),
            "latency_p50_ms": percentile(walls, 0.5) * 1000,
            "latency_p90_ms": percentile(walls, 0.9) * 1000,
            "batch_wall_s": statistics.median(walls),
            "cpu_ms_per_surface": cpu * 1000 / finished,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }

    def trace_cli(self) -> dict[str, float]:
        cases = self.batch_cases()
        path = self.write_batch(cases)
        metrics = self.speedup(cases, lambda parallel: self.cli_process(path, parallel))
        spans_path = os.path.join(self.out_dir, f"spans-{self.workload.name}-{self.seed}.json")
        child = self.run_process(
            ["-m", "perfbench.cli_traced", spans_path, *cli_args(path, False)])
        self.check_batch(cases, child.code, child.stdout)
        with open(spans_path, encoding="utf-8") as handle:
            spans = [tuple(span) for span in json.load(handle)]
        metrics.update(tracing.layer_metrics(spans, len(cases), child.scale))
        metrics["trace.overhead_ratio"] = child.wall / metrics["cli.sequential_batch_s"]
        return metrics

    # -- shared ------------------------------------------------------------------------

    def speedup(self, cases: list[Case], run_batch) -> dict[str, float]:
        """Median batch wall time without and with --parallel, alternating."""
        walls: dict[bool, list[float]] = {False: [], True: []}
        for _ in range(SPEEDUP_RUNS):
            for parallel in (False, True):
                wall, code, stdout = run_batch(parallel)
                walls[parallel].append(wall)
                self.check_batch(cases, code, stdout)
        sequential, parallel = statistics.median(walls[False]), statistics.median(walls[True])
        return {"cli.parallel_speedup": sequential / parallel,
                "cli.sequential_batch_s": sequential, "cli.parallel_batch_s": parallel}

    def save_spans(self, spans) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.workload.name}-{self.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)

    def run(self, seconds: float, trace: bool) -> dict[str, float]:
        self.probe_setup()  # the first interpreter may also write byte code
        self.setup.clear()
        self.setup_probes = 0
        cli = self.workload.call is None
        if trace:
            metrics = self.trace_cli() if cli else self.trace_library()
            _, metrics["setup.import_s"], metrics["setup.first_call_ms"] = self.setup_medians()
            return metrics
        metrics = self.measure_cli(seconds) if cli else self.measure_library(seconds)
        metrics["setup_s"] = self.setup_medians()[0]
        return metrics


def cli_args(path: str, parallel: bool) -> list[str]:
    return ["classify", "--json", *(["--parallel"] if parallel else []), "--file", path]


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def main(root: str, workload: str, seed: int, seconds: int, trace: bool) -> int:
    bench = Bench(root, workload, seed)
    metrics = bench.run(seconds, trace)
    units = PER_LAYER if trace else END_TO_END
    tally = bench.tally
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    for name, unit in units.items():
        print(f"  {name:<46} {metrics[name]:>14.6g} {unit}")
    for name, value in bench.unscaled.items():
        print(f"  {name + ' (unscaled)':<46} {value:>14.6g} {units[name]}")
    print(f"  {'failed_ratio':<46} {tally.failed / max(tally.attempted, 1):>14.6g}"
          f" ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if tally.failed == 0 else 1
