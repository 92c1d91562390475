"""wondercoh benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload deep-cohomology --seed 1 --seconds 15 --trace 0

The harness imports the library from ``src/`` next to this directory and
drives its public API as a closed loop with one client.  A run

1. sets up several times (import ``wondercoh`` afresh, build every
   variety the workload uses) and keeps the median as ``setup_s``;
2. makes the workload's inputs from the seed;
3. runs every input once with counting spans on: this pass yields the
   count block and the reference output bytes;
4. runs full passes over the inputs until ``--seconds`` have elapsed,
   timing each operation and comparing its output with the reference
   bytes.  With ``--trace 1`` every other pass records spans, and the
   metrics are the per-layer ones;
5. checks each reference output (Serre bijection, Omega classes, recorded
   digests for the default seed, the ROADMAP anchors, the CLI);
6. prints a detail line and, last, the result line.

Every time is process CPU time rescaled to a fixed reference speed of
the host (see ``Speed``), so that contention from other tenants of the
host does not show as a change in the program.

Failed operations (an exception, wrong bytes or a failed check) are
counted and never stop the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

DEFAULT_SEED = 0
SETUP_REPS = 5
KERNEL_ITERATIONS = 300
#: the reference speed is the one at which kernel() takes this long; on a
#: 2-vCPU VM with Python 3.11.7 it took 0.86 ms uncontended, 1.7 ms contended
KERNEL_REFERENCE_NS = 1_000_000
#: candidate tail percentiles; the tail is the highest one that leaves at
#: least TAIL_BEYOND samples above it
TAIL_LADDER = ("50", "75", "80", "90", "95", "98", "99", "99.5", "99.9")
TAIL_BEYOND = 10
LIB_MODULES = ("varieties", "cohomology", "oracles", "degrees", "regions", "serialize", "cli")
SETUP_OP = "setup"
CLI_OP = "cli"


class BenchError(Exception):
    """The benchmark cannot run here (for example, no library source)."""


def kernel() -> Fraction:
    """Fixed pure-Python work in the library's instruction mix (Fraction
    arithmetic, tuple-keyed dicts, small lists); it never calls the library."""
    acc = Fraction(0)
    table = {}
    for i in range(1, KERNEL_ITERATIONS):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        table[(i, i % 5)] = [x * 3 for x in range(i % 9)]
    return acc


class Speed:
    """The host's momentary speed, read from the CPU time of ``kernel``.

    Other tenants of the host slow this process down by up to 1.8x for
    seconds at a time, and CPU time includes that slowdown.  The kernel is
    timed right before and right after each measured interval; the
    interval is rescaled by KERNEL_REFERENCE_NS over the mean of the two.
    """

    def __init__(self):
        self.begin()

    @staticmethod
    def _sample() -> int:
        t0 = time.process_time_ns()
        kernel()
        return time.process_time_ns() - t0

    def begin(self) -> None:
        """Sample before an interval that does not follow another one."""
        self.before = self._sample()

    def factor(self) -> float:
        """Call right after an interval; the sample taken here is also the
        'before' sample of the interval that follows at once."""
        after = self._sample()
        factor = 2 * KERNEL_REFERENCE_NS / (self.before + after)
        self.before = after
        return factor


def import_library() -> SimpleNamespace:
    """Import ``wondercoh`` afresh from SRC, dropping any loaded copy."""
    for name in [m for m in sys.modules if m.split(".")[0] == "wondercoh"]:
        del sys.modules[name]
    package = importlib.import_module("wondercoh")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise BenchError(f"wondercoh was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"wondercoh.{m}") for m in LIB_MODULES})


def setup(workload: str, speed: Speed) -> tuple[SimpleNamespace, dict, float]:
    """Import the library and build the workload's varieties SETUP_REPS
    times; returns the last library, its varieties and the median time."""
    if not os.path.isfile(os.path.join(SRC, "wondercoh", "__init__.py")):
        raise BenchError(f"no library source at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    times = []
    speed.begin()
    for _ in range(SETUP_REPS):
        t0 = time.process_time_ns()
        lib = import_library()
        varieties = {n: lib.varieties.build_case(n) for n in workloads.variety_names(workload)}
        times.append((time.process_time_ns() - t0) * speed.factor())
    return lib, varieties, statistics.median(times) / 1e9


def tail(samples: list[float]) -> tuple[float, str]:
    """Nearest-rank value at the highest ladder percentile that leaves at
    least TAIL_BEYOND samples above it, with that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(Fraction(p) * n / 100)
        if n - rank >= TAIL_BEYOND:
            best = (ordered[rank - 1], p)
    if best is None:
        raise BenchError(f"{n} samples leave no percentile with {TAIL_BEYOND} beyond it")
    return best


def summarize(latencies: list[list[float]]) -> dict:
    """End-to-end figures from per-input latencies in rescaled ns.  Each input
    contributes the median of its repetitions, so the sample count is the
    number of inputs whatever the number of passes."""
    per_input = [statistics.median(v) / 1e6 for v in latencies if v]
    ops = sum(len(v) for v in latencies)
    busy_s = sum(sum(v) for v in latencies) / 1e9
    value, percentile = tail(per_input)
    return {
        "ops_per_s": ops / busy_s,
        "latency_ms_p50": statistics.median(per_input),
        "latency_ms_tail": value,
        "tail_percentile": percentile,
        "latency_samples": len(per_input),
        "operations": ops,
    }


class Run:
    """State of one benchmark run; ``execute`` is the whole run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.operation = workloads.OPERATIONS[workload]
        self.attempted = 0
        self.failed = 0
        self.bad: dict[int, str] = {}  # input index -> why its output is wrong
        self.gate_failures: list[str] = []
        self.examples: list[str] = []  # the first few failures, for the detail line
        self.speed = Speed()
        self.scale: dict = {}  # operation or phase id -> its speed factor

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.examples) < 5:
            self.examples.append(what)

    def attempt(self, i: int):
        """Run the operation on input i once, right after the previous one
        or a ``speed.begin()``; returns (output or exception, rescaled ns,
        speed factor)."""
        name, arg = self.inputs[i]
        X = self.varieties[name]
        t0 = time.process_time_ns()
        try:
            out = self.operation(self.lib, X, arg)
        except Exception as exc:  # counted as a failed operation
            out = exc
        t1 = time.process_time_ns()
        factor = self.speed.factor()
        self.attempted += 1
        return out, (t1 - t0) * factor, factor

    def execute(self) -> dict:
        self.lib, self.varieties, self.setup_s = setup(self.workload, self.speed)
        self.inputs = workloads.make_inputs(self.workload, self.seed, self.varieties)
        self.tracer = tracing.Tracer()
        self.count_pass()
        self.timed_passes()
        # before the checks, whose parsed JSON would set the high-water mark
        self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.check_outputs()
        return self.report()

    def count_pass(self) -> None:
        """One traced execution per input; its outputs become the reference."""
        self.tracer.install()
        self.outputs: list = []
        try:
            if self.trace:
                self.tracer.op = SETUP_OP
                self.speed.begin()
                for name in self.varieties:
                    self.lib.varieties.build_case(name)
                self.scale[SETUP_OP] = self.speed.factor()
            for i in range(len(self.inputs)):
                self.tracer.op = ("count", i)
                out, _, _ = self.attempt(i)
                self.outputs.append(out)
        finally:
            self.tracer.op = None
            self.tracer.uninstall()
        self.count_ops = {("count", i) for i in range(len(self.inputs))}
        for i, out in enumerate(self.outputs):
            if isinstance(out, Exception):
                self.bad[i] = f"raised {type(out).__name__}: {out}"

    def check_outputs(self) -> None:
        """Checks on the reference outputs, after the timed loop.  Every
        execution of an input whose reference output fails counts as failed."""
        for i, (name, arg) in enumerate(self.inputs):
            if i in self.bad:
                continue
            try:
                workloads.check_output(self.workload, self.lib, self.varieties[name], arg, self.outputs[i])
            except Exception as exc:  # a failed check, or a check that could not run
                self.bad[i] = f"check failed: {exc}"
        if self.seed == DEFAULT_SEED:
            self.check_reference()
        if self.workload == "deep-cohomology":
            self.check_anchors()
            self.check_cli()
        for i in sorted(self.bad):
            self.fail(f"{workloads.label(self.inputs[i])}: {self.bad[i]}")
            self.failed += len(self.plain[i]) + len(self.traced[i])
            self.plain[i].clear()
            self.traced[i].clear()

    def check_reference(self) -> None:
        """Compare with the sha256 digests recorded for the default seed."""
        with open(REFERENCE, encoding="utf-8") as fh:
            recorded = json.load(fh)[self.workload]
        if [entry[0] for entry in recorded] != [workloads.label(x) for x in self.inputs]:
            self.gate_failures.append("default-seed inputs differ from the recorded ones")
            return
        for i, (_, digest) in enumerate(recorded):
            if i not in self.bad and hashlib.sha256(self.outputs[i]).hexdigest() != digest:
                self.bad[i] = "output bytes differ from the recorded digest"

    def check_anchors(self) -> None:
        """Witness counts of the ROADMAP anchors, read from the JSON output."""
        self.anchors = {}
        for i, item in enumerate(self.inputs):
            if item not in workloads.ANCHORS or i in self.bad:
                continue
            doc = json.loads(self.outputs[i])
            witnesses = sum(
                len(c["witnesses"]) for g in doc["groups"] for c in g["constituents"]
            )
            candidates = tracing.counts(self.tracer.spans, {("count", i)})["candidates"]
            self.anchors[workloads.label(item)] = {"candidates": candidates, "witnesses": witnesses}
            if witnesses != workloads.ANCHORS[item]["witnesses"]:
                self.bad[i] = f"{witnesses} witnesses, ROADMAP says {workloads.ANCHORS[item]['witnesses']}"

    def check_cli(self) -> None:
        """``wondercoh cohomology --format json`` in process on the anchors
        must print the library's JSON byte for byte."""
        if self.trace:
            self.tracer.install()
            self.tracer.op = CLI_OP
        self.speed.begin()
        try:
            for i, (name, coords) in enumerate(self.inputs):
                if (name, coords) not in workloads.ANCHORS:
                    continue
                argv = ["cohomology", name, "--lambda", *map(str, coords), "--format", "json"]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = self.lib.cli.main(argv)
                if code != 0 or buf.getvalue().encode() != self.outputs[i]:
                    self.gate_failures.append(f"cli output differs for {workloads.label((name, coords))}")
        finally:
            self.scale[CLI_OP] = self.speed.factor()
            self.tracer.op = None
            self.tracer.uninstall()

    def timed_passes(self) -> None:
        """Full passes until the time is up; with tracing, every other pass
        records spans (at least one pass of each kind)."""
        m = len(self.inputs)
        self.plain = [[] for _ in range(m)]
        self.factors: list[float] = []
        self.traced = [[] for _ in range(m)]
        self.traced_ops: set = set()
        self.traced_ns = 0.0
        self.passes = 0
        deadline = time.perf_counter() + self.seconds
        while self.passes < (2 if self.trace else 1) or time.perf_counter() < deadline:
            traced = self.trace and self.passes % 2 == 1
            if traced:
                self.tracer.install()
            self.speed.begin()
            try:
                for i in range(m):
                    if traced:
                        self.tracer.op = (self.passes, i)
                    out, ns, factor = self.attempt(i)
                    self.factors.append(factor)
                    if traced:
                        self.traced_ops.add((self.passes, i))
                        self.scale[(self.passes, i)] = factor
                        self.traced_ns += ns
                    if isinstance(out, Exception):
                        self.fail(f"{workloads.label(self.inputs[i])}: raised {type(out).__name__}: {out}")
                    elif out != self.outputs[i]:
                        self.fail(f"{workloads.label(self.inputs[i])}: wrong output bytes")
                    else:
                        (self.traced if traced else self.plain)[i].append(ns)
            finally:
                self.tracer.op = None
                if traced:
                    self.tracer.uninstall()
            self.passes += 1

    def report(self) -> dict:
        plain = summarize(self.plain)
        detail = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "inputs": len(self.inputs),
            "passes": self.passes,
            "tail_percentile": plain["tail_percentile"],
            "latency_samples": plain["latency_samples"],
            "error_rate": self.failed / self.attempted,
            "speed_factor_median": statistics.median(self.factors),
            "counts": tracing.counts(self.tracer.spans, self.count_ops),
            "gate_failures": self.gate_failures,
            "failures": self.examples,
        }
        if self.workload == "deep-cohomology":
            detail["anchors"] = self.anchors
        if self.trace:
            metrics = self.trace_report(plain, detail)
        else:
            metrics = {
                "setup_s": (self.setup_s, "s"),
                "ops_per_s": (plain["ops_per_s"], "1/s"),
                "latency_ms_p50": (plain["latency_ms_p50"], "ms"),
                "latency_ms_tail": (plain["latency_ms_tail"], "ms"),
                "success_rate": (1 - self.failed / self.attempted, "ratio"),
                "peak_rss_mib": (self.peak_rss_mib, "MiB"),
            }
        return {
            "detail": detail,
            "result": {
                "correct": self.failed == 0 and not self.gate_failures,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            },
        }

    def trace_report(self, plain: dict, detail: dict) -> dict:
        """Per-layer metrics; writes the span file and the trace summary."""
        spans = self.tracer.spans
        traced = summarize(self.traced)
        layers = tracing.layer_metrics(spans, self.traced_ops, self.scale, SETUP_OP, CLI_OP)
        summary = {
            "workload": self.workload,
            "seed": self.seed,
            "traced_operations": len(self.traced_ops),
            "untraced": plain,
            "traced": traced,
            "tracing_overhead": plain["ops_per_s"] / traced["ops_per_s"] - 1,
            "self_time": tracing.self_time_summary(spans, self.traced_ops, self.scale, self.traced_ns),
            "layer_metrics": layers,
            "counts": detail["counts"],
        }
        os.makedirs(OUT, exist_ok=True)
        self.tracer.write(os.path.join(OUT, f"{self.workload}.spans.jsonl"))
        with open(os.path.join(OUT, f"{self.workload}.trace.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        detail["tracing_overhead"] = summary["tracing_overhead"]
        detail["largest_self_span"] = summary["self_time"]["largest_self_span"]
        return {name: (layers[name], unit) for name, unit in tracing.LAYER_METRICS}


def record_reference(workload: str) -> None:
    """Store sha256 digests of the default seed's outputs in reference.json."""
    run = Run(workload, DEFAULT_SEED, 0, False)
    run.lib, run.varieties, _ = setup(workload, run.speed)
    run.inputs = workloads.make_inputs(workload, DEFAULT_SEED, run.varieties)
    run.tracer = tracing.Tracer()
    run.count_pass()
    if run.bad:
        raise BenchError(f"cannot record failing outputs: {run.bad}")
    recorded = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            recorded = json.load(fh)
    recorded[workload] = [
        [workloads.label(x), hashlib.sha256(out).hexdigest()]
        for x, out in zip(run.inputs, run.outputs)
    ]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write the default seed's output digests to reference.json")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference(args.workload)
            return 0
        out = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
