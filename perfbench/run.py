"""Time-to-verdict benchmark for the equidouble CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI invocations (inputs.WORKLOADS; the
slower inputs.PROBES measure ROADMAP done-when numbers). One pass
runs them one after another, each in a fresh `python -m equidouble.cli`
process: a closed loop with one client and no concurrency, with
EQUIDOUBLE_THREADS=1 pinned in the child environment. Every report is checked
against answers the benchmark computes itself (oracle.py); an unexpected exit
code or any mismatch counts the invocation as failed.

--trace 0 measures the end-to-end metrics, with no tracing:
  wall_s       wall-clock time of one pass, interpreter start-up included
  cpu_s        user + system CPU time of the pass's child processes
  setup_s      import + structure builds of every invocation, no checks, in
               fresh processes (setup_probe.py), summed over the invocations
  peak_rss_mb  largest max-RSS of any child process in the pass
Passes repeat until the next one would overrun --seconds (at least one);
set-up is measured SETUP_REPEATS times. Each metric reports its median.

--trace 1 makes one untraced pass, one pass under span wrappers and one under
call counters (traced_cli.py), then the layer micro-benchmarks (micro.py), and
reports the per-layer metrics of layers.PER_LAYER. Idle layers report 0.

Above the last line the run prints every metric with its quartiles and sample
count; the last line is one JSON object with "correct", "attempted", "failed"
and "metrics". A run record, and for --trace 1 the spans and the per-layer
summary, are written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import layers
import oracle
from inputs import PROBES, WORKLOADS, Call, Inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
THREADS = "1"
SETUP_REPEATS = 5
# children still running at this point are killed: a timed run ends within
# the 180 s a run may take; a probe run may take longer
RUN_LIMIT_S = 170.0
PROBE_LIMIT_S = 1800.0
ALL_WORKLOADS = {**WORKLOADS, **PROBES}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

UNTRACED = [sys.executable, "-m", "equidouble.cli"]


def traced(mode: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), mode, "{trace}"]


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["EQUIDOUBLE_THREADS"] = THREADS
    # a fixed hash seed keeps set and dict iteration, and so the work done,
    # the same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], stdout_path: str, deadline: float) -> Child:
    """Run one child to completion; its own rusage gives CPU time and max-RSS."""
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    invocation_wall_s: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    reports: list = field(default_factory=list)


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, trace: int):
        self.calls: tuple[Call, ...] = ALL_WORKLOADS[workload]
        self.seconds = seconds
        self.deadline = time.monotonic() + (RUN_LIMIT_S if workload in WORKLOADS else PROBE_LIMIT_S)
        self.directory = os.path.join(RESULTS, workload, f"seed-{seed}-trace-{trace}")
        shutil.rmtree(self.directory, ignore_errors=True)
        os.makedirs(os.path.join(self.directory, "out"))
        self.inputs = Inputs(seed, os.path.join(self.directory, "inputs"))
        self.argvs = [call.argv(self.inputs) for call in self.calls]
        self.attempted = 0
        self.failed = 0
        self.passes = 0

    def out_path(self, name: str) -> str:
        return os.path.join(self.directory, "out", name)

    def run_pass(self, prefix: list[str], tag: str) -> Pass:
        """One pass over the workload; `prefix` is the command before the CLI
        arguments, and may name a trace file through "{trace}"."""
        self.passes += 1
        result = Pass()
        for i, (call, argv) in enumerate(zip(self.calls, self.argvs)):
            name = f"{self.passes:03d}-{tag}-{i}"
            command = [part.replace("{trace}", self.out_path(name + ".trace.json")) for part in prefix]
            child = spawn(command + argv, self.out_path(name + ".json"), self.deadline)
            with open(self.out_path(name + ".json"), encoding="utf-8", errors="replace") as fh:
                stdout = fh.read()
            problems = oracle.check(call, self.inputs, child.code, stdout)
            self.attempted += 1
            if problems:
                self.failed += 1
                result.problems.append({"invocation": argv, "pass": name, "problems": problems})
            result.wall_s += child.wall_s
            result.invocation_wall_s.append(child.wall_s)
            result.cpu_s += child.cpu_s
            result.peak_rss_mb = max(result.peak_rss_mb, child.maxrss_mb)
            result.reports.append((name, stdout))
        return result

    def setup_once(self) -> float:
        total = 0.0
        for i, argv in enumerate(self.argvs):
            path = self.out_path(f"setup-{i}.json")
            child = spawn([sys.executable, os.path.join(HERE, "setup_probe.py")] + argv, path, self.deadline)
            if child.code != 0:
                raise RuntimeError(f"set-up probe failed with exit code {child.code} on {argv}; see {path}.err")
            with open(path, encoding="utf-8") as fh:
                total += json.load(fh)["setup_s"]
        return total


# -- trace 0: end-to-end metrics ---------------------------------------------------


def measure_end_to_end(runner: Runner) -> tuple[dict, list]:
    samples = {name: [] for name, _ in END_TO_END}
    samples["invocation_wall_s"] = []
    samples["setup_s"] = [runner.setup_once() for _ in range(SETUP_REPEATS)]
    problems = []
    start = time.monotonic()
    while True:
        p = runner.run_pass(UNTRACED, "plain")
        problems += p.problems
        for name in ("wall_s", "cpu_s", "peak_rss_mb", "invocation_wall_s"):
            samples[name].append(getattr(p, name))
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(samples["wall_s"]) > runner.seconds:
            break
    return samples, problems


# -- trace 1: per-layer metrics ----------------------------------------------------


def _self_times(spans: list) -> list[float]:
    durations = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for (_, _, _, parent), duration in zip(spans, durations):
        if parent >= 0:
            child_time[parent] += duration
    return [d - c for d, c in zip(durations, child_time)]


def measure_layers(runner: Runner) -> tuple[dict, list, list, dict]:
    """Per-layer values, oracle problems, span records, and a summary of
    calls, self and inclusive time per span name, with the wrapped functions
    the program no longer has (their metrics read 0)."""
    plain = runner.run_pass(UNTRACED, "plain")
    spanned = runner.run_pass(traced("spans"), "spans")
    counted = runner.run_pass(traced("counters"), "counters")
    problems = plain.problems + spanned.problems + counted.problems

    self_s: dict[str, float] = {}
    span_calls: dict[str, int] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    table_calls = table_hits = 0
    import_s = 0.0
    span_lines = []
    missing: set[str] = set()
    for invocation, (name, _) in enumerate(spanned.reports):
        trace = _load_trace(runner.out_path(name + ".trace.json"))
        import_s += trace.get("import_s", 0.0)
        missing.update(trace.get("missing", []))
        table_calls += trace.get("character_table", {}).get("calls", 0)
        table_hits += trace.get("character_table", {}).get("hits", 0)
        spans = trace.get("spans", [])
        for i, (span, own) in enumerate(zip(spans, _self_times(spans))):
            self_s[span[0]] = self_s.get(span[0], 0.0) + own
            span_calls[span[0]] = span_calls.get(span[0], 0) + 1
            total_s[span[0]] = total_s.get(span[0], 0.0) + span[2] - span[1]
            span_lines.append(
                {"invocation": invocation, "argv": runner.argvs[invocation], "id": i, "name": span[0],
                 "start": span[1], "end": span[2], "parent": span[3], "self_s": own}
            )
    for name, _ in counted.reports:
        trace = _load_trace(runner.out_path(name + ".trace.json"))
        missing.update(trace.get("missing", []))
        for key, value in trace.get("counters", {}).items():
            counts[key] = counts.get(key, 0) + value

    checked = cech_classes = 0
    for _, stdout in spanned.reports:
        report = _parse(stdout)
        checked += sum((report.get("diagram_counts") or {}).values())
        if report.get("command") == "cech":
            cech_classes += report.get("class_count", 0)

    micro_path = runner.out_path("micro.json")
    group_ref = runner.inputs.group("A4")[0]
    micro = spawn([sys.executable, os.path.join(HERE, "micro.py"), str(runner.inputs.seed), group_ref],
                  micro_path, runner.deadline)
    with open(micro_path, encoding="utf-8") as fh:
        micro_values = _parse(fh.read())
    expected_rank = sum(k * n for k, n in oracle.smatrix_blocks(runner.inputs.group("A4")[1]).items())
    runner.attempted += 1
    if micro.code != 0 or micro_values.get("rank") != expected_rank:
        runner.failed += 1
        problems.append({"invocation": ["micro.py"], "problems": [f"exit {micro.code}, {micro_values}"]})

    derived = {
        "chartable.character_table.hit_ratio": table_hits / table_calls if table_calls else 0.0,
        "modular.diagrams.checked": checked,
        "modular.fuse.per_diagram": counts.get("modular.fuse", 0) / checked if checked else 0.0,
        "dw.cech.classes": cech_classes,
        "cli.import_s": import_s,
        "trace.overhead_frac": (spanned.wall_s - plain.wall_s) / plain.wall_s,
    }
    values = {}
    for name, _, _, _ in layers.PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name in micro_values:
            values[name] = micro_values[name]
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            base = name[: -len(".calls")]
            values[name] = span_calls.get(base, counts.get(base, 0))
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    spans = {name: {"calls": span_calls[name], "self_s": self_s[name], "total_s": total_s[name]} for name in span_calls}
    return values, problems, span_lines, {"missing_functions": sorted(missing), "spans": spans}


def _load_trace(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {}


def _parse(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return {}
    return obj if isinstance(obj, dict) else {}


# -- run record --------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def run_record(args, runner: Runner) -> dict:
    return {
        "workload": args.workload,
        "invocations": [["equidouble"] + argv for argv in runner.argvs],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "EQUIDOUBLE_THREADS": THREADS,
        "src_lines": _src_lines(),
    }


# -- reporting ---------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _write_json(path: str, obj: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "equidouble", "cli.py")):
        print(f"perfbench: no equidouble sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds, args.trace)
    record = run_record(args, runner)
    if args.trace == 0:
        samples, problems = measure_end_to_end(runner)
        units = dict(END_TO_END)
        metrics = {name: {"value": statistics.median(samples[name]), "unit": units[name]} for name in units}
        record["samples"] = samples
        lines = [f"{'metric':<16}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}"]
        for name, unit in END_TO_END:
            q1, q3 = _quartiles(samples[name])
            lines.append(f"{name:<16}{unit:<8}{metrics[name]['value']:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(samples[name]):>4}")
    else:
        values, problems, span_lines, summary = measure_layers(runner)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in layers.PER_LAYER}
        for name, unit, better, moves in layers.PER_LAYER:
            summary.setdefault(name.split(".")[0], {})[name] = {
                "value": values[name], "unit": unit, "better": better, "should_move": moves}
        _write_json(os.path.join(runner.directory, "layers.json"), summary)
        with open(os.path.join(runner.directory, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for line in span_lines:
                fh.write(json.dumps(line) + "\n")
        lines = [f"{'metric':<44}{'unit':<8}{'value':>16}"]
        lines += [f"{name:<44}{unit:<8}{values[name]:>16.6g}" for name, unit, _, _ in layers.PER_LAYER]

    failed_frac = runner.failed / runner.attempted
    record.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                  failed_frac=failed_frac, problems=problems)
    _write_json(os.path.join(runner.directory, "run.json"), record)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {runner.passes}  "
          f"attempted {runner.attempted}  failed {runner.failed}  failed_frac {failed_frac:g} (ratio)")
    for problem in problems:
        print(f"FAILED {problem}")
    print("\n".join(lines))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
