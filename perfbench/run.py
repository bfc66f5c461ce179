"""Benchmark of hkverify, driven from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is loaded from `src/`. Load is a
closed loop with one client: one program process (or one in-process
request) at a time, the next starting when the previous one ends.

Workloads (see perfbench/README.md for why each exists):
  report-default  cold `hkverify report` processes, alternating --format json and md
  sweep-grid      warm `run_report` plus both renderings at a wide grid, in one
                  long-lived worker process; the seed sets ReportConfig.seed

After each cycle of operations a fresh interpreter does only
`import hkverify.cli`; setup_s is the median of these probes, so it is
sampled over the same stretch of time as the operations.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
it reports the per-layer metrics of a traced pass and the tracing overhead.
Earlier lines print the same numbers for people, under the names
report_s / sweep_s for the workload's operation time, and the fail ratio.
Every output is checked; a failed check counts the operation as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

IMPORTTIME_REPEATS = 3  # `-X importtime` probes per traced run
OP_TIMEOUT_S = 60  # a hung operation aborts the run
CLI_CODE = "from hkverify.cli import main_entry; main_entry()"  # what the console script runs
REPORT_CONFIG = {"only": None}
SWEEP_GRID = {"abar_max": 8, "a_max": 200, "md_max": 121, "samples": 150}
# Config fields the sweep's report must echo (samples and seed may stop mattering).
SWEEP_CONFIG = {k: SWEEP_GRID[k] for k in ("abar_max", "a_max", "md_max")} | {"only": None}
OP_NAMES = {"report-default": "report_s", "sweep-grid": "sweep_s"}


def _env() -> dict:
    """The caller's environment with the repository's `src/` first on the path."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@dataclass(frozen=True)
class Outcome:
    """One finished child process."""

    wall_s: float
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_process(args: list[str]) -> Outcome:
    """Run the interpreter with `args` to completion. Wall time spans spawn
    to reaping; max RSS comes from the child's own rusage (os.wait4).
    A process still running after OP_TIMEOUT_S is killed and TimeoutError
    raised."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=_env(), cwd=ROOT,
    )
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    deadline = start + OP_TIMEOUT_S
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            for key, _ in sel.select(max(left, 1.0)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if timed_out:
        raise TimeoutError(f"{args} ran longer than {OP_TIMEOUT_S} s")
    out, err = (b"".join(chunks[fd]).decode() for fd in chunks)
    return Outcome(wall, proc.returncode, out, err, usage.ru_maxrss)


class Worker:
    """The long-lived in-process worker (child.py worker)."""

    def __init__(self, workdir: Path, trace_path: str | None):
        self.errlog = open(workdir / "worker.err", "w+b")
        cmd = [sys.executable, str(HERE / "child.py"), "worker"] + (["--trace", trace_path] if trace_path else [])
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.errlog, env=_env(), cwd=ROOT)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout.fileno(), selectors.EVENT_READ)
        self.buf = b""
        self.maxrss_kb = 0
        try:
            self._read_line(OP_TIMEOUT_S)
        except BaseException:
            self.proc.kill()
            self.close()
            raise

    def _read_line(self, timeout: float) -> dict:
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise TimeoutError("worker did not answer in time")
            if self.sel.select(left):
                data = os.read(self.proc.stdout.fileno(), 1 << 20)
                if not data:
                    self.errlog.seek(0)
                    raise EOFError("worker exited: " + self.errlog.read().decode()[-2000:])
                self.buf += data
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message).encode() + b"\n")
        self.proc.stdin.flush()
        return self._read_line(OP_TIMEOUT_S)

    def close(self) -> None:
        """Stop the worker (it writes its spans first) and wait for it."""
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.write(b"\n")
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        deadline = time.perf_counter() + OP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.sel.close()
        self.proc.stdout.close()
        self.errlog.close()


class Bench:
    """Counts operations and problems, holds reference outputs, and runs the
    workload's operations."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.workdir = workload, workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict = {}  # first output of each distinct operation
        self.selftested = False
        self.maxrss_kb = 0
        self.span_files: list[str] = []
        self.worker: Worker | None = None
        self.full_payload = None  # first correct JSON report, to check the markdown against
        self.sweep_config = dict(SWEEP_GRID, seed=seed)

    # -- bookkeeping -------------------------------------------------------

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])

    def same_bytes(self, key, text: str) -> list[str]:
        first = self.reference.setdefault(key, text)
        return [] if text == first else ["output differs from the first repeat in this run"]

    def trace_path(self) -> str:
        path = str(self.workdir / f"spans-{len(self.span_files)}.json")
        self.span_files.append(path)
        return path

    def cold(self, argv: list[str], traced: bool) -> Outcome:
        if traced:
            return run_process([str(HERE / "child.py"), "cli", "--trace", self.trace_path(), "--", *argv])
        return run_process(["-c", CLI_CODE, *argv])

    # -- set-up --------------------------------------------------------------

    def import_probe(self) -> float:
        """Wall time of a fresh interpreter doing only `import hkverify.cli`."""
        out = run_process(["-c", "import hkverify.cli"])
        if out.code != 0:
            raise RuntimeError("import hkverify.cli failed:\n" + out.stderr)
        return out.wall_s

    def import_times_ms(self) -> tuple[float, float]:
        """Cumulative `-X importtime` of hkverify.cli and of sympy (0 when
        the program no longer imports it), medians over the probes."""
        cli_ms, sympy_ms = [], []
        for _ in range(IMPORTTIME_REPEATS):
            out = run_process(["-X", "importtime", "-c", "import hkverify.cli"])
            cumulative = {}
            for line in out.stderr.splitlines():
                if line.startswith("import time:") and "|" in line:
                    _, cum, package = line[len("import time:"):].split("|")
                    if cum.strip().isdigit():
                        cumulative[package.strip()] = int(cum) / 1000.0
            cli_ms.append(cumulative.get("hkverify.cli", 0.0))
            sympy_ms.append(cumulative.get("sympy", 0.0))
        return statistics.median(cli_ms), statistics.median(sympy_ms)

    # -- one pass ------------------------------------------------------------

    def cycle(self) -> list:
        if self.workload == "report-default":
            return ["json", "md"]
        return [self.sweep_config]

    def run_pass(self, seconds: float, traced: bool, probe: bool = False) -> tuple[list[float], list[float]]:
        """Closed loop of whole cycles, at least one, for about `seconds`: a
        new cycle starts while more than half of the last cycle's duration
        is left. With `probe`, each cycle ends with one `import_probe`.
        Returns the wall time of every operation and of every probe."""
        times: list[float] = []
        probes: list[float] = []
        if probe:
            self.import_probe()  # untimed: fills the bytecode cache
        if self.workload == "sweep-grid":
            self.start_worker(traced)
        try:
            deadline = time.perf_counter() + seconds
            cycle_s = 0.0
            while not times or time.perf_counter() + cycle_s / 2 < deadline:
                cycle_start = time.perf_counter()
                times += [self.op(spec, traced) for spec in self.cycle()]
                if probe:
                    probes.append(self.import_probe())
                cycle_s = time.perf_counter() - cycle_start
        except BaseException:
            if self.worker is not None:
                self.worker.proc.kill()
            raise
        finally:
            if self.worker is not None:
                self.worker.close()
                self.maxrss_kb = max(self.maxrss_kb, self.worker.maxrss_kb)
                self.worker = None
        return times, probes

    def start_worker(self, traced: bool) -> None:
        """Start the worker and run its warm-up report (set-up, not timed,
        still checked; the checker's self-test runs on it). A traced worker
        then drops the warm-up's spans."""
        self.worker = Worker(self.workdir, self.trace_path() if traced else None)
        reply = self.worker.request({"config": self.sweep_config})
        problems = self.check_sweep(reply)
        self.record("warm-up run_report", problems)
        if not problems:
            self.selftest(reply["json"], reply["md"], SWEEP_CONFIG)
        if traced:
            self.worker.request({"reset_trace": True})

    def selftest(self, json_text: str, md_text: str | None, config: dict) -> None:
        if not self.selftested:
            self.selftested = True
            self.problems += checks.selftest(json_text, md_text, config)

    def op(self, spec, traced: bool) -> float:
        if self.workload == "report-default":
            out = self.cold(["report", "--format", spec], traced)
            self.maxrss_kb = max(self.maxrss_kb, out.maxrss_kb)
            self.record(f"report --format {spec}", self.check_report_output(spec, out))
            return out.wall_s
        reply = self.worker.request({"config": spec})
        self.record("run_report", self.check_sweep(reply))
        return reply.get("elapsed_s", OP_TIMEOUT_S)  # a failed report counts as slow

    # -- checks --------------------------------------------------------------

    def check_report_output(self, fmt: str, out: Outcome) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr[-300:]}"]
        problems = self.same_bytes(fmt, out.stdout)
        if fmt == "json":
            payload, parse_problems = checks.parse_json_report(out.stdout)
            problems += parse_problems or checks.check_report(payload, REPORT_CONFIG)
            if not problems and self.full_payload is None:
                self.full_payload = payload
        elif self.full_payload is None:
            problems.append("no correct JSON report to compare the markdown with")
        else:
            problems += checks.check_markdown(out.stdout, self.full_payload)
        if not problems and "md" in self.reference and "json" in self.reference:
            self.selftest(self.reference["json"], self.reference["md"], REPORT_CONFIG)
        return problems

    def check_sweep(self, reply: dict) -> list[str]:
        if "error" in reply:
            return [reply["error"][-500:]]
        if reply["exit_code"] != 0:
            return [f"exit_code(report) is {reply['exit_code']}"]
        payload, problems = checks.parse_json_report(reply["json"])
        if problems:
            return problems
        problems = checks.check_report(payload, SWEEP_CONFIG)
        problems += checks.check_markdown(reply["md"], payload)
        problems += self.same_bytes("sweep-json", reply["json"]) + self.same_bytes("sweep-md", reply["md"])
        return problems


def measure(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    times, setup = bench.run_pass(seconds, traced=False, probe=True)
    setup_s = statistics.median(setup)
    op_s = statistics.median(times)
    peak_mb = bench.maxrss_kb / 1024.0
    lines = [
        f"setup_s = {setup_s:.4f} s (median of {len(setup)} fresh `import hkverify.cli`, one after each cycle)",
        f"{OP_NAMES[bench.workload]} = {op_s:.4f} s (median of {len(times)} operations; reported as op_ms)",
        f"peak_rss_mb = {peak_mb:.1f} MB (largest child max RSS)",
    ]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms": {"value": op_s * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return metrics, lines


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    """Untraced pass, then traced pass, each for half the time. Per-layer
    values are per operation of the traced pass."""
    plain, _ = bench.run_pass(seconds / 2, traced=False)
    traced, _ = bench.run_pass(seconds / 2, traced=True)
    import_ms, sympy_ms = bench.import_times_ms()
    summary = tracing.summarize(bench.span_files)
    n = len(traced)
    metrics = {
        "startup.import_ms": {"value": import_ms, "unit": "ms"},
        "startup.import_sympy_ms": {"value": sympy_ms, "unit": "ms"},
    }
    for name, kinds in tracing.SPAN_METRICS.items():
        for kind in kinds:
            if kind == "calls":
                metrics[f"{name}.calls"] = {"value": summary["calls"][name] / n, "unit": "count"}
            else:
                ns = summary["self_ns" if kind == "self_ms" else "total_ns"][name]
                metrics[f"{name}.{kind}"] = {"value": ns / n / 1e6, "unit": "ms"}
    for name, count in summary["counts"].items():
        metrics[f"{name}.calls"] = {"value": count / n, "unit": "count"}
    ratio = statistics.median(traced) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    lines = [
        f"traced pass: {n} operations, untraced pass: {len(plain)} operations; per-layer values are per operation",
        f"trace.overhead_ratio = {ratio:.3f} (median traced / median untraced operation)",
        "absent targets: " + (", ".join(summary["absent"]) or "none"),
    ]
    lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(OP_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hkverify" / "cli.py").is_file():
        print(f"error: no hkverify sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    bench = Bench(args.workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, lines = measure_traced(bench, args.seconds)
        else:
            metrics, lines = measure(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in lines:
        print(line)
    fail_ratio = bench.failed / bench.attempted
    print(f"fail_ratio = {fail_ratio:.4f} ({bench.failed} failed / {bench.attempted} attempted)")
    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    correct = bench.failed == 0 and not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
