"""Benchmark of the quonstat command-line interface.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest
    python3 bench/run.py --record-goldens

One client runs the workload's fixed command list in a closed loop, one
``python -m quonstat.cli ...`` subprocess at a time with ``PYTHONPATH=src``,
for at least ``--seconds`` and at least MIN_PASSES passes.  Every call's
exit code and stdout are checked by ``oracle.py``.

``--trace 0`` reports the end-to-end metrics:

  setup_s      median over SETUP_REPEATS set-ups of: generate the seeded
               inputs, compile the package into an empty bytecode cache,
               make one warm-up call
  wall_s       median time of one pass over the command list (the sum of
               its call latencies)
  call_p50_s   median latency of one call, pooled over all passes
  call_p90_s   90th percentile of the same pool
  peak_rss_mb  median over passes of the largest child ru_maxrss
  ok_frac      calls with the right exit code and stdout / calls made,
               i.e. 1 - fail_frac

Times are in reference seconds.  On a shared machine the speed of the CPU
changes by tens of percent over minutes as other tenants load it, which
would swamp the differences the benchmark exists to show.  So a fixed
pure-Python loop is timed before and after every call and every set-up,
and each measured interval is scaled by REF_SECONDS over the median loop
time of its pass (of a set-up: of the loop times around it), so one
reference second is the time the machine takes to run the loop
1 / REF_SECONDS times.  The unscaled medians and the loop
times are printed on the line before the result.  Per-layer times are
unscaled.

``--trace 1`` runs the same argv in-process through ``quonstat.cli.main``
in a child (``traced.py``) with timing wrappers around each module's
public functions, and reports the per-layer metrics listed in
``BENCHMARK.json``.  Count metrics must repeat exactly, across passes and
across traced runs of the same workload and seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it describes
the run and the machine.  Inputs, the bytecode cache and the results live
under ``.bench_build/`` in the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True

import oracle  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
RESULTS = WORK / "results"
BENCH_DIR = Path(__file__).resolve().parent

SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORT_REPEATS = 7
RUN_BUDGET_S = 150  # no new pass starts past this, so a run ends within 180 s
CALL_TIMEOUT_S = 120
REF_ITERATIONS = 500_000
REF_SECONDS = 0.025  # nominal time of the reference loop; it fixes the unit

COUNT_METRICS = (
    "wick.q_permanent.calls",
    "wick.q_permanent.rows",
    "wick.q_permanent.dp_bound",
    "fock.state_scalar_product.pairs",
    "fock.state_scalar_product.dp_per_pair",
    "composite.two_composite_scalar.calls",
    "composite.two_composite_scalar.term_pairs",
    "fock.gram.entries",
    "qpoly.mul.calls",
    "qpoly.add.calls",
    "permutations.all_permutations.elements",
)
SELF_TIME_METRICS = (
    "cli.main",
    "wick.q_permanent",
    "fock.state_scalar_product",
    "composite.two_composite_scalar",
    "composite.effective_exponent",
    "composite.cross_term_magnitude",
    "fock.gram",
    "fock.GramMatrix.evaluate",
    "fock.check_psd",
    "qpoly.mul",
    "bounds.ingest_limits",
)


def reference_s() -> float:
    """One timing of the reference loop: the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i
    return time.perf_counter() - start


def to_reference(seconds: float, refs: list) -> float:
    return seconds * REF_SECONDS / statistics.median(refs)


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout


def child_env(pycache: Path) -> dict:
    """The whole environment of every child: a fixed hash seed, the
    package on the path, a bytecode cache owned by the benchmark, and
    nothing inherited that could change behaviour (QUON_ENUM_CAP unset)."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": str(pycache),
    }


def run_child(argv: list, env: dict, out: Path, err: Path, timeout: float = CALL_TIMEOUT_S):
    """Run one child to completion; returns (exit code, ru_maxrss in KiB,
    seconds).  A child still running after ``timeout`` is killed."""
    with out.open("wb") as fout, err.open("wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=fout, stderr=ferr
        )
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except CallTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, elapsed


class Runner:
    """Owns one run's directory: inputs, bytecode cache and child output."""

    def __init__(self, workload: str, seed: int, oracle_: oracle.Oracle):
        self.workload = workload
        self.seed = seed
        self.oracle = oracle_
        self.dir = WORK / f"run-{os.getpid()}"
        self.env = child_env(self.dir / "pycache")
        self.out = self.dir / "stdout"
        self.err = self.dir / "stderr"
        self.calls: list = []
        self.attempted = 0
        self.failures: list = []
        self.refs: list = []  # reference loop times, seconds

    def cli_call(self, call: dict):
        """One CLI call; returns (exit code, stdout, stderr, ru_maxrss KiB,
        seconds)."""
        argv = [sys.executable, "-m", "quonstat.cli", *call["argv"]]
        code, rss, elapsed = run_child(argv, self.env, self.out, self.err)
        return code, self.out.read_bytes(), self.err.read_bytes(), rss, elapsed

    def check(self, call: dict, code: int, stdout: bytes, stderr: bytes) -> bool:
        self.attempted += 1
        reason = self.oracle.check(call, code, stdout)
        if reason is not None:
            detail = stderr.decode(errors="replace").strip()[-300:]
            self.failures.append(f"{' '.join(call['argv'])}: {reason} {detail}".strip())
        return reason is None

    def setup(self) -> float:
        """Fresh directory, seeded inputs, compiled package, warm-up call."""
        shutil.rmtree(self.dir, ignore_errors=True)
        start = time.perf_counter()
        self.dir.mkdir(parents=True)
        self.calls = workloads.build(self.workload, self.seed, self.dir / "inputs")
        warmup = workloads.warmup_call()
        for call in [*self.calls, warmup]:
            call["key"] = oracle.call_key(call)
        compile_argv = [sys.executable, "-m", "compileall", "-q", str(SRC / "quonstat")]
        code, _, _ = run_child(compile_argv, self.env, self.out, self.err)
        if code != 0:
            raise SystemExit(f"compileall failed: {self.err.read_text()}")
        code, stdout, stderr, _, _ = self.cli_call(warmup)
        self.check(warmup, code, stdout, stderr)
        return time.perf_counter() - start

    def measure(self, seconds: float, mutate=None) -> list:
        """Closed loop over the command list; one (call latencies in
        reference seconds, raw call latencies, peak ru_maxrss KiB) tuple per
        pass.  Outputs are checked after each pass.  ``mutate`` alters
        (exit code, stdout) before the check; the self-test uses it to show
        that corrupt results count as failures."""
        passes = []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and elapsed >= seconds:
                break
            if passes and elapsed + sum(passes[-1][1]) > RUN_BUDGET_S:
                break
            results, refs = [], [reference_s()]
            for call in self.calls:
                results.append(self.cli_call(call))
                refs.append(reference_s())
            self.refs += refs
            for call, (code, stdout, stderr, _, _) in zip(self.calls, results):
                if mutate is not None:
                    code, stdout = mutate(call, code, stdout)
                self.check(call, code, stdout, stderr)
            raw = [r[4] for r in results]
            scaled = [to_reference(dt, refs) for dt in raw]
            passes.append((scaled, raw, max(r[3] for r in results)))
        return passes

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _git_commit() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "quonstat").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        refs = [reference_s()]
        raw_setups.append(runner.setup())
        refs.append(reference_s())
        runner.refs += refs
        setups.append(to_reference(raw_setups[-1], refs))
    passes = runner.measure(seconds)
    walls = [sum(p[0]) for p in passes]
    pooled = [dt for p in passes for dt in p[0]]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "call_p50_s": _metric(statistics.median(pooled), "s"),
        "call_p90_s": _metric(statistics.quantiles(pooled, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": _metric(statistics.median(p[2] for p in passes) / 1024, "MiB"),
        "ok_frac": _metric(1 - len(runner.failures) / runner.attempted, "ratio"),
    }
    detail = {
        "passes": len(passes),
        "calls_per_pass": len(runner.calls),
        "call_samples": len(pooled),
        "wall_s_quartiles": statistics.quantiles(walls, n=4, method="inclusive"),
        "unscaled_setup_s": statistics.median(raw_setups),
        "unscaled_wall_s": statistics.median(sum(p[1]) for p in passes),
        "reference_loop_s_quartiles": statistics.quantiles(runner.refs, n=4, method="inclusive"),
    }
    return metrics, detail


def import_times(runner: Runner) -> tuple[float, float]:
    """Medians of the cumulative import time of quonstat.cli and of numpy
    inside it, from ``python -X importtime``."""
    cli_s, numpy_s = [], []
    argv = [sys.executable, "-X", "importtime", "-c", "import quonstat.cli"]
    for _ in range(IMPORT_REPEATS):
        run_child(argv, runner.env, runner.out, runner.err)
        found = {}
        for line in runner.err.read_text().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("quonstat.cli", "numpy"):
                found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        cli_s.append(found.get("quonstat.cli", 0.0))
        numpy_s.append(found.get("numpy", 0.0))
    return statistics.median(cli_s), statistics.median(numpy_s)


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """The in-process traced child; returns its result document."""
    calls_path = runner.dir / "calls.json"
    result_path = runner.dir / "traced.json"
    calls_path.write_text(json.dumps(runner.calls))
    argv = [
        sys.executable, str(BENCH_DIR / "traced.py"),
        "--calls", str(calls_path), "--seconds", str(seconds),
        "--result", str(result_path), "--spans", str(spans_path),
    ]
    code, _, _ = run_child(argv, runner.env, runner.out, runner.err, timeout=RUN_BUDGET_S)
    if code != 0 or not result_path.exists():
        raise SystemExit(f"traced run failed ({code}): {runner.err.read_text()[-2000:]}")
    return json.loads(result_path.read_text())


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.setup()
    import_s, import_numpy_s = import_times(runner)
    stem = f"{runner.workload}-seed{runner.seed}"
    traced = run_traced(runner, seconds, RESULTS / f"spans-{stem}.json")
    runner.attempted += traced["attempted"]
    runner.failures += traced["failures"]
    first = traced["passes"][0]
    counts = {name: first["counts"].get(name, 0) for name in COUNT_METRICS}
    # keyed by the program's source too: a changed program may change counts
    counts_path = RESULTS / f"counts-{stem}-{source_digest()}.json"
    if counts_path.exists():
        earlier = json.loads(counts_path.read_text())
        for name, value in counts.items():
            if earlier.get(name) != value:
                runner.failures.append(
                    f"count {name} is {value}, an earlier traced run of this seed gave {earlier.get(name)}"
                )
    else:
        counts_path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    metrics = {
        "cli.import_s": _metric(import_s, "s"),
        "cli.import_numpy_s": _metric(import_numpy_s, "s"),
    }
    for name in SELF_TIME_METRICS:
        values = [p["self_s"].get(name, 0.0) for p in traced["passes"]]
        metrics[f"{name}.self_s"] = _metric(statistics.median(values), "s")
    for name, value in counts.items():
        metrics[name] = _metric(value, "ratio" if name.endswith("_per_pair") else "count")
    overhead = statistics.median(traced["traced_s"]) / statistics.median(traced["untraced_s"]) - 1
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    detail = {
        "traced_passes": len(traced["passes"]),
        "untraced_s": traced["untraced_s"],
        "traced_s": traced["traced_s"],
        "wrappers_restored": traced["restored"],
    }
    return metrics, detail


def bench(args) -> int:
    runner = Runner(args.workload, args.seed, oracle.Oracle(oracle.load_goldens()))
    try:
        if args.trace:
            metrics, detail = per_layer(runner, args.seconds)
        else:
            metrics, detail = end_to_end(runner, args.seconds)
    finally:
        runner.cleanup()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        **detail,
        "failures": runner.failures[:20],
    }
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({**info, **result}, indent=1))
    for failure in runner.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def record_goldens() -> int:
    """Record stdout hashes of every call of the default seed; refuses an
    output that fails its invariants."""
    table = {}
    for workload in workloads.WORKLOADS:
        runner = Runner(workload, workloads.DEFAULT_SEED, oracle.Oracle({}))
        try:
            runner.setup()
            for call in [workloads.warmup_call(), *runner.calls]:
                call["key"] = oracle.call_key(call)
                code, stdout, stderr, _, _ = runner.cli_call(call)
                if not runner.check(call, code, stdout, stderr):
                    raise SystemExit(f"not recording: {runner.failures[-1]}")
                table[call["key"]] = hashlib.sha256(stdout).hexdigest()
        finally:
            runner.cleanup()
    oracle.GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table)} golden outputs in {oracle.GOLDEN_PATH}")
    return 0


def selftest() -> int:
    """Smallest sizes: corrupt results are counted, traced runs restore
    every wrapped function and repeat their counts exactly."""
    problems = []
    runner = Runner("cli_floor", workloads.DEFAULT_SEED, oracle.Oracle(oracle.load_goldens()))
    try:
        runner.setup()
        runner.calls = [c for c in runner.calls if c["argv"][0] in ("sp", "weo")][:4]
        runner.measure(0)
        if runner.failures:
            problems.append(f"clean calls failed: {runner.failures}")
        runner.failures.clear()
        bad_stdout, bad_exit = runner.calls[:2]

        def corrupt(call, code, stdout):
            if call is bad_stdout:
                return code, b"1 + " + stdout
            if call is bad_exit:
                return 2, stdout
            return code, stdout

        passes = runner.measure(0, corrupt)
        if len(runner.failures) != 2 * len(passes):
            problems.append(
                f"{2 * len(passes)} corrupt results, {len(runner.failures)} counted as failed"
            )
        results = [run_traced(runner, 0, runner.dir / "spans.json") for _ in range(2)]
        for result in results:
            if not result["restored"]:
                problems.append("a wrapped function was not restored after the traced run")
            if result["failures"]:
                problems.append(f"traced calls failed: {result['failures']}")
        if results[0]["passes"][0]["counts"] != results[1]["passes"][0]["counts"]:
            problems.append("two traced runs of the same calls gave different counts")
    finally:
        runner.cleanup()
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args()
    if not (SRC / "quonstat" / "cli.py").is_file():
        print(f"error: run from the repository root; {SRC / 'quonstat'} not found", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    # the reference loop runs in this process and the calls in children:
    # one CPU for both, so the loop measures the CPU the calls run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.selftest:
        return selftest()
    if args.record_goldens:
        return record_goldens()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
