"""Benchmark toporeg end to end, through its CLI, one workload per process.

    python3 perfbench/run.py                          # every workload, untraced then traced
    python3 perfbench/run.py --workload train_selected --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from its
``src/`` directory and driven only through ``toporeg.cli.main``, in-process,
with stdout captured.  A single-workload run sets up (import, inputs, one
warm-up call) several times, repeats its round of calls for ``--seconds``,
checks every output against independent computations (checks.py) and prints
a readable report, then one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports per-layer metrics from the
traced ones (tracing.py).
"""

from __future__ import annotations

import os

# One thread of work: BLAS must not fan out behind the timed calls.  Set
# before numpy is imported anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
# Modules whose functions must never run when training is unregularized.
BYPASSED_BY_NONE = ("regularizer.", "persistence.", "entropy.")


@dataclass
class Result:
    rc: object
    stdout: str
    stderr: str
    raised: BaseException | None
    wall: float


def invoke(argv: list) -> Result:
    """One `toporeg` CLI call through the module attribute, so tracing sees it."""
    main = sys.modules["toporeg.cli"].main
    out, err = io.StringIO(), io.StringIO()
    raised = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, not a benchmark error
            rc, raised = None, exc
    return Result(rc, out.getvalue(), err.getvalue(), raised, time.perf_counter() - start)


class Calibration:
    """A fixed CPU-speed kernel owned by the benchmark, timed during every measurement.

    On a machine whose CPUs are shared, the same call can run a third slower
    for tens of seconds at a time, in wall and in CPU time alike.  The kernel
    mixes what toporeg's calls do (an interpreter loop, many small numpy
    calls, BLAS, a large sort).  It runs before and after each measurement
    and, from a timer signal, every INTERVAL seconds during it.  The measured
    time divided by the mean kernel time stays within a few percent while
    both drift together; times KERNEL_REFERENCE_S it is in reference seconds.
    Time spent in the kernel is taken out of the measured time.
    """

    INTERVAL = 0.05
    REPEATS = 3
    # The kernel's typical time on the reference machine (README).
    KERNEL_REFERENCE_S = 0.004

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._matrix = rng.normal(size=(160, 160))
        self._array = rng.normal(size=200_000)

    def _kernel(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0
        for i in range(15_000):
            acc += i * i % 7
        v = np.arange(64.0)
        for _ in range(200):
            v = np.sqrt(v * v + 1.0)
        self._matrix @ self._matrix
        np.sort(self._array)
        return time.perf_counter() - start

    def measure(self, fn) -> tuple:
        """Run fn(); returns its result, its wall and CPU seconds with the
        kernel's time taken out, and its wall time in reference seconds."""
        samples = [statistics.median(self._kernel() for _ in range(self.REPEATS))]
        spent = spent_cpu = 0.0

        def sample(signum, frame):
            nonlocal spent, spent_cpu
            start, start_cpu = time.perf_counter(), time.process_time()
            samples.append(self._kernel())
            spent += time.perf_counter() - start
            spent_cpu += time.process_time() - start_cpu

        previous = signal.signal(signal.SIGALRM, sample)
        start, start_cpu = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - start - spent
            cpu = time.process_time() - start_cpu - spent_cpu
            signal.signal(signal.SIGALRM, previous)
        samples.append(statistics.median(self._kernel() for _ in range(self.REPEATS)))
        # The samples are spread evenly in time, so their mean is the kernel's
        # time at the average speed the measured work ran at.
        return result, wall, cpu, wall / statistics.fmean(samples) * self.KERNEL_REFERENCE_S


def forget_toporeg() -> None:
    for key in [k for k in sys.modules if k == "toporeg" or k.startswith("toporeg.")]:
        del sys.modules[key]


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}, "
        f"nproc {nproc}, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import checks
    import tracing
    import workloads

    spec = workloads.WORKLOADS[name](seed % 2**31)
    work = WORK / f"{name}-{os.getpid()}"
    problems: list[str] = []
    try:
        calibration = Calibration()
        setups = {"wall": [], "cpu": [], "ref": []}  # seconds of each set-up

        def set_up(d: Path) -> Result:
            importlib.import_module("toporeg.cli")
            spec.write_inputs(d)
            return invoke(spec.warmup_argv(d))

        for r in range(SETUP_REPEATS):
            forget_toporeg()
            d = work / f"setup{r}"
            warm, *seconds_of = calibration.measure(lambda: set_up(d))
            for key, value in zip(setups, seconds_of):
                setups[key].append(value)
            if warm.rc != 0:
                print(f"error: warm-up call failed: rc {warm.rc}, {warm.raised!r}, {warm.stderr.strip()}", file=sys.stderr)
                return 1

        tracer = tracing.Tracer() if trace else None
        walls = {False: [], True: []}  # call seconds, untraced and traced
        cpus, refs = [], []  # CPU and reference seconds of each calibrated call
        outputs: dict = {}  # the first output of each call
        attempted = failed = traced_rounds = 0
        deadline = time.perf_counter() + seconds
        while True:
            for traced in (False, True) if trace else (False,):
                replaced = tracer.install() if traced else []
                try:
                    for call in spec.calls(d):
                        attempted += 1
                        if call.probe:
                            res = invoke(call.argv)
                            failed += not checks.probe_passes(res.rc, res.stdout, res.stderr, res.raised)
                            continue
                        if trace:
                            res = invoke(call.argv)
                        else:
                            res, res.wall, cpu, ref = calibration.measure(lambda: invoke(call.argv))
                        if res.rc != 0 or res.raised is not None:
                            failed += 1
                            print(f"failed: {call.key}: rc {res.rc}, {res.raised!r}, {res.stderr.strip()}")
                            continue
                        walls[traced].append(res.wall)
                        if not trace:
                            cpus.append(cpu)
                            refs.append(ref)
                        output = spec.output(d, res.stdout)
                        if outputs.setdefault(call.key, output) != output:
                            problems.append(f"{call.key}: output differs from the first repetition")
                finally:
                    tracing.Tracer.uninstall(replaced)
                traced_rounds += traced
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        notes = []
        for key, output in outputs.items():
            try:
                notes.append(spec.check(output))
            except checks.CheckError as exc:
                problems.append(f"{key}: {exc}")
        if tracer is not None:
            problems += check_samples(tracer, checks)
            if name == "train_none":
                touched = sorted({s[0] for s in tracer.spans if s[0].startswith(BYPASSED_BY_NONE)})
                if touched:
                    problems.append(f"unregularized training called {', '.join(touched)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    untraced = walls[False]
    if not untraced:
        print("error: no call succeeded", file=sys.stderr)
        return 1
    if trace:
        metrics = tracer.per_layer(traced_rounds)
        metrics["trace.overhead_s"] = (statistics.median(walls[True]) - statistics.median(untraced), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setups["ref"]), "s"),
            "call_s": (statistics.median(refs), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(f"environment: {environment()}")
    print(
        f"setup: {SETUP_REPEATS} set-ups, median {statistics.median(setups['ref']):.4f} reference s, "
        f"{statistics.median(setups['wall']):.4f} wall s, {statistics.median(setups['cpu']):.4f} CPU s"
    )
    line = f"calls: {len(untraced)} untraced, median {statistics.median(untraced):.4f} wall s"
    line += f" (range {min(untraced):.4f}-{max(untraced):.4f})"
    if refs:
        line += f", {statistics.median(refs):.4f} reference s (range {min(refs):.4f}-{max(refs):.4f})"
        line += f", {statistics.median(cpus):.4f} CPU s"
    if spec.steps():
        line += f", {spec.steps() / statistics.median(untraced):.1f} train steps/s"
    print(line)
    for note in notes:
        print(f"check: {note}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<45} {value:>16.6f} {unit}")
    print(f"attempted {attempted}, failed {failed}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


def check_samples(tracer, checks) -> list:
    """Independent checks of the calls the tracer sampled inside the program."""
    problems = []
    checkers = {
        "persistence.vr_barcode_0d": lambda a, r: checks.check_barcode_call(a[0], r),
        "geometry.pairwise_distances": lambda a, r: checks.check_distances_call(a[0], r),
        "geometry.anisotropy_profile": lambda a, r: checks.check_anisotropy_call(a[0], len(r), a[2], r),
    }
    for name, samples in tracer.samples.items():
        for arguments, result in samples:
            try:
                checkers[name](list(arguments.values()), result)
            except checks.CheckError as exc:
                problems.append(f"sampled {name}: {exc}")
    return problems


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, one at a time, untraced then traced."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            print(child.stdout, end="", flush=True)
            try:
                correct = json.loads(child.stdout.strip().splitlines()[-1])["correct"]
            except (IndexError, ValueError, KeyError):
                correct = False
            if child.returncode != 0 or not correct:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "toporeg" / "__init__.py").is_file():
        print(f"error: no toporeg sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
