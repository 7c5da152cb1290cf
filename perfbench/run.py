"""schreierkit benchmark: runs one workload in-process through the CLI.

    python3 perfbench/run.py --workload search --seed 1 --seconds 40 --trace 0

Workloads (see ``jobs.py`` and ``README.md``): ``search``, ``surface``,
``certify``, and ``smoke``, the tiny one the benchmark's own tests use.

The run sets up (imports ``schreierkit`` from ``src/`` of the checkout,
generates the jobs from the seed, writes their input files) several times
and reports the median as ``setup_s``.  It then runs the job list pass after
pass, calling ``schreierkit.cli.main`` with stdout captured, until the next
job would end after ``--seconds``.  Every job's output is checked every time
it runs.  A time metric is the sum, over the jobs it covers, of each job's
median time.  Every timing is scaled to a reference host speed by the
calibration kernel timed around it (see ``calibrate``).

With ``--trace 1`` plain and traced passes alternate and only the per-layer
metrics of ``tracing.py`` are printed; the spans of the last traced pass are
written to ``perfbench/out/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
from jobs import WORKLOADS, Job

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
REFERENCES = BENCH_DIR / "references"

DEFAULT_SEED = 1
SETUP_REPEATS = 15
# median time of calibrate() on the host the benchmark was defined on
CALIBRATION_REF_S = 0.011
TIMED_COMMANDS = ("witness", "verify", "surface")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "witness_s": "s",
    "verify_s": "s",
    "surface_s": "s",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program to import)."""


def import_program():
    """Import ``schreierkit.cli`` afresh from the checkout's ``src/``."""
    if not (SRC / "schreierkit" / "__init__.py").is_file():
        raise SetupError(f"no schreierkit package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "schreierkit" or n.startswith("schreierkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("schreierkit.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"imported {cli.__file__}, not the checkout's package")
    return cli


def calibrate() -> float:
    """Time a fixed piece of pure-Python work that does not touch the
    program: the breadth-first closure of S_6 from two generators, three
    times.  The host's speed drifts by 10-20% over tens of seconds, and this
    kernel drifts with it, so timings are scaled by ``CALIBRATION_REF_S``
    over the calibration times around them."""
    start = perf_counter()
    for _ in range(3):
        steps = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5), (5, 0, 1, 2, 3, 4), (1, 0, 2, 3, 4, 5)]
        seen = {(0, 1, 2, 3, 4, 5): None}
        queue = list(seen)
        for current in queue:
            for step in steps:
                nxt = tuple(step[i] for i in current)
                if nxt not in seen:
                    seen[nxt] = None
                    queue.append(nxt)
    return perf_counter() - start


def load_references(workload: str) -> dict[str, list]:
    path = REFERENCES / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    cmd_s: float
    job_s: float
    code: int | None
    stdout: str
    failure: str | None


def run_job(cli, job: Job, references: dict[str, list]) -> Outcome:
    """One CLI call, its checks, and the files it leaves for later jobs.
    ``cmd_s`` covers ``cli.main`` alone, ``job_s`` the checks too."""
    gc.collect()  # every job starts from the same collector state
    start = perf_counter()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        cmd_start = perf_counter()
        crash = None
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # any other escape is a failed job, not a failed run
            code, crash = None, f"uncaught {type(exc).__name__}: {exc}"
        cmd_s = perf_counter() - cmd_start
    stdout = out.getvalue()
    failure = crash or job.check(code, stdout)
    reference = references.get(job.name)
    if failure is None and reference is not None and reference != [code, digest(stdout)]:
        failure = f"exit {code} / stdout digest differ from the committed reference"
    if failure is None and job.after is not None:
        try:
            job.after(stdout)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            failure = f"could not read output: {exc!r}"
    return Outcome(cmd_s, perf_counter() - start, code, stdout, failure)


@dataclass
class Run:
    """Samples of one benchmark run."""

    jobs: list[Job]
    cmd_s: list[list[float]] = field(default_factory=list)
    job_s: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    passes: int = 0
    failures: list[str] = field(default_factory=list)
    plain_walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    layer_samples: list[dict[str, float]] = field(default_factory=list)
    # per traced pass: (layer self times + harness time, traced wall time)
    balances: list[tuple[float, float]] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.cmd_s = [[] for _ in self.jobs]
        self.job_s = [[] for _ in self.jobs]
        self.last_raw_s = [0.0 for _ in self.jobs]  # unscaled, to predict the next run
        self.calibrations = [calibrate()]

    def run_pass(
        self, cli, references: dict[str, list], deadline: float = float("inf"),
        repeat: bool = True,
    ) -> bool:
        """Run every job in list order, ``job.repeat`` times or, without
        ``repeat``, once.  A job whose last run would no longer end before
        ``deadline`` ends the pass early; returns whether the pass ran every
        job."""
        for i, job in enumerate(self.jobs):
            if perf_counter() + self.last_raw_s[i] > deadline:
                return False
            outcomes = [run_job(cli, job, references) for _ in range(job.repeat if repeat else 1)]
            self.calibrations.append(calibrate())
            scale = CALIBRATION_REF_S / statistics.mean(self.calibrations[-2:])
            self.last_raw_s[i] = sum(outcome.job_s for outcome in outcomes)
            for outcome in outcomes:
                self.attempted += 1
                self.cmd_s[i].append(outcome.cmd_s * scale)
                self.job_s[i].append(outcome.job_s * scale)
                if outcome.failure is not None:
                    self.failures.append(f"{job.name}: {outcome.failure}")
        self.passes += 1
        return True

    def timed_pass(self, cli, references: dict[str, list]) -> float:
        """One pass with every job run once, so that per-layer figures are
        per pass of the job list; returns its wall time."""
        start = perf_counter()
        self.run_pass(cli, references, repeat=False)
        return perf_counter() - start

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        cmd = [statistics.median(s) for s in self.cmd_s]
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(statistics.median(s) for s in self.job_s),
        }
        for command in TIMED_COMMANDS:
            metrics[f"{command}_s"] = sum(
                t for t, job in zip(cmd, self.jobs) if job.command == command
            )
        metrics["ok_rate"] = 1 - len(self.failures) / self.attempted
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics

    def per_layer(self) -> dict[str, float]:
        names = self.layer_samples[0].keys()
        metrics = {n: statistics.median(s[n] for s in self.layer_samples) for n in names}
        metrics["trace.overhead_s"] = statistics.median(self.traced_walls) - statistics.median(
            self.plain_walls
        )
        return metrics


def setup(workload: str, seed: int, scratch: Path):
    """Import the program, generate the jobs and write their inputs."""
    start = perf_counter()
    cli = import_program()
    inputs = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    job_list = WORKLOADS[workload](seed, inputs)
    return perf_counter() - start, cli, job_list


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    references: dict[str, list] | None = None,
) -> tuple[Run, dict[str, float]]:
    """One benchmark run; returns its samples and the metrics to print."""
    if references is None:
        references = load_references(workload)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        setup_times = []
        before = calibrate()
        for _ in range(SETUP_REPEATS):
            seconds_taken, cli, job_list = setup(workload, seed, scratch)
            after = calibrate()
            setup_times.append(seconds_taken * CALIBRATION_REF_S / ((before + after) / 2))
            before = after
        run = Run(job_list)
        deadline = perf_counter() + seconds
        if not trace:
            # one whole pass, then jobs until the next would end after the deadline
            run.run_pass(cli, references)
            while run.run_pass(cli, references, deadline):
                pass
            return run, run.end_to_end(statistics.median(setup_times))
        tracer = tracing.Tracer()
        while True:
            run.plain_walls.append(run.timed_pass(cli, references))
            tracer.clear()
            tracer.install()
            try:
                wall = run.timed_pass(cli, references)
            finally:
                tracer.uninstall()
            metrics, harness_s = tracer.pass_metrics(wall)
            run.traced_walls.append(wall)
            run.layer_samples.append(metrics)
            layers = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
            run.balances.append((layers + harness_s, wall))
            if perf_counter() + run.plain_walls[-1] + wall > deadline:
                break
        tracer.write_spans(OUT / f"spans-{workload}")
        return run, run.per_layer()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def reference_digests(workload: str, seed: int) -> dict[str, list]:
    """Exit code and stdout digest of every job of one pass, which must pass
    its checks."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="refs-", dir=OUT))
    try:
        _, cli, job_list = setup(workload, seed, scratch)
        refs = {}
        for job in job_list:
            outcome = run_job(cli, job, {})
            if outcome.failure is not None:
                raise RuntimeError(f"{job.name}: {outcome.failure}")
            refs[job.name] = [outcome.code, digest(outcome.stdout)]
        return refs
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def write_references(workload: str, seed: int) -> None:
    """Commit point for the references; run it only in a change that is
    meant to alter the program's output."""
    refs = reference_digests(workload, seed)
    lines = [f" {json.dumps(name)}: {json.dumps(ref)}" for name, ref in sorted(refs.items())]
    REFERENCES.mkdir(exist_ok=True)
    (REFERENCES / f"{workload}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-references", action="store_true",
        help="record the reference digests of this workload and seed, then exit",
    )
    args = parser.parse_args(argv)
    try:
        if args.write_references:
            write_references(args.workload, args.seed)
            return 0
        run, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    units = tracing.metric_units() if args.trace else END_TO_END_UNITS
    calibration = statistics.median(run.calibrations)
    print(
        f"workload={args.workload} seed={args.seed} passes={run.passes} jobs={len(run.jobs)}"
        f" calibration_s={calibration:.6f} reference_s={CALIBRATION_REF_S}"
    )
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
