"""End-to-end report benchmark: cold, coupled-streaming and warm-cache builds.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--repeat R] [--trace 0|1] [--scale X] [--out DIR]
    python3 benchmarks/e2e/run.py compare PARENT.json CHANGE.json

One runner process launches the repetitions one at a time (a closed
loop, one report in flight), each in a fresh interpreter
(``rep.py``).  Repetition ``i`` of a run builds the workload from a
seed derived from ``(--seed, i)``, so a run reports the median over
several generated traces: the ``paper`` workload's per-user runtime
tail makes one small trace's cost swing by tens of percent from seed to
seed.  The number of repetitions is ``--repeat``, or else as many as
the nominal per-repetition cost fits into ``--seconds`` (at least one),
so the inputs a seed selects do not depend on how fast the code is;
only a machine ``OVERRUN`` times slower than nominal cuts a run short.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric of ``BENCHMARK.json`` (the median over repetitions);
with ``--trace 1`` each sub-seed runs once untraced and once traced and
the object holds every per-layer metric instead.  ``--out DIR`` appends
each run to ``DIR/results.json`` (the input of ``compare``) and, for
traced runs, writes ``DIR/layers.json`` and one Chrome trace per
workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
REP = HERE / "rep.py"
sys.path.insert(0, str(HERE))

from rep import WORKLOADS  # noqa: E402  (rep.py imports repro lazily)

DEFAULT_SEED = 20220214
DEFAULT_REPEAT = 3
#: Scenario ``paper`` at this scale has 1,535 jobs; with the run
#: length in ``BENCHMARK.json`` a full set of runs (10 seeds x 2 sets
#: x 3 workloads) fits in under an hour on a 2-core machine.
DEFAULT_SCALE = 0.02
#: Wall seconds one repetition costs at ``DEFAULT_SCALE`` on a 2-core
#: x86 machine, the untimed ``warm_cache`` priming build included.
#: Fixed so that ``--seconds`` selects the same sub-seeds on every commit.
NOMINAL_REP_S = {"paper_cold": 6.0, "coupled_stream": 9.5, "warm_cache": 7.0}
#: On a machine this much slower than nominal, stop starting
#: repetitions once ``--seconds`` is overrun by the same factor.
OVERRUN = 1.5
#: A run must end within 180 s; repetitions still running at this
#: deadline are killed and counted as failed.
RUN_DEADLINE_S = 170.0
#: ``repro validate``'s bar (see ``tests/test_validation.py``).  A
#: 1,535-job trace grades noisily (single traces range 0.81-1.0), so
#: the bar applies to the median trace of a run.
MIN_PASS_FRACTION = 0.80
#: Samples a percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10
METRIC_NAME = r"[A-Za-z0-9_.-]+"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile with ``TAIL_SAMPLES`` samples above it."""
    if n <= TAIL_SAMPLES:
        return None
    return math.floor(100 * (n - TAIL_SAMPLES) / n)


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> str:
    """``better``/``same``/``worse``/``unresolved`` for one metric.

    ``worse`` means the change's median is worse than the parent's by
    more than ``bound`` (a share of the parent median).  Where either
    side's spread exceeds the bound the pair is ``unresolved`` unless
    every change run reads better than every parent run.  ``better``
    needs the medians to differ by more than the parent's own spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worse_by = sign * (statistics.median(change) - base) / abs(base) if base else 0.0
    if max(spread(parent), spread(change)) > bound:
        if all(sign * c < sign * p for c in change for p in parent):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(parent):
        return "better"
    return "same"


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def sub_seed(seed: int, index: int) -> int:
    """Seed of repetition ``index``: the run seed itself, then hashes of it."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{index}".encode("ascii")).hexdigest()
    return int(digest[:8], 16)


def repetitions(name: str, repeat: int | None, seconds: float | None) -> int:
    if repeat is not None:
        return repeat
    if seconds is None:
        return DEFAULT_REPEAT
    return max(1, round(seconds / NOMINAL_REP_S[name]))


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Keep every file the program writes inside the work directory.
    env["TMPDIR"] = str(work / "tmp")
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env.pop("REPRO_WORKERS", None)
    # The only parallelism measured is the program's own worker pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], work: Path, deadline: float) -> dict | None:
    """Run ``rep.py`` with ``args``; its JSON result, or ``None`` on failure.

    The child leads its own process group, so island workers it forks
    are killed with it if it overruns the deadline.
    """
    spawned = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(REP), *args, "--work", str(work), "--spawned", repr(spawned)],
        cwd=ROOT,
        env=_child_env(work),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"e2e: {' '.join(args)} overran the run deadline; killed", file=sys.stderr)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        print(f"e2e: {' '.join(args)} exited {proc.returncode}", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}


def run_workload(
    name: str, seed: int, scale: float, reps: int, seconds: float | None, traced: bool,
    out: Path | None,
) -> dict:
    """All repetitions of one workload; returns the run record."""
    work = ROOT / ".bench_e2e" / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    base = ["--workload", name, "--scale", repr(scale)]
    done: list[dict] = []
    crashed = 0
    try:
        for index in range(math.ceil(reps / 2) if traced else reps):
            elapsed = time.monotonic() - started
            if index and (elapsed > RUN_DEADLINE_S or seconds is not None and elapsed > OVERRUN * seconds):
                print(f"e2e: {name}: stopped after {index} repetitions ({elapsed:.0f} s)", file=sys.stderr)
                break
            args = base + ["--seed", str(sub_seed(seed, index))]
            if name == "warm_cache" and run_child(args + ["--prime"], work, deadline) is None:
                crashed += 1
                continue
            for with_trace in (False, True) if traced else (False,):
                if name != "warm_cache":
                    shutil.rmtree(work / "cache", ignore_errors=True)
                    shutil.rmtree(work / "spill", ignore_errors=True)
                extra = []
                if with_trace:
                    extra = ["--traced"]
                    if out is not None and not any(r["traced"] for r in done):
                        extra += ["--trace-file", str(out / f"trace-{name}.json")]
                result = run_child(args + extra, work, deadline)
                if result:
                    done.append(result)
                else:
                    crashed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run_record(name, seed, scale, traced, done, crashed)


def run_record(name: str, seed: int, scale: float, traced: bool, done: list[dict], crashed: int) -> dict:
    """A run's record: its repetitions, operation counts and errors.

    Each crashed repetition counts as one failed operation.  The run
    adds one operation of its own, the scorecard check on the median
    pass fraction of its traces.
    """
    errors = [e for r in done for e in r["errors"]]
    pass_frac = statistics.median(r["metrics"]["scorecard_pass_frac"] for r in done) if done else 0.0
    scorecard_failed = pass_frac < MIN_PASS_FRACTION
    if scorecard_failed:
        errors.append(f"scorecard: median pass fraction {pass_frac:.4f} < {MIN_PASS_FRACTION}")
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "reps": done,
        "attempted": sum(r["attempted"] for r in done) + crashed + 1,
        "failed": sum(r["failed"] for r in done) + crashed + scorecard_failed,
        "errors": errors,
    }


def end_to_end(run: dict, spec: dict) -> dict:
    """Per-metric summaries over the untraced repetitions of a run."""
    reps = [r for r in run["reps"] if not r["traced"]]
    return {m["name"]: summarize([r["metrics"][m["name"]] for r in reps]) for m in spec["end_to_end"]}


def per_layer(run: dict, spec: dict) -> dict:
    """Per-layer summaries over the traced repetitions, plus the
    tracing overhead (traced over untraced median ``total_s``)."""
    reps = [r for r in run["reps"] if r["traced"]]
    untraced = [r["metrics"]["total_s"] for r in run["reps"] if not r["traced"]]
    traced_total = [r["metrics"]["total_s"] for r in reps]
    overhead = statistics.median(traced_total) / statistics.median(untraced) - 1.0
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name == "obs.tracing_overhead_frac":
            out[name] = summarize([overhead])
        else:
            out[name] = summarize([r["layers"][name] for r in reps])
    return out


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _print_table(name: str, summaries: dict, units: dict) -> None:
    for metric, s in summaries.items():
        tail = tail_percentile(s["n"])
        tail_text = f"p{tail}" if tail is not None else f"no tail percentile (n<{TAIL_SAMPLES + 1})"
        print(
            f"{name:15s} {metric:34s} {units[metric]:8s} median {s['median']:.6g}"
            f"  min {s['min']:.6g}  max {s['max']:.6g}  n={s['n']}  {tail_text}"
        )


def _append_results(out: Path, record: dict) -> None:
    path = out / "results.json"
    doc = json.loads(path.read_text()) if path.is_file() else {"runs": []}
    doc.setdefault("meta", {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    })
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1))


def _write_layers(out: Path, name: str, layers: dict) -> None:
    path = out / "layers.json"
    doc = json.loads(path.read_text()) if path.is_file() else {}
    doc[name] = {metric: s["median"] for metric, s in layers.items()}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))


def run_main(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_benchmark()
    traced = bool(args.trace)
    metrics = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    # Compile once so no repetition pays bytecode compilation in setup_s.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        check=True, stdout=subprocess.DEVNULL,
    )
    names = [args.workload] if args.workload else list(WORKLOADS)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        reps = repetitions(name, args.repeat, args.seconds)
        run = run_workload(name, args.seed, args.scale, reps, args.seconds, traced, args.out)
        for error in run["errors"]:
            print(f"e2e: {name}: {error}", file=sys.stderr)
        if {r["traced"] for r in run["reps"]} != ({False, True} if traced else {False}):
            print(f"e2e: {name}: too few repetitions completed", file=sys.stderr)
            return 1
        summaries = per_layer(run, spec) if traced else end_to_end(run, spec)
        run["summary"] = summaries
        _print_table(name, summaries, units)
        if args.out is not None:
            _append_results(args.out, run)
            if traced:
                _write_layers(args.out, name, summaries)
        result["correct"] &= run["failed"] == 0
        result["attempted"] += run["attempted"]
        result["failed"] += run["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, s in summaries.items():
            result["metrics"][prefix + metric] = {"value": s["median"], "unit": units[metric]}
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def run_values(doc: dict, workload: str, metric: str) -> list[float]:
    """Per-run medians of one end-to-end metric across a results file."""
    return [
        run["summary"][metric]["median"]
        for run in doc["runs"]
        if run["workload"] == workload and not run["traced"] and metric in run["summary"]
    ]


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description="Compare two results files.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = load_benchmark()
    parent = json.loads(args.parent.read_text())
    change = json.loads(args.change.read_text())
    worse = 0
    print(f"{'workload':15s} {'metric':20s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} verdict")
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = run_values(parent, workload, name), run_values(change, workload, name)
            if not a or not b:
                continue
            word = verdict(a, b, metric["bound"], metric["better"])
            worse += word == "worse"
            sides = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                sides.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            print(f"{workload:15s} {name:20s} {sides[0]:34s} {sides[1]:34s} {word}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None, help="default: all three")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measurement budget per workload")
    parser.add_argument("--repeat", type=int, default=None, help="repetitions (overrides --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.repeat is not None and args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main())
