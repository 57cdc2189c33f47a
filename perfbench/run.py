"""altrank benchmark: end-to-end CLI workloads and a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

With `--trace 0` the workload's CLI command runs as a child process
(`python -m altrank ...` against `src/`), again and again with seeds
derived from `--seed`, while the next one still fits in `--seconds`.  A zero-work
`print-config` child runs before each workload child to time
interpreter start, package import and settings resolution.  Each
child's CPU time and peak RSS come from its own rusage (`os.wait4`).

On a shared machine the speed of a CPU drifts by up to 2x within
seconds, which spreads wall-clock figures by about 30% from run to run.
So the benchmark and its children stay on one CPU, a reference load
(reference.py) runs in a thread beside each child on that CPU, and a
child's time is its CPU time multiplied by the load's speed over the
child's lifetime (1 on a quiet CPU, 0.5 at half speed): the CPU time the
child would have taken on a quiet CPU.  `draws_per_s` is accepted
draws over that time, and `setup_s` is that time for `print-config`.
Reported values are medians over the children of the run; the
unadjusted CPU-time medians are printed and recorded beside them.

With `--trace 1` the same command runs in-process through
`altrank.cli.main`: untraced for half the budget, then once with
wrappers around each layer's functions (see tracing.py).  The traced
outputs must be byte-identical to the untraced ones apart from the
manifest timestamp.  Per-layer times are plain wall-clock seconds.

Every output is checked against the package's exact oracles.  The last
stdout line is one JSON object with keys correct, attempted, failed and
metrics (names and units from BENCHMARK.json); a fuller record, with
the environment, goes to `.bench_out/results/`.  Exit status is 0 when
every check passed, 1 when one failed, 2 on bad arguments or a
checkout without `src/altrank`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

import reference
import tracing
import workloads
from workloads import WORKLOADS, Checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 120.0


def child_seed(seed: int, family: str, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{family}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Child:
    """One finished `python -m altrank argv` child: wall time from spawn
    to exit, its own CPU time and peak RSS (from `os.wait4`;
    RUSAGE_CHILDREN would give a running maximum over all children),
    exit code and stderr."""

    def __init__(self, argv, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        err_path = out_dir / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "altrank", *argv],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, env=child_env(), cwd=ROOT,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")


def check_process(checks: Checks, name: str, code: int, stderr: str) -> bool:
    ok = checks.check(f"{name}.exit_0", code == 0, f"exit {code}")
    return checks.check(f"{name}.stderr_empty", not stderr, stderr[:200]) and ok


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.  Slowdowns from
    other tenants differ between the CPUs of a shared machine, so the
    reference load only tracks the workload's CPU when both run there."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _beside(ref, argv, out_dir: Path):
    """Run a child; return it and the reference speed over its lifetime."""
    before = ref.progress
    child = Child(argv, out_dir)
    return child, ref.speed(before, ref.progress)


def timed_run(w, seed: int, seconds: float, scratch: Path, checks: Checks):
    """Untraced child runs; returns (end-to-end metrics, unadjusted
    medians, per-child log).

    The reference load runs beside every child on the same CPU, and each
    child's CPU time is multiplied by the load's speed over its lifetime.
    """
    pin_to_one_cpu()
    ref = reference.ReferenceLoad()
    ref.warm()
    log = []
    start = time.perf_counter()
    pair = 0.0  # wall time of the last setup + workload pair
    try:
        while len(log) < MIN_CHILDREN or time.perf_counter() - start + pair <= seconds:
            pair_start = time.perf_counter()
            setup, setup_speed = _beside(ref, ["print-config"], scratch / "setup")
            check_process(checks, "setup", setup.code, setup.stderr)
            cseed = child_seed(seed, w.seed_family, len(log))
            out = scratch / f"child{len(log)}"
            child, speed = _beside(ref, w.argv(cseed, str(out)), out)
            if check_process(checks, w.name, child.code, child.stderr):
                workloads.check_outputs(checks, w, out, cseed)
            log.append({
                "seed": cseed, "exit": child.code,
                "wall_s": child.wall, "cpu_s": child.cpu, "speed": speed,
                "setup_cpu_s": setup.cpu, "setup_speed": setup_speed,
                "draws_per_s": w.draws / (child.cpu * speed),
                "setup_s": setup.cpu * setup_speed,
                "peak_rss_mb": child.peak_rss_mb,
            })
            pair = time.perf_counter() - pair_start
    finally:
        ref.stop()
    if w.name == "sha_mod":
        cross_check_exact(checks, scratch, log[0]["seed"])
    metrics = {
        k: statistics.median(c[k] for c in log)
        for k in ("draws_per_s", "setup_s", "peak_rss_mb")
    }
    raw = {
        "raw_draws_per_s": statistics.median(w.draws / c["cpu_s"] for c in log),
        "raw_setup_s": statistics.median(c["setup_cpu_s"] for c in log),
    }
    return metrics, raw, log


def cross_check_exact(checks: Checks, scratch: Path, seed: int) -> None:
    """The certified mod path must give exact Smith's count table."""
    out = scratch / "exact"
    exact = Child(WORKLOADS["sha"].argv(seed, str(out)), out)
    if not check_process(checks, "sha_exact", exact.code, exact.stderr):
        return
    try:
        same = workloads.sha_counts(out) == workloads.sha_counts(scratch / "child0")
    except (OSError, ValueError, KeyError) as exc:
        checks.check("sha_mod.equals_exact", False, repr(exc))
        return
    checks.check("sha_mod.equals_exact", same)


# ---------------------------------------------------------------------------
# traced run


def _outputs(out: Path) -> dict:
    """File bytes by name, manifest timestamp line removed."""
    files = {}
    for path in sorted(out.iterdir()):
        lines = path.read_bytes().splitlines(keepends=True)
        files[path.name] = b"".join(
            ln for ln in lines if not ln.lstrip().startswith(b'"timestamp":')
        )
    return files


def _main_in_process(cli, argv):
    """(exit code, stdout+stderr text, wall seconds) of altrank.cli.main."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed check, not a lost run
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    return code, sink.getvalue(), wall


def layer_metrics(tr, w, traced_wall: float, untraced_wall: float, out: Path):
    draws = w.draws
    box = tr.count("model.curve_height")
    diag = tr.count("linalg.diag_valuations_mod")
    return {
        "model.draws": draws,
        "model.box_draws": box,
        "model.curve_accept_ratio": draws / box if box else 0.0,
        "model.is_valid_curve_s": tr.self_time("model.is_valid_curve"),
        "model.schedule_s": tr.self_time("model.schedule_eta", "model.schedule_x"),
        "model.sample_alternating_s": tr.self_time("model.sample_alternating"),
        "model.loop_self_s": tr.self_time(
            "model.survey_loop", "model.sha_loop", "model.cl_loop"
        ),
        "model.cl_refinement_rounds": (
            workloads.cl_refinement_rounds(out) if w.name == "cl" else 0
        ),
        "linalg.kernel_rank_calls": tr.count("linalg.kernel_rank"),
        "linalg.kernel_rank_s": tr.self_time("linalg.kernel_rank"),
        "linalg.smith_divisors_calls": tr.count("linalg.smith_divisors"),
        "linalg.smith_divisors_s": tr.self_time("linalg.smith_divisors"),
        "linalg.diag_valuations_calls": diag,
        "linalg.diag_valuations_s": tr.self_time("linalg.diag_valuations_mod"),
        "linalg.diag_valuations_per_draw": diag / draws,
        "groups.label_s": tr.self_time(
            "groups.from_valuations", "groups.group_label"
        ),
        "groups.reference_s": tr.self_time(
            "groups.delaunay_measure", "groups.cl_measure",
            "groups.symplectic_support",
        ),
        "primes.iroot_calls": tr.count("primes.iroot"),
        "primes.iroot_s": tr.self_time("primes.iroot"),
        "primes.is_prime_calls": tr.count("primes.is_prime"),
        "parallel.chunks": tr.chunks,
        "cli.emit_s": tr.self_time("cli.emit_csv", "cli.emit_json"),
        "cli.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }


def traced_run(w, seed: int, seconds: float, scratch: Path, checks: Checks):
    """Untraced in-process runs for half the budget, then one traced run."""
    import altrank.cli as cli

    checks.check(
        "trace.package_from_checkout",
        Path(cli.__file__).resolve().parent == SRC / "altrank",
        cli.__file__,
    )
    checks.check("trace.self_time_arithmetic", tracing.synthetic_check())
    cseed = child_seed(seed, w.seed_family, 0)
    # one output directory for both runs: the manifest records its path
    out = scratch / "out"
    argv = w.argv(cseed, str(out))
    walls = []
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start < seconds / 2:
        code, text, wall = _main_in_process(cli, argv)
        check_process(checks, f"{w.name}.untraced", code, text)
        walls.append(wall)
    workloads.check_outputs(checks, w, out, cseed)
    untraced = _outputs(out)
    shutil.rmtree(out)

    tr = tracing.Tracer()
    try:
        tr.install()
        code, text, traced_wall = _main_in_process(cli, argv)
    finally:
        checks.check("trace.wrappers_removed", tr.restore())
    if check_process(checks, f"{w.name}.traced", code, text):
        workloads.check_outputs(checks, w, out, cseed)
    checks.check("trace.outputs_identical", _outputs(out) == untraced)
    if not tr.dropped:
        checks.check(
            "trace.fold_matches_live",
            tracing.agrees(tracing.fold(tr.records), tr.agg, 1e-9 * len(tr.records)),
        )
    metrics = layer_metrics(tr, w, traced_wall, statistics.median(walls), out)
    trace_doc = {
        "spans": {k: {"count": c, "total_s": t, "self_s": s}
                  for k, (c, t, s) in sorted(tr.agg.items())},
        "records_kept": len(tr.records),
        "records_dropped": tr.dropped,
        "records": tr.records,
        "untraced_wall_s": walls,
    }
    return metrics, trace_doc


# ---------------------------------------------------------------------------
# environment and reporting


def _git(*args) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    commit = _git("rev-parse", "HEAD")
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": commit or "unknown",
        "git_dirty": (
            bool(_git("status", "--porcelain", "--untracked-files=no"))
            if commit else None
        ),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "altrank" / "__init__.py").is_file():
        print(f"error: no altrank sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / "work" / f"{tag}-{os.getpid()}"
    checks = Checks()
    env = environment()  # before pinning, which narrows the CPU set
    raw = {}
    try:
        if args.trace:
            values, trace_doc = traced_run(w, args.seed, args.seconds, scratch, checks)
            detail = {"trace": {k: v for k, v in trace_doc.items() if k != "records"}}
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            with open(OUT / "traces" / f"{tag}.json", "w", encoding="utf-8") as fh:
                json.dump(trace_doc, fh)
        else:
            values, raw, log = timed_run(w, args.seed, args.seconds, scratch, checks)
            detail = {"unadjusted": raw, "children": log}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    section = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    record = {
        "workload": w.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": env, "metrics": metrics,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "notes": checks.notes},
        **detail,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    with open(OUT / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for name, m in metrics.items():
        print(f"{w.name} {name} = {m['value']} {m['unit']}")
    for name, value in raw.items():
        unit = metrics[name.removeprefix("raw_")]["unit"]
        print(f"{w.name} {name} = {value} {unit} (CPU time, not adjusted)")
    print(f"{w.name} fail_frac = {checks.failed / checks.attempted} ratio "
          f"({checks.failed} of {checks.attempted} checks failed)")
    for note in checks.notes:
        print(f"{w.name} FAILED {note}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
