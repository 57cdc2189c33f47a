"""The four benchmark workloads: CLI argument lists and output checks.

Each workload is one `altrank` command at a fixed input shape, run
single-process (`--threads 1`) so that a 2-core machine measures the
program and not the scheduler.  Only the seed changes between runs.

Every output check is derived from the exact oracles in the package
(`delaunay_measure`, `cl_measure`) and from the sample size; none is
tuned to particular seeds.  A statistical check uses Z_SIGMA binomial
standard errors, so a correct program fails it with probability below
1e-6.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Z_SIGMA = 5.0

SURVEY_GRID = "1e6,1e9,1e12,1e15,1e18,1e21,1e24"
SURVEY_BANDS = 7
SURVEY_CURVES_PER_BAND = 10_000
SURVEY_MAX_RANK = 5
# Criterion 6 of the acceptance suite allows the finite-height model
# slope to sit 0.02 from -1/24 at any sample size (the (eta, x) schedule
# is discrete); the sampling error of the fit comes on top of that.
SURVEY_MODEL_SLOPE_ALLOWANCE = 0.02

SHA_SAMPLES = 1_500
CL_SAMPLES = 3_000


class Checks:
    """Counts output checks attempted and failed; keeps failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass(frozen=True)
class Workload:
    name: str
    # seeds of sha and sha_mod come from one family, so both methods
    # draw the same matrices and their count tables can be compared
    seed_family: str
    argv: Callable[[int, str], list]
    draws: int
    manifest: str
    output: str
    check_output: Callable[["Checks", Path], None]


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _parse_label(label: str):
    """'2:[3,3,1,1]' -> (2, (3, 3, 1, 1))."""
    ptxt, _, body = label.partition(":")
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad group label {label!r}")
    return int(ptxt), tuple(int(t) for t in body[1:-1].split(",") if t)


def _is_partition(exps) -> bool:
    return all(e > 0 for e in exps) and all(
        a >= b for a, b in zip(exps, exps[1:])
    )


def _within_binomial(checks, name, count, total, reference):
    """|count/total - reference| <= Z_SIGMA binomial standard errors."""
    freq = count / total
    se = math.sqrt(reference * (1 - reference) / total)
    tol = Z_SIGMA * se
    checks.check(
        name,
        abs(freq - reference) <= tol,
        f"frequency {freq:.5f} vs limit {reference:.5f}, tol {tol:.5f}",
    )


def _check_counts(checks, name, dist, samples):
    counts = dist["counts"]
    ok = dist["total"] == samples and sum(counts.values()) == samples
    checks.check(f"{name}.counts_sum", ok, f"total {dist['total']}")
    return ok


# ---------------------------------------------------------------------------
# survey


def _survey_argv(seed: int, out: str) -> list:
    return [
        "simulate",
        "--h-grid", SURVEY_GRID,
        "--curves-per-band", str(SURVEY_CURVES_PER_BAND),
        "--threads", "1",
        "--seed", str(seed),
        "--out", out,
    ]


def _slope_stderr(points, samples: int) -> float:
    """Standard error of the least-squares slope of log p on log H when
    each p is a binomial frequency over `samples` draws (delta method:
    Var(log p) = (1 - p) / (samples * p))."""
    xs = [math.log(h) for h, _ in points]
    mx = sum(xs) / len(xs)
    sxx = sum((x - mx) ** 2 for x in xs)
    var = sum(
        (x - mx) ** 2 * (1 - p) / (samples * p) for x, (_, p) in zip(xs, points)
    )
    return math.sqrt(var) / sxx


def check_survey(checks: Checks, out: Path) -> None:
    with open(out / "survey.csv", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    checks.check(
        "survey.rows",
        len(rows) == SURVEY_BANDS * SURVEY_MAX_RANK,
        f"{len(rows)} rows",
    )
    bands = {}
    for row in rows:
        bands.setdefault(int(row["h_hi"]), {})[int(row["r"])] = int(row["hits"])
    monotone = all(
        all(hits.get(r, -1) >= hits.get(r + 1, -1) >= 0
            for r in range(1, SURVEY_MAX_RANK))
        for hits in bands.values()
    )
    checks.check("survey.hits_nonincreasing", monotone)
    checks.check(
        "survey.samples",
        all(int(row["samples"]) == SURVEY_CURVES_PER_BAND for row in rows),
    )
    fit = next(
        (ln for ln in lines if ln.startswith("#fit,r=2,")), None
    )
    if not checks.check("survey.fit_r2_present", fit is not None):
        return
    fields = dict(part.split("=", 1) for part in fit.split(",")[1:])
    slope = float(fields["slope"])
    points = [
        (h, hits[2] / SURVEY_CURVES_PER_BAND)
        for h, hits in sorted(bands.items())
        if hits.get(2, 0) > 0
    ]
    tol = SURVEY_MODEL_SLOPE_ALLOWANCE + Z_SIGMA * _slope_stderr(
        points, SURVEY_CURVES_PER_BAND
    )
    checks.check(
        "survey.fit_r2_slope",
        abs(slope - (-1 / 24)) <= tol,
        f"slope {slope:.5f} vs {-1 / 24:.5f}, tol {tol:.5f}",
    )


# ---------------------------------------------------------------------------
# sha and sha_mod


def _sha_argv(method: str):
    def argv(seed: int, out: str) -> list:
        return [
            "sha-dist",
            "--n", "10", "--x", "1e4", "--r", "0", "--p", "2",
            "--samples", str(SHA_SAMPLES),
            "--method", method,
            "--threads", "1",
            "--seed", str(seed),
            "--out", out,
        ]

    return argv


def check_sha(checks: Checks, out: Path) -> None:
    from altrank.groups import AbelianPGroup, SymplecticPGroup, delaunay_measure

    dist = _load_json(out / "sha_dist.json")
    if not _check_counts(checks, "sha", dist, SHA_SAMPLES):
        return
    labels = [_parse_label(lbl) for lbl in dist["counts"]]
    checks.check(
        "sha.doubled_partitions",
        all(
            p == 2
            and len(e) % 2 == 0
            and e[0::2] == e[1::2]
            and _is_partition(e)
            for p, e in labels
        ),
    )
    trivial = delaunay_measure(SymplecticPGroup(AbelianPGroup(2, ())), 0).value
    _within_binomial(
        checks, "sha.p_trivial", dist["counts"].get("2:[]", 0), SHA_SAMPLES,
        trivial,
    )


def sha_counts(out: Path) -> dict:
    return _load_json(out / "sha_dist.json")["counts"]


# ---------------------------------------------------------------------------
# cl


def _cl_argv(seed: int, out: str) -> list:
    return [
        "cl-dist",
        "--n", "8", "--p", "2", "--k", "8",
        "--samples", str(CL_SAMPLES),
        "--threads", "1",
        "--seed", str(seed),
        "--out", out,
    ]


def check_cl(checks: Checks, out: Path) -> None:
    from altrank.groups import AbelianPGroup, cl_measure

    dist = _load_json(out / "cl_dist.json")
    if not _check_counts(checks, "cl", dist, CL_SAMPLES):
        return
    checks.check(
        "cl.partitions",
        all(
            p == 2 and _is_partition(e)
            for p, e in map(_parse_label, dist["counts"])
        ),
    )
    for label, exps in (("2:[]", ()), ("2:[1]", (1,))):
        _within_binomial(
            checks, f"cl.p{label}", dist["counts"].get(label, 0), CL_SAMPLES,
            cl_measure(AbelianPGroup(2, exps)).value,
        )


def cl_refinement_rounds(out: Path) -> int:
    return _load_json(out / "cl_dist.json")["meta"]["refinement_rounds"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "survey",
            "survey",
            _survey_argv,
            SURVEY_BANDS * SURVEY_CURVES_PER_BAND,
            "survey_manifest.json",
            "survey.csv",
            check_survey,
        ),
        Workload(
            "sha",
            "sha",
            _sha_argv("exact"),
            SHA_SAMPLES,
            "sha_dist_manifest.json",
            "sha_dist.json",
            check_sha,
        ),
        Workload(
            "sha_mod",
            "sha",
            _sha_argv("mod"),
            SHA_SAMPLES,
            "sha_dist_manifest.json",
            "sha_dist.json",
            check_sha,
        ),
        Workload(
            "cl",
            "cl",
            _cl_argv,
            CL_SAMPLES,
            "cl_dist_manifest.json",
            "cl_dist.json",
            check_cl,
        ),
    )
}


def check_manifest(checks: Checks, w: Workload, out: Path, seed: int) -> None:
    """The manifest lists exactly the workload's output, which exists."""
    manifest = _load_json(out / w.manifest)
    checks.check(
        f"{w.name}.manifest_outputs",
        manifest.get("outputs") == [w.output] and (out / w.output).is_file(),
        f"outputs {manifest.get('outputs')}",
    )
    checks.check(
        f"{w.name}.manifest_seed",
        manifest.get("seed") == seed and manifest.get("threads") == 1,
    )


def check_outputs(checks: Checks, w: Workload, out: Path, seed: int) -> None:
    """Manifest and workload checks; unreadable output is a failed check."""
    try:
        check_manifest(checks, w, out, seed)
        w.check_output(checks, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        checks.check(f"{w.name}.readable", False, repr(exc))
