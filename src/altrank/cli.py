"""Command-line harness: reproducible experiments with run manifests.

`settings.main` imports this module for a command that runs and calls
`run_command`.  Every data-producing subcommand writes fixed-name
outputs plus a <stem of the first output>_manifest.json recording
command, claim tag, seed, thread count, and the full effective
configuration.  All randomness flows from the configured seed through
the seeded chunks of `altrank.parallel` (count runs one census per
bound).  Floats are emitted with repr and JSON keys are sorted, so
outputs are byte-identical for a given seed at any --threads value.
The manifest timestamp is the one intentionally non-reproducible field.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from random import Random

from . import __version__
from .groups import (
    AbelianPGroup,
    SymplecticPGroup,
    cl_measure,
    delaunay_measure,
    group_label,
    partitions_up_to,
    symplectic_support,
)
from .model import (
    check_cl_distribution,
    check_sha_distribution,
    empirical_cl_distribution,
    empirical_sha_distribution,
    merge_distributions,
    predicted_table,
    rank_survey,
)
from .parallel import SAMPLE_CHUNK, map_chunks, seeded_chunks
from .settings import _COMMANDS, _MODEL_KEYS, _SUITES, ModelConfig
from .settings import main  # noqa: F401  altrank.cli.main, for runs in process

# counting, periods and verify are imported inside the commands that use
# them, datetime inside _write_manifest: every import costs each run
# start-up time

# ---------------------------------------------------------------------------
# deterministic emission


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return list(v)
    return v


class Emitter:
    """Writes outputs under one directory and remembers them, and the
    directories it made for them, so a failed command can remove what
    it left.  `manifest_extra` holds the keys the run manifest adds to
    the standard ones; `csv` records its header there as csv_columns."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written = []
        self.made_dirs = []  # innermost first
        self.manifest_extra = {}

    def make_dirs(self):
        """os.makedirs(out_dir, exist_ok=True), noting first each
        directory on the way that does not exist yet."""
        path = self.out_dir
        while path and not os.path.exists(path):
            self.made_dirs.append(path)
            path = os.path.dirname(path)
        os.makedirs(self.out_dir, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def csv(self, name: str, header, rows, trailer_lines=()):
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        lines.extend(trailer_lines)
        with open(self._path(name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        self.written.append(name)
        self.manifest_extra["csv_columns"] = list(header)

    def json(self, name: str, payload):
        with open(self._path(name), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        self.written.append(name)

    def cleanup(self):
        for name in self.written:
            try:
                os.unlink(self._path(name))
            except OSError:
                pass
        # innermost first; a directory that is not empty stays
        for path in self.made_dirs:
            try:
                os.rmdir(path)
            except OSError:
                pass


def _write_manifest(emitter, command, claim, settings):
    """<stem of the first output>_manifest.json, after the outputs."""
    from datetime import datetime, timezone

    stem = os.path.splitext(emitter.written[0])[0]
    payload = {
        "command": command,
        "claim": claim,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": settings.get("seed"),
        "threads": settings.get("threads"),
        "config": {k: _jsonable(v) for k, v in sorted(settings.items())},
        "outputs": list(emitter.written),
        **emitter.manifest_extra,
    }
    emitter.json(f"{stem}_manifest.json", payload)


# ---------------------------------------------------------------------------
# reference measures for distribution commands


def _reference(labels, support, mass) -> dict:
    """Exact limiting mass of each observed label and of the label of
    each group in `support`, in label order; `mass` maps a label's
    exponent tuple to its mass."""
    out = {}
    for label in sorted(set(labels) | {group_label(g) for g in support}):
        body = label.partition(":")[2]
        out[label] = mass(tuple(int(e) for e in body[1:-1].split(",") if e))
    return out


def _distribution_payload(dist, reference, **extra) -> dict:
    """The body of sha_dist.json and cl_dist.json; `extra` adds keys."""
    # fsum is correctly rounded, so neither the hash seed nor the Python
    # version (built-in sum of floats changed in 3.12) moves these floats
    support = sorted(set(dist.counts) | set(reference))
    tv = 0.5 * math.fsum(
        abs(dist.counts.get(lbl, 0) / dist.total - reference.get(lbl, 0.0))
        for lbl in support
    )
    return {
        "counts": dist.counts,
        "total": dist.total,
        "meta": dist.meta,
        "reference": reference,
        "reference_sum": math.fsum(reference.values()),
        "tv_distance_truncated": tv,
        **extra,
    }


# ---------------------------------------------------------------------------
# commands: each returns 0, or 1 for a failed verification;
# run_command then writes the run manifest


def _sample_chunk(spec):
    """One chunk, sampler(*args, size, Random(seed)); module level for pools."""
    sampler, args, size, seed = spec
    return sampler(*args, size, Random(seed))


def _sample(command: str, check, sampler, args, settings) -> list:
    """The results of `sampler` on the SAMPLE_CHUNK chunks of
    settings["samples"], in chunk order, chunk i seeded from (seed,
    command, i) whatever the thread count.  check(*args, samples)
    refuses a bad input once, before any chunk or pool."""
    check(*args, settings["samples"])
    chunks = seeded_chunks(settings["samples"], SAMPLE_CHUNK, settings["seed"], command)
    specs = [(sampler, args, size, seed) for size, seed in chunks]
    return map_chunks(_sample_chunk, specs, settings["threads"])


def cmd_simulate(settings, emitter) -> int:
    cfg = ModelConfig(seed=settings["seed"], **{k: settings[k] for k in _MODEL_KEYS})
    records, fits = rank_survey(
        settings["h_grid"],
        settings["curves_per_band"],
        cfg,
        threads=settings["threads"],
    )
    trailer = []
    for r in sorted(fits):
        f = fits[r]
        target = -(r - 1) / 24
        trailer.append(
            f"#fit,r={r},slope={f.slope!r},intercept={f.intercept!r},"
            f"r_squared={f.r_squared!r},target_slope={target!r}"
        )
    emitter.csv(
        "survey.csv",
        ["h_lo", "h_hi", "r", "samples", "hits", "p_hat", "stderr"],
        [tuple(rec) for rec in records],
        trailer,
    )
    emitter.manifest_extra["fits"] = {str(r): f._asdict() for r, f in fits.items()}
    return 0


def cmd_sha_dist(settings, emitter) -> int:
    p, r = settings["p"], settings["r"]
    args = (settings["n"], settings["x"], r, p)
    parts = _sample("sha-dist", check_sha_distribution, empirical_sha_distribution, args, settings)
    dist = merge_distributions(parts)
    # a doubled label's exponents pair up; its base is every other one
    reference = _reference(
        dist.counts,
        symplectic_support(p, 3),
        lambda e: delaunay_measure(
            SymplecticPGroup(AbelianPGroup(p, e[0::2])), r
        ).value,
    )
    emitter.json(
        "sha_dist.json",
        _distribution_payload(
            dist,
            reference,
            meta={**dist.meta, "method": settings["method"]},
            reference_note=(
                "masses cover only the listed labels; the remainder of the "
                "limit law sits on larger groups"
            ),
        ),
    )
    return 0


def cmd_cl_dist(settings, emitter) -> int:
    p = settings["p"]
    args = (settings["n"], p, settings["k"])
    parts = _sample("cl-dist", check_cl_distribution, empirical_cl_distribution, args, settings)
    dist = merge_distributions(parts)
    reference = _reference(
        dist.counts,
        [AbelianPGroup(p, lam) for lam in partitions_up_to(3)],
        lambda e: cl_measure(AbelianPGroup(p, e)).value,
    )
    emitter.json("cl_dist.json", _distribution_payload(dist, reference))
    return 0


def _count_worker(spec):
    from .counting import count_alternating_by_rank

    return count_alternating_by_rank(*spec)


def cmd_count(settings, emitter) -> int:
    from .counting import census_cells, check_census_rank, fit_census

    n, r, norm = settings["n"], settings["r"], settings["norm"]
    bounds = settings["bounds"]
    check_census_rank(n, r)
    for b in bounds:
        census_cells(n, b, norm)  # refuse an oversized census before any runs
    histograms = map_chunks(
        _count_worker, [(n, b, norm) for b in bounds], settings["threads"]
    )
    points = [(b, h.fit_count(r)) for b, h in zip(bounds, histograms)]
    rows = [(n, r, b, norm, y) for b, y in points]
    fit = fit_census(points)
    target = n * (n - r) / 2 if norm == "box" else n * r / 2
    emitter.csv(
        "counts.csv", ["n", "r", "bound", "norm", "count"], rows
    )
    emitter.json(
        "counts_fit.json",
        {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "used_bounds": list(fit.used_bounds),
            "skipped_bounds": list(fit.skipped_bounds),
            "target_slope": target,
        },
    )
    return 0


def cmd_period_scan(settings, emitter) -> int:
    from .periods import check_period_scan, period_scan_rows, period_scan_summary

    h_range = (settings["h_min"], settings["h_max"])
    parts = _sample("period-scan", check_period_scan, period_scan_rows, (h_range,), settings)
    rows = [row for part in parts for row in part]
    emitter.csv(
        "period_scan.csv",
        ["a4", "a6", "height", "discriminant", "omega", "omega_h_12th"],
        rows,
    )
    emitter.json("period_scan_summary.json", period_scan_summary(h_range, rows))
    return 0


def cmd_predicted_table(settings, emitter) -> int:
    rows = predicted_table(settings["h_list"])
    emitter.csv(
        "predicted_table.csv",
        ["h", "rank0_pct", "rank1_pct", "rank2_even_pct", "rank3_odd_pct"],
        rows,
    )
    return 0


# ---------------------------------------------------------------------------
# verify: the suites live in altrank.verify, one function per suite name


def cmd_verify(settings, emitter) -> int:
    from . import verify

    suite = settings["suite"]
    for key in _SUITES[suite].reads:
        if settings[key] < 1:
            raise ValueError(f"{key} must be at least 1, got {settings[key]}")
    checks = getattr(verify, suite)(settings)
    passed = all(c["passed"] for c in checks)
    for c in checks:
        print(("PASS" if c["passed"] else "FAIL") + f" {c['name']}: {c['detail']}")
    emitter.json(
        f"verify_{suite}.json",
        {"suite": suite, "passed": passed, "checks": checks},
    )
    return 0 if passed else 1




# ---------------------------------------------------------------------------
# running a command of altrank.settings._COMMANDS


def run_command(name: str, settings) -> int:
    """Run command `name` on its resolved settings under the output
    directory, then write its manifest; a refusal removes what the run
    wrote and returns 2."""
    out_dir = settings.get("out") or "."
    emitter = Emitter(out_dir)
    try:
        emitter.make_dirs()
    except OSError as exc:
        emitter.cleanup()
        print(f"error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 2
    command = _COMMANDS[name]
    try:
        code = globals()[command.run](settings, emitter)
        claim = command.claim or _SUITES[settings["suite"]].claim
        _write_manifest(emitter, name, claim, settings)
        return code
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        emitter.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BaseException:
        emitter.cleanup()
        raise


if __name__ == "__main__":
    raise SystemExit(main())
