"""Command-line harness: reproducible experiments with run manifests.

Every data-producing subcommand writes fixed-name outputs plus a
<stem of the first output>_manifest.json recording command, claim tag,
seed, thread count, and the full effective configuration.  Each command
is declared once, in `_COMMANDS`; its flags, config keys and manifest
follow from that entry.  The `verify` suites and their oracles live in
`altrank.verify`, which only `verify` imports.  All randomness flows
from the configured seed (parallel work is seeded per chunk), floats
are emitted with repr and JSON keys are sorted, so outputs are
byte-identical for a given seed at any --threads value.  The manifest
timestamp is the one intentionally non-reproducible field.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple, Optional

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
    ModelConfig,
    empirical_cl_distribution,
    empirical_sha_distribution,
    predicted_table,
    rank_survey,
)
from .parallel import map_chunks

# counting, periods and verify are imported inside the commands that use
# them, datetime inside _write_manifest: every import costs each run
# start-up time

# ---------------------------------------------------------------------------
# exact numeric parsing (scientific notation must never round-trip a float)


# int() refuses longer decimal strings by default, and str() longer ints
MAX_INT_DIGITS = 4300


def parse_exact_int(value: str) -> int:
    """The integer a decimal string names, plain or in scientific notation.

    A string is accepted exactly when decimal.Decimal reads it as a
    finite integral value of at most MAX_INT_DIGITS digits, so "1.50e1"
    is 15 and "100e-2" is 1; underscores are ignored, as Decimal ignores
    them.  (Decimal also refuses exponents past its own range, about
    10**18; with a zero mantissa they read as 0 here.)  Any other
    string raises a ValueError that names it.
    """
    t = value.replace("_", "").strip().lower()
    sign = -1 if t[:1] == "-" else 1
    mant, e_mark, exp = (t[1:] if t[:1] in ("+", "-") else t).partition("e")
    whole, _, frac = mant.partition(".")
    exp_sign = exp[:1] if exp[:1] in ("+", "-") else ""
    exp_digits = exp[len(exp_sign) :]
    # a digit before or after the point, and digits after an e
    if not (whole + frac).isdecimal() or (e_mark and not exp_digits.isdecimal()):
        raise ValueError(f"{value!r} is not an integer")
    if not mant.isascii():  # digits of other scripts, which int() reads too
        whole, frac = ("".join(str(int(c)) for c in s) for s in (whole, frac))
    # the digit count is judged before int() or 10**shift meets a long string
    too_long = f"integer {value[:30]!r} has more than {MAX_INT_DIGITS} digits"
    exp_digits = exp_digits.lstrip("0") or "0"
    if len(exp_digits) > MAX_INT_DIGITS:
        raise ValueError(too_long)
    digits = (whole + frac).lstrip("0")
    if not digits:
        return 0
    kept = digits.rstrip("0")
    # the value is sign * kept * 10**shift
    shift = int(exp_sign + exp_digits) - len(frac) + len(digits) - len(kept)
    if shift < 0:
        raise ValueError(f"{value!r} is not an integer")
    if len(kept) + shift > MAX_INT_DIGITS:
        raise ValueError(too_long)
    return sign * int(kept) * 10**shift


def parse_int_list(value: str) -> list:
    t = value.strip()
    if ".." in t:
        lo, _, hi = t.partition("..")
        lo, hi = parse_exact_int(lo), parse_exact_int(hi)
        if hi < lo:
            raise ValueError(f"bad range {value!r}")
        if hi - lo >= 10**6:
            # lo..hi steps by 1; a span like 1e10..1e15 wants a comma list
            raise ValueError(f"range {value!r} too large, use a comma list")
        return list(range(lo, hi + 1))
    out = [parse_exact_int(part) for part in t.split(",") if part.strip()]
    if not out:
        raise ValueError(f"empty list {value!r}")
    return out


# ---------------------------------------------------------------------------
# configuration: defaults < config file < command-line flags

_SCHEMA = {
    "seed": parse_exact_int,
    "threads": parse_exact_int,
    "out": str,
    "samples": parse_exact_int,
    "n": parse_exact_int,
    "x": parse_exact_int,
    "r": parse_exact_int,
    "p": parse_exact_int,
    "k": parse_exact_int,
    "norm": str,
    "method": str,
    "bounds": parse_int_list,
    "h_grid": parse_int_list,
    "h_list": parse_int_list,
    "curves_per_band": parse_exact_int,
    "h_min": parse_exact_int,
    "h_max": parse_exact_int,
    "eta_schedule": str,
    "eta_floor": parse_exact_int,
    "x_min": parse_exact_int,
    "calibration_exponent": str,
    "chunk": parse_exact_int,
    "stride": parse_exact_int,
}

# simulate's settings passed through to ModelConfig, with its defaults
_MODEL_KEYS = ("eta_schedule", "eta_floor", "x_min", "calibration_exponent", "chunk")

# the values a config file or flag may give for these keys; --method only
# records its value in meta.method, since sha-dist has one exact route
_CHOICES = {"method": ("exact", "mod"), "norm": ("box", "l2")}

_GLOBAL_DEFAULTS = {"seed": 12345, "threads": 1, "out": None}


def _read_config_file(path: str):
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            pairs.append((key.strip(), val.strip()))
    return pairs


def _resolve_settings(args) -> dict:
    command = _COMMANDS.get(args.command)
    defaults = command.defaults if command else {}
    settings = {**_GLOBAL_DEFAULTS, **defaults}
    # where each explicitly given key came from: "--key" or "config key"
    given = {}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config):
            if key not in _SCHEMA:
                raise ValueError(f"unknown config key {key!r}")
            # a command reads the global keys and its own defaults;
            # print-config only displays settings, so it takes any key
            if command and key not in _GLOBAL_DEFAULTS and key not in defaults:
                raise ValueError(f"{args.command} does not read config key {key!r}")
            settings[key] = _SCHEMA[key](raw)
            given[key] = f"config key {key!r}"
    for key, parse in _SCHEMA.items():
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = parse(flag)
            given[key] = f"--{key}"
    if hasattr(args, "suite"):
        settings["suite"] = args.suite
        # each suite reads some of verify's defaults and refuses the rest
        reads = _SUITES[args.suite].reads
        for key in defaults:
            if key in given and key not in reads:
                raise ValueError(f"verify {args.suite} does not read {given[key]}")
    threads = settings["threads"]
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    # a config file bypasses argparse's choices
    for key, choices in _CHOICES.items():
        if key in settings and settings[key] not in choices:
            raise ValueError(f"unknown {key} {settings[key]!r}")
    return settings


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
    """Writes outputs under one directory and remembers them so a failed
    command can remove its partial files.  `manifest_extra` holds the
    keys the run manifest adds to the standard ones; `csv` records its
    header there as csv_columns."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written = []
        self.manifest_extra = {}

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


def _parse_label(label: str):
    ptxt, _, body = label.partition(":")
    body = body.strip()
    exps = tuple(int(t) for t in body[1:-1].split(",") if t)
    return int(ptxt), exps


def _delaunay_reference(labels, p: int, r: int) -> dict:
    """Exact limiting masses for each doubled-partition label."""
    support = set(labels)
    support.update(group_label(s) for s in symplectic_support(p, 3))
    out = {}
    for label in sorted(support):
        lp, exps = _parse_label(label)
        if lp != p or len(exps) % 2 or exps[0::2] != exps[1::2]:
            continue
        base = SymplecticPGroup(AbelianPGroup(p, exps[0::2]))
        out[label] = delaunay_measure(base, r).value
    return out


def _cl_reference(labels, p: int) -> dict:
    support = set(labels)
    support.update(
        group_label(AbelianPGroup(p, lam)) for lam in partitions_up_to(3)
    )
    out = {}
    for label in sorted(support):
        lp, exps = _parse_label(label)
        if lp != p:
            continue
        out[label] = cl_measure(AbelianPGroup(p, exps)).value
    return out


def _distribution_payload(dist, reference, **extra) -> dict:
    """The body of sha_dist.json and cl_dist.json; `extra` adds keys."""
    # a fixed summation order keeps the float independent of the hash seed
    support = sorted(set(dist.counts) | set(reference))
    tv = 0.5 * sum(
        abs(dist.counts.get(lbl, 0) / dist.total - reference.get(lbl, 0.0))
        for lbl in support
    )
    return {
        "counts": dist.counts,
        "total": dist.total,
        "meta": dist.meta,
        "reference": reference,
        "reference_sum": sum(reference.values()),
        "tv_distance_truncated": tv,
        **extra,
    }


# ---------------------------------------------------------------------------
# commands: each returns 0, or 1 for a failed verification; main then
# writes the run manifest


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
    dist = empirical_sha_distribution(
        settings["n"],
        settings["x"],
        settings["r"],
        settings["p"],
        settings["samples"],
        Random(settings["seed"]),
    )
    reference = _delaunay_reference(dist.counts, settings["p"], settings["r"])
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
    dist = empirical_cl_distribution(
        settings["n"],
        settings["p"],
        settings["k"],
        settings["samples"],
        Random(settings["seed"]),
    )
    reference = _cl_reference(dist.counts, settings["p"])
    emitter.json("cl_dist.json", _distribution_payload(dist, reference))
    return 0


def _count_worker(spec):
    from .counting import count_alternating_by_rank

    return count_alternating_by_rank(*spec)


def cmd_count(settings, emitter) -> int:
    from .counting import census_cells, fit_census

    n, r, norm = settings["n"], settings["r"], settings["norm"]
    bounds = settings["bounds"]
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
    from .periods import period_bound_scan

    summary, rows = period_bound_scan(
        (settings["h_min"], settings["h_max"]),
        settings["samples"],
        Random(settings["seed"]),
    )
    emitter.csv(
        "period_scan.csv",
        ["a4", "a6", "height", "discriminant", "omega", "omega_h_12th"],
        rows,
    )
    emitter.json("period_scan_summary.json", summary)
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


class _Suite(NamedTuple):
    reads: tuple  # the settings it reads, each at least 1
    claim: str


# a suite refuses --samples or --stride (flag or config key) that it does
# not read
_SUITES = {
    "lattice": _Suite(("samples",), "exact-lattice-identities"),
    "snf": _Suite(("stride",), "smith-form-cross-check"),
    "table": _Suite((), "predicted-rank-percentages"),
    "period": _Suite((), "real-period-cross-check"),
}


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
# the command table: parser, defaults, config keys and manifests follow it


class _Command(NamedTuple):
    run: Callable  # (settings, emitter) -> exit code
    claim: Optional[str]  # None: the claim of the verify suite
    help: str
    defaults: dict  # each key is also a flag and a config key


_COMMANDS = {
    "simulate": _Command(
        cmd_simulate,
        "rank-threshold-exponents",
        "height-band rank survey with log-log exponent fits",
        {
            "h_grid": [10**6, 10**12, 10**18],
            "curves_per_band": 10_000,
            **{key: getattr(ModelConfig, key) for key in _MODEL_KEYS},
        },
    ),
    "sha-dist": _Command(
        cmd_sha_dist,
        "sha-distribution-vs-delaunay",
        "conditioned cokernel p-part distribution vs its limit law",
        {"n": 10, "x": 10**4, "r": 0, "p": 2, "samples": 10_000, "method": "exact"},
    ),
    "cl-dist": _Command(
        cmd_cl_dist,
        "cokernel-distribution-vs-cohen-lenstra",
        "square-matrix cokernel p-part distribution vs its limit law",
        {"n": 8, "p": 2, "k": 8, "samples": 100_000},
    ),
    "count": _Command(
        cmd_count,
        "alternating-rank-counting-exponents",
        "exact alternating-matrix counts by rank with slope fit",
        {"n": 3, "r": 2, "norm": "l2", "bounds": list(range(5, 21))},
    ),
    "verify": _Command(
        cmd_verify,
        None,
        "self-check suites; exit 1 on failure",
        {"samples": 1000, "stride": 211},
    ),
    "period-scan": _Command(
        cmd_period_scan,
        "period-height-envelope",
        "normalized real periods over random curves",
        {"h_min": 10**4, "h_max": 10**10, "samples": 1000},
    ),
    "predicted-table": _Command(
        cmd_predicted_table,
        "predicted-rank-percentages",
        "closed-form rank-category percentages",
        {"h_list": [10**i for i in range(10, 16)]},
    ),
}

# the help line of a flag, where it has one
_FLAG_HELP = {
    ("sha-dist", "method"): "recorded in meta.method; both values run the one exact route",
    ("count", "bounds"): "comma list or lo..hi",
    ("verify", "samples"): "random bases for lattice suite",
    ("verify", "stride"): "n=3 exhaustive thinning for snf suite",
}


def _show(val) -> str:
    return ",".join(str(v) for v in val) if isinstance(val, list) else str(val)


def cmd_print_config(settings) -> int:
    for key in sorted(_GLOBAL_DEFAULTS):
        print(f"{key} = {_show(settings.get(key))}")
    for name, command in sorted(_COMMANDS.items()):
        parts = [f"{key}={_show(val)}" for key, val in sorted(command.defaults.items())]
        print(f"# {name} defaults: " + " ".join(parts))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value settings file")
    common.add_argument("--seed", help="master seed (64-bit)")
    common.add_argument("--threads", help="worker processes")
    common.add_argument(
        "--out", help="output directory (or set ALTRANK_OUT); default ."
    )
    parser = argparse.ArgumentParser(
        prog="altrank",
        description="alternating-matrix rank and Sha simulation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[common], help=command.help)
        if name == "verify":
            sp.add_argument("suite", choices=sorted(_SUITES))
        for key in command.defaults:
            sp.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                choices=_CHOICES.get(key),
                help=_FLAG_HELP.get((name, key)),
            )
    sub.add_parser(
        "print-config", parents=[common], help="show effective settings"
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve_settings(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "print-config":
        return cmd_print_config(settings)
    out_dir = settings.get("out") or os.environ.get("ALTRANK_OUT") or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return 2
    command = _COMMANDS[args.command]
    emitter = Emitter(out_dir)
    try:
        code = command.run(settings, emitter)
        claim = command.claim or _SUITES[settings["suite"]].claim
        _write_manifest(emitter, args.command, claim, settings)
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
