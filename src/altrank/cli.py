"""Command-line harness: reproducible experiments with run manifests.

Every data-producing subcommand writes fixed-name outputs plus a
<stem of the first output>_manifest.json recording command, claim tag,
seed, thread count, and the full effective configuration.  Each command
is declared once, in `_COMMANDS`; its flags, config keys and manifest
follow from that entry.  All randomness flows from the
configured seed (parallel work is seeded per chunk), floats are emitted
with repr and JSON keys are sorted, so outputs are byte-identical for a
given seed at any --threads value.  The manifest timestamp is the one
intentionally non-reproducible field.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import product as iproduct
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
from .linalg import (
    AlternatingMatrix,
    IntegerMatrix,
    cokernel,
    determinant,
    divisors_from_minors,
    matmul,
    smith_divisors,
    smith_normal_form,
)
from .model import (
    ModelConfig,
    empirical_cl_distribution,
    empirical_sha_distribution,
    predicted_table,
    rank_survey,
)
from .parallel import map_chunks

# counting and periods are imported inside the commands and suites that
# use them, datetime inside _write_manifest: every import costs each run
# start-up time

# ---------------------------------------------------------------------------
# exact numeric parsing (scientific notation must never round-trip a float)


# int() refuses longer decimal strings by default, and str() longer ints
MAX_INT_DIGITS = 4300


def parse_exact_int(value) -> int:
    if isinstance(value, int):
        return value
    t = str(value).strip().lower().replace("_", "")
    if not t:
        raise ValueError("empty integer")
    sign = 1
    if t[0] in "+-":
        sign = -1 if t[0] == "-" else 1
        t = t[1:]
    if "e" in t:
        mant, _, exp = t.partition("e")
        e = int(exp)
        whole, _, frac = mant.partition(".")
        if e < len(frac):
            raise ValueError(f"{value!r} is not an integer")
        digits = (whole + frac).lstrip("0")
        if not digits:
            return 0
        # the digit count is judged before 10**e is formed
        if len(digits) + e - len(frac) > MAX_INT_DIGITS:
            raise ValueError(
                f"integer {str(value)[:30]!r} has more than {MAX_INT_DIGITS} digits"
            )
        return sign * int(digits) * 10 ** (e - len(frac))
    return sign * int(t)


def parse_int_list(value) -> list:
    if isinstance(value, (list, tuple)):
        return [parse_exact_int(v) for v in value]
    t = str(value).strip()
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

# settings passed through to ModelConfig; their defaults are its defaults
_MODEL_KEYS = ("eta_schedule", "eta_floor", "x_min", "calibration_exponent", "chunk")

# the values a config file or flag may give for these keys; --method only
# records its value in meta.method, since sha-dist has one exact route
_CHOICES = {"method": ("exact", "mod"), "norm": ("box", "l2")}

_GLOBAL_DEFAULTS = {
    "seed": 12345,
    "threads": 1,
    "out": None,
    **{key: getattr(ModelConfig, key) for key in _MODEL_KEYS},
}


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
# verify suites

# Long-run rank-category percentages at heights 1e10..1e15; the closed
# forms must reproduce these printed values to 0.1 percentage points.
_REFERENCE_PERCENTAGES = {
    10**10: (30.8, 42.7, 19.2, 7.3),
    10**11: (32.6, 43.9, 17.4, 6.0),
    10**12: (34.2, 45.0, 15.8, 5.0),
    10**13: (35.6, 45.9, 14.4, 4.1),
    10**14: (36.9, 46.6, 13.0, 3.4),
    10**15: (38.1, 47.2, 11.9, 2.8),
}


def _random_basis(rng):
    from .counting import LatticeBasis

    while True:
        rdim = rng.randrange(2, 5)
        ndim = rdim + rng.randrange(0, 3)
        vectors = tuple(
            tuple(rng.randint(-20, 20) for _ in range(ndim))
            for _ in range(rdim)
        )
        try:
            return LatticeBasis(vectors)
        except ValueError:
            continue


def _verify_lattice(settings):
    from .counting import check_det_identity, check_inner_product_identity

    rng = Random(settings["seed"])
    samples = settings["samples"]
    bad_inner = bad_det = 0
    for _ in range(samples):
        basis = _random_basis(rng)
        if not check_inner_product_identity(basis):
            bad_inner += 1
        if not check_det_identity(basis):
            bad_det += 1
    return [
        {
            "name": "wedge-inner-product-identity",
            "passed": bad_inner == 0,
            "detail": f"{samples - bad_inner}/{samples} bases exact",
        },
        {
            "name": "wedge-gram-determinant-identity",
            "passed": bad_det == 0,
            "detail": f"{samples - bad_det}/{samples} bases exact",
        },
    ]


def _det_cols(cols):
    n = len(cols)
    if n == 1:
        return cols[0][0]
    if n == 2:
        return cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    a, b, c = cols
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - b[0] * (a[1] * c[2] - a[2] * c[1])
        + c[0] * (a[1] * b[2] - a[2] * b[1])
    )


def _cofactor_solve(cols, v, n):
    """Cramer numerators det(A with column i replaced by v)."""
    return [
        _det_cols([v if j == i else cols[j] for j in range(n)])
        for i in range(n)
    ]


def _quotient_order_multiset(cols, n, det):
    """Element orders of Z^n / (column lattice) by direct coset closure.

    Full-rank lattices with small determinant only.  Membership tests
    are Cramer divisibility checks, so this shares nothing with the
    Smith routines it cross-checks.
    """
    adet = abs(det)
    reps = [(0,) * n]
    basis_vecs = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    frontier = [reps[0]]
    while frontier:
        nxt = []
        for y in frontier:
            for e in basis_vecs:
                z = tuple(a + b for a, b in zip(y, e))
                new = True
                for w in reps:
                    diff = tuple(a - b for a, b in zip(z, w))
                    if all(
                        num % det == 0
                        for num in _cofactor_solve(cols, diff, n)
                    ):
                        new = False
                        break
                if new:
                    reps.append(z)
                    nxt.append(z)
        frontier = nxt
        if len(reps) > adet:
            break
    orders = []
    for y in reps:
        nums = _cofactor_solve(cols, y, n)
        k = 1
        for num in nums:
            g = math.gcd(num, det)
            k = k * (abs(det) // g) // math.gcd(k, abs(det) // g)
        orders.append(k)
    return sorted(orders)


def _direct_sum_orders(divisors):
    """Element orders of the direct sum of Z/d over the given divisors."""
    orders = [1]
    for d in divisors:
        if d <= 1:
            continue
        new = []
        for o in orders:
            for x in range(d):
                m = d // math.gcd(d, x)
                new.append(o * m // math.gcd(o, m))
        orders = new
    return sorted(orders)


def _verify_snf(settings):
    stride = settings["stride"]
    mismatches = 0
    oracle_bad = 0
    recon_bad = 0
    paired_bad = 0
    checked = 0
    oracle_checked = 0
    recon_checked = 0

    def one(rows, n, with_oracle):
        nonlocal mismatches, oracle_bad, recon_bad, checked, oracle_checked
        nonlocal recon_checked
        m = IntegerMatrix.from_rows(rows)
        fast = smith_divisors(m)
        slow = divisors_from_minors(m)
        checked += 1
        if fast != slow:
            mismatches += 1
            return
        if with_oracle and n <= 3:
            det = determinant(m)
            if det and abs(det) <= 60:
                cols = [tuple(rows[i][j] for i in range(n)) for j in range(n)]
                oracle_checked += 1
                got = _quotient_order_multiset(cols, n, det)
                want = _direct_sum_orders([d for d in fast if d])
                if got != want:
                    oracle_bad += 1
        dec = smith_normal_form(m)
        recon_checked += 1
        prod = matmul(matmul(dec.U, m), dec.V)
        diag = [
            prod.entry(i, j)
            for i in range(m.n_rows)
            for j in range(m.n_cols)
            if i != j
        ]
        lead = [prod.entry(i, i) for i in range(min(m.n_rows, m.n_cols))]
        if any(diag) or [abs(v) for v in lead] != list(fast):
            recon_bad += 1

    for n in (1, 2):
        cells = n * n
        for flat in iproduct(range(-2, 3), repeat=cells):
            rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            one(rows, n, with_oracle=True)
    index = 0
    for flat in iproduct(range(-2, 3), repeat=9):
        if index % stride == 0:
            rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            one(rows, 3, with_oracle=True)
        index += 1

    rng = Random(settings["seed"])
    for _ in range(200):
        nr = rng.randrange(2, 6)
        nc = rng.randrange(2, 6)
        rows = [
            [rng.randint(-99, 99) for _ in range(nc)] for _ in range(nr)
        ]
        one(rows, max(nr, nc), with_oracle=False)

    for upper in iproduct(range(-2, 3), repeat=6):
        try:
            cokernel(AlternatingMatrix(4, tuple(upper)))
        except AssertionError:
            paired_bad += 1

    return [
        {
            "name": "divisors-vs-minor-gcds",
            "passed": mismatches == 0 and checked > 0,
            "detail": f"{checked - mismatches}/{checked} matrices agree "
            f"(n=3 stride {stride})",
        },
        {
            "name": "quotient-enumeration-oracle",
            "passed": oracle_bad == 0 and oracle_checked > 0,
            "detail": f"{oracle_checked - oracle_bad}/{oracle_checked} "
            "full-rank quotients match element-order multisets",
        },
        {
            "name": "transform-reconstruction",
            "passed": recon_bad == 0 and recon_checked > 0,
            "detail": f"{recon_checked - recon_bad}/{recon_checked} have "
            "U*A*V diagonal with the invariant factors",
        },
        {
            "name": "alternating-paired-factors",
            "passed": paired_bad == 0,
            "detail": f"{5**6 - paired_bad}/{5**6} alternating 4x4 "
            "cokernels have paired invariant factors",
        },
    ]


def _verify_table(settings):
    rows = predicted_table(sorted(_REFERENCE_PERCENTAGES))
    worst = 0.0
    for h, c1, c2, c3, c4 in rows:
        ref = _REFERENCE_PERCENTAGES[h]
        worst = max(
            worst, *(abs(a - b) for a, b in zip((c1, c2, c3, c4), ref))
        )
    identity = max(
        max(abs(c1 + c3 - 50), abs(c2 + c4 - 50))
        for _, c1, c2, c3, c4 in rows
    )
    return [
        {
            "name": "reference-percentages",
            "passed": worst <= 0.1,
            "detail": f"max deviation {worst:.4f} percentage points "
            "(tolerance 0.1)",
        },
        {
            "name": "column-pairs-sum-to-fifty",
            "passed": identity < 1e-9,
            "detail": f"max |col1+col3-50|, |col2+col4-50| = {identity:.2e}",
        },
    ]


def _verify_period(settings):
    from .periods import period_bound_scan, real_period, real_period_quadrature

    rng = Random(settings["seed"])
    curves = []
    while len(curves) < 100:
        a4 = rng.randint(-50, 50)
        a6 = rng.randint(-50, 50)
        if 4 * a4**3 + 27 * a6**2 != 0:
            curves.append((a4, a6))
    worst_quad = 0.0
    for a4, a6 in curves:
        agm = real_period(a4, a6).omega
        quad = real_period_quadrature(a4, a6)
        worst_quad = max(worst_quad, abs(agm - quad))
    worst_scale = 0.0
    for a4, a6 in curves:
        base = real_period(a4, a6).omega
        for lam in (2, 3, 5):
            scaled = real_period(a4 * lam**4, a6 * lam**6).omega
            worst_scale = max(worst_scale, abs(scaled * lam - base))
    summary, _rows = period_bound_scan((10**4, 10**10), 1000, rng)
    norm_min = summary["normalized"]["min"]
    norm_max = summary["normalized"]["max"]
    return [
        {
            "name": "agm-vs-quadrature",
            "passed": worst_quad <= 1e-8,
            "detail": f"max |difference| {worst_quad:.2e} over 100 curves",
        },
        {
            "name": "scaling-covariance",
            "passed": worst_scale <= 1e-9,
            "detail": f"max |lam*omega(scaled) - omega| {worst_scale:.2e}",
        },
        {
            "name": "normalized-period-band",
            "passed": norm_min > 0 and math.isfinite(norm_max),
            "detail": f"omega*h^(1/12) in [{norm_min:.4f}, {norm_max:.4f}] "
            "over 1000 curves",
        },
    ]


class _Suite(NamedTuple):
    run: Callable  # settings -> list of check dicts
    reads: tuple  # the settings it reads, each at least 1
    claim: str


# a suite refuses --samples or --stride (flag or config key) that it does
# not read
_SUITES = {
    "lattice": _Suite(_verify_lattice, ("samples",), "exact-lattice-identities"),
    "snf": _Suite(_verify_snf, ("stride",), "smith-form-cross-check"),
    "table": _Suite(_verify_table, (), "predicted-rank-percentages"),
    "period": _Suite(_verify_period, (), "real-period-cross-check"),
}


def cmd_verify(settings, emitter) -> int:
    suite = settings["suite"]
    spec = _SUITES[suite]
    for key in spec.reads:
        if settings[key] < 1:
            raise ValueError(f"{key} must be at least 1, got {settings[key]}")
    checks = spec.run(settings)
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
        {"h_grid": [10**6, 10**12, 10**18], "curves_per_band": 10_000},
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
        keys = list(command.defaults)
        if name == "simulate":
            keys += _MODEL_KEYS
        if name == "verify":
            sp.add_argument("suite", choices=sorted(_SUITES))
        for key in keys:
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
