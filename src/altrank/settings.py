"""Command-line front end: settings, the command table and `main`.

`python -m altrank` runs `main` from here.  It parses argv, resolves the
settings (defaults < config file < command-line flags) and refuses a bad
one with exit 2, or prints them for `print-config`, without loading the
sampling modules: `altrank.cli`, which runs the commands and with them
`model`, `linalg`, `groups` and `primes`, is imported only once the
settings of a command that runs are resolved.  Each command is declared
once, in `_COMMANDS`; its flags, config keys and manifest follow from
that entry, and each key's parser from its default.  `ModelConfig`
lives here, since simulate's model keys are its fields.  The front end
imports only `altrank.frozen` of the package.
"""

from __future__ import annotations

import argparse
import sys
from collections import ChainMap
from contextlib import suppress
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .frozen import frozen

# ---------------------------------------------------------------------------
# exact numeric parsing (scientific notation must never round-trip a float)


# int() refuses longer decimal strings by default, and str() longer ints
MAX_INT_DIGITS = 4300


def parse_exact_int(value: str) -> int:
    """The integer a decimal string names, plain or in scientific notation.

    The string is read by decimal.Decimal, so "1.50e1" is 15, "100e-2" is
    1 and underscores are ignored; it must name a finite integral value
    of at most MAX_INT_DIGITS digits.  Any other string raises a
    ValueError that names it.
    """
    try:
        d = Decimal(value)
        integral = d.is_finite() and d == d.to_integral_value()
    except InvalidOperation:
        integral = False
    if not integral:
        raise ValueError(f"{value!r} is not an integer")
    # judged from Decimal's exponent, before int() forms a long integer
    if d and d.adjusted() >= MAX_INT_DIGITS:
        raise ValueError(f"integer {value[:30]!r} has more than {MAX_INT_DIGITS} digits")
    return int(d)


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
# the sampler's configuration, whose fields are simulate's model keys

# bounds the cost of parsing calibration_exponent
MAX_CALIBRATION_TERM = 1000


@frozen
class ModelConfig:
    """Knobs of the sampler.

    eta_schedule "log3" sets eta = max(eta_floor, floor of the base-3 log
    of height**calibration_exponent); "constant" pins eta = eta_floor.
    The entry bound is then x = ceil(height**(ce/eta)), both computed in
    exact integer arithmetic, so that x**eta tracks height**ce up to a
    bounded factor; x >= 2 at every height above 1.  With the defaults
    the ratio x**eta / height**(1/12) stays inside [1, 16] for heights
    between 1e4 and 1e30.

    The numerator and denominator of calibration_exponent are at most
    MAX_CALIBRATION_TERM (1000).  rank_survey refuses a schedule whose
    top-height rank (s = n**3 / 4 at n = eta + 1, b = n * bits(x) / 3) and
    power x**(den*eta) (s = 1) pass DRAW_BUDGET at s * (1 + b / 300)**2 steps.
    """

    eta_schedule: str = "log3"
    eta_floor: int = 2
    calibration_exponent: Fraction = Fraction(1, 12)
    seed: int = 12345

    def __post_init__(self):
        ce = self.calibration_exponent
        if isinstance(ce, float):
            raise TypeError(
                "calibration_exponent must be exact; pass a Fraction or a "
                "string like '1/12'"
            )
        m = MAX_CALIBRATION_TERM
        bound = f"must lie in [1/{m}, {m}], with numerator and denominator at most {m}"
        # Fraction forms 10**e at a decimal string's exponent e: Decimal
        # sizes it first
        with suppress(InvalidOperation):
            if isinstance(ce, str) and "/" not in ce and abs(Decimal(ce).adjusted()) > 3:
                raise ValueError(f"calibration_exponent {ce} {bound}")
        if not isinstance(ce, Fraction):
            try:
                ce = Fraction(ce)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"calibration_exponent {ce!r} is not a fraction") from None
            object.__setattr__(self, "calibration_exponent", ce)
        if self.calibration_exponent <= 0:
            raise ValueError("calibration_exponent must be positive")
        if max(ce.numerator, ce.denominator) > m:
            raise ValueError(f"calibration_exponent {ce} {bound}")
        if self.eta_schedule not in ("log3", "constant"):
            raise ValueError(f"unknown eta schedule {self.eta_schedule!r}")
        if self.eta_floor < 1:
            raise ValueError("eta_floor must be at least 1")


# ---------------------------------------------------------------------------
# the command table: parser, defaults, config keys and manifests follow it


class _Command(NamedTuple):
    run: str  # the function of altrank.cli that runs it: (settings, emitter) -> exit code
    claim: Optional[str]  # None: the claim of the verify suite
    help: str
    defaults: dict  # each key is also a flag and a config key


# simulate's settings passed through to ModelConfig, with its defaults
_MODEL_KEYS = ("eta_schedule", "eta_floor", "calibration_exponent")

_COMMANDS = {
    "simulate": _Command(
        "cmd_simulate",
        "rank-threshold-exponents",
        "height-band rank survey with log-log exponent fits",
        {
            "h_grid": [10**6, 10**12, 10**18],
            "curves_per_band": 10_000,
            **{key: getattr(ModelConfig, key) for key in _MODEL_KEYS},
        },
    ),
    "sha-dist": _Command(
        "cmd_sha_dist",
        "sha-distribution-vs-delaunay",
        "conditioned cokernel p-part distribution vs its limit law",
        {"n": 10, "x": 10**4, "r": 0, "p": 2, "samples": 10_000, "method": "exact"},
    ),
    "cl-dist": _Command(
        "cmd_cl_dist",
        "cokernel-distribution-vs-cohen-lenstra",
        "square-matrix cokernel p-part distribution vs its limit law",
        {"n": 8, "p": 2, "k": 8, "samples": 100_000},
    ),
    "count": _Command(
        "cmd_count",
        "alternating-rank-counting-exponents",
        "exact alternating-matrix counts by rank with slope fit",
        {"n": 3, "r": 2, "norm": "l2", "bounds": list(range(5, 21))},
    ),
    "verify": _Command(
        "cmd_verify",
        None,
        "self-check suites; exit 1 on failure",
        {"samples": 1000, "stride": 211},
    ),
    "period-scan": _Command(
        "cmd_period_scan",
        "period-height-envelope",
        "normalized real periods over random curves",
        {"h_min": 10**4, "h_max": 10**10, "samples": 1000},
    ),
    "predicted-table": _Command(
        "cmd_predicted_table",
        "predicted-rank-percentages",
        "closed-form rank-category percentages",
        {"h_list": [10**i for i in range(10, 16)]},
    ),
}


class _Suite(NamedTuple):
    reads: tuple  # the settings it reads, each at least 1
    claim: str


# verify's suites live in altrank.verify, one function per suite name; a
# suite refuses --samples or --stride (flag or config key) that it does
# not read
_SUITES = {
    "lattice": _Suite(("samples",), "exact-lattice-identities"),
    "snf": _Suite(("stride",), "smith-form-cross-check"),
    "table": _Suite((), "predicted-rank-percentages"),
    "period": _Suite((), "real-period-cross-check"),
}

# the values a config file or flag may give for these keys; --method only
# records its value in meta.method, since sha-dist has one exact route
_CHOICES = {"method": ("exact", "mod"), "norm": ("box", "l2")}

# the help line of a flag, where it has one
_FLAG_HELP = {
    ("sha-dist", "method"): "recorded in meta.method; both values run the one exact route",
    ("count", "bounds"): "comma list or lo..hi",
    ("verify", "samples"): "random bases for lattice suite",
    ("verify", "stride"): "n=3 exhaustive thinning for snf suite",
}

_GLOBAL_DEFAULTS = {"seed": 12345, "threads": 1, "out": None}


# ---------------------------------------------------------------------------
# configuration: defaults < config file < command-line flags


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


def _parser(default) -> Callable:
    """A key's parser, which its default decides: anything but a list or
    an int (None, a str, the Fraction ModelConfig coerces) stays a str."""
    if isinstance(default, list):
        return parse_int_list
    return parse_exact_int if isinstance(default, int) else str


def _resolve_settings(args) -> dict:
    command = _COMMANDS.get(args.command)
    defaults = command.defaults if command else {}
    settings = {**_GLOBAL_DEFAULTS, **defaults}
    # where each explicitly given key came from: "--key" or "config key"
    given = {}
    if getattr(args, "config", None):
        # the known keys: the global ones and every command's defaults
        known = ChainMap(_GLOBAL_DEFAULTS, *(c.defaults for c in _COMMANDS.values()))
        for key, raw in _read_config_file(args.config):
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            # a command reads the global keys and its own defaults;
            # print-config only displays settings, so it takes any key
            if command and key not in _GLOBAL_DEFAULTS and key not in defaults:
                raise ValueError(f"{args.command} does not read config key {key!r}")
            settings[key] = _parser(known[key])(raw)
            given[key] = f"config key {key!r}"
    # flags are read in the command's declared key order
    for key, default in {**_GLOBAL_DEFAULTS, **defaults}.items():
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = _parser(default)(flag)
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


def _show(val) -> str:
    return ",".join(str(v) for v in val) if isinstance(val, list) else str(val)


def cmd_print_config(settings) -> int:
    # settings holds the global keys and every key of the config file,
    # which each command line shows in place of its default
    for key in sorted(_GLOBAL_DEFAULTS):
        print(f"{key} = {_show(settings.get(key))}")
    for name, command in sorted(_COMMANDS.items()):
        parts = [
            f"{key}={_show(settings.get(key, val))}"
            for key, val in sorted(command.defaults.items())
        ]
        print(f"# {name} defaults: " + " ".join(parts))
    return 0


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser.  Given the name of a command, it holds that
    command's subparser only, which parses the command's argv as the
    full parser does; any other name, or none, gives the full parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value settings file")
    common.add_argument("--seed", help="master seed (64-bit)")
    common.add_argument("--threads", help="worker processes")
    common.add_argument("--out", help="output directory; default .")
    parser = argparse.ArgumentParser(
        prog="altrank",
        description="alternating-matrix rank and Sha simulation laboratory",
    )
    names = [*_COMMANDS, "print-config"]
    one = command in names
    # one subparser keeps the full parser's usage line, which lists every command
    metavar = "{" + ",".join(names) + "}" if one else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if one else names:
        if name == "print-config":
            sub.add_parser(name, parents=[common], help="show effective settings")
            continue
        cmd = _COMMANDS[name]
        sp = sub.add_parser(name, parents=[common], help=cmd.help)
        if name == "verify":
            sp.add_argument("suite", choices=sorted(_SUITES))
        for key in cmd.defaults:
            sp.add_argument(
                "--" + key.replace("_", "-"),
                dest=key,
                choices=_CHOICES.get(key),
                help=_FLAG_HELP.get((name, key)),
            )
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the subparser of the command argv names is built
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        settings = _resolve_settings(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "print-config":
        return cmd_print_config(settings)
    # the sampling modules load only here, for a command that runs
    from . import cli

    return cli.run_command(args.command, settings)
