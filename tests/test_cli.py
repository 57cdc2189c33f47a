import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import altrank
import altrank.cli
import altrank.counting
import altrank.model
import altrank.settings
import altrank.verify
from altrank.cli import main
from altrank.settings import parse_exact_int, parse_int_list

SRC_DIR = str(Path(altrank.__file__).resolve().parent.parent)


def run_cli(args, timeout, hash_seed="0"):
    """`python -m altrank` in a child process with a fixed hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "altrank"] + args,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        body = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(body))


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_exact_int_scientific():
    assert parse_exact_int("1e24") == 10**24
    assert parse_exact_int("2.5e7") == 25_000_000
    assert parse_exact_int("1_000_000") == 10**6
    assert parse_exact_int("-3e2") == -300
    assert parse_exact_int("+7") == 7
    # no round trip through float: 17 digits survive
    assert parse_exact_int("1.2345678901234567e16") == 12345678901234567


def test_parse_exact_int_rejects():
    for bad in ("", "abc", "1.5", "1.23e1", "2.5e0", "1e-3"):
        with pytest.raises(ValueError):
            parse_exact_int(bad)


def test_parse_exact_int_obeys_the_digit_limit():
    assert parse_exact_int("1e4299") == 10**4299  # 4300 digits
    assert parse_exact_int("0e99999999999") == 0
    for bad in ("1e4300", "1.5e4300", "12e4299", "-1e10000000"):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            parse_exact_int(bad)


def decimal_integer(text):
    """The value Decimal reads in `text` if it is a finite integer of at
    most 4300 digits, else None: the oracle of parse_exact_int."""
    try:
        d = Decimal(text)
    except InvalidOperation:
        return None
    if not d.is_finite() or d != d.to_integral_value():
        return None
    if d and d.adjusted() + 1 > 4300:  # judged before int() forms it
        return None
    return int(d)


@st.composite
def numeric_strings(draw):
    """[sign] digits [. digits] [e [sign] digits], with underscores mixed
    into the digit runs and any run possibly empty."""
    sign = st.sampled_from(["", "+", "-"])
    run = st.text("0123456789_", max_size=8)
    text = draw(sign) + draw(run)
    if draw(st.booleans()):
        text += "." + draw(run)
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(sign) + draw(run)
    return text


@settings(max_examples=500, derandomize=True, deadline=None)
@given(numeric_strings())
def test_parse_exact_int_agrees_with_decimal(text):
    want = decimal_integer(text)
    if want is None:
        with pytest.raises(ValueError) as refused:
            parse_exact_int(text)
        assert repr(text[:30])[:-1] in str(refused.value)  # names the input
    else:
        assert parse_exact_int(text) == want


@pytest.mark.parametrize(
    "text, value",
    [
        # integral values with more fraction digits than the exponent
        ("100e-2", 1),
        ("1.50e1", 15),
        ("0.0e0", 0),
        ("1.0", 1),
        # no mantissa digit, or no exponent digit
        ("e5", None),
        (".e0", None),
        ("-e3", None),
        ("1e", None),
        # a zero mantissa with an exponent past Decimal's range
        ("0e1000000000000000000", None),
    ],
)
def test_parse_exact_int_regressions(capsys, text, value):
    if value is None:
        with pytest.raises(ValueError) as refused:
            parse_exact_int(text)
        assert str(refused.value) == f"{text!r} is not an integer"
        assert main(["print-config", f"--seed={text}"]) == 2
        assert capsys.readouterr().err == f"error: {text!r} is not an integer\n"
    else:
        assert parse_exact_int(text) == value
        assert main(["print-config", f"--seed={text}"]) == 0
        assert f"\nseed = {value}\n" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["1e5000", "1e10000000"])
def test_oversized_seed_exits_2_from_flag_and_config(tmp_path, capsys, seed):
    # refused from the exponent, before any power of ten is formed
    assert main(["print-config", "--seed", seed]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: integer {seed!r} has more than 4300 digits"
    ]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"seed = {seed}\n")
    out = tmp_path / "out"
    args = ["sha-dist", "--config", str(cfg), "--samples", "1", "--out", str(out)]
    assert main(args) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


def test_parse_int_list():
    assert parse_int_list("5..8") == [5, 6, 7, 8]
    assert parse_int_list("10..10") == [10]
    assert parse_int_list("1, 2,3") == [1, 2, 3]
    assert parse_int_list("1e2,2e2") == [100, 200]
    with pytest.raises(ValueError):
        parse_int_list("8..5")
    with pytest.raises(ValueError):
        parse_int_list(" , ")
    with pytest.raises(ValueError):
        parse_int_list("1e10..1e15")  # unit-step span, would explode


# ---------------------------------------------------------------------------
# the command-line surface

_COMMON_FLAGS = [
    ("--config", "config", None),
    ("--seed", "seed", None),
    ("--threads", "threads", None),
    ("--out", "out", None),
]

# each subcommand's (flag or None for a positional, dest, choices) in order
PARSER_SURFACE = {
    "simulate": [
        ("--h-grid", "h_grid", None),
        ("--curves-per-band", "curves_per_band", None),
        ("--eta-schedule", "eta_schedule", None),
        ("--eta-floor", "eta_floor", None),
        ("--calibration-exponent", "calibration_exponent", None),
    ],
    "sha-dist": [
        ("--n", "n", None),
        ("--x", "x", None),
        ("--r", "r", None),
        ("--p", "p", None),
        ("--samples", "samples", None),
        ("--method", "method", ("exact", "mod")),
    ],
    "cl-dist": [
        ("--n", "n", None),
        ("--p", "p", None),
        ("--k", "k", None),
        ("--samples", "samples", None),
    ],
    "count": [
        ("--n", "n", None),
        ("--r", "r", None),
        ("--norm", "norm", ("box", "l2")),
        ("--bounds", "bounds", None),
    ],
    "verify": [
        (None, "suite", ("lattice", "period", "snf", "table")),
        ("--samples", "samples", None),
        ("--stride", "stride", None),
    ],
    "period-scan": [
        ("--h-min", "h_min", None),
        ("--h-max", "h_max", None),
        ("--samples", "samples", None),
    ],
    "predicted-table": [("--h-list", "h_list", None)],
    "print-config": [],
}


# the parser of each setting key as the CLI once spelled it out, key by
# key; each now follows from the key's default
SCHEMA = {
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
    "calibration_exponent": str,
    "stride": parse_exact_int,
}


def test_each_key_parser_follows_from_its_default():
    front = altrank.settings
    types = {}
    for defaults in [front._GLOBAL_DEFAULTS] + [c.defaults for c in front._COMMANDS.values()]:
        for key, default in defaults.items():
            assert front._parser(default) is SCHEMA[key], key
            # every command that declares a key gives it a default of one type
            assert types.setdefault(key, type(default)) is type(default), key
    assert len(SCHEMA) == 21
    assert set(types) == set(SCHEMA)


def test_flags_are_read_in_the_declared_key_order(capsys):
    # sha-dist declares n before samples, so --n's value is read first
    assert main(["sha-dist", "--samples", "x", "--n", "y"]) == 2
    assert capsys.readouterr().err == "error: 'y' is not an integer\n"


def test_parser_surface_is_pinned():
    parser = altrank.settings._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {}
    for name, subparser in sub.choices.items():
        got[name] = [
            (
                "/".join(a.option_strings) or None,
                a.dest,
                tuple(a.choices) if a.choices is not None else None,
            )
            for a in subparser._actions
            if a.dest != "help"
        ]
    assert got == {name: _COMMON_FLAGS + flags for name, flags in PARSER_SURFACE.items()}


# argv that the parser refuses or answers with help, each printed by one
# subparser (or the full parser) as the full parser prints it
PARSE_EXITS = [
    ["--help"],
    ["sha-dist", "--help"],
    ["sha-dist", "--bogus", "1"],
    ["sha-dist", "--method", "foo"],
    ["bogus"],
]


@pytest.mark.parametrize("argv", PARSE_EXITS, ids=" ".join)
def test_one_subparser_prints_as_the_full_parser(capsys, argv):
    with pytest.raises(SystemExit) as full:
        altrank.settings._build_parser().parse_args(argv)
    want = capsys.readouterr()
    with pytest.raises(SystemExit) as ours:
        main(argv)
    assert ours.value.code == full.value.code
    assert capsys.readouterr() == want


# (arguments, first output, claim); the manifest is named after the first
# output, and a CSV's header is recorded as csv_columns
MANIFEST_CASES = [
    (
        ["simulate", "--h-grid", "1e6,1e8,1e10", "--curves-per-band", "50"],
        "survey.csv",
        "rank-threshold-exponents",
    ),
    (
        ["sha-dist", "--n", "2", "--x", "3", "--samples", "50"],
        "sha_dist.json",
        "sha-distribution-vs-delaunay",
    ),
    (
        ["cl-dist", "--n", "4", "--k", "6", "--samples", "50"],
        "cl_dist.json",
        "cokernel-distribution-vs-cohen-lenstra",
    ),
    (
        ["count", "--n", "3", "--bounds", "2..5"],
        "counts.csv",
        "alternating-rank-counting-exponents",
    ),
    (["verify", "lattice", "--samples", "5"], "verify_lattice.json", "exact-lattice-identities"),
    (["verify", "snf", "--stride", "4001"], "verify_snf.json", "smith-form-cross-check"),
    (["verify", "table"], "verify_table.json", "predicted-rank-percentages"),
    (["verify", "period"], "verify_period.json", "real-period-cross-check"),
    (
        ["period-scan", "--h-max", "1e6", "--samples", "100"],
        "period_scan.csv",
        "period-height-envelope",
    ),
    (
        ["predicted-table", "--h-list", "1e10"],
        "predicted_table.csv",
        "predicted-rank-percentages",
    ),
]


@pytest.mark.parametrize(
    "args,first,claim", MANIFEST_CASES, ids=[" ".join(c[0][:2]) for c in MANIFEST_CASES]
)
def test_every_command_writes_its_manifest(tmp_path, capsys, args, first, claim):
    assert main(args + ["--out", str(tmp_path)]) == 0
    stem = first.rsplit(".", 1)[0]
    manifest = read_json(tmp_path / f"{stem}_manifest.json")
    assert manifest["command"] == args[0]
    assert manifest["claim"] == claim
    assert manifest["outputs"][0] == first
    assert sorted(os.listdir(tmp_path)) == sorted(
        manifest["outputs"] + [f"{stem}_manifest.json"]
    )
    if first.endswith(".csv"):
        header = (tmp_path / first).read_text().split("\n", 1)[0]
        assert manifest["csv_columns"] == header.split(",")
    else:
        assert "csv_columns" not in manifest


def test_one_subparser_parses_as_the_full_parser():
    # main builds only the subparser of the command argv names
    for args, _, _ in MANIFEST_CASES + [(["print-config"], None, None)]:
        one = altrank.settings._build_parser(args[0]).parse_args(args)
        assert one == altrank.settings._build_parser().parse_args(args), args


# ---------------------------------------------------------------------------
# exit codes and error cleanup


def test_unknown_flag_value_exits_2(tmp_path, capsys):
    rc = main(["sha-dist", "--out", str(tmp_path), "--samples", "abc"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_domain_error_exits_2_and_leaves_no_files(tmp_path, capsys):
    # n = 5 with r = 0 violates the parity constraint
    rc = main(
        ["sha-dist", "--out", str(tmp_path), "--n", "5", "--r", "0", "--samples", "10"]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_nonpositive_threads_exit_2(tmp_path, capsys, threads):
    rc = main(["cl-dist", "--out", str(tmp_path), "--samples", "10", "--threads", threads])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_sha_dist_zero_entry_bound_exits_2(tmp_path):
    # x = 0 draws only the zero matrix, so the corank condition never holds
    proc = run_cli(["sha-dist", "--out", str(tmp_path), "--n", "4", "--x", "0"], 60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--h-grid", "1e400,1e401,1e402"],
        ["period-scan", "--h-max", "1e320"],
        # 3**15 cells at bound 1 would run first; bound 2 is over the cap
        ["count", "--n", "6", "--norm", "box", "--bounds", "1..4"],
        ["count", "--n", "3", "--r", "2", "--norm", "l2", "--bounds", "0..5"],
        ["cl-dist", "--n", "-1", "--k", "6", "--samples", "20"],
        # verify must not pass without running a check
        ["verify", "lattice", "--samples", "0"],
        ["verify", "lattice", "--samples", "-4"],
        ["verify", "snf", "--stride", "0"],
        # a suite refuses the flags it does not read
        ["verify", "snf", "--samples", "5"],
        ["verify", "table", "--samples", "5"],
        ["verify", "period", "--samples", "5"],
        ["verify", "lattice", "--stride", "3"],
        ["verify", "table", "--stride", "3"],
        ["verify", "period", "--stride", "3"],
        # the 373-digit cell count 3**780 must not reach stderr
        ["count", "--n", "40", "--norm", "box", "--bounds", "1..2"],
    ],
)
def test_out_of_range_input_exits_2_at_once(tmp_path, args):
    proc = run_cli(args + ["--out", str(tmp_path)], 60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert len(proc.stderr) < 200
    assert list(tmp_path.iterdir()) == []


def test_verify_names_the_suite_and_flag_it_refuses(tmp_path, capsys):
    out = tmp_path / "out"
    for suite, flag in [("snf", "--samples"), ("table", "--stride")]:
        assert main(["verify", suite, flag, "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: verify {suite} does not read {flag}\n"
    # the same key from a config file is refused the same way
    cfg = tmp_path / "verify.cfg"
    for suite, line in [("table", "samples = 5"), ("table", "stride = 0")]:
        cfg.write_text(line + "\n")
        rc = main(["verify", suite, "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        key = line.split()[0]
        err = capsys.readouterr().err
        assert err == f"error: verify {suite} does not read config key {key!r}\n"
    assert not out.exists()


def test_period_scan_refuses_an_empty_band_before_any_chunk(tmp_path, capsys, monkeypatch):
    # caps 240-242 hold no valid curve, so a scan from 240 is refused
    # whatever the seed, before any curve is drawn
    def no_rows(*args):
        raise AssertionError("a period-scan chunk ran")

    monkeypatch.setattr(altrank.periods, "period_scan_rows", no_rows)
    argv = ["period-scan", "--h-min", "240", "--h-max", "5000", "--samples", "100"]
    for seed in range(1, 11):
        assert main(argv + ["--seed", str(seed), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: heights [240, 5000] reach cap 240, and no valid curve "
            "has height in (240/2, 240]\n"
        )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--h-grid", "1e100,1e101,1e102", "--curves-per-band", "3"],
        ["period-scan", "--h-min", "1e200", "--h-max", "1e300", "--samples", "100"],
    ],
)
def test_huge_heights_in_float_range_run(tmp_path, args):
    proc = run_cli(args + ["--out", str(tmp_path)], 60)
    assert proc.returncode == 0 and proc.stderr == ""


def test_simulate_refuses_unsettled_curve(tmp_path, capsys, monkeypatch):
    # Band (cap/2, cap] with cap = 3**193 // 2 crosses the eta step (15 to
    # 16) at 3**192, so its draws follow curves.  Force the first band
    # index to the cell a4 = 0, a6 = b_max = isqrt(cap // 27), whose 6th
    # root is past MAX_TRIAL_DIVISOR with no 6th-power factor below it:
    # the validity test refuses the curve and the run exits 2.
    cap = 3**193 // 2
    a_max, b_max = altrank.model._coefficient_box(cap)
    a_lo, b_lo = altrank.model.iroot(cap // 8, 3), math.isqrt(cap // 54)
    # the |a4| > a_lo rectangle comes first; then, by a4, the 2*(b_max - b_lo)
    # values of a6 with |a6| > b_lo, and (0, b_max) ends the a4 = 0 row
    size_a = 2 * (a_max - a_lo) * (2 * b_max + 1)
    total = size_a + (2 * a_lo + 1) * 2 * (b_max - b_lo)
    index = size_a + (a_lo + 1) * 2 * (b_max - b_lo) - 1
    bits = []

    class FirstCurve(altrank.model.Random):
        def getrandbits(self, k):
            bits.append(k)
            return index if len(bits) == 1 else super().getrandbits(k)

    monkeypatch.setattr(altrank.model, "Random", FirstCurve)
    grid = f"{cap},{10**93},{10**94}"
    rc = main(["simulate", "--h-grid", grid, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "MAX_TRIAL_DIVISOR" in err
    assert bits == [total.bit_length()]
    assert list(tmp_path.iterdir()) == []


def test_simulate_draws_no_curve_in_one_interval_bands(tmp_path, monkeypatch):
    # each band of 1e80, 1e81 and 1e82 lies inside one schedule interval,
    # so the survey draws only matrices there and never tests a curve
    def no_curve(*args):
        raise AssertionError("a one-interval band drew a curve")

    monkeypatch.setattr(altrank.model, "is_valid_curve", no_curve)
    monkeypatch.setattr(altrank.model, "_curve_stream", no_curve)
    argv = ["simulate", "--h-grid", "1e80,1e81,1e82", "--curves-per-band", "200"]
    assert main(argv + ["--out", str(tmp_path)]) == 0


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("volume = 11\n")
    rc = main(["sha-dist", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "volume" in capsys.readouterr().err
    rc = main(["sha-dist", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 2


@pytest.mark.parametrize(
    "args,lines",
    [
        (["simulate"], ["samples = 5"]),
        (["sha-dist"], ["stride = 0", "h_grid = 1..3", "k = -7"]),
        (["sha-dist"], ["k = -7"]),
        (["cl-dist"], ["method = mod"]),
        (["count"], ["samples = 5"]),
        (["verify", "lattice"], ["k = 3"]),
        (["period-scan"], ["n = 3"]),
        (["predicted-table"], ["bounds = 1..4"]),
        # the model keys are simulate's alone
        (["sha-dist"], ["eta_floor = 5", "eta_schedule = constant"]),
        (["cl-dist"], ["eta_schedule = constant"]),
        (["count"], ["eta_floor = 0", "calibration_exponent = -3"]),
        (["verify", "table"], ["calibration_exponent = 1/6"]),
        (["period-scan"], ["eta_floor = 3"]),
        (["predicted-table"], ["eta_floor = 5"]),
    ],
)
def test_command_refuses_config_key_it_does_not_read(tmp_path, capsys, args, lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n" + "\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(args + ["--config", str(cfg), "--out", str(out)]) == 2
    key = lines[0].split()[0]
    err = capsys.readouterr().err
    assert err == f"error: {args[0]} does not read config key {key!r}\n"
    assert not out.exists()


def test_print_config_takes_any_known_key(tmp_path, capsys):
    # it only displays settings; the global ones it shows come from the file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 3\nstride = 5\neta_floor = 7\nthreads = 7\n")
    assert main(["print-config", "--config", str(cfg)]) == 0
    assert "threads = 7\n" in capsys.readouterr().out


def test_print_config_shows_command_keys_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta_floor = 7\nsamples = 5\n")
    assert main(["print-config", "--config", str(cfg)]) == 0
    shown = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("# "):
            name, _, pairs = line[2:].partition(" defaults: ")
            shown[name] = pairs.split()
    assert "eta_floor=7" in shown["simulate"]
    for name in ("sha-dist", "cl-dist", "verify", "period-scan"):
        assert "samples=5" in shown[name], name
    # a command that reads neither key keeps its defaults
    assert shown["count"] == ["bounds=5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20",
                              "n=3", "norm=l2", "r=2"]


def test_unknown_method_in_config_file_exits_2(tmp_path, capsys):
    # a config file bypasses argparse's choices for --method
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = guess\n")
    out = tmp_path / "out"
    rc = main(["sha-dist", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "guess" in err
    assert not out.exists()
    # --norm's choices hold for a config file the same way
    cfg.write_text("norm = linf\n")
    assert main(["count", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown norm 'linf'\n"
    assert not out.exists()


_BOUND = "must lie in [1/1000, 1000], with numerator and denominator at most 1000"
_BUDGET = "one draw may take more than 1.5 s"


@pytest.mark.parametrize(
    "flag, value, error",
    [
        # 3**(10**9) in schedule_eta
        ("--calibration-exponent", "1/1000000000", f"calibration_exponent 1/1000000000 {_BOUND}"),
        # n near 25151 at 1e12: about 3e8 entries per draw
        (
            "--calibration-exponent",
            "1000",
            "calibration_exponent 1000 gives matrices of size 25151 at height "
            "1000000000000, with calibration_exponent 1000 entries of "
            f"3 bits; {_BUDGET}",
        ),
        ("--calibration-exponent", "12345/7", f"calibration_exponent 12345/7 {_BOUND}"),
        (
            "--eta-floor",
            "300",
            "eta_floor 300 gives matrices of size 301 at height 1000000000000, "
            f"with calibration_exponent 1/12 entries of 2 bits; {_BUDGET}",
        ),
        # Fraction forms 10**100000000 from these strings before any bound
        ("--calibration-exponent", "1e-100000000", f"calibration_exponent 1e-100000000 {_BOUND}"),
        ("--calibration-exponent", "0e-100000000", f"calibration_exponent 0e-100000000 {_BOUND}"),
    ],
    ids=[
        "calibration-exponent-1-over-1e9",
        "calibration-exponent-1000",
        "calibration-exponent-12345-over-7",
        "eta-floor-300",
        "calibration-exponent-1e-100000000",
        "calibration-exponent-0e-100000000",
    ],
)
def test_schedule_that_cannot_finish_exits_2_before_any_chunk(
    tmp_path, capsys, monkeypatch, flag, value, error
):
    def no_chunk(spec):
        raise AssertionError("a survey chunk ran")

    monkeypatch.setattr(altrank.model, "_survey_chunk", no_chunk)
    out = tmp_path / "out"
    argv = ["simulate", "--h-grid", "1e6,1e9,1e12", "--curves-per-band", "10"]
    assert main(argv + [flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, draw, error",
    [
        # the power term alone: _schedule_interval forms x**(den*eta) at
        # den*eta = 60000, on 18-bit x, while the rank term is about 7% of
        # the budget
        (
            "simulate --eta-schedule constant --eta-floor 60 --calibration-exponent 999/1000 "
            "--h-grid 1e306,1e307,1e308 --curves-per-band 1",
            "altrank.model._survey_chunk",
            "eta_floor 60 gives matrices of size 61 at height of 1024 bits, with "
            f"calibration_exponent 999/1000 entries of 18 bits; {_BUDGET}",
        ),
        (
            "sha-dist --n 2001 --r 1 --samples 1",
            "altrank.model._alternating_upper",
            f"n 2001, x 10000 and p 2; {_BUDGET}",
        ),
        # cl-dist at p = 2 draws each packed row by one getrandbits call,
        # and never calls _uniform_list
        (
            "cl-dist --n 3000 --samples 1",
            "random.Random.getrandbits",
            f"n 3000, p 2 and k 8; {_BUDGET}",
        ),
        (
            "cl-dist --n 8 --k 1e5 --samples 1",
            "random.Random.getrandbits",
            f"n 8, p 2 and k 100000; {_BUDGET}",
        ),
        # each lies inside the old per-key bounds on n, k and the
        # survey size, and would not finish: n**3 products of 10000-bit
        # residues, a rank on 422-bit entries at n = 64, and Bareiss on
        # 13288-bit entries at n = 60
        (
            "cl-dist --n 100 --k 9974 --samples 1",
            "random.Random.getrandbits",
            f"n 100, p 2 and k 9974; {_BUDGET}",
        ),
        (
            "simulate --eta-schedule constant --eta-floor 63 --calibration-exponent 1000 "
            "--h-grid 1e4,1e6,1e8 --curves-per-band 1",
            "altrank.model._survey_chunk",
            "eta_floor 63 gives matrices of size 64 at height 100000000, with "
            f"calibration_exponent 1000 entries of 422 bits; {_BUDGET}",
        ),
        (
            "sha-dist --n 60 --x 1e4000 --samples 3000",
            "altrank.model._alternating_upper",
            f"n 60, x of 13288 bits and p 2; {_BUDGET}",
        ),
        # a k that no float holds
        (
            "cl-dist --n 8 --k 1e400 --samples 1",
            "random.Random.getrandbits",
            f"n 8, p 2 and k of 1329 bits; {_BUDGET}",
        ),
    ],
    ids=[
        "simulate-schedule-power",
        "sha-dist-n-upper",
        "cl-dist-n-list",
        "cl-dist-k-list",
        "cl-dist-n-k",
        "simulate-constant-schedule-x",
        "sha-dist-x",
        "cl-dist-k-float",
    ],
)
def test_size_that_cannot_finish_exits_2_before_any_draw(
    tmp_path, capsys, monkeypatch, argv, draw, error
):
    def no_draw(*args):
        raise AssertionError(f"{draw} ran")

    monkeypatch.setattr(draw, no_draw)
    assert main(argv.split() + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


class _Drew(Exception):
    """Raised by a stubbed draw: the run passed every check before it."""


@pytest.mark.parametrize(
    "accepted, refused, error",
    [
        # the rank is priced as its 2x2-pivot elimination, a quarter of
        # dense Bareiss: one draw at n = 164 takes about 0.7 s
        ("sha-dist --n 164 --r 0", "sha-dist --n 166 --r 0", "n 166, x 10000 and p 2"),
        ("sha-dist --n 165 --r 1", "sha-dist --n 167 --r 1", "n 167, x 10000 and p 2"),
        # at n = 10 the 4300-digit bound on integers binds first
        (
            "sha-dist --n 12 --x 1e4184",
            "sha-dist --n 12 --x 1e4185",
            "n 12, x of 13903 bits and p 2",
        ),
        (
            "simulate --eta-floor 282",
            "simulate --eta-floor 283",
            "eta_floor 283 gives matrices of size 284 at height 1000000000000000000, "
            "with calibration_exponent 1/12 entries of 2 bits",
        ),
        (
            "simulate --calibration-exponent 3/1000 --eta-floor 175 --h-grid 1e306,1e307,1e308",
            "simulate --calibration-exponent 3/1000 --eta-floor 176 --h-grid 1e306,1e307,1e308",
            "eta_floor 176 gives matrices of size 177 at height of 1024 bits, "
            "with calibration_exponent 3/1000 entries of 2 bits",
        ),
    ],
    ids=["sha-dist-n-r0", "sha-dist-n-r1", "sha-dist-x", "simulate-eta-floor", "simulate-power"],
)
def test_budget_edge_accepts_and_refuses_one_size_up(
    tmp_path, capsys, monkeypatch, accepted, refused, error
):
    def drew(*args):
        raise _Drew

    monkeypatch.setattr(altrank.model, "_survey_chunk", drew)
    monkeypatch.setattr(altrank.model, "_alternating_upper", drew)
    tail = ["--samples" if "sha-dist" in accepted else "--curves-per-band", "1"]
    with pytest.raises(_Drew):
        main(accepted.split() + tail + ["--out", str(tmp_path / "ok")])
    assert main(refused.split() + tail + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}; {_BUDGET}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "r, error",
    [("4", "rank r must lie in 0..3, got 4"), ("-1", "rank r must lie in 0..3, got -1")],
)
def test_count_rank_outside_0_to_n_exits_2_before_any_census(
    tmp_path, capsys, monkeypatch, r, error
):
    def no_census(*args):
        raise AssertionError("a census ran")

    monkeypatch.setattr(altrank.counting, "count_alternating_by_rank", no_census)
    argv = ["count", "--n", "3", "--r", r, "--norm", "box", "--bounds", "1..6"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match=error):
        altrank.counting.fit_counting_exponent(3, int(r), range(1, 7), "box")


@pytest.mark.parametrize("argv", ["sha-dist --n -2 --r 0", "sha-dist --n -1 --r 1"])
def test_negative_sha_size_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, argv):
    # n(n-1)/2 entries is a positive count at n < 0, so only the size
    # check stops the draw
    def no_draw(*args):
        raise AssertionError("_alternating_upper ran")

    monkeypatch.setattr(altrank.model, "_alternating_upper", no_draw)
    assert main(argv.split() + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: dimension must be nonnegative\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["1/0", "abc"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_bad_calibration_exponent_is_named(tmp_path, capsys, value, source):
    args = ["simulate", "--curves-per-band", "10", "--out", str(tmp_path)]
    if source == "flag":
        args += ["--calibration-exponent", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"calibration_exponent = {value}\n")
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: calibration_exponent {value!r} is not a fraction\n"
    )
    left = [p.name for p in tmp_path.iterdir()]
    assert left == (["run.cfg"] if source == "config" else [])


@pytest.mark.parametrize(
    "command, args",
    [("sha-dist", ["--n", "2", "--x", "3"]), ("cl-dist", ["--n", "2", "--k", "5"])],
)
def test_prime_past_the_deterministic_range_exits_2(tmp_path, capsys, command, args):
    # psi_13 = 1287836182261 * 2575672364521 is a strong pseudoprime to
    # all thirteen bases 2..41 of is_prime
    # the refusal comes after --out is created; each directory made for
    # it, one level or two, is removed again
    psi = "3317044064679887385961981"
    for out in (tmp_path / "out", tmp_path / "new" / "deeper"):
        argv = [command, "--p", psi, "--samples", "5", "--out", str(out), *args]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: is_prime is exact only below {psi}, got {psi}\n"
        )
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []


def test_simulate_takes_the_model_keys_from_flags_and_config(tmp_path):
    model = {
        "eta_schedule": "constant",
        "eta_floor": "3",
        "calibration_exponent": "1/10",
    }
    base = ["simulate", "--h-grid", "1e6,1e8,1e10", "--curves-per-band", "30"]
    flags = [a for k, v in model.items() for a in ("--" + k.replace("_", "-"), v)]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in model.items()))
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    assert main(base + flags + ["--out", str(by_flag)]) == 0
    assert main(base + ["--config", str(cfg), "--out", str(by_file)]) == 0
    survey = (by_flag / "survey.csv").read_bytes()
    assert survey == (by_file / "survey.csv").read_bytes()
    for out in (by_flag, by_file):
        config = read_json(out / "survey_manifest.json")["config"]
        assert {k: str(config[k]) for k in model} == model
    # the default schedule draws other matrices
    assert main(base + ["--out", str(tmp_path / "default")]) == 0
    assert (tmp_path / "default" / "survey.csv").read_bytes() != survey


# ---------------------------------------------------------------------------
# config precedence


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nseed = 77\nsamples = 250\n")
    out = tmp_path / "out"
    rc = main(
        [
            "sha-dist",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--samples",
            "300",
            "--n",
            "2",
            "--x",
            "3",
        ]
    )
    assert rc == 0
    manifest = read_json(out / "sha_dist_manifest.json")
    assert manifest["seed"] == 77  # config file beats default
    assert manifest["config"]["samples"] == 300  # flag beats config file
    assert manifest["config"]["n"] == 2
    dist = read_json(out / "sha_dist.json")
    assert dist["total"] == 300


def test_print_config_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["print-config"])
    assert rc == 0
    text = capsys.readouterr().out
    assert text.splitlines()[:3] == ["out = None", "seed = 12345", "threads = 1"]
    assert (
        "# simulate defaults: calibration_exponent=1/12 "
        "curves_per_band=10000 eta_floor=2 eta_schedule=log3 "
        "h_grid=1000000,1000000000000,1000000000000000000\n"
    ) in text
    assert list(tmp_path.iterdir()) == []


def test_out_defaults_to_the_working_directory(tmp_path, monkeypatch):
    # no environment variable stands in for --out
    monkeypatch.setenv("ALTRANK_OUT", str(tmp_path / "env"))
    monkeypatch.chdir(tmp_path)
    assert main(["predicted-table", "--h-list", "1e10,1e11"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "predicted_table.csv",
        "predicted_table_manifest.json",
    ]


def test_simulate_has_no_chunk_flag_or_config_key(tmp_path, capsys, monkeypatch):
    # a band's chunks are CHUNK curves, a constant: argparse refuses the
    # flag (after its usage text) and the config file the key
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as refused:
        main(["simulate", "--chunk", "5"])
    assert refused.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert err[-1] == "altrank: error: unrecognized arguments: --chunk 5"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("chunk = 5\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: unknown config key 'chunk'"]
    assert list(tmp_path.iterdir()) == [cfg]


def test_simulate_has_no_x_min_flag_or_config_key(tmp_path, capsys, monkeypatch):
    # the entry bound comes from the schedule alone: argparse refuses the
    # flag, the config file the key, and ModelConfig the field
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as refused:
        main(["simulate", "--x-min", "3"])
    assert refused.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [err[-1]]
    assert err[-1] == "altrank: error: unrecognized arguments: --x-min 3"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("x_min = 3\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: unknown config key 'x_min'"]
    assert list(tmp_path.iterdir()) == [cfg]
    with pytest.raises(TypeError):
        altrank.settings.ModelConfig(x_min=3)


# ---------------------------------------------------------------------------
# command outputs


def test_predicted_table_command(tmp_path):
    rc = main(["predicted-table", "--out", str(tmp_path), "--h-list", "1e10,1e15"])
    assert rc == 0
    rows = read_csv(tmp_path / "predicted_table.csv")
    assert len(rows) == 2
    by_h = {int(r["h"]): r for r in rows}
    assert float(by_h[10**10]["rank0_pct"]) == pytest.approx(30.8, abs=0.1)
    assert float(by_h[10**15]["rank0_pct"]) == pytest.approx(38.1, abs=0.1)
    manifest = read_json(tmp_path / "predicted_table_manifest.json")
    for key in ("command", "claim", "version", "timestamp", "seed", "threads"):
        assert key in manifest
    assert "predicted_table.csv" in manifest["outputs"]


def test_count_command_census(tmp_path, monkeypatch):
    calls = []
    census = altrank.counting.count_alternating_by_rank

    def counted(*args):
        calls.append(args)
        return census(*args)

    # cmd_count looks the census up in altrank.counting when it runs
    monkeypatch.setattr(altrank.counting, "count_alternating_by_rank", counted)
    rc = main(
        [
            "count",
            "--out",
            str(tmp_path),
            "--n",
            "3",
            "--r",
            "2",
            "--norm",
            "l2",
            "--bounds",
            "2..5",
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "counts.csv")
    got = {int(r["bound"]): int(r["count"]) for r in rows}
    assert got == {2: 6, 3: 32, 4: 80, 5: 178}
    assert len(calls) == 4  # the fit reuses the census of each bound
    fit = read_json(tmp_path / "counts_fit.json")
    assert fit["target_slope"] == 3.0
    assert abs(fit["slope"] - 3.0) < 0.4


def test_sha_dist_output_fields(tmp_path):
    rc = main(
        [
            "sha-dist",
            "--out",
            str(tmp_path),
            "--n",
            "2",
            "--x",
            "3",
            "--samples",
            "400",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    dist = read_json(tmp_path / "sha_dist.json")
    assert dist["total"] == 400
    assert sum(dist["counts"].values()) == 400
    assert 0.0 <= dist["tv_distance_truncated"] <= 1.0
    assert 0.0 < dist["reference_sum"] <= 1.0 + 1e-9
    assert dist["reference"]["2:[]"] == pytest.approx(0.4194224417951076, abs=1e-12)
    assert "reference_note" in dist


def test_cl_dist_runs_small(tmp_path):
    rc = main(
        [
            "cl-dist",
            "--out",
            str(tmp_path),
            "--n",
            "4",
            "--k",
            "6",
            "--samples",
            "300",
        ]
    )
    assert rc == 0
    dist = read_json(tmp_path / "cl_dist.json")
    assert dist["total"] == 300
    # reference column is the limiting law, not the finite-n probability
    assert dist["reference"]["2:[]"] == pytest.approx(0.2887880950866024, abs=1e-11)


def test_period_scan_command(tmp_path):
    rc = main(
        [
            "period-scan",
            "--out",
            str(tmp_path),
            "--h-min",
            "1e4",
            "--h-max",
            "1e6",
            "--samples",
            "120",
        ]
    )
    assert rc == 0
    rows = read_csv(tmp_path / "period_scan.csv")
    assert len(rows) == 120
    summary = read_json(tmp_path / "period_scan_summary.json")
    assert summary["samples"] == 120
    assert summary["normalized"]["min"] > 0


# ---------------------------------------------------------------------------
# determinism


def test_sha_dist_byte_identical_reruns(tmp_path):
    args = ["--n", "4", "--x", "5", "--samples", "500", "--seed", "31"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sha-dist", "--out", str(a)] + args) == 0
    assert main(["sha-dist", "--out", str(b)] + args) == 0
    assert (a / "sha_dist.json").read_bytes() == (b / "sha_dist.json").read_bytes()


def test_sha_dist_methods_write_the_same_table(tmp_path):
    # both --method values run one route; only meta.method tells them apart
    args = ["--n", "5", "--x", "2", "--r", "1", "--p", "3", "--samples", "300"]
    texts = {}
    for method in ("exact", "mod"):
        out = tmp_path / method
        assert main(["sha-dist", "--out", str(out), "--method", method] + args) == 0
        texts[method] = (out / "sha_dist.json").read_text()
    assert '"method": "exact"' in texts["exact"]
    assert texts["mod"] == texts["exact"].replace(
        '"method": "exact"', '"method": "mod"'
    )


def test_cl_dist_byte_identical_across_hash_seeds(tmp_path):
    args = ["--n", "8", "--p", "2", "--k", "8", "--samples", "300", "--seed", "1"]
    outs = []
    for hash_seed in ("0", "3"):
        out = tmp_path / hash_seed
        proc = run_cli(["cl-dist", "--out", str(out)] + args, 120, hash_seed)
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "cl_dist.json").read_bytes())
    assert outs[0] == outs[1]


# each run makes at least 2 chunks: simulate 3 per band of 200 curves
# (altrank.model.CHUNK patched), the others 2 of SAMPLE_CHUNK = 2500 samples
THREADS_RUNS = {
    "simulate": ["--h-grid", "1e6,1e8,1e10", "--curves-per-band", "600"],
    "sha-dist": ["--n", "4", "--x", "5", "--samples", "2600"],
    "cl-dist": ["--n", "4", "--k", "6", "--samples", "2600"],
    "period-scan": ["--h-min", "1e4", "--h-max", "1e8", "--samples", "2600"],
}


@pytest.mark.parametrize("command", sorted(THREADS_RUNS))
def test_byte_identical_across_threads(tmp_path, monkeypatch, command):
    monkeypatch.setattr(altrank.model, "CHUNK", 200)
    args = [command, *THREADS_RUNS[command], "--seed", "99"]
    a, b = tmp_path / "t1", tmp_path / "t2"
    assert main(args + ["--out", str(a), "--threads", "1"]) == 0
    assert main(args + ["--out", str(b), "--threads", "2"]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    manifest = next(name for name in names if name.endswith("_manifest.json"))
    for name in names:
        if name != manifest:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    if command == "simulate":
        assert b"#fit" in (a / "survey.csv").read_bytes()
    man_a = read_json(a / manifest)
    man_b = read_json(b / manifest)
    assert man_a["threads"] == 1 and man_b["threads"] == 2
    drop = {"timestamp", "threads", "config"}
    assert {k: v for k, v in man_a.items() if k not in drop} == {
        k: v for k, v in man_b.items() if k not in drop
    }


# sha256 of each output of one small run per data command (manifests,
# which hold a timestamp, apart), simulate's in chunks of 100 curves
# (altrank.model.CHUNK patched).  A change that alters any output byte
# must say so and update the hash.
GOLDEN_RUNS = {
    "simulate": (
        ["--h-grid", "1e6,1e9,1e12", "--curves-per-band", "300", "--seed", "11"],
        {"survey.csv": "658b4502a489e6725d2c45241494ef65fb1a0deb66152668123c266ef1d3f8af"},
    ),
    "sha-dist": (
        ["--n", "6", "--x", "20", "--r", "0", "--p", "2", "--samples", "300", "--seed", "11"],
        {"sha_dist.json": "60ce1f3195ce9a15d24bcda6331d300df20556f34e613925afcf15113d70228a"},
    ),
    "cl-dist": (
        ["--n", "5", "--p", "3", "--k", "5", "--samples", "300", "--seed", "11"],
        {"cl_dist.json": "c7f6017ec126cb8d15cf1c44870ae3e9911f6ab2668544830a10afedc7fafc11"},
    ),
    "count": (
        ["--n", "3", "--r", "2", "--norm", "box", "--bounds", "1..5"],
        {
            "counts.csv": "ef316f2ae31217fcaccd6bfc64c3b1e4e99e9aedf660bc94c8fd651d45b29d7e",
            "counts_fit.json": "b6c260bb7d00372eec76279466e827e801ac85f082ce52b7e9e2bac667c7f8a2",
        },
    ),
    "period-scan": (
        ["--h-min", "1e4", "--h-max", "1e8", "--samples", "100", "--seed", "11"],
        {
            "period_scan.csv": "f42968d73463653c61b835a944196f0a7a4732cb719753c44ab0136a6aca110f",
            "period_scan_summary.json": "92707139487f003027a138ef4c62196bafb358236b1ccf7387c5baa9030788a0",
        },
    ),
    "predicted-table": (
        ["--h-list", "1e10,1e20,1e30"],
        {"predicted_table.csv": "00373f75343ebc31173b30d5ca767030c4ac07fa348b8628682e5ff69649cb30"},
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_RUNS))
def test_outputs_match_golden_bytes(tmp_path, monkeypatch, command):
    monkeypatch.setattr(altrank.model, "CHUNK", 100)
    args, want = GOLDEN_RUNS[command]
    assert main([command, *args, "--out", str(tmp_path)]) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
        if not p.name.endswith("_manifest.json")
    }
    assert got == want


# ---------------------------------------------------------------------------
# verify suites


@pytest.mark.parametrize("suite", ["table", "lattice"])
def test_verify_suites_pass(tmp_path, capsys, suite):
    # only lattice reads --samples; table refuses it
    extra = ["--samples", "60"] if suite == "lattice" else []
    rc = main(["verify", suite, "--out", str(tmp_path), *extra])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out
    report = read_json(tmp_path / f"verify_{suite}.json")
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_snf_thinned(tmp_path, capsys):
    rc = main(["verify", "snf", "--out", str(tmp_path), "--stride", "4001"])
    assert rc == 0
    report = read_json(tmp_path / "verify_snf.json")
    assert report["passed"] is True


def test_suite_table_names_the_functions_of_verify():
    # cmd_verify runs altrank.verify.<suite>; the module's public
    # functions are exactly the suites of settings._SUITES
    suites = {
        name
        for name, obj in vars(altrank.verify).items()
        if callable(obj)
        and not name.startswith("_")
        and getattr(obj, "__module__", None) == altrank.verify.__name__
    }
    assert suites == set(altrank.settings._SUITES)


def test_verify_fails_a_check_that_examined_nothing(tmp_path, capsys, monkeypatch):
    # with every determinant 0 the quotient oracle examines no matrix,
    # and a check that ran on nothing must not pass
    monkeypatch.setattr(altrank.verify, "determinant", lambda m: 0)
    rc = main(["verify", "snf", "--out", str(tmp_path), "--stride", "4001"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL quotient-enumeration-oracle: 0/0 " in out
    report = read_json(tmp_path / "verify_snf.json")
    assert report["passed"] is False


def test_verify_period_suite(tmp_path, capsys):
    rc = main(["verify", "period", "--out", str(tmp_path)])
    assert rc == 0
    report = read_json(tmp_path / "verify_period.json")
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "agm-vs-quadrature",
        "scaling-covariance",
        "normalized-period-band",
    }
    assert report["passed"] is True
