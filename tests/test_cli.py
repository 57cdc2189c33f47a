import argparse
import csv
import hashlib
import json
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
import altrank.verify
from altrank.cli import main, parse_exact_int, parse_int_list

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
        ("--x-min", "x_min", None),
        ("--calibration-exponent", "calibration_exponent", None),
        ("--chunk", "chunk", None),
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


def test_parser_surface_is_pinned():
    parser = altrank.cli._build_parser()
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
    # Force the first box draw to a4 = 0, a6 = b_max = isqrt(1e80 // 27),
    # whose 6th root is past MAX_TRIAL_DIVISOR with no 6th-power factor
    # below it: the validity test refuses the curve and the run exits 2.
    spans = []

    def draws(rng, span):
        # bodies run at the first draw: the a4 iterator's, then a6's
        spans.append(span)
        value = span // 2 if len(spans) == 1 else span - 1
        while True:
            yield value

    monkeypatch.setattr(altrank.model, "_draws", draws)
    rc = main(["simulate", "--h-grid", "1e80,1e81,1e82", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "MAX_TRIAL_DIVISOR" in err
    assert len(spans) == 2
    assert list(tmp_path.iterdir()) == []


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
        (["sha-dist"], ["chunk = 5", "eta_schedule = constant"]),
        (["cl-dist"], ["eta_schedule = constant"]),
        (["count"], ["x_min = 0", "calibration_exponent = -3"]),
        (["verify", "table"], ["calibration_exponent = 1/6"]),
        (["period-scan"], ["eta_floor = 3"]),
        (["predicted-table"], ["chunk = 5"]),
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
    cfg.write_text("k = 3\nstride = 5\nchunk = 7\nthreads = 7\n")
    assert main(["print-config", "--config", str(cfg)]) == 0
    assert "threads = 7\n" in capsys.readouterr().out


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
    psi = "3317044064679887385961981"
    out = tmp_path / "out"
    argv = [command, "--p", psi, "--samples", "5", "--out", str(out), *args]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: is_prime is exact only below {psi}, got {psi}\n"
    )
    assert list(out.iterdir()) == []


def test_simulate_takes_the_model_keys_from_flags_and_config(tmp_path):
    model = {
        "eta_schedule": "constant",
        "eta_floor": "3",
        "x_min": "3",
        "calibration_exponent": "1/10",
        "chunk": "7",
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
        "# simulate defaults: calibration_exponent=1/12 chunk=20000 "
        "curves_per_band=10000 eta_floor=2 eta_schedule=log3 "
        "h_grid=1000000,1000000000000,1000000000000000000 x_min=2\n"
    ) in text
    assert list(tmp_path.iterdir()) == []


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


def test_simulate_byte_identical_across_threads(tmp_path):
    args = [
        "--h-grid",
        "1e6,1e8,1e10",
        "--curves-per-band",
        "600",
        "--chunk",
        "200",
        "--seed",
        "99",
    ]
    a, b = tmp_path / "t1", tmp_path / "t2"
    assert main(["simulate", "--out", str(a), "--threads", "1"] + args) == 0
    assert main(["simulate", "--out", str(b), "--threads", "2"] + args) == 0
    survey_a = (a / "survey.csv").read_bytes()
    assert survey_a == (b / "survey.csv").read_bytes()
    assert b"#fit" in survey_a
    man_a = read_json(a / "survey_manifest.json")
    man_b = read_json(b / "survey_manifest.json")
    assert man_a["threads"] == 1 and man_b["threads"] == 2
    drop = {"timestamp", "threads", "config"}
    assert {k: v for k, v in man_a.items() if k not in drop} == {
        k: v for k, v in man_b.items() if k not in drop
    }


# sha256 of each output of one small run per data command (manifests,
# which hold a timestamp, apart).  A change that alters any output byte
# must say so and update the hash.
GOLDEN_RUNS = {
    "simulate": (
        ["--h-grid", "1e6,1e9,1e12", "--curves-per-band", "300", "--chunk", "100", "--seed", "11"],
        {"survey.csv": "e1341d5eb853f45a3dabb3291a5e655048d51562033fa645cbc6dd8e0ebcf1dc"},
    ),
    "sha-dist": (
        ["--n", "6", "--x", "20", "--r", "0", "--p", "2", "--samples", "300", "--seed", "11"],
        {"sha_dist.json": "0c59f37c27df5a2d9d8bd55e88579de72ad97e394f454bb4578e7f891dd3e2f9"},
    ),
    "cl-dist": (
        ["--n", "5", "--p", "3", "--k", "5", "--samples", "300", "--seed", "11"],
        {"cl_dist.json": "59192f45238fddb4475db4b2f31fa195caba8dc94aaca30caa2d6bd78861e8c4"},
    ),
    "count": (
        ["--n", "3", "--r", "2", "--norm", "box", "--bounds", "1..5"],
        {
            "counts.csv": "ef316f2ae31217fcaccd6bfc64c3b1e4e99e9aedf660bc94c8fd651d45b29d7e",
            "counts_fit.json": "be17efbe1318405248fd86700f0afc2c29dcd92477b17e8aa43671831cbd9920",
        },
    ),
    "period-scan": (
        ["--h-min", "1e4", "--h-max", "1e8", "--samples", "100", "--seed", "11"],
        {
            "period_scan.csv": "ba8496fe6fe564eb681cc3a9ce7c492ffc959a77840a1bade871f108b1808c7d",
            "period_scan_summary.json": "a87c0687345407a19861c54354f4986d3ca135bf88fbcb2516210e96a51994e0",
        },
    ),
    "predicted-table": (
        ["--h-list", "1e10,1e20,1e30"],
        {"predicted_table.csv": "00373f75343ebc31173b30d5ca767030c4ac07fa348b8628682e5ff69649cb30"},
    ),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_RUNS))
def test_outputs_match_golden_bytes(tmp_path, command):
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
    # functions are exactly the suites of cli._SUITES
    suites = {
        name
        for name, obj in vars(altrank.verify).items()
        if callable(obj)
        and not name.startswith("_")
        and getattr(obj, "__module__", None) == altrank.verify.__name__
    }
    assert suites == set(altrank.cli._SUITES)


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
