"""The CLI's input contract, as a property of `main` over argv drawn from
the command table: whatever the flags and config file say, a run exits
0, 1 or 2, never with a traceback, and exit 2 prints one `error:` line
and leaves nothing under --out.

Values are small, so each run takes well under a second: the valid ones
run quickly, and the out-of-range and malformed ones are refused or run
as quickly.  --threads is drawn from {1, 2} only.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from altrank.cli import main
from altrank.settings import _COMMANDS, _GLOBAL_DEFAULTS, _SUITES

# (valid values, out-of-range values) per command and key; every key of a
# command is listed, so a new key must be given small values here
_VALUES = {
    "simulate": {
        "h_grid": (
            ["1e4,1e6,1e8", "200,1e3,1e4", "1e100,1e101,1e102"],
            ["1e6", "1e8,1e6,1e9", "50,1e6,1e8", "1e400,1e401,1e402", "100,101,102"],
        ),
        "curves_per_band": (["1", "3", "5"], ["0", "-3"]),
        "eta_schedule": (["log3", "constant"], ["log2"]),
        "eta_floor": (["1", "2", "4"], ["0", "-1", "64", "300"]),
        "calibration_exponent": (
            ["1/12", "1/6", "5/36", "1e-1", "1000/999"],
            ["0", "-1", "1/0", "1/1000000000", "12345/7", "1000", "1e-100000000"],
        ),
    },
    "sha-dist": {
        # the draw budget refuses 300 at r = 0 and 301 at r = 1
        "n": (["0", "1", "2", "3", "4"], ["-1", "-2", "5", "101", "300", "301"]),
        "x": (["1", "2", "5"], ["0", "-1"]),
        "r": (["0", "1"], ["-1", "2"]),
        "p": (["2", "3", "7"], ["0", "1", "4", "-3", "3317044064679887385961981"]),
        "samples": (["1", "5", "10"], ["0", "-1"]),
        "method": (["exact", "mod"], ["bogus"]),
    },
    "cl-dist": {
        "n": (["0", "1", "3", "4"], ["-1", "101", "300"]),
        "p": (["2", "3", "5"], ["1", "4", "-2"]),
        "k": (["5", "6", "8"], ["4", "0", "-1", "9975", "1e6"]),
        "samples": (["1", "5", "10"], ["0", "-1"]),
    },
    "count": {
        "n": (["2", "3"], ["0", "1", "-1", "40"]),
        "r": (["0", "1", "2", "3"], ["-1", "9"]),
        "norm": (["box", "l2"], ["linf"]),
        "bounds": (
            ["1..5", "2..6", "1,2,3,4"],
            ["5..2", "0..5", "1..2", "-3..3", "1e10..1e15"],
        ),
    },
    "verify": {
        "samples": (["1", "3"], ["0", "-4"]),
        # stride 7 would check a seventh of the 5**9 matrices, for minutes
        "stride": (["1e5", "1e9", "1e30"], ["0", "-1"]),
    },
    "period-scan": {
        # from h_min 200 the scan reaches the empty bands of caps 216-242
        "h_min": (["1e4", "250"], ["0", "-5", "1", "200"]),
        "h_max": (["1e6", "1e10"], ["1e320", "0", "50"]),
        "samples": (["100", "120"], ["5", "0", "-1"]),
    },
    "predicted-table": {
        "h_list": (["1e10", "2..5", "1e10,1e12,1e300"], ["1", "0,5", "-3", "5..2"]),
    },
}

_GLOBAL_VALUES = {
    "seed": (["0", "7", "1e20", "-5", "18446744073709551616"], ["1e5000"]),
    "threads": (["1", "2"], ["0", "-1"]),
}

# strings no integer or list key reads
_MALFORMED = ["x", "1.5", "", "1e", "nan", "1/2", "0x10", "1..", ","]

# keys whose flag has argparse choices: a flag gives only a valid value,
# since argparse refuses the rest with its own usage message
_CHOICE_KEYS = {"method", "norm"}


def test_value_table_covers_every_key():
    assert {name: set(keys) for name, keys in _VALUES.items()} == {
        name: set(command.defaults) for name, command in _COMMANDS.items()
    }
    assert set(_GLOBAL_VALUES) | {"out"} == set(_GLOBAL_DEFAULTS)


@st.composite
def invocations(draw):
    """(argv without --out and --config, config file lines)."""
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["print-config"]))
    argv = [command]
    table = {**_GLOBAL_VALUES, **_VALUES.get(command, {})}
    keys = list(table)
    if command == "verify":
        # snf takes about 1 s even at its smallest, for its fixed
        # exhaustive part of 15625 cokernel calls, so it is drawn rarely
        suite = draw(st.sampled_from(["snf"] + ["lattice", "period", "table"] * 6))
        argv.append(suite)
        keys = [k for k in keys if k in _GLOBAL_VALUES or k in _SUITES[suite].reads]
    # at most two keys get an out-of-range or malformed value
    faulty = draw(st.sets(st.sampled_from(keys), max_size=2))
    flags, lines = [], []
    # every key is given, since some defaults run for seconds
    for key in keys:
        valid, bad = table[key]
        pool = valid if key not in faulty else draw(st.sampled_from([bad, _MALFORMED]))
        value = flag_value = draw(st.sampled_from(pool))
        if key in _CHOICE_KEYS:
            flag_value = draw(st.sampled_from(table[key][0]))
        # from a flag, the config file, or both (where the flag wins)
        where = draw(st.sampled_from(["flag", "config", "both"]))
        if where != "config":
            flags.append(f"--{key.replace('_', '-')}={flag_value}")
        if where != "flag":
            lines.append(f"{key} = {value}")
    # now and then a line the command does not read, or cannot parse
    extras = ["volume = 11", "samples = 5", "k = 3", "eta_floor = 5", "no equals sign"]
    extra = draw(st.sampled_from([None] * 6 + extras))
    if extra:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return argv + flags, lines


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(invocations(), st.booleans())
# inputs inside every per-key bound that a single draw budget refuses
@example(("cl-dist --n 100 --k 9974 --samples 1".split(), []), False)
@example(
    (
        "simulate --eta-schedule constant --eta-floor 63 --calibration-exponent 1000 "
        "--h-grid 1e4,1e6,1e8 --curves-per-band 1".split(),
        [],
    ),
    False,
)
@example(("sha-dist --n 60 --x 1e4000 --samples 3000".split(), []), False)
def test_every_run_keeps_the_exit_contract(invocation, out_exists):
    argv, lines = invocation
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if out_exists:
            out.mkdir()
        args = argv + ["--out", str(out)]
        if lines:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("".join(line + "\n" for line in lines))
            args += ["--config", str(cfg)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        err = stderr.getvalue()
        assert code in (0, 1, 2), args
        assert "Traceback" not in err
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error:"), (args, err)
            left = os.listdir(out) if out.exists() else None
            assert left == ([] if out_exists else None), (args, left)
