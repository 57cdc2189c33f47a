"""Start-up cost: a CLI run imports only the modules its command uses,
`print-config`, `--help` and a refused setting load none of the sampling
modules, a run needs no package outside the standard library, and a
process pool starts no more workers than there are chunks, and none for
a refused input."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altrank
from altrank.cli import main
from altrank.parallel import map_chunks

SRC_DIR = str(Path(altrank.__file__).resolve().parent.parent)

# every name `altrank` exports, pinned
EXPORTED = """
AbelianPGroup AlternatingMatrix CapExceededError CokernelStructure CountFit
CurveParams EmpiricalDistribution Estimate FitResult IntegerMatrix
LatticeBasis MeasureValue ModelConfig ModelDraw ModelParams PeriodResult
RankHistogram SmithDecomposition SurveyRecord SymplecticPGroup
alternating_square_cyclic_density aut_order
build_wedge_basis check_det_identity check_inner_product_identity cl_measure
cokernel count_alternating_by_rank count_curves_exact
curve_height delaunay_measure determinant discriminant divisors_from_minors
draw_model empirical_cl_distribution empirical_corank_prob
empirical_sha_distribution empirical_square_cyclic_fraction exponent_fit
factorize finite_cl_law fit_counting_exponent gram_det group_label iroot is_prime
is_square_of_cyclic is_valid_curve kernel_rank model_params partitions_up_to
period_bound_scan pfaffian predicted_table primes_up_to rank rank_survey
real_period real_period_quadrature sample_alternating sample_curve_in_band
schedule_eta schedule_x smith_divisors smith_normal_form symplectic_aut_order
symplectic_support torsion_label
""".split()

# loaded by no command that does not use them
HEAVY = {
    "dataclasses",
    "hashlib",
    "altrank.counting",
    "altrank.periods",
    "altrank.verify",
}


def child_modules(code):
    """sorted(sys.modules) of a fresh interpreter after running `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    script = code + "\nimport sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", "import json\n" + script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_runs_load_no_unused_module(tmp_path):
    bare = child_modules("pass")
    run = child_modules(
        "import contextlib, io\n"
        "from altrank.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['print-config']) == 0\n"
        f"assert main(['sha-dist', '--samples', '1', '--out', {str(tmp_path)!r}]) == 0"
    )
    assert "altrank.model" in run
    assert (run - bare) & HEAVY == set()
    assert (tmp_path / "sha_dist.json").exists()


def run_altrank(*argv):
    """(exit code, stdout, stderr lines, altrank modules imported) of a
    fresh `python -X importtime -m altrank argv`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "altrank", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    err, loaded = [], set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rpartition("|")[2].strip()
            if name.partition(".")[0] == "altrank":
                loaded.add(name)
        else:
            err.append(line)
    return proc.returncode, proc.stdout, err, loaded


# what `python -m altrank` loads before a command's settings are resolved
FRONT_END = {"altrank", "altrank.frozen", "altrank.settings"}

# the stdout of `print-config` without a config file
PRINT_CONFIG = """\
out = None
seed = 12345
threads = 1
# cl-dist defaults: k=8 n=8 p=2 samples=100000
# count defaults: bounds=5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20 n=3 norm=l2 r=2
# period-scan defaults: h_max=10000000000 h_min=10000 samples=1000
# predicted-table defaults: h_list=10000000000,100000000000,1000000000000,10000000000000,100000000000000,1000000000000000
# sha-dist defaults: method=exact n=10 p=2 r=0 samples=10000 x=10000
# simulate defaults: calibration_exponent=1/12 curves_per_band=10000 eta_floor=2 eta_schedule=log3 h_grid=1000000,1000000000000,1000000000000000000
# verify defaults: samples=1000 stride=211
"""


def test_print_config_loads_only_the_front_end():
    code, out, err, loaded = run_altrank("print-config")
    assert (code, err) == (0, [])
    assert out == PRINT_CONFIG
    assert loaded == FRONT_END


# each exits before any command runs: argparse prints help and exits 0,
# or refuses a flag; _resolve_settings refuses a setting
@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["sha-dist", "--help"], 0),
        (["sha-dist", "--method", "bogus"], 2),
        (["sha-dist", "--n", "x"], 2),
        (["simulate", "--threads", "0"], 2),
        (["simulate", "--config", "{cfg}"], 2),
        (["simulate", "--chunk", "5"], 2),
    ],
    ids=[
        "help",
        "command-help",
        "bad-choice",
        "bad-integer",
        "bad-threads",
        "refused-config-key",
        "unknown-flag",
    ],
)
def test_parse_time_exits_load_only_the_front_end(tmp_path, argv, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 3\n")  # a key of cl-dist, which simulate does not read
    got, out, err, loaded = run_altrank(*(a.format(cfg=cfg) for a in argv))
    assert got == code
    if code == 0:
        assert out.startswith("usage: altrank") and err == []
    else:
        assert out == "" and "error:" in err[-1]
    assert loaded == FRONT_END
    assert list(tmp_path.iterdir()) == [cfg]


def test_sampling_run_adds_only_the_front_end(tmp_path):
    # past the front end, sha-dist loads the harness and what it samples with
    code, _, err, loaded = run_altrank(
        "sha-dist", "--samples", "1", "--out", str(tmp_path)
    )
    assert (code, err) == (0, [])
    assert loaded - FRONT_END == {
        "altrank.cli",
        "altrank.fitting",
        "altrank.groups",
        "altrank.linalg",
        "altrank.model",
        "altrank.parallel",
        "altrank.primes",
    }
    assert (tmp_path / "sha_dist.json").exists()


SUBMODULES = {"altrank.counting", "altrank.periods", "altrank.verify"}

# (argv, modules the run must not load, modules it must load)
# chunk seeds come from the builtin SHA-256 module: hashlib would load
# OpenSSL, about 3.6 MB of peak RSS
LOAD_CASES = [
    (
        ["simulate", "--h-grid", "1e6,1e8,1e10", "--curves-per-band", "20"],
        SUBMODULES | {"hashlib"},
        {"altrank.model"},
    ),
    (
        ["cl-dist", "--n", "4", "--k", "6", "--samples", "5"],
        SUBMODULES | {"hashlib"},
        {"altrank.model"},
    ),
    # periods no longer imports counting
    (["verify", "period"], {"altrank.counting"}, {"altrank.verify", "altrank.periods"}),
    (["verify", "table"], {"altrank.counting", "altrank.periods"}, {"altrank.verify"}),
]


@pytest.mark.parametrize(
    "argv, absent, present",
    LOAD_CASES,
    ids=["simulate", "cl-dist", "verify-period", "verify-table"],
)
def test_command_loads_only_what_it_runs(tmp_path, argv, absent, present):
    run = child_modules(
        "from altrank.cli import main\n"
        f"assert main({argv + ['--out', str(tmp_path)]!r}) == 0"
    )
    assert run & absent == set()
    assert present <= run


def test_square_cyclic_sampler_loads_no_census():
    # criterion 4's sampler needs no exact census, so not altrank.counting
    run = child_modules(
        "from random import Random\n"
        "from altrank.model import empirical_square_cyclic_fraction\n"
        "est = empirical_square_cyclic_fraction(4, 2, 50, Random(1))\n"
        "assert 0 <= est.value <= 1 and type(est).__module__ == 'altrank.model'"
    )
    assert "altrank.model" in run
    assert "altrank.counting" not in run


def test_fractions_loads_decimal():
    # settings reads numbers through decimal at no start-up cost only
    # because fractions, which it imports, loads it; if it stops doing
    # so, this fails rather than setup_s rising unnoticed
    assert "decimal" in child_modules("from fractions import Fraction")


def test_groups_loads_no_linalg():
    # the brute-force automorphism count, which runs linalg's mod-p
    # kernel, is an oracle in tests/test_groups.py, not in groups
    assert "altrank.linalg" not in child_modules("import altrank.groups")


def test_import_altrank_loads_no_submodule():
    loaded = child_modules("import altrank")
    assert {m for m in loaded if m.startswith("altrank.")} == set()


def test_every_exported_name_resolves_lazily():
    assert sorted(EXPORTED) == altrank.__all__
    for name in EXPORTED:
        assert getattr(altrank, name) is not None
        assert name in dir(altrank)
    assert altrank.parallel.map_chunks is map_chunks
    assert altrank.model.ModelConfig is altrank.ModelConfig
    with pytest.raises(AttributeError):
        altrank.no_such_name


# makes numpy and scipy unimportable in a child, as where neither is installed
BLOCK_NUMPY_SCIPY = """
import sys


class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, Blocker())
"""


def test_periods_run_without_numpy_or_scipy(tmp_path):
    # the period cross-check, a scan at the top of the height range (as
    # CI's stdlib-only step runs them) and the quadrature on a curve of
    # test_periods.NEAR_SINGULAR; tests/test_periods.py runs in full in
    # the main process
    verify, scan = str(tmp_path / "vp"), str(tmp_path / "ps")
    run = child_modules(
        BLOCK_NUMPY_SCIPY + "import pytest\n"
        "with pytest.raises(ImportError):\n"
        "    import scipy.integrate\n"
        "from altrank.cli import main\n"
        f"assert main(['verify', 'period', '--out', {verify!r}]) == 0\n"
        "argv = ['period-scan', '--h-min', '1e300', '--h-max', '1.7e308', '--samples', '100']\n"
        f"assert main(argv + ['--out', {scan!r}]) == 0\n"
        "from altrank.periods import real_period, real_period_quadrature\n"
        "a4, a6 = -3 * 10**12, -(2 * 10**18 + 1)\n"
        "agm = real_period(a4, a6)\n"
        "assert abs(real_period_quadrature(a4, a6) - agm.omega) <= 1e-12 * agm.omega + agm.est_error"
    )
    assert "altrank.periods" in run
    assert {m.partition(".")[0] for m in run} & {"numpy", "scipy"} == set()
    assert json.loads((tmp_path / "vp" / "verify_period.json").read_text())["passed"]
    assert (tmp_path / "ps" / "period_scan_summary.json").exists()


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, specs):
        return map(fn, specs)


@pytest.mark.parametrize("threads, chunks", [(32, 3), (2, 5), (4, 4)])
def test_pool_starts_at_most_one_worker_per_chunk(monkeypatch, threads, chunks):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert map_chunks(abs, range(-chunks, 0), threads) == list(range(chunks, 0, -1))
    assert RecordingPool.sizes == [min(threads, chunks)]


# each would run in 3 chunks, so at --threads 2 a pool would start
@pytest.mark.parametrize(
    "argv",
    [
        "sha-dist --p 4 --samples 5001",
        "cl-dist --n 3000 --samples 5001",
        "period-scan --h-min 100 --h-max 200 --samples 5001",
    ],
    ids=["sha-dist", "cl-dist", "period-scan"],
)
def test_refused_input_starts_no_pool(monkeypatch, capsys, tmp_path, argv):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert main([*argv.split(), "--threads", "2", "--out", str(tmp_path)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert RecordingPool.sizes == []
