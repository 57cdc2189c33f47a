"""Start-up cost: a CLI run imports only the modules its command uses,
and a process pool starts no more workers than there are chunks."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altrank
from altrank.parallel import map_chunks

SRC_DIR = str(Path(altrank.__file__).resolve().parent.parent)

# every name `altrank` exports, pinned
EXPORTED = """
AbelianPGroup AlternatingMatrix CapExceededError CokernelStructure CountFit
CurveParams EmpiricalDistribution Estimate FitResult IntegerMatrix
LatticeBasis MeasureValue ModelConfig ModelDraw ModelParams PeriodResult
RankHistogram SmithDecomposition SurveyRecord SymplecticPGroup
UnsupportedSizeError alternating_square_cyclic_density aut_order
build_wedge_basis check_det_identity check_inner_product_identity cl_measure
cokernel cokernel_p_part count_alternating_by_rank count_curves_exact
curve_height delaunay_measure determinant discriminant divisors_from_minors
draw_model empirical_cl_distribution empirical_corank_prob
empirical_sha_distribution empirical_square_cyclic_fraction exponent_fit
factorize fit_counting_exponent gram_det group_label iroot is_prime
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


SUBMODULES = {"altrank.counting", "altrank.periods", "altrank.verify"}

# (argv, modules the run must not load, modules it must load)
LOAD_CASES = [
    (
        ["simulate", "--h-grid", "1e6,1e8,1e10", "--curves-per-band", "20"],
        SUBMODULES,
        {"altrank.model"},
    ),
    (
        ["cl-dist", "--n", "4", "--k", "6", "--samples", "5"],
        SUBMODULES,
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


def test_import_altrank_loads_no_submodule():
    loaded = child_modules("import altrank")
    assert {m for m in loaded if m.startswith("altrank.")} == set()


def test_every_exported_name_resolves_lazily():
    assert sorted(EXPORTED) == altrank.__all__
    for name in EXPORTED:
        assert getattr(altrank, name) is not None
        assert name in dir(altrank)
    assert altrank.parallel.map_chunks is map_chunks
    with pytest.raises(AttributeError):
        altrank.no_such_name


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
