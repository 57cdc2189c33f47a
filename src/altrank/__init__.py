"""Simulation laboratory for the alternating-matrix heuristic: exact
integer linear algebra, group measures, calibrated height sampling,
rank/Sha statistics, counting experiments, and real-period checks.

`import altrank` loads no submodule: each exported name is imported
from its submodule on first access (PEP 562), so a CLI run pays only
for the modules its command uses.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "counting": (
        "CapExceededError",
        "CountFit",
        "LatticeBasis",
        "RankHistogram",
        "build_wedge_basis",
        "check_det_identity",
        "check_inner_product_identity",
        "count_alternating_by_rank",
        "fit_counting_exponent",
        "gram_det",
    ),
    "fitting": ("FitResult", "exponent_fit"),
    "groups": (
        "AbelianPGroup",
        "MeasureValue",
        "SymplecticPGroup",
        "UnsupportedSizeError",
        "alternating_square_cyclic_density",
        "aut_order",
        "cl_measure",
        "delaunay_measure",
        "group_label",
        "partitions_up_to",
        "symplectic_aut_order",
        "symplectic_support",
    ),
    "linalg": (
        "AlternatingMatrix",
        "CokernelStructure",
        "IntegerMatrix",
        "SmithDecomposition",
        "cokernel",
        "cokernel_p_part",
        "determinant",
        "divisors_from_minors",
        "kernel_rank",
        "pfaffian",
        "rank",
        "smith_divisors",
        "smith_normal_form",
    ),
    "model": (
        "CurveParams",
        "EmpiricalDistribution",
        "Estimate",
        "ModelConfig",
        "ModelDraw",
        "ModelParams",
        "SurveyRecord",
        "count_curves_exact",
        "curve_height",
        "draw_model",
        "empirical_cl_distribution",
        "empirical_corank_prob",
        "empirical_sha_distribution",
        "empirical_square_cyclic_fraction",
        "is_square_of_cyclic",
        "is_valid_curve",
        "model_params",
        "predicted_table",
        "rank_survey",
        "sample_alternating",
        "sample_curve_in_band",
        "schedule_eta",
        "schedule_x",
        "torsion_label",
    ),
    "periods": (
        "PeriodResult",
        "discriminant",
        "period_bound_scan",
        "real_period",
        "real_period_quadrature",
    ),
    "parallel": (),  # reachable as `altrank.parallel`, as before
    "primes": ("factorize", "iroot", "is_prime", "primes_up_to"),
}

_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    from importlib import import_module

    module = _SUBMODULE.get(name)
    if module is None:
        # a submodule not yet imported, such as `altrank.model`
        if name in _EXPORTS:
            return import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
