import math
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import altrank.counting
from altrank.counting import (
    CapExceededError,
    LatticeBasis,
    RankHistogram,
    build_wedge_basis,
    census_cells,
    check_det_identity,
    check_inner_product_identity,
    count_alternating_by_rank,
    fit_counting_exponent,
    gram_det,
)
from altrank.fitting import exponent_fit
from altrank.linalg import AlternatingMatrix, kernel_rank


def brute_box_histogram(n, bound):
    m = n * (n - 1) // 2
    counts = {}
    for upper in product(range(-bound, bound + 1), repeat=m):
        a = AlternatingMatrix(n, upper)
        r = n - kernel_rank(a)
        counts[r] = counts.get(r, 0) + 1
    return counts


def brute_l2_histogram(n, t):
    # strict l2 bound: 2 * sum of squares <= t^2 - 1
    m = n * (n - 1) // 2
    budget = (t * t - 1) // 2
    amax = math.isqrt(budget)
    counts = {}
    for upper in product(range(-amax, amax + 1), repeat=m):
        if sum(v * v for v in upper) <= budget:
            a = AlternatingMatrix(n, upper)
            r = n - kernel_rank(a)
            counts[r] = counts.get(r, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# exponent_fit


def test_exponent_fit_recovers_exact_power_law():
    fit = exponent_fit([(x, 3.0 * x**2) for x in (1, 2, 5, 10, 100)])
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.intercept - math.log(3.0)) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_exponent_fit_constant_series():
    fit = exponent_fit([(1, 5), (2, 5), (3, 5)])
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_exponent_fit_negative_slope():
    fit = exponent_fit([(x, 7.0 / x) for x in (2, 4, 8, 16)])
    assert abs(fit.slope + 1.0) < 1e-12


def test_exponent_fit_input_validation():
    with pytest.raises(ValueError):
        exponent_fit([(1, 1), (2, 2)])
    with pytest.raises(ValueError):
        exponent_fit([(1, 1), (2, 0), (3, 3)])
    with pytest.raises(ValueError):
        exponent_fit([(2, 1), (2, 2), (2, 3)])


# ---------------------------------------------------------------------------
# box-norm counts


def test_box_tiny_dimensions():
    assert count_alternating_by_rank(0, 3).counts == {0: 1}
    assert count_alternating_by_rank(1, 3).counts == {0: 1}
    assert count_alternating_by_rank(2, 1).counts == {0: 1, 2: 2}
    assert count_alternating_by_rank(2, 7).counts == {0: 1, 2: 14}


def test_box_n3_exhaustive():
    hist = count_alternating_by_rank(3, 1)
    assert hist.counts == {0: 1, 2: 26}
    assert hist.total == 27
    assert hist.at_most(0) == 1
    assert hist.at_most(2) == 27


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_box_small_n_closed_form_vs_brute(bound):
    # n <= 3 is a closed form: the zero matrix has rank 0, every other
    # alternating matrix rank 2; check against direct rank enumeration
    for n in range(4):
        hist = count_alternating_by_rank(n, bound)
        assert hist.counts == brute_box_histogram(n, bound), n
        assert hist.total == (2 * bound + 1) ** (n * (n - 1) // 2)


def test_box_n3_ranks_no_matrix(monkeypatch):
    # 801**3 cells: the closed form answers without enumerating them
    def no_rank(*args):
        raise AssertionError("the n = 3 census ranked a matrix")

    monkeypatch.setattr(altrank.counting, "_alternating_rank", no_rank)
    assert count_alternating_by_rank(3, 400).counts == {0: 1, 2: 801**3 - 1}


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_box_n4_fast_path_vs_brute(bound):
    # n = 4 routes through the Pfaffian-zero convolution; check against
    # direct rank enumeration
    hist = count_alternating_by_rank(4, bound)
    assert hist.counts == brute_box_histogram(4, bound)
    assert hist.total == (2 * bound + 1) ** 6


def test_box_n5_vs_brute():
    hist = count_alternating_by_rank(5, 1)
    assert hist.counts == brute_box_histogram(5, 1)


def test_box_ranks_always_even():
    for n in range(2, 6):
        for r in count_alternating_by_rank(n, 1).counts:
            assert r % 2 == 0


def test_box_cap():
    with pytest.raises(CapExceededError):
        count_alternating_by_rank(6, 10)
    assert census_cells(6, 1) == 3**15
    with pytest.raises(CapExceededError):
        census_cells(6, 2)


# ---------------------------------------------------------------------------
# l2-norm counts


def test_l2_bound_below_one_refused():
    # |A| < 0 admits nothing; refused by name instead of failing in isqrt
    for call in (census_cells, count_alternating_by_rank):
        with pytest.raises(ValueError, match="l2 bound"):
            call(3, 0, "l2")
    assert count_alternating_by_rank(3, 1, "l2").counts == {0: 1}
    assert census_cells(3, 0, "box") == 1


def test_l2_small_exact():
    # T = 2, n = 3: 2 sum a^2 <= 3 leaves the zero matrix and one
    # nonzero entry equal to +-1
    hist = count_alternating_by_rank(3, 2, "l2")
    assert hist.counts == {0: 1, 2: 6}


@pytest.mark.parametrize("t", [2, 3, 4, 5, 7])
def test_l2_vs_brute(t):
    hist = count_alternating_by_rank(3, t, "l2")
    assert hist.counts == brute_l2_histogram(3, t)


def test_l2_n4_vs_brute():
    hist = count_alternating_by_rank(4, 4, "l2")
    assert hist.counts == brute_l2_histogram(4, 4)


def test_l2_frozen_census():
    # N_{3,2}(T) values used in the counting experiments
    want = {2: 6, 3: 32, 4: 80, 5: 178}
    for t, count in want.items():
        assert count_alternating_by_rank(3, t, "l2").counts[2] == count


def test_unknown_norm_rejected():
    with pytest.raises(ValueError):
        count_alternating_by_rank(3, 2, "linf")


# ---------------------------------------------------------------------------
# fit_counting_exponent


def test_fit_counting_exponent_l2_slope():
    fit = fit_counting_exponent(3, 2, range(5, 21), "l2")
    assert abs(fit.slope - 3.0) < 0.4  # theory: n r / 2
    assert fit.skipped_bounds == ()
    assert fit.r_squared > 0.99


def test_box_corank_fraction_slope():
    # the corank >= 2 fraction for n = 4 decays like X^-2; at these box
    # sizes the fitted exponent is still drifting in from -1.72 or so
    pts = []
    for x in range(2, 9):
        hist = count_alternating_by_rank(4, x, "box")
        pts.append((x, hist.at_most(2) / hist.total))
    fit = exponent_fit(pts)
    assert -2.3 < fit.slope < -1.7
    assert fit.r_squared > 0.99


def test_fit_skips_zero_counts():
    # T = 1 admits only the zero matrix: rank-2 count is 0 there
    fit = fit_counting_exponent(3, 2, [1, 5, 6, 7, 8], "l2")
    assert fit.skipped_bounds == (1,)
    assert fit.used_bounds == (5, 6, 7, 8)


def test_fit_min_count_filter_and_fallback():
    # counts at T = 2..5 are 6, 32, 80, 178: the 6 falls below the
    # minimum count of 20 with three bigger points available
    fit = fit_counting_exponent(3, 2, [2, 3, 4, 5], "l2")
    assert fit.used_bounds == (3, 4, 5)
    # dropping T = 5 leaves only two big points: fall back to all three
    fit2 = fit_counting_exponent(3, 2, [1, 2, 3, 4], "l2")
    assert fit2.used_bounds == (2, 3, 4)
    assert fit2.skipped_bounds == (1,)


def test_fit_counting_exponent_needs_bounds():
    with pytest.raises(ValueError):
        fit_counting_exponent(3, 2, [5, 6, 7], "l2")


# ---------------------------------------------------------------------------
# lattice identities


def test_wedge_basis_explicit_two_vectors():
    basis = LatticeBasis(((2, 0), (1, 3)))
    assert gram_det(basis) == 36
    wedges = build_wedge_basis(basis)
    assert len(wedges) == 1
    assert wedges[0].to_integer_matrix().to_rows() == [[0, 6], [-6, 0]]
    assert check_inner_product_identity(basis)
    assert check_det_identity(basis)


def test_lattice_basis_validation():
    with pytest.raises(ValueError):
        LatticeBasis(((1, 2), (2, 4)))  # dependent
    with pytest.raises(ValueError):
        LatticeBasis(((1, 0), (0, 1), (1, 1)))  # r > dim
    with pytest.raises(ValueError):
        LatticeBasis(())
    with pytest.raises(ValueError):
        LatticeBasis(((1, 0), (0,)))


def test_wedge_needs_two_vectors():
    basis = LatticeBasis(((3, 1),))
    with pytest.raises(ValueError):
        build_wedge_basis(basis)
    with pytest.raises(ValueError):
        check_det_identity(basis)


def test_identities_on_random_bases():
    rng = Random(20)
    produced = 0
    while produced < 150:
        r = rng.randint(2, 4)
        n = r + rng.randint(0, 2)
        vecs = tuple(
            tuple(rng.randint(-15, 15) for _ in range(n)) for _ in range(r)
        )
        try:
            basis = LatticeBasis(vecs)
        except ValueError:
            continue
        produced += 1
        assert check_inner_product_identity(basis)
        assert check_det_identity(basis)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_identities_property(data):
    r = data.draw(st.integers(2, 3))
    n = r + data.draw(st.integers(0, 2))
    vecs = tuple(
        tuple(data.draw(st.integers(-9, 9)) for _ in range(n)) for _ in range(r)
    )
    try:
        basis = LatticeBasis(vecs)
    except ValueError:
        return
    assert check_inner_product_identity(basis)
    assert check_det_identity(basis)

