import json
import math
from fractions import Fraction
from itertools import islice, product
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

import altrank.model
from altrank.cli import main
from altrank.groups import AbelianPGroup, finite_cl_law, group_label, partitions_up_to
from altrank.linalg import (
    AlternatingMatrix,
    IntegerMatrix,
    _p_valuation,
    cokernel,
    diag_valuations_mod,
    kernel_rank,
    smith_divisors,
)
from altrank.model import (
    MAX_TRIAL_DIVISOR,
    MIN_HEIGHT,
    CurveParams,
    EmpiricalDistribution,
    ModelConfig,
    check_cl_distribution,
    count_curves_exact,
    curve_height,
    draw_model,
    empirical_cl_distribution,
    empirical_corank_prob,
    empirical_sha_distribution,
    empirical_square_cyclic_fraction,
    is_square_of_cyclic,
    is_valid_curve,
    merge_distributions,
    model_params,
    predicted_table,
    rank_survey,
    sample_alternating,
    sample_curve_in_band,
    schedule_eta,
    schedule_x,
    torsion_label,
)
from altrank.model import (
    _alternating_upper,
    _band_nonempty,
    _coefficient_box,
    _curve_stream,
    _schedule_interval,
    _small_band_nonempty,
    _survey_chunk,
    _uniform_list,
)
from altrank.parallel import SAMPLE_CHUNK, chunk_seed, seeded_chunks
from altrank.periods import period_bound_scan
from altrank.primes import factorize, iroot


CFG = ModelConfig()


class BoundedRandom(Random):
    """Random that fails after a fixed number of draws, so that a sampling
    loop which can never finish fails the test instead of hanging it.
    Every draw, through randrange or the model's own draw helper, ends in
    getrandbits, so the budget is charged there."""

    budget = 10_000

    def getrandbits(self, k):
        self.budget -= 1
        if self.budget < 0:
            raise RuntimeError("draw budget exhausted")
        return super().getrandbits(k)


# ---------------------------------------------------------------------------
# heights and curve validity


def test_curve_height_examples():
    assert curve_height(1, 1) == 27
    assert curve_height(-2, 3) == 243
    assert curve_height(0, 1) == 27
    assert curve_height(-1, 0) == 4


def test_is_valid_curve_singular_rejected():
    assert not is_valid_curve(0, 0)
    assert not is_valid_curve(-3, 2)  # 4(-27) + 27(4) = 0
    assert not is_valid_curve(-48, 128)  # scaled singular curve


def test_is_valid_curve_minimality():
    # (p^4 a, p^6 b) is a non-minimal model of (a, b)
    assert is_valid_curve(1, 1)
    assert not is_valid_curve(16, 64)
    assert is_valid_curve(16, 65)
    assert not is_valid_curve(3**4 * 2, 3**6 * 5)
    assert not is_valid_curve(0, 64)
    assert not is_valid_curve(16, 0)
    assert is_valid_curve(0, 1)
    assert is_valid_curve(-1, 0)
    # far beyond any prime table: only gcd(a4, a6) bounds the search
    big4, big6 = 10**80 + 1, 10**120 + 7
    assert is_valid_curve(big4, big6)
    assert not is_valid_curve(1009**4 * big4, 1009**6 * big6)
    assert is_valid_curve(1009**4 * big4, 1009**5 * big6)
    assert not is_valid_curve(0, 10**120)


def test_is_valid_curve_trial_division_cap():
    # 6th root exactly at the cap: the search is complete, the answer exact
    assert MAX_TRIAL_DIVISOR == 10**6
    assert is_valid_curve(0, 10**36 + 7) == minimal_by_definition(0, 10**36 + 7)
    # a hit below the cap answers False however large the coefficients
    assert not is_valid_curve(0, 7**6 * (10**40 + 1))
    assert not is_valid_curve(3**4 * (10**30 + 1), 3**6 * (10**50 + 3))
    # no hit and a root past the cap: refused by name, not a guess
    for a4, a6 in [
        (0, 10**40 + 1),
        (0, (MAX_TRIAL_DIVISOR + 3) ** 6),  # non-minimal, past the cap
        (10**25 + 13, 10**25 + 13),  # 4th root of the gcd past the cap
    ]:
        with pytest.raises(ValueError, match="MAX_TRIAL_DIVISOR"):
            is_valid_curve(a4, a6)
    with pytest.raises(ValueError, match="MAX_TRIAL_DIVISOR"):
        CurveParams(0, 10**40 + 1)


def minimal_by_definition(a4, a6, extra_primes=()):
    """Nonsingular and no prime p with p^4 | a4 and p^6 | a6, over the
    primes of a nonzero coefficient (plus `extra_primes`)."""
    if 4 * a4**3 + 27 * a6**2 == 0:
        return False
    primes = set(factorize(abs(a4 or a6))) | set(extra_primes)
    return not any(a4 % p**4 == 0 and a6 % p**6 == 0 for p in primes)


def test_is_valid_curve_matches_definition_on_a_box():
    for a4, a6 in product(range(-300, 301), repeat=2):
        assert is_valid_curve(a4, a6) == minimal_by_definition(a4, a6), (a4, a6)


@given(
    st.integers(-(10**4), 10**4),
    st.integers(-(10**4), 10**4),
    st.sampled_from([2, 3, 5, 7, 11, 13, 101]),
    st.integers(3, 4),
    st.integers(5, 6),
)
def test_is_valid_curve_matches_definition_when_scaled(a4, a6, p, e4, e6):
    # (p^4 a4, p^6 a6) is never minimal; one power short may or may not be
    s4, s6 = a4 * p**e4, a6 * p**e6
    assert is_valid_curve(s4, s6) == minimal_by_definition(s4, s6, (p,))


@pytest.mark.parametrize("e", [-1, 0, 1])
def test_is_valid_curve_at_fourth_power_gcds(e):
    # is_valid_curve bounds its trial division by floor(g**(1/4)) at
    # g = gcd(a4, a6); g = d**4 - 1, d**4, d**4 + 1 straddle each root
    for d in range(2, 61):
        g = d**4 + e
        assert math.isqrt(math.isqrt(g)) == iroot(g, 4), g
        # g**2 holds p**8 for each p**4 | g; g alone needs p**6 | g
        for a4, a6 in [(g, g * g), (-g, g * g), (g, -g), (-g, g), (0, g)]:
            assert is_valid_curve(a4, a6) == minimal_by_definition(a4, a6), (a4, a6)


def test_curve_params_validation():
    c = CurveParams(-1, 1)
    assert c.height == 27
    with pytest.raises(ValueError):
        CurveParams(0, 0)
    with pytest.raises(ValueError):
        CurveParams(16, 64)


def test_count_curves_exact_tiny():
    # |4a^3| <= 27 allows a in {-1,0,1}; 27b^2 <= 27 allows |b| <= 1;
    # only (0,0) is singular, minimality is vacuous: 8 curves
    assert count_curves_exact(27) == 8
    assert count_curves_exact(3) == 0


def test_count_curves_exact_brute_midsize():
    # independent brute count over the coefficient box
    cap = 5000
    amax = 0
    while 4 * (amax + 1) ** 3 <= cap:
        amax += 1
    bmax = 0
    while 27 * (bmax + 1) ** 2 <= cap:
        bmax += 1
    brute = 0
    for a in range(-amax, amax + 1):
        for b in range(-bmax, bmax + 1):
            if max(abs(4 * a**3), 27 * b * b) <= cap and is_valid_curve(a, b):
                brute += 1
    assert count_curves_exact(cap) == brute


def test_count_curves_monotone():
    values = [count_curves_exact(h) for h in (100, 1000, 10000)]
    assert values[0] < values[1] < values[2]


def test_sample_curve_in_band_contract():
    rng = Random(30)
    for cap in (10**4, 10**6, 10**400, 10**100):
        for _ in range(40):
            c = sample_curve_in_band(cap, rng)
            assert cap // 2 < c.height <= cap
            assert is_valid_curve(c.a4, c.a6)


def test_curve_sequence_pinned():
    # the survey shares this sampler's RNG order, so survey.csv bytes
    # depend on these exact draws
    rng = Random(5)
    caps = (10**4, 10**6, 10**12, 10**24, 10**40)
    got = [(c.a4, c.a6) for c in (sample_curve_in_band(h, rng) for h in caps)]
    assert got == [
        (-3, -19),
        (60, 93),
        (260, -181172),
        (-1236633, -137883479142),
        (7470586025341, -16322956864924698270),
    ]


BAND_TEST_CAPS = (
    list(range(100, 2501))
    + [8 * a**3 + e for a in range(3, 31) for e in (-1, 0, 1)]
    + [54 * b**2 + e for b in range(2, 41) for e in (-1, 0, 1)]
)


class _ScriptEnd(Exception):
    pass


class _ScriptedBits:
    """An rng whose getrandbits returns the scripted values in turn, then
    raises _ScriptEnd."""

    def __init__(self, values):
        self._values = iter(values)

    def getrandbits(self, k):
        for value in self._values:
            return value
        raise _ScriptEnd


def _nth(ranges, i):
    # the i-th value of the ranges laid end to end
    for values in ranges:
        if i < len(values):
            return values[i]
        i -= len(values)
    raise IndexError(i)


def _band_cells(cap):
    """(total, cell): the number of coefficient-box cells with
    2 * height > cap, and the r-th of them.  The cells are two
    rectangles, each in (a4, a6) order: A has |a4| > a_lo and any a6, B
    has |a4| <= a_lo and |a6| > b_lo."""
    a_max, b_max = _coefficient_box(cap)
    a_lo, b_lo = iroot(cap // 8, 3), math.isqrt(cap // 54)
    rectangles = [
        ((range(-a_max, -a_lo), range(a_lo + 1, a_max + 1)), (range(-b_max, b_max + 1),)),
        ((range(-a_lo, a_lo + 1),), (range(-b_max, -b_lo), range(b_lo + 1, b_max + 1))),
    ]
    sizes = [(sum(map(len, rows)), sum(map(len, cols))) for rows, cols in rectangles]

    def cell(r):
        for (rows, cols), (n_rows, n_cols) in zip(rectangles, sizes):
            if r < n_rows * n_cols:
                return _nth(rows, r // n_cols), _nth(cols, r % n_cols)
            r -= n_rows * n_cols
        raise IndexError(r)

    return sum(a * b for a, b in sizes), cell


def test_band_index_is_a_bijection():
    # The curve stream draws one index over the band's cells and decodes
    # it.  Fed every index 0 ... total - 1 once, it must yield each valid
    # curve with 2 * height > cap exactly once, at every cube and square
    # boundary 8*a**3 and 54*b**2 too.
    for cap in BAND_TEST_CAPS:
        a_max, b_max = _coefficient_box(cap)
        want = [
            (a4, a6, curve_height(a4, a6))
            for a4, a6 in product(range(-a_max, a_max + 1), range(-b_max, b_max + 1))
            if 2 * curve_height(a4, a6) > cap and is_valid_curve(a4, a6)
        ]
        if not want:  # an empty band is refused at the first curve
            with pytest.raises(ValueError, match="no valid curve"):
                next(_curve_stream(cap, None))
            continue
        total, _ = _band_cells(cap)
        got = []
        with pytest.raises(_ScriptEnd):
            got.extend(_curve_stream(cap, _ScriptedBits(range(total))))
        assert sorted(got) == want, cap


def _indexed_curves(cap, rng):
    # the curve stream by its definition: one randrange over the band's
    # cells per attempt, kept when the cell is a valid band curve
    total, cell = _band_cells(cap)
    while True:
        a4, a6 = cell(rng.randrange(total))
        h = curve_height(a4, a6)
        if 2 * h > cap and is_valid_curve(a4, a6):
            yield a4, a6, h


def test_stream_draws_one_randrange_per_attempt():
    # the stream's in-place index draw is a randrange call
    for seed, cap in enumerate([10**4, 10**6, 10**12, 10**24]):
        ours, ref = Random(seed), Random(seed)
        got = list(islice(_curve_stream(cap, ours), 2000))
        assert got == list(islice(_indexed_curves(cap, ref), 2000)), cap
        assert ours.getstate() == ref.getstate(), cap


def test_band_cache_holds_small_caps_only():
    # the period scan draws a fresh cap per sample; caps of 10**4 and
    # above are answered without the cache
    before = _small_band_nonempty.cache_info().currsize
    period_bound_scan((10**4, 10**10), 2000, Random(33))
    assert _small_band_nonempty.cache_info().currsize == before


def test_sample_curve_empty_band_raises():
    rng = Random(31)
    with pytest.raises(ValueError):
        sample_curve_in_band(100, rng)
    with pytest.raises(ValueError):
        sample_curve_in_band(50, rng)


# ---------------------------------------------------------------------------
# the draw helper


@pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 10**4, 2**31, 2**40])
def test_alternating_upper_is_randrange(x):
    # sample_alternating and the survey both draw entries through it
    ours, ref = Random(x), Random(x)
    for n in range(8):
        got = _alternating_upper(n, x, ours.getrandbits)
        assert got == [ref.randrange(2 * x + 1) - x for _ in range(n * (n - 1) // 2)]
        assert ours.getstate() == ref.getstate(), n


@pytest.mark.parametrize(
    "span",
    [1, 2, 3]
    + [2**k + e for k in (5, 16, 32) for e in (-1, 0, 1)]
    + [2**64 + 3, 10**30],
)
def test_draws_are_randrange(span):
    # single draws through _uniform_list are randrange calls
    ours, ref = Random(span), Random(span)
    got = [_uniform_list(ours.getrandbits, span, 1)[0] for _ in range(300)]
    assert got == [ref.randrange(span) for _ in range(300)]
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "span",
    [1, 2, 3, 4, 2**8, 20001]
    + [2**k + e for k in (5, 16, 32) for e in (-1, 0, 1)]
    + [2**64 + 3, 10**30],
)
def test_uniform_list_is_randrange(span):
    # sha-dist's entries, cl-dist's digits and the survey's entries are
    # drawn through it, one draw at a time or many
    ours, ref = Random(span), Random(span)
    for count, lo in [(0, 0), (1, 0), (300, 0), (300, -(span // 2)), (7, -5)]:
        got = _uniform_list(ours.getrandbits, span, count, lo)
        assert got == [lo + ref.randrange(span) for _ in range(count)]
        assert ours.getstate() == ref.getstate(), (count, lo)


# ---------------------------------------------------------------------------
# parameter schedule


def test_schedule_grid_values():
    # the experiment grid: eta jumps at 10^18 and 10^24, x stays small
    want = {
        10**6: (2, 2),
        10**9: (2, 3),
        10**12: (2, 4),
        10**15: (2, 5),
        10**18: (3, 4),
        10**21: (3, 4),
        10**24: (4, 4),
    }
    for h, (eta, x) in want.items():
        e = schedule_eta(h, CFG)
        assert e == eta, h
        assert schedule_x(h, e, CFG) == x, h


def test_schedule_eta_exact_breakpoints():
    # eta(H) is the largest v with 3^(12 v) <= H, floored at 2
    for v in (2, 3, 4, 5):
        h = 3 ** (12 * v)
        assert schedule_eta(h, CFG) == v
        assert schedule_eta(h - 1, CFG) == max(2, v - 1)


def test_schedule_x_exact_ceiling():
    # x is the exact ceiling of H^(1/(12 eta)), never a float artifact
    for h, eta, want in [
        (2**24, 2, 2),  # (2^24)^(1/24) = 2 exactly
        (2**24 + 1, 2, 3),  # just past the perfect power
        (10**12, 2, 4),
        (10**12, 3, 3),  # 10^(1/3) rounds up to 3... 10^(12/36)=10^(1/3)=2.15 -> 3
    ]:
        assert schedule_x(h, eta, CFG) == want


def test_schedule_envelope_exact():
    # x^eta stays within [1, 16] times H^(1/12): checked as exact
    # integer inequalities (x^eta)^12 >= H and (x^eta)^12 <= 16^12 H
    heights = [10**k for k in range(4, 31)] + [
        3 * 10**7 + 7,
        5 * 10**13 + 1,
        7 * 10**22 + 9,
    ]
    for h in heights:
        eta = schedule_eta(h, CFG)
        x = schedule_x(h, eta, CFG)
        lhs = (x**eta) ** 12
        assert lhs >= h
        assert lhs <= 16**12 * h


def test_schedule_constant_mode():
    cfg = ModelConfig(eta_schedule="constant", eta_floor=3)
    assert schedule_eta(10**20, cfg) == 3
    assert schedule_eta(10**4, cfg) == 3


SCHEDULE_CONFIGS = [
    ModelConfig(),
    ModelConfig(calibration_exponent="1/6"),
    ModelConfig(eta_schedule="constant"),
    ModelConfig(eta_schedule="constant", eta_floor=3, calibration_exponent="1/6"),
    ModelConfig(eta_floor=4),
    ModelConfig(eta_floor=1, calibration_exponent="1/6"),
    # numerator > 1: the interval ends are roots of the T-interval ends
    ModelConfig(calibration_exponent="5/36"),
]


def _schedule_pair(h, cfg):
    eta = schedule_eta(h, cfg)
    return eta, schedule_x(h, eta, cfg)


@given(st.integers(MIN_HEIGHT, 10**300), st.sampled_from(SCHEDULE_CONFIGS))
def test_schedule_interval_is_exact(h, cfg):
    lo, hi, eta, x = _schedule_interval(h, cfg)
    assert lo <= h <= hi
    assert _schedule_pair(h, cfg) == (eta, x)
    assert _schedule_pair(hi, cfg) == (eta, x)
    assert _schedule_pair(hi + 1, cfg) != (eta, x)
    assert _schedule_pair(lo, cfg) == (eta, x)
    assert _schedule_pair(lo - 1, cfg) != (eta, x)


@given(st.integers(MIN_HEIGHT, 10**300), st.sampled_from(SCHEDULE_CONFIGS))
def test_schedule_x_is_at_least_2(h, cfg):
    # so every x interval ((x-1)**d, x**d] of _schedule_interval has a
    # lower end, and no clamp below x is needed
    assert schedule_x(h, schedule_eta(h, cfg), cfg) >= 2


def _public_survey(cap, cfg, seed, draws):
    # the tallies of _survey_chunk from the public draws: a uniform valid
    # curve in the band unless cap's schedule interval holds the whole
    # band, then model_params and sample_alternating at its height
    lo = _schedule_interval(cap, cfg)[0]
    rng = Random(seed)
    want = [0] * 6
    for _ in range(draws):
        h = sample_curve_in_band(cap, rng).height if lo > cap // 2 + 1 else cap
        p = model_params(h, cfg, rng)
        corank = kernel_rank(sample_alternating(p.n, p.x, rng))
        for r in range(1, min(corank, 5) + 1):
            want[r] += 1
    return want


# one height per schedule interval: x = ceil(h**500) steps at every height
ONE_HEIGHT_INTERVALS = ModelConfig(eta_schedule="constant", eta_floor=2, calibration_exponent=1000)


def test_survey_chunk_matches_public_draws(monkeypatch):
    # The survey reuses (eta, x) across its schedule intervals, and ranks
    # n <= 3 without a matrix; it must make the draws model_params and
    # sample_alternating make.  Band (0.75, 1.5] * 3**36 crosses the
    # eta step at 3**36, from (eta, x) = (2, 6) to (3, 4), so each draw
    # follows its curve; so do the band (1.5 * 2**23, 1.5 * 2**24], across
    # the x step 2 -> 3 at 2**24, and (5e5, 1e6] under ONE_HEIGHT_INTERVALS,
    # where each height has its own x.  Bands (5e8, 1e9] at ce = 1/6 and
    # (5e28, 1e29], where (eta, x) = (5, 4) and n = 5 or 6, and (5e4, 1e5]
    # at eta = 1, where n = 1 or 2 and x = 3, lie inside one schedule
    # interval, where no curve is drawn.
    def no_stream(*args):
        raise AssertionError("a one-interval band drew a curve")

    for cap, cfg, crosses, draws in [
        (3**37 // 2, ModelConfig(seed=9), True, 600),
        (3 * 2**23, ModelConfig(seed=12), True, 600),
        (10**6, ONE_HEIGHT_INTERVALS, True, 200),
        (10**9, ModelConfig(seed=10, calibration_exponent="1/6"), False, 600),
        (10**29, ModelConfig(seed=11), False, 600),
        (10**5, ModelConfig(seed=13, eta_schedule="constant", eta_floor=1), False, 600),
    ]:
        lo, hi, _, _ = _schedule_interval(cap, cfg)
        assert (lo > cap // 2 + 1) == crosses and cap <= hi, cap
        seed = chunk_seed(cfg.seed, "survey:0", 0)
        want = _public_survey(cap, cfg, seed, draws)
        with monkeypatch.context() as m:
            if not crosses:
                m.setattr(altrank.model, "_curve_stream", no_stream)
            assert _survey_chunk((cap, 0, draws, seed, cfg)) == want, cap


@settings(max_examples=40, deadline=None)
@given(
    st.integers(3, 30).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d)),
    st.sampled_from(SCHEDULE_CONFIGS + [ModelConfig(eta_schedule="constant", eta_floor=1)]),
    st.integers(0, 2**32),
)
def test_survey_chunk_matches_public_draws_at_any_cap(cap, cfg, seed):
    assume(_band_nonempty(cap))
    assert _survey_chunk((cap, 0, 100, seed, cfg)) == _public_survey(cap, cfg, seed, 100)


def test_survey_chunk_keeps_both_intervals_of_a_crossing_band(monkeypatch):
    # heights on the two sides of the x step at 2**24 alternate; the chunk
    # computes each side's interval once, not once per crossing
    calls = []

    def counted(h, cfg):
        calls.append(h)
        return _schedule_interval(h, cfg)

    monkeypatch.setattr(altrank.model, "_schedule_interval", counted)
    _survey_chunk((3 * 2**23, 0, 2000, chunk_seed(31, "survey:0", 0), CFG))
    assert len(calls) <= 3


def test_survey_matches_its_law_across_a_schedule_step():
    # Band (1.5 * 2**23, 1.5 * 2**24] crosses the x step at 2**24: eta = 2
    # throughout, x = 2 up to 2**24 and 3 above.  A uniform valid curve
    # lies on either side with probability proportional to its exact
    # curve count, and each side's draw is n = 2 or 3 with probability
    # 1/2 each, so the count of draws with corank >= r is binomial with p
    # the count-weighted mixture of (P_2 + P_3) / 2 at each x.  Sizes and
    # the z bound are fixed before the run.
    cap, step = 3 * 2**23, 2**24
    curves, z_bound = 100_000, 5.0
    below = _schedule_interval(cap // 2 + 1, CFG)
    above = _schedule_interval(cap, CFG)
    assert below[0] <= cap // 2 + 1 and below[1] == step and below[2:] == (2, 2)
    assert above[0] == step + 1 and above[1] >= cap and above[2:] == (2, 3)
    counts = [count_curves_exact(t) for t in (cap // 2, step, cap)]
    assert counts == [399534, 508826, 711800]
    weights = {2: counts[1] - counts[0], 3: counts[2] - counts[1]}  # by x
    laws = [
        sum(w * (empirical_corank_prob(2, x, r) + empirical_corank_prob(3, x, r)) for x, w in weights.items())
        / (2 * (counts[2] - counts[0]))
        for r in range(1, 6)
    ]
    hits = _survey_chunk((cap, 0, curves, chunk_seed(2029, "survey:0", 0), CFG))
    for r, p in zip(range(1, 6), laws):
        if p == 0:
            assert hits[r] == 0, r
        else:
            z = (hits[r] - curves * p) / math.sqrt(curves * p * (1 - p))
            assert abs(z) <= z_bound, (r, float(p), z)


# the criterion-6 bands whose sizes n = eta and eta + 1 are at most 4,
# each inside one schedule interval
LAW_BANDS = [10**k for k in (6, 9, 12, 15, 18, 21)]


def test_survey_matches_its_finite_height_law():
    # Inside one schedule interval a band's draw is n = eta or eta + 1
    # with probability 1/2 each and entries uniform on [-x, x], so the
    # count of draws with corank >= r is binomial in the curve count with
    # p = (P_eta + P_eta+1) / 2, P_n = empirical_corank_prob(n, x, r),
    # an exact census.  Sizes and the z bound are fixed before the run;
    # an expected count below 10 is too skewed for a 5-sigma bound, so
    # those cells (the zero matrix at n = 4) are left out.
    curves, z_bound = 100_000, 5.0
    laws = []
    for h in LAW_BANDS:
        lo, hi, eta, x = _schedule_interval(h, CFG)
        assert lo <= h // 2 + 1 and h <= hi and eta + 1 <= 4, h
        laws.append(
            [(empirical_corank_prob(eta, x, r) + empirical_corank_prob(eta + 1, x, r)) / 2 for r in range(1, 6)]
        )
    records, _ = rank_survey(LAW_BANDS, curves, ModelConfig(seed=2028))
    for rec in records:
        p = laws[LAW_BANDS.index(rec.h_hi)][rec.r - 1]
        if p in (0, 1):
            assert rec.hits == p * curves, rec
        elif curves * p >= 10:
            z = (rec.hits - curves * p) / math.sqrt(curves * p * (1 - p))
            assert abs(z) <= z_bound, (rec, float(p), z)


def test_model_config_validation():
    with pytest.raises(TypeError):
        ModelConfig(calibration_exponent=1 / 12)
    with pytest.raises(ValueError):
        ModelConfig(calibration_exponent=Fraction(0))
    with pytest.raises(ValueError):
        ModelConfig(eta_schedule="sqrt")
    with pytest.raises(ValueError):
        ModelConfig(eta_floor=0)
    cfg = ModelConfig(calibration_exponent="1/6")
    assert cfg.calibration_exponent == Fraction(1, 6)


def test_calibration_exponent_terms_are_bounded():
    for ok in ("1000/999", "1/1000", "1000", "0.001", "1e-3", "1000e-6"):
        ce = ModelConfig(calibration_exponent=ok).calibration_exponent
        assert max(ce.as_integer_ratio()) <= 1000
    for bad in ("1/1001", "1001", "1001/1002", "0.0011", "1e-4", "2e3"):
        with pytest.raises(ValueError, match="must lie in"):
            ModelConfig(calibration_exponent=bad)


def test_survey_draw_budget(monkeypatch):
    # the draw budget judges the top height's rank and schedule power,
    # before any chunk; the defaults stay inside it up to the float range
    monkeypatch.setattr(altrank.model, "_survey_chunk", lambda spec: [0] * 6)
    grid = [10**4, 10**6, 10**8]
    rank_survey(grid, 1, ModelConfig(eta_floor=63))  # size 64, x = 2
    # the same size with 422-bit entries: a rank of about 30 s
    cfg = ModelConfig(eta_schedule="constant", eta_floor=63, calibration_exponent=1000)
    with pytest.raises(ValueError, match="eta_floor 63 gives matrices of size 64 .* 422 bits"):
        rank_survey(grid, 1, cfg)
    top = altrank.model.MAX_FLOAT_HEIGHT
    assert schedule_eta(top, ModelConfig()) + 1 == 54
    rank_survey([top // 4, top // 2, top], 1, ModelConfig())


class _Drawn(Exception):
    pass


@pytest.mark.parametrize(
    "sampler, run",
    [
        # the largest sizes the per-key bounds took, at about a second
        ("_alternating_upper", lambda: empirical_sha_distribution(99, 10**4, 1, 2, 1, Random(1))),
        ("_alternating_upper", lambda: empirical_sha_distribution(100, 10**4, 0, 2, 1, Random(1))),
        # the largest prime is_prime takes, at 82 bits
        ("_uniform_list", lambda: empirical_cl_distribution(100, 3317044064679887385961813, 8, 1, Random(1))),
    ],
    ids=["sha-dist-n-99", "sha-dist-n-100", "cl-dist-n-100-p82"],
)
def test_draw_budget_accepts_the_old_size_bounds(monkeypatch, sampler, run):
    def drawn(*args):
        raise _Drawn

    monkeypatch.setattr(altrank.model, sampler, drawn)
    with pytest.raises(_Drawn):
        run()


@pytest.mark.parametrize(
    "accepted, refused",
    [
        # the largest prime is_prime takes, at 82 bits
        ((111, 3317044064679887385961813, 8), (112, 3317044064679887385961813, 8)),
        # priced as the scalar kernel, which the packed rows run far below
        ((240, 2, 8), (241, 2, 8)),
        ((8, 2, 36442), (8, 2, 36443)),
    ],
    ids=["n-p82", "n-p2", "k-p2"],
)
def test_cl_budget_edge_accepts_and_refuses_one_size_up(accepted, refused):
    check_cl_distribution(*accepted, 1)
    with pytest.raises(ValueError, match="one draw may take more than 1.5 s"):
        check_cl_distribution(*refused, 1)


def test_model_params_draws_both_sizes():
    rng = Random(32)
    cfg = ModelConfig()
    seen = {2: 0, 3: 0}
    for _ in range(2000):
        p = model_params(10**6, cfg, rng)
        assert p.eta == 2 and p.x == 2
        seen[p.n] += 1
    # n is uniform on {eta, eta+1}: 3 sigma band around 1000
    assert abs(seen[2] - 1000) < 3 * math.sqrt(500)


def test_model_params_rejects_small_height():
    with pytest.raises(ValueError):
        model_params(50, CFG, Random(0))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: rank_survey([1e3, 1e6, 1e12], 200, CFG), "grid height must be an int, got 1000.0"),
        (
            lambda: rank_survey([10**3, 10**6, 10**12], 5.0, CFG),
            "curves_per_band must be an int, got 5.0",
        ),
        (lambda: model_params(1e6, CFG, Random(0)), "height must be an int, got 1000000.0"),
        (lambda: sample_curve_in_band(1e6, Random(0)), "band top must be an int, got 1000000.0"),
        (lambda: draw_model(1e6, CFG, Random(0)), "height must be an int, got 1000000.0"),
    ],
    ids=["survey-grid", "survey-curves", "model-params", "curve-in-band", "draw-model"],
)
def test_float_heights_are_refused_by_name(call, error):
    # a float is not rounded to an int height: int(1e24) is 999999999999999983222784
    with pytest.raises(TypeError) as refused:
        call()
    assert str(refused.value) == error


@pytest.mark.parametrize(
    "call, exc, error",
    [
        (lambda: count_curves_exact(1e3), TypeError, "height_cap must be an int, got 1000.0"),
        (lambda: curve_height(1.5, 2), TypeError, "a4 must be an int, got 1.5"),
        (lambda: curve_height(1, 2.0), TypeError, "a6 must be an int, got 2.0"),
        (lambda: schedule_eta(0, CFG), ValueError, "height must be at least 1, got 0"),
        (lambda: schedule_eta(-5, CFG), ValueError, "height must be at least 1, got -5"),
        (lambda: schedule_eta(1e6, CFG), TypeError, "height must be an int, got 1000000.0"),
        (
            lambda: merge_distributions([]),
            ValueError,
            "merge_distributions needs at least one distribution",
        ),
    ],
    ids=[
        "count-float",
        "height-float-a4",
        "height-float-a6",
        "eta-zero",
        "eta-negative",
        "eta-float",
        "merge-empty",
    ],
)
def test_library_edge_inputs_are_refused_by_name(call, exc, error):
    with pytest.raises(exc) as refused:
        call()
    assert str(refused.value) == error


# ---------------------------------------------------------------------------
# matrix draws and model draws


def test_sample_alternating_ranges():
    rng = Random(33)
    for _ in range(50):
        a = sample_alternating(5, 3, rng)
        assert a.n == 5
        assert all(-3 <= v <= 3 for v in a.upper)
    counts = {}
    for _ in range(7000):
        a = sample_alternating(2, 1, rng)
        counts[a.upper[0]] = counts.get(a.upper[0], 0) + 1
    for v in (-1, 0, 1):
        assert abs(counts[v] - 7000 / 3) < 4 * math.sqrt(7000 * 2 / 9)


def test_sample_alternating_rejects_negative_bound():
    # span 2x + 1 < 1 would make the draw helper loop forever
    for x in (-1, -2):
        with pytest.raises(ValueError, match="nonnegative"):
            sample_alternating(3, x, BoundedRandom(0))
    assert sample_alternating(3, 0, Random(0)).upper == (0, 0, 0)


def test_torsion_label_and_square_of_cyclic():
    assert torsion_label(()) == "[]"
    assert torsion_label((2, 2)) == "[2,2]"
    assert is_square_of_cyclic(())
    assert is_square_of_cyclic((6, 6))
    assert not is_square_of_cyclic((2, 2, 4, 4))
    assert not is_square_of_cyclic((2, 4))


def test_draw_model_invariants():
    rng = Random(34)
    cfg = ModelConfig()
    for h in (10**6, 10**13, 10**19):
        for _ in range(60):
            d = draw_model(h, cfg, rng)
            assert d.height == h
            assert d.rk_prime >= 0
            assert d.rk_prime % 2 == d.n % 2  # alternating rank is even
            root = math.isqrt(d.sha_order)
            assert root * root == d.sha_order  # paired factors force squares
            assert d.sha_label.startswith("[") and d.sha_label.endswith("]")


def test_draw_model_parity_split():
    # rk' parity is decided entirely by the n coin: half odd, half even
    rng = Random(35)
    odd = 0
    for _ in range(4000):
        d = draw_model(10**6, ModelConfig(), rng)
        odd += d.rk_prime % 2
    assert abs(odd - 2000) < 3 * math.sqrt(1000)


def test_rank_one_probability_limit_sense():
    # with a large entry bound (x = 178 at 1e6) the even-n draw is almost
    # never singular, so P(rk' >= 1) approaches the odd-n frequency 1/2
    rng = Random(36)
    cfg = ModelConfig(eta_schedule="constant", calibration_exponent="3/4")
    hits = 0
    total = 20000
    for _ in range(total):
        d = draw_model(10**6, cfg, rng)
        hits += d.rk_prime >= 1
    assert abs(hits / total - 0.5) < 0.01


# ---------------------------------------------------------------------------
# empirical corank probabilities


def test_empirical_corank_exact_small():
    # n = 2, x = 1: singular iff the single entry is 0
    assert empirical_corank_prob(2, 1, 1) == Fraction(1, 3)
    # any alternating 3 x 3 has corank >= 1
    assert empirical_corank_prob(3, 1, 1) == 1
    # corank 3 at n = 3 needs the zero matrix
    assert empirical_corank_prob(3, 1, 3) == Fraction(1, 27)
    assert empirical_corank_prob(4, 2, 0) == 1
    assert isinstance(empirical_corank_prob(2, 1, 1), Fraction)


def test_empirical_corank_monte_carlo_vs_exact():
    exact = empirical_corank_prob(4, 2, 2)
    rng = Random(37)
    samples = 20000
    hits = sum(kernel_rank(sample_alternating(4, 2, rng)) >= 2 for _ in range(samples))
    p_hat = hits / samples
    stderr = math.sqrt(p_hat * (1 - p_hat) / samples)
    assert abs(p_hat - exact) < 4 * stderr + 1e-9


# ---------------------------------------------------------------------------
# conditioned sha distributions


def brute_torsion_distribution_n2(x, p):
    # cokernel of the 2 x 2 draw is Z/|a| x Z/|a|; enumerate a != 0
    counts = {}
    total = 0
    for a in range(-x, x + 1):
        if a == 0:
            continue
        v = 0
        m = abs(a)
        while m % p == 0:
            m //= p
            v += 1
        label = f"{p}:[{','.join(str(v) for _ in range(2))}]" if v else f"{p}:[]"
        counts[label] = counts.get(label, 0) + 1
        total += 1
    return {k: c / total for k, c in counts.items()}


@pytest.mark.parametrize("method", ["exact", "mod"])
def test_sha_distribution_n2_vs_census(method, tmp_path):
    # the model matches the census, and sha-dist writes the model's table
    # under either --method value
    want = brute_torsion_distribution_n2(3, 2)
    # sha-dist's draws: two seeded chunks, merged in chunk order
    chunks = seeded_chunks(4000, SAMPLE_CHUNK, 38, "sha-dist")
    assert len(chunks) == 2
    dist = merge_distributions(
        [empirical_sha_distribution(2, 3, 0, 2, size, Random(seed)) for size, seed in chunks]
    )
    assert dist.total == 4000
    for label, frac in want.items():
        emp = dist.frequency(label)
        se = math.sqrt(frac * (1 - frac) / 4000)
        assert abs(emp - frac) < 4 * se + 1e-9, label
    args = ["--n", "2", "--x", "3", "--r", "0", "--p", "2", "--samples", "4000"]
    args += ["--seed", "38", "--method", method, "--out", str(tmp_path)]
    assert main(["sha-dist"] + args) == 0
    written = json.loads((tmp_path / "sha_dist.json").read_text())
    assert written["counts"] == dist.counts
    assert written["total"] == 4000
    assert written["meta"]["method"] == method


def test_sha_distribution_methods_agree_statistically():
    # the model's table equals integer Smith's on the same draws
    dist = empirical_sha_distribution(5, 8, 1, 2, 3000, Random(39))
    rng = Random(39)
    want = {}
    drawn = 0
    while sum(want.values()) < 3000:
        divisors = smith_divisors(sample_alternating(5, 8, rng))
        drawn += 1
        if 5 - sum(1 for d in divisors if d) != 1:
            continue
        exponents = [_p_valuation(d, 2) for d in divisors if d > 1]
        label = group_label(AbelianPGroup.from_valuations(2, exponents))
        want[label] = want.get(label, 0) + 1
    assert dist.counts == want
    assert dist.meta["draws"] == drawn


def test_sha_distribution_validation():
    rng = Random(41)
    with pytest.raises(ValueError):
        empirical_sha_distribution(5, 4, 0, 2, 10, rng)  # parity mismatch
    with pytest.raises(ValueError):
        empirical_sha_distribution(4, 4, 2, 2, 10, rng)  # r not in {0, 1}
    with pytest.raises(ValueError):
        # x = 0 draws only the zero matrix, which never has corank 0
        empirical_sha_distribution(4, 0, 0, 2, 10, BoundedRandom(0))
    with pytest.raises(ValueError, match="prime"):
        empirical_sha_distribution(4, 4, 0, 4, 10, rng)


def test_square_cyclic_fraction_n2_always_one():
    # Z/m x Z/m is a square of a cyclic group for every m >= 1
    est = empirical_square_cyclic_fraction(2, 2, 500, Random(42))
    assert est.value == 1.0


def test_square_cyclic_fraction_n4_vs_census():
    # exact conditional fraction over the 3^6 grid at x = 1
    hits = 0
    total = 0
    for upper in product((-1, 0, 1), repeat=6):
        a = AlternatingMatrix(4, upper)
        c = cokernel(a)
        if c.free_rank:
            continue
        total += 1
        hits += is_square_of_cyclic(c.torsion)
    want = hits / total
    est = empirical_square_cyclic_fraction(4, 1, 4000, Random(43))
    se = math.sqrt(want * (1 - want) / 4000)
    assert abs(est.value - want) < 4 * se + 1e-9
    with pytest.raises(ValueError):
        empirical_square_cyclic_fraction(5, 2, 10, Random(0))
    with pytest.raises(ValueError):
        empirical_square_cyclic_fraction(4, 0, 10, BoundedRandom(0))


# ---------------------------------------------------------------------------
# cokernel distribution for square (non-alternating) draws


def test_cl_distribution_small_matches_gl_probability():
    # P(trivial cokernel) for a uniform n x n matrix over Z_p is
    # prod_{i=1..n} (1 - p^-i); at n = 4, p = 2 that is 315/1024
    dist = empirical_cl_distribution(4, 2, 6, 3000, Random(44))
    want = 1.0
    for i in range(1, 5):
        want *= 1 - 2.0**-i
    emp = dist.frequency("2:[]")
    se = math.sqrt(want * (1 - want) / 3000)
    assert abs(emp - want) < 4 * se
    assert dist.total == 3000
    assert dist.meta["refinement_rounds"] >= 0


@pytest.mark.parametrize("p, n, k", [(2, 2, 4), (2, 3, 2), (3, 2, 2)])
def test_finite_cl_law_matches_exhaustive_census(p, n, k):
    # every matrix mod p**k; a group all of whose exponents are below k
    # has exactly the law's mass, and is the cokernel of exactly the
    # matrices whose valuations mod p**k are all ints
    census: dict = {}
    for entries in product(range(p**k), repeat=n * n):
        rows = [entries[i : i + n] for i in range(0, n * n, n)]
        vals = diag_valuations_mod(rows, n, p, k)
        if None not in vals:
            exponents = AbelianPGroup.from_valuations(p, vals).exponents
            census[exponents] = census.get(exponents, 0) + 1
    total = p ** (k * n * n)
    law = {
        lam: finite_cl_law(AbelianPGroup(p, lam), n)
        for lam in partitions_up_to(n * (k - 1))
        if len(lam) <= n and all(e < k for e in lam)
    }
    assert {lam: Fraction(c, total) for lam, c in census.items()} == law


@pytest.mark.parametrize("n, p", list(product([2, 3], repeat=2)))
def test_cl_distribution_matches_finite_n_law(n, p):
    # |z| <= 5 per label at 2e4 samples, fixed before the run; a group
    # of p-rank above n has law 0 and must never be drawn
    samples = 20_000
    dist = empirical_cl_distribution(n, p, 5, samples, Random(100 * n + p))
    for lam in partitions_up_to(4):
        count = dist.counts.get(group_label(AbelianPGroup(p, lam)), 0)
        q = finite_cl_law(AbelianPGroup(p, lam), n)
        if q == 0:
            assert count == 0, lam
        else:
            z = (count - samples * q) / math.sqrt(samples * q * (1 - q))
            assert abs(z) <= 5, (lam, count, float(q))


@pytest.mark.parametrize(
    "n, p, k, samples, seed",
    [(8, 2, 8, 300, 1), (5, 3, 5, 300, 11), (4, 2, 5, 2000, 3), (1, 2, 5, 500, 5), (0, 2, 5, 5, 6)],
)
def test_cl_distribution_matches_exact_smith_on_replayed_draws(n, p, k, samples, seed):
    # Replays the sampler's digit order from the RNG itself.  At odd p a
    # draw's entries, row-major, are uniform mod p**k, and each refinement
    # adds p**prec times a uniform digit pair mod p**2 to every entry, in
    # the same order, before prec is raised by 2.  At p = 2 row i is one
    # getrandbits(n * w), w = 2 * k, and entry (i, j) the low k bits of
    # its bits j*w to j*w + w - 1; a refinement draws one
    # getrandbits(n * w) per row at the new w = 2 * (prec + 2) and adds
    # 2**prec times bits j*w + prec and j*w + prec + 1 of it to entry
    # (i, j).  Each draw is classified by the p-valuations of its exact
    # integer Smith divisors, and accepted when every divisor is nonzero
    # with valuation below prec.  Exactness is what certifies it: two more
    # random digits on every entry of an accepted draw leave its
    # valuations as they are.
    rng, more = Random(seed), Random(seed + 10**6)
    counts: dict = {}
    rounds = 0
    for _ in range(samples):
        prec = k
        if p == 2:
            w = 2 * k
            rows = [rng.getrandbits(n * w) for _ in range(n)]
            entries = [r >> j * w & 2**k - 1 for r in rows for j in range(n)]
        else:
            entries = [rng.randrange(p**k) for _ in range(n * n)]
        while True:
            divisors = smith_divisors(IntegerMatrix(n, n, entries))
            if all(d and _p_valuation(d, p) < prec for d in divisors):
                break
            rounds += 1
            if p == 2:
                w = 2 * (prec + 2)
                rows = [rng.getrandbits(n * w) for _ in range(n)]
                digits = [r >> j * w + prec & 3 for r in rows for j in range(n)]
            else:
                digits = [rng.randrange(p * p) for _ in range(n * n)]
            entries = [e + p**prec * d for e, d in zip(entries, digits)]
            prec += 2
        vals = [_p_valuation(d, p) for d in divisors]
        longer = [e + p**prec * more.randrange(p * p) for e in entries]
        assert [_p_valuation(d, p) for d in smith_divisors(IntegerMatrix(n, n, longer))] == vals
        label = group_label(AbelianPGroup.from_valuations(p, vals))
        counts[label] = counts.get(label, 0) + 1
    dist = empirical_cl_distribution(n, p, k, samples, Random(seed))
    assert (dist.counts, dist.meta["refinement_rounds"]) == (dict(sorted(counts.items())), rounds)


def test_cl_distribution_validation():
    with pytest.raises(ValueError):
        empirical_cl_distribution(4, 2, 3, 10, Random(0))  # k too small
    with pytest.raises(ValueError, match="nonnegative"):
        empirical_cl_distribution(-1, 2, 6, 10, Random(0))
    for p in (1, 4):
        with pytest.raises(ValueError, match="prime"):
            empirical_cl_distribution(4, p, 6, 10, Random(0))


def test_distribution_streams_at_benchmark_shapes():
    # Counts and draw statistics at the sha and cl benchmark shapes, so
    # that any change in the order of the RNG calls shows; (9, 1, 1, 3)
    # rejects draws of corank 3.
    sha = [
        (
            (10, 10**4, 0, 2),
            {"2:[1,1,1,1]": 1, "2:[1,1]": 75, "2:[2,2,1,1]": 1, "2:[2,2]": 38,
             "2:[3,3]": 22, "2:[4,4]": 11, "2:[5,5]": 7, "2:[6,6]": 2,
             "2:[7,7]": 3, "2:[8,8]": 1, "2:[]": 139},
            300,
        ),
        ((9, 50, 1, 3), {"3:[1,1]": 14, "3:[]": 286}, 300),
        ((9, 1, 1, 3), {"3:[1,1]": 11, "3:[2,2]": 1, "3:[]": 288}, 302),
    ]
    for args, counts, draws in sha:
        dist = empirical_sha_distribution(*args, 300, Random(1))
        assert (dist.counts, dist.meta["draws"]) == (counts, draws), args
    dist = empirical_cl_distribution(8, 2, 8, 600, Random(1))
    assert dist.counts == {
        "2:[1,1,1]": 1, "2:[1,1]": 35, "2:[1]": 172, "2:[2,1,1]": 1,
        "2:[2,1]": 21, "2:[2,2]": 1, "2:[2]": 73, "2:[3,1,1]": 1,
        "2:[3,1]": 12, "2:[3,2]": 1, "2:[3]": 45, "2:[4,1]": 5, "2:[4,2]": 1,
        "2:[4]": 18, "2:[5,1]": 3, "2:[5]": 15, "2:[6,1]": 1, "2:[6]": 7,
        "2:[7,1]": 1, "2:[7]": 3, "2:[8]": 3, "2:[9,2]": 1, "2:[9]": 1, "2:[]": 178,
    }
    assert dist.meta["refinement_rounds"] == 5


def test_empirical_distribution_container():
    d = EmpiricalDistribution({"a": 3, "b": 1}, 4, meta={})
    assert d.frequency("a") == 0.75
    assert d.frequency("missing") == 0.0
    with pytest.raises(ValueError):
        EmpiricalDistribution({"a": 3}, 5, meta={})
    with pytest.raises(ValueError):
        EmpiricalDistribution({"a": -1}, -1, meta={})


# ---------------------------------------------------------------------------
# survey


def test_rank_survey_structure_and_determinism(monkeypatch):
    monkeypatch.setattr(altrank.model, "CHUNK", 500)
    grid = [10**6, 10**8, 10**10]
    cfg = ModelConfig(seed=777)
    recs1, fits1 = rank_survey(grid, 1500, cfg)
    recs2, fits2 = rank_survey(grid, 1500, cfg, threads=2)
    assert recs1 == recs2  # chunk seeding makes threads invisible
    assert fits1.keys() == fits2.keys()
    for r in fits1:
        assert fits1[r] == fits2[r]
    assert len(recs1) == 3 * 5
    for rec in recs1:
        assert rec.h_lo == rec.h_hi // 2
        assert rec.curves_sampled == 1500
        assert 0 <= rec.hits <= 1500
    by_band = {}
    for rec in recs1:
        by_band.setdefault(rec.h_hi, {})[rec.r] = rec.hits
    for h, hits in by_band.items():
        for r in range(1, 5):
            assert hits[r] >= hits[r + 1]  # thresholds nest


def test_rank_survey_hits_pinned(monkeypatch):
    # three bands of five small chunks each; pins the survey's RNG order
    # (matrix size, then entries: each band lies in one schedule interval,
    # so no curve is drawn)
    monkeypatch.setattr(altrank.model, "CHUNK", 64)
    recs, _ = rank_survey([10**6, 10**12, 10**18], 300, ModelConfig(seed=2024))
    assert [rec.hits for rec in recs] == [
        191, 31, 2, 0, 0,
        167, 19, 0, 0, 0,
        160, 9, 0, 0, 0,
    ]


def test_rank_survey_benchmark_grid_pinned():
    # the benchmark survey grid, one chunk of 10**4 curves per band;
    # recorded with no curve drawn, since every band lies in one
    # schedule interval, and one bit per size
    recs, _ = rank_survey(
        [10**k for k in (6, 9, 12, 15, 18, 21, 24)], 10_000, ModelConfig(seed=12345)
    )
    assert [rec.hits for rec in recs] == [
        6104, 1099, 48, 0, 0,
        5803, 725, 17, 0, 0,
        5520, 572, 9, 0, 0,
        5483, 467, 4, 0, 0,
        5166, 250, 10, 0, 0,
        5341, 244, 10, 0, 0,
        5267, 220, 0, 0, 0,
    ]


def test_rank_survey_seed_sensitivity(monkeypatch):
    monkeypatch.setattr(altrank.model, "CHUNK", 400)
    grid = [10**6, 10**8, 10**10]
    recs_a, _ = rank_survey(grid, 800, ModelConfig(seed=1))
    recs_b, _ = rank_survey(grid, 800, ModelConfig(seed=2))
    assert recs_a != recs_b


def test_rank_survey_validation():
    cfg = ModelConfig()
    with pytest.raises(ValueError):
        rank_survey([10**6, 10**8], 100, cfg)  # too few points
    with pytest.raises(ValueError):
        rank_survey([10**8, 10**6, 10**10], 100, cfg)  # not increasing
    with pytest.raises(ValueError):
        rank_survey([50, 10**6, 10**8], 100, cfg)  # below MIN_HEIGHT
    with pytest.raises(ValueError, match="at most"):
        rank_survey([10**400, 10**401, 10**402], 100, cfg)  # past float range


# ---------------------------------------------------------------------------
# predicted table


def test_predicted_table_reference_values():
    # long-run percentage table; printed reference is rounded to 0.1
    reference = {
        10**10: (30.8, 42.7, 19.2, 7.3),
        10**11: (32.6, 43.9, 17.4, 6.0),
        10**12: (34.2, 45.0, 15.8, 5.0),
        10**13: (35.6, 45.9, 14.4, 4.1),
        10**14: (36.9, 46.6, 13.0, 3.4),
        10**15: (38.1, 47.2, 11.9, 2.8),
    }
    rows = predicted_table(sorted(reference))
    for h, c1, c2, c3, c4 in rows:
        for got, want in zip((c1, c2, c3, c4), reference[h]):
            # the reference digits are independently rounded, so agreement
            # is one decimal place, not half an ulp
            assert abs(got - want) <= 0.1 + 1e-9


def test_predicted_table_column_identities():
    rows = predicted_table([10**8, 10**12, 10**20])
    for _, c1, c2, c3, c4 in rows:
        assert c1 + c3 == pytest.approx(50.0, abs=1e-9)
        assert c2 + c4 == pytest.approx(50.0, abs=1e-9)
        assert c1 < c2 and c3 > c4  # rank 1 beats rank 0; tails order


def test_predicted_table_validation():
    with pytest.raises(ValueError):
        predicted_table([1])
