import json
import math
from fractions import Fraction
from itertools import islice, product
from random import Random

import pytest
from hypothesis import given, strategies as st

import altrank.model
from altrank.cli import main
from altrank.groups import AbelianPGroup, group_label
from altrank.linalg import (
    AlternatingMatrix,
    _p_valuation,
    cokernel,
    kernel_rank,
    smith_divisors,
)
from altrank.model import (
    MAX_TRIAL_DIVISOR,
    MIN_HEIGHT,
    CurveParams,
    EmpiricalDistribution,
    ModelConfig,
    count_curves_exact,
    curve_height,
    draw_model,
    empirical_cl_distribution,
    empirical_corank_prob,
    empirical_sha_distribution,
    empirical_square_cyclic_fraction,
    is_square_of_cyclic,
    is_valid_curve,
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
    _coefficient_box,
    _curve_stream,
    _draws,
    _schedule_interval,
    _small_band_nonempty,
    _survey_chunk,
)
from altrank.parallel import chunk_seed
from altrank.periods import period_bound_scan
from altrank.primes import factorize


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
        (12, 14),
        (-59, 46),
        (-2219, 147799),
        (-56036427, -102681405638),
        (12150527377787, 6730793169310134583),
    ]


BAND_TEST_CAPS = (
    list(range(100, 2501))
    + [8 * a**3 + e for a in range(3, 31) for e in (-1, 0, 1)]
    + [54 * b**2 + e for b in range(2, 41) for e in (-1, 0, 1)]
)


def test_band_test_on_raw_draws_is_exact(monkeypatch):
    # The curve stream drops a box draw (r4, r6) when r4 is within a_lo
    # of a_max and r6 within b_lo of b_max, before any height is formed.
    # Fed every cell of the box, it must yield exactly the valid curves
    # with 2 * height > cap, at every cube and square boundary 8*a**3
    # and 54*b**2 too.
    axes = iter(())

    def draws(rng, span):
        # the a4 iterator is made first, then the a6 one
        return next(axes)

    monkeypatch.setattr(altrank.model, "_draws", draws)
    for cap in BAND_TEST_CAPS:
        a_max, b_max = _coefficient_box(cap)
        box = list(product(range(-a_max, a_max + 1), range(-b_max, b_max + 1)))
        want = [
            (a4, a6, curve_height(a4, a6))
            for a4, a6 in box
            if 2 * curve_height(a4, a6) > cap and is_valid_curve(a4, a6)
        ]
        if not want:  # an empty band is refused at the first curve
            with pytest.raises(ValueError, match="no valid curve"):
                next(_curve_stream(cap, None))
            continue
        axes = iter([(a4 + a_max for a4, _ in box), (a6 + b_max for _, a6 in box)])
        assert list(_curve_stream(cap, None)) == want, cap


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


@pytest.mark.parametrize(
    "span",
    [1, 2, 3]
    + [2**k + e for k in (5, 16, 32) for e in (-1, 0, 1)]
    + [2**64 + 3, 10**30],
)
def test_draws_are_randrange(span):
    ours, ref = Random(span), Random(span)
    got = list(islice(_draws(ours, span), 300))
    assert got == [ref.randrange(span) for _ in range(300)]
    assert ours.getstate() == ref.getstate()


def test_draws_interleave_like_calls():
    # two iterators over one rng, taken alternately, are randrange calls
    # alternating between the two spans
    ours, ref = Random(7), Random(7)
    small, big = _draws(ours, 5), _draws(ours, 10**30)
    got = [(next(small), next(big)) for _ in range(200)]
    assert got == [(ref.randrange(5), ref.randrange(10**30)) for _ in range(200)]
    assert ours.getstate() == ref.getstate()


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
    ModelConfig(eta_floor=4, x_min=3),
    ModelConfig(eta_floor=1, x_min=7, calibration_exponent="1/6"),
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
    if lo:  # lo = 0: no lower end
        assert _schedule_pair(lo, cfg) == (eta, x)
        assert _schedule_pair(lo - 1, cfg) != (eta, x)


def test_survey_chunk_matches_public_draws():
    # The survey reuses (eta, x) across its schedule interval and ranks
    # the raw entries; it must make the draws model_params and
    # sample_alternating make.  Band (0.75, 1.5] * 3**36 crosses the
    # eta step at 3**36, from (eta, x) = (2, 6) to (3, 4).
    for cap, cfg in [
        (3**37 // 2, ModelConfig(seed=9)),
        (10**9, ModelConfig(seed=10, calibration_exponent="1/6", x_min=3)),
    ]:
        rng = Random(chunk_seed(cfg.seed, "survey:0", 0))
        want = [0] * 6
        for _ in range(600):
            c = sample_curve_in_band(cap, rng)
            p = model_params(c.height, cfg, rng)
            corank = kernel_rank(sample_alternating(p.n, p.x, rng))
            for r in range(1, min(corank, 5) + 1):
                want[r] += 1
        assert _survey_chunk((cap, 0, 0, 600, cfg)) == want


def test_model_config_validation():
    with pytest.raises(TypeError):
        ModelConfig(calibration_exponent=1 / 12)
    with pytest.raises(ValueError):
        ModelConfig(calibration_exponent=Fraction(0))
    with pytest.raises(ValueError):
        ModelConfig(eta_schedule="sqrt")
    with pytest.raises(ValueError):
        ModelConfig(x_min=1)
    with pytest.raises(ValueError):
        ModelConfig(chunk=0)
    cfg = ModelConfig(calibration_exponent="1/6")
    assert cfg.calibration_exponent == Fraction(1, 6)


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
    # with a large forced entry bound the even-n draw is almost never
    # singular, so P(rk' >= 1) approaches the odd-n frequency 1/2
    rng = Random(36)
    cfg = ModelConfig(eta_schedule="constant", x_min=200)
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
    dist = empirical_sha_distribution(2, 3, 0, 2, 4000, Random(38))
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


def test_cl_distribution_validation():
    with pytest.raises(ValueError):
        empirical_cl_distribution(4, 2, 3, 10, Random(0))  # k too small
    with pytest.raises(ValueError, match="nonnegative"):
        empirical_cl_distribution(-1, 2, 6, 10, Random(0))
    for p in (1, 4):
        with pytest.raises(ValueError, match="prime"):
            empirical_cl_distribution(4, p, 6, 10, Random(0))


def test_empirical_distribution_container():
    d = EmpiricalDistribution({"a": 3, "b": 1}, 4)
    assert d.frequency("a") == 0.75
    assert d.frequency("missing") == 0.0
    with pytest.raises(ValueError):
        EmpiricalDistribution({"a": 3}, 5)
    with pytest.raises(ValueError):
        EmpiricalDistribution({"a": -1}, -1)


# ---------------------------------------------------------------------------
# survey


def test_rank_survey_structure_and_determinism():
    grid = [10**6, 10**8, 10**10]
    cfg = ModelConfig(seed=777, chunk=500)
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


def test_rank_survey_hits_pinned():
    # three bands of five small chunks each; pins the survey's RNG order
    # (curve, then matrix size, then entries)
    recs, _ = rank_survey(
        [10**6, 10**12, 10**18], 300, ModelConfig(seed=2024, chunk=64)
    )
    assert [rec.hits for rec in recs] == [
        182, 30, 2, 0, 0,
        176, 17, 1, 0, 0,
        153, 7, 1, 0, 0,
    ]


def test_rank_survey_benchmark_grid_pinned():
    # the benchmark survey grid, one chunk of 10**4 curves per band;
    # recorded before the band test on raw draws and the one-tally chunk
    recs, _ = rank_survey(
        [10**k for k in (6, 9, 12, 15, 18, 21, 24)], 10_000, ModelConfig(seed=12345)
    )
    assert [rec.hits for rec in recs] == [
        5992, 1118, 42, 0, 0,
        5722, 765, 20, 0, 0,
        5650, 557, 7, 0, 0,
        5411, 426, 4, 0, 0,
        5292, 245, 1, 0, 0,
        5209, 253, 8, 0, 0,
        5275, 224, 1, 0, 0,
    ]


def test_rank_survey_seed_sensitivity():
    grid = [10**6, 10**8, 10**10]
    recs_a, _ = rank_survey(grid, 800, ModelConfig(seed=1, chunk=400))
    recs_b, _ = rank_survey(grid, 800, ModelConfig(seed=2, chunk=400))
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
