"""Random alternating-matrix model for curves ordered by height.

A curve y^2 = x^3 + a4*x + a6 has height max(|4*a4^3|, 27*a6^2).  For a
curve of height H the model draws a uniform alternating integer matrix
whose size n sits near a slowly growing eta(H) and whose entry bound
x(H) keeps x**eta within a constant factor of H**(1/12).  The corank of
the draw stands in for the Mordell-Weil rank and the cokernel torsion
for the Shafarevich-Tate group, so rank and Sha statistics across a
height range reduce to exact integer linear algebra on samples.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from random import Random
from typing import NamedTuple

from .fitting import FitResult, exponent_fit
from .frozen import Factory, frozen
from .groups import AbelianPGroup, group_label
from .linalg import (
    AlternatingMatrix,
    _alternating_rank,
    _corank_p_exponents,
    cokernel,
    diag_valuations_mod,
    kernel_rank,  # unused here, like smith_divisors: perfbench wraps both
    smith_divisors,
)
from .parallel import CHUNK, chunk_seed, chunk_sizes, map_chunks
from .primes import iroot, is_prime

# counting is imported inside the two functions that use it, so the
# survey and the distribution commands never load it

__all__ = [
    "CurveParams",
    "ModelConfig",
    "ModelParams",
    "ModelDraw",
    "EmpiricalDistribution",
    "Estimate",
    "SurveyRecord",
    "FitResult",
    "curve_height",
    "is_valid_curve",
    "count_curves_exact",
    "sample_curve_in_band",
    "schedule_eta",
    "schedule_x",
    "model_params",
    "sample_alternating",
    "draw_model",
    "torsion_label",
    "is_square_of_cyclic",
    "empirical_corank_prob",
    "empirical_sha_distribution",
    "empirical_square_cyclic_fraction",
    "empirical_cl_distribution",
    "rank_survey",
    "predicted_table",
    "exponent_fit",
]

_LN3 = math.log(3)

MIN_HEIGHT = 100

# the survey's slope fit and the period scan take heights as floats
MAX_FLOAT_HEIGHT = int(sys.float_info.max)


# ---------------------------------------------------------------------------
# uniform draws


def _draws(rng: Random, span: int):
    """Endless iterator of the integers that successive
    rng.randrange(span) calls would return, for span >= 1.

    A copy of CPython's Random._randbelow_with_getrandbits: getrandbits
    of span's bit length, redrawn while it is at least span.  Each value
    is drawn when it is taken, so the RNG state after taking m values is
    the state after m randrange calls, and iterators over one rng
    interleave exactly as the calls would.  What this skips is
    randrange's argument handling and a function call per draw, most of
    the cost of a draw at the model's small spans.
    """
    getrandbits = rng.getrandbits
    k = span.bit_length()
    while True:
        r = getrandbits(k)
        while r >= span:
            r = getrandbits(k)
        yield r


# ---------------------------------------------------------------------------
# the curve family


def curve_height(a4: int, a6: int) -> int:
    return max(abs(4 * a4 * a4 * a4), 27 * a6 * a6)


# is_valid_curve trial-divides by 2, 3, ..., MAX_TRIAL_DIVISOR at most
MAX_TRIAL_DIVISOR = 10**6


def is_valid_curve(a4: int, a6: int) -> bool:
    """Nonsingular and minimal: 4*a4^3 + 27*a6^2 != 0 and no prime p has
    p^4 | a4 and p^6 | a6 (Silverman, AEC VIII.8).

    Such a p has p^4 | g = gcd(a4, a6), and p^6 | g when a4 = 0 (then
    g = |a6|), so trial division by every integer d from 2 to the 4th
    (6th) root of g suffices: a composite d that passes has a prime
    factor that passes too.  Trial division stops at MAX_TRIAL_DIVISOR:
    a hit answers False, and a root above it with no hit raises
    ValueError, since settling that is as hard as testing g for a
    4th (6th) power factor.  A box draw of the curve sampler meets such
    a g with probability below 1e-23: it needs g > 10**24, or a4 = 0
    and |a6| > 10**36.
    """
    if 4 * a4 * a4 * a4 + 27 * a6 * a6 == 0:
        return False
    g = math.gcd(a4, a6)
    if g < 16:
        return True
    root = iroot(g, 4) if a4 else iroot(g, 6)
    for d in range(2, min(root, MAX_TRIAL_DIVISOR) + 1):
        if a4 % d**4 == 0 and a6 % d**6 == 0:
            return False
    if root > MAX_TRIAL_DIVISOR:
        raise ValueError(
            f"minimality of a curve with a {g.bit_length()}-bit "
            f"gcd(a4, a6) is not settled by trial division up to "
            f"MAX_TRIAL_DIVISOR = {MAX_TRIAL_DIVISOR}"
        )
    return True


@frozen
class CurveParams:
    a4: int
    a6: int

    def __post_init__(self):
        if not is_valid_curve(self.a4, self.a6):
            raise ValueError(
                f"({self.a4}, {self.a6}) is singular or non-minimal"
            )

    @property
    def height(self) -> int:
        return curve_height(self.a4, self.a6)


def _coefficient_box(height_cap: int):
    # |4*a4^3| <= H and 27*a6^2 <= H hold everywhere inside this box
    return iroot(height_cap // 4, 3), math.isqrt(height_cap // 27)


def count_curves_exact(height_cap: int) -> int:
    """Exhaustive count of valid coefficient pairs with height <= height_cap.

    Grows like 0.4845 * height_cap^(5/6) for large caps.
    """
    from .counting import CapExceededError

    cap = 10**8
    if height_cap < 0:
        return 0
    a_max, b_max = _coefficient_box(height_cap)
    cells = (2 * a_max + 1) * (2 * b_max + 1)
    if cells > cap:
        raise CapExceededError(f"{cells} coefficient pairs exceed cap {cap}")
    total = 0
    for a4 in range(-a_max, a_max + 1):
        for a6 in range(-b_max, b_max + 1):
            if is_valid_curve(a4, a6):
                total += 1
    return total


def _band_nonempty(height_cap: int) -> bool:
    # from 1e4 up the (0, a6) ladder alone always lands in the band, so
    # only the caps below it are searched, and cached
    return height_cap >= 10_000 or _small_band_nonempty(height_cap)


@lru_cache(maxsize=None)
def _small_band_nonempty(height_cap: int) -> bool:
    # Achievable heights are spaced like 12*a4^2 and 54*a6, so small caps
    # can have an empty (cap/2, cap] band.
    a_max, b_max = _coefficient_box(height_cap)
    return any(
        2 * curve_height(a4, a6) > height_cap and is_valid_curve(a4, a6)
        for a4 in range(-a_max, a_max + 1)
        for a6 in range(-b_max, b_max + 1)
    )


def _curve_stream(height_cap: int, rng: Random):
    """Endless (a4, a6, height) of independent uniform valid curves with
    height in (height_cap/2, height_cap], by rejection from the
    coefficient box.  The band is checked at the first curve.

    The band condition 2*height > height_cap is tested on the raw draws:
    it fails exactly when |a4| <= a_lo = iroot(height_cap // 8, 3) and
    |a6| <= b_lo = isqrt(height_cap // 54), since 8*|a4|**3 > height_cap
    iff |a4|**3 > height_cap // 8, and 54*a6**2 > height_cap iff
    a6**2 > height_cap // 54.  So a draw is dropped when r4 = a4 + a_max
    lies in [a_max - a_lo, a_max + a_lo] and r6 = a6 + b_max in
    [b_max - b_lo, b_max + b_lo], and only draws in the band pay for
    curve_height and is_valid_curve.
    """
    if height_cap < MIN_HEIGHT:
        raise ValueError(f"band top must be at least {MIN_HEIGHT}")
    if not _band_nonempty(height_cap):
        raise ValueError(
            f"no valid curve has height in ({height_cap}/2, {height_cap}]"
        )
    a_max, b_max = _coefficient_box(height_cap)
    a_lo, b_lo = iroot(height_cap // 8, 3), math.isqrt(height_cap // 54)
    lo4, hi4 = a_max - a_lo, a_max + a_lo
    lo6, hi6 = b_max - b_lo, b_max + b_lo
    # rng.randint(-m, m) is -m + rng.randrange(2*m + 1); zip takes the
    # a4 draw before the a6 draw, as two randint calls would
    for r4, r6 in zip(_draws(rng, 2 * a_max + 1), _draws(rng, 2 * b_max + 1)):
        if lo4 <= r4 <= hi4 and lo6 <= r6 <= hi6:
            continue
        a4, a6 = r4 - a_max, r6 - b_max
        h = curve_height(a4, a6)
        if is_valid_curve(a4, a6):
            yield a4, a6, h


def sample_curve_in_band(height_cap: int, rng: Random) -> CurveParams:
    """Uniform over valid curves with height in (height_cap/2, height_cap]."""
    a4, a6, _ = next(_curve_stream(height_cap, rng))
    return CurveParams(a4, a6)


# ---------------------------------------------------------------------------
# configuration and the (eta, x) schedule


@frozen
class ModelConfig:
    """Knobs of the sampler.

    eta_schedule "log3" sets eta = max(eta_floor, floor of the base-3 log
    of height**calibration_exponent); "constant" pins eta = eta_floor.
    The entry bound is then x = max(x_min, ceil(height**(ce/eta))), both
    computed in exact integer arithmetic, so that x**eta tracks
    height**ce up to a bounded factor.  With the defaults the ratio
    x**eta / height**(1/12) stays inside [1, 16] for heights between
    1e4 and 1e30.
    """

    eta_schedule: str = "log3"
    eta_floor: int = 2
    x_min: int = 2
    calibration_exponent: Fraction = Fraction(1, 12)
    seed: int = 12345
    chunk: int = CHUNK

    def __post_init__(self):
        ce = self.calibration_exponent
        if isinstance(ce, float):
            raise TypeError(
                "calibration_exponent must be exact; pass a Fraction or a "
                "string like '1/12'"
            )
        if not isinstance(ce, Fraction):
            try:
                ce = Fraction(ce)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"calibration_exponent {ce!r} is not a fraction") from None
            object.__setattr__(self, "calibration_exponent", ce)
        if self.calibration_exponent <= 0:
            raise ValueError("calibration_exponent must be positive")
        if self.eta_schedule not in ("log3", "constant"):
            raise ValueError(f"unknown eta schedule {self.eta_schedule!r}")
        if self.eta_floor < 1:
            raise ValueError("eta_floor must be at least 1")
        if self.x_min < 2:
            raise ValueError("x_min must be at least 2")
        if self.chunk < 1:
            raise ValueError("chunk must be positive")


class ModelParams(NamedTuple):
    eta: int
    n: int
    x: int


def schedule_eta(height: int, cfg: ModelConfig) -> int:
    if cfg.eta_schedule == "constant":
        return cfg.eta_floor
    num = cfg.calibration_exponent.numerator
    den = cfg.calibration_exponent.denominator
    target = height**num
    # largest v with 3^(v*den) <= height^num; float guess, exact polish
    v = max(0, int(num * math.log(height) / (den * _LN3)))
    while 3 ** ((v + 1) * den) <= target:
        v += 1
    while v > 0 and 3 ** (v * den) > target:
        v -= 1
    return max(cfg.eta_floor, v)


def schedule_x(height: int, eta: int, cfg: ModelConfig) -> int:
    """Exact ceil(height**(ce/eta)), clamped below by x_min."""
    num = cfg.calibration_exponent.numerator
    den = cfg.calibration_exponent.denominator * eta
    target = height**num
    r = iroot(target, den)
    if r**den != target:
        r += 1
    return max(cfg.x_min, r)


def model_params(height: int, cfg: ModelConfig, rng: Random) -> ModelParams:
    """Matrix size (uniform on {eta, eta+1}) and entry bound for one draw."""
    if height < MIN_HEIGHT:
        raise ValueError(f"height must be at least {MIN_HEIGHT}")
    eta = schedule_eta(height, cfg)
    return ModelParams(eta, eta + next(_draws(rng, 2)), schedule_x(height, eta, cfg))


def _schedule_interval(height: int, cfg: ModelConfig):
    """(lo, hi, eta, x) with eta = schedule_eta(h, cfg) and
    x = schedule_x(h, eta, cfg) for every height h in [lo, hi], an
    interval that contains `height`; (eta, x) differ at hi + 1, and at
    lo - 1 unless lo is 0.

    In terms of T = h**num (calibration exponent num/den): under "log3"
    eta is fixed on [3**(eta*den), 3**((eta+1)*den) - 1], with the lower
    end dropped at eta_floor, and x = ceil(T**(1/(den*eta))) is fixed on
    ((x-1)**(den*eta), x**(den*eta)], with the lower end dropped at
    x_min.  Only the ends come from these formulas; (eta, x) come from
    the schedule itself.
    """
    num = cfg.calibration_exponent.numerator
    den = cfg.calibration_exponent.denominator
    eta = schedule_eta(height, cfg)
    x = schedule_x(height, eta, cfg)
    d = den * eta
    t_lo, t_hi = 0, x**d
    if x > cfg.x_min:
        t_lo = (x - 1) ** d + 1
    if cfg.eta_schedule == "log3":
        t_hi = min(t_hi, 3 ** ((eta + 1) * den) - 1)
        if eta > cfg.eta_floor:
            t_lo = max(t_lo, 3 ** (eta * den))
    # heights h with t_lo <= h**num <= t_hi
    lo = iroot(t_lo, num)
    if lo**num < t_lo:
        lo += 1
    return lo, iroot(t_hi, num), eta, x


def _alternating_upper(n: int, x: int, entries) -> list:
    """n(n-1)/2 upper entries from `entries` = _draws(rng, 2*x + 1)."""
    return [r - x for r in islice(entries, n * (n - 1) // 2)]


def sample_alternating(n: int, x: int, rng: Random) -> AlternatingMatrix:
    """Entries above the diagonal independent uniform on {-x, ..., x}."""
    if x < 0:
        raise ValueError(f"entry bound x must be nonnegative, got {x}")
    return AlternatingMatrix(n, _alternating_upper(n, x, _draws(rng, 2 * x + 1)))


# ---------------------------------------------------------------------------
# single draws


@frozen
class ModelDraw:
    height: int
    n: int
    x: int
    rk_prime: int
    sha_label: str
    sha_order: int


def torsion_label(torsion) -> str:
    """Canonical bracket form of an invariant-factor chain, e.g. "[2,2]"."""
    return "[" + ",".join(str(d) for d in torsion) + "]"


def is_square_of_cyclic(torsion) -> bool:
    # invariant factors arrive paired, so 0 or 1 pair means C_d x C_d
    return len(torsion) == 0 or (
        len(torsion) == 2 and torsion[0] == torsion[1]
    )


def draw_model(height: int, cfg: ModelConfig, rng: Random) -> ModelDraw:
    """One model draw: corank plays the rank, cokernel torsion plays Sha."""
    params = model_params(height, cfg, rng)
    structure = cokernel(sample_alternating(params.n, params.x, rng))
    return ModelDraw(
        height=height,
        n=params.n,
        x=params.x,
        rk_prime=structure.free_rank,
        sha_label=torsion_label(structure.torsion),
        sha_order=structure.torsion_order,
    )


# ---------------------------------------------------------------------------
# empirical distributions


class Estimate(NamedTuple):
    value: float
    stderr: float


@frozen
class EmpiricalDistribution:
    counts: dict
    total: int
    meta: dict = Factory(dict)

    def __post_init__(self):
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("negative count")
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")

    def frequency(self, key) -> float:
        return self.counts.get(key, 0) / self.total


def _label_counts(p: int, tallies: Counter) -> dict:
    """Counts per group label, sorted by label, from counts per tuple of
    valuations; each distinct tuple is labelled once."""
    counts: Counter = Counter()
    for vals, c in tallies.items():
        counts[group_label(AbelianPGroup.from_valuations(p, vals))] += c
    return dict(sorted(counts.items()))


def empirical_corank_prob(n: int, x: int, r: int) -> Fraction:
    """Prob(corank >= r) for uniform alternating n x n, |entries| <= x,
    exactly, from the census of the whole box (subject to the
    enumeration cap)."""
    from .counting import count_alternating_by_rank

    if r <= 0:
        return Fraction(1)
    hist = count_alternating_by_rank(n, x, norm="box")
    return Fraction(hist.at_most(n - r), hist.total)


def empirical_sha_distribution(
    n: int,
    x: int,
    r: int,
    p: int,
    samples: int,
    rng: Random,
) -> EmpiricalDistribution:
    """Distribution of the p-part label of the cokernel torsion among
    draws conditioned on corank exactly r.  `samples` counts accepted
    draws; rejected ones are discarded.

    Each draw goes through one exact route, linalg's local Smith kernel
    modulo a power of p: its count of vanishing diagonals certifies the
    corank, and its valuations are those of the integer Smith form,
    which stays the route's oracle in the tests.  Certification draws
    no random numbers.
    """
    if r not in (0, 1):
        raise ValueError("conditioned corank must be 0 or 1")
    if n % 2 != r % 2:
        raise ValueError("corank r requires n = r (mod 2)")
    if x < 1:
        # x = 0 draws only the zero matrix, whose corank is always n
        raise ValueError("entry bound x must be at least 1")
    if samples < 1:
        raise ValueError("need at least one sample")
    if not is_prime(p):
        # the kernel inverts units mod p**prec, which needs p prime
        raise ValueError(f"p must be prime, got {p}")
    counts: Counter = Counter()
    drawn = 0
    kept = 0
    while kept < samples:
        a = sample_alternating(n, x, rng)
        drawn += 1
        exponents = _corank_p_exponents(n, a.upper, p, r)
        if exponents is None:
            continue
        kept += 1
        counts[tuple(exponents)] += 1
    return EmpiricalDistribution(
        _label_counts(p, counts),
        samples,
        meta={"n": n, "x": x, "r": r, "p": p, "draws": drawn},
    )


def empirical_square_cyclic_fraction(
    n: int, x: int, samples: int, rng: Random
) -> Estimate:
    """Fraction of corank-0 draws whose full torsion (all primes, exact
    Smith form) is the square of a cyclic group."""
    if n % 2:
        raise ValueError("corank 0 requires even n")
    if x < 1:
        raise ValueError("entry bound x must be at least 1")
    if samples < 1:
        raise ValueError("need at least one sample")
    hits = 0
    kept = 0
    while kept < samples:
        structure = cokernel(sample_alternating(n, x, rng))
        if structure.free_rank != 0:
            continue
        kept += 1
        if is_square_of_cyclic(structure.torsion):
            hits += 1
    p_hat = hits / samples
    return Estimate(p_hat, math.sqrt(p_hat * (1 - p_hat) / samples))


def empirical_cl_distribution(
    n: int, p: int, k: int, samples: int, rng: Random
) -> EmpiricalDistribution:
    """p-part labels of cokernels of uniform square matrices mod p**k.

    Entries are only known to a finite number of p-adic digits, so each
    draw is certified by one elimination modulo p**(prec+2), the digits
    drawn so far: no diagonal may vanish and every valuation must be at
    most prec-2.  The kernel's ints are exact, so an accepted draw's
    cokernel does not depend on the digits not yet drawn.  The bound
    prec-2 is stricter than exactness needs; it fixes which draws are
    refined, and so the RNG stream and `refinement_rounds`.
    An uncertified draw gets two more uniform digits appended to every
    entry (which refines the same p-adic law) and is retried at higher
    precision.
    """
    if n < 0:
        raise ValueError(f"matrix size n must be nonnegative, got {n}")
    if k < 5:
        raise ValueError("precision k must be at least 5")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if samples < 1:
        raise ValueError("need at least one sample")
    counts: Counter = Counter()
    refinement_rounds = 0
    digits = _draws(rng, p**k)
    refinements = _draws(rng, p * p)
    for _ in range(samples):
        entries = [list(islice(digits, n)) for _ in range(n)]
        prec = k
        while True:
            step = p**prec
            for row in entries:
                for j in range(n):
                    row[j] += step * next(refinements)
            vals = diag_valuations_mod(entries, n, p, prec + 2)
            if None not in vals and all(v <= prec - 2 for v in vals):
                break
            refinement_rounds += 1
            prec += 2
            if prec > k + 24:
                raise RuntimeError(
                    "cokernel structure failed to stabilize; this has "
                    "probability around p**-24 and suggests a broken rng"
                )
        counts[tuple(vals)] += 1
    return EmpiricalDistribution(
        _label_counts(p, counts),
        samples,
        meta={
            "n": n,
            "p": p,
            "k": k,
            "refinement_rounds": refinement_rounds,
        },
    )


# ---------------------------------------------------------------------------
# the height survey


class SurveyRecord(NamedTuple):
    h_lo: int
    h_hi: int
    r: int
    curves_sampled: int
    hits: int
    estimated_probability: float
    standard_error: float


MAX_SURVEY_RANK = 5


def _survey_chunk(spec):
    """Count draws with corank >= r (r = 1..5) over one seeded chunk:
    each draw is tallied once by min(corank, 5), and the counts are
    summed from the top at the end.

    Each sampled curve contributes one model draw at its own height,
    the same draws as model_params and sample_alternating make; (eta, x)
    is reused while the height stays in its schedule interval.  Module
    level so process pools can pickle it.
    """
    height_cap, band_index, chunk_index, size, cfg = spec
    rng = Random(chunk_seed(cfg.seed, f"survey:{band_index}", chunk_index))
    hist = [0] * (MAX_SURVEY_RANK + 1)  # draws by min(corank, 5)
    size_bits = _draws(rng, 2)
    lo = hi = 0  # (eta, x) holds on [lo, hi]; heights are at least 100
    for _, _, h in islice(_curve_stream(height_cap, rng), size):
        if not lo <= h <= hi:
            lo, hi, eta, x = _schedule_interval(h, cfg)
            entries = _draws(rng, 2 * x + 1)
        n = eta + next(size_bits)
        corank = n - _alternating_rank(n, _alternating_upper(n, x, entries))
        hist[min(corank, MAX_SURVEY_RANK)] += 1
    return [0] + [sum(hist[r:]) for r in range(1, MAX_SURVEY_RANK + 1)]


def rank_survey(h_grid, curves_per_band: int, cfg: ModelConfig, threads: int = 1):
    """Estimated Prob(corank >= r), r = 1..5, per height band, plus
    log-log slope fits across the grid for every r with enough signal.

    Returns (records, fits) where fits maps r to a FitResult.  Chunk
    seeds derive from (cfg.seed, band, chunk), so results do not depend
    on the thread count.
    """
    h_grid = list(h_grid)
    if len(h_grid) < 3:
        raise ValueError("need at least 3 grid heights")
    if any(b <= a for a, b in zip(h_grid, h_grid[1:])):
        raise ValueError("grid heights must increase")
    if any(h < MIN_HEIGHT for h in h_grid):
        raise ValueError(f"grid heights must be at least {MIN_HEIGHT}")
    if h_grid[-1] > MAX_FLOAT_HEIGHT:
        raise ValueError(f"grid heights must be at most {MAX_FLOAT_HEIGHT:.6g}")
    if not all(_band_nonempty(h) for h in h_grid):
        raise ValueError("some grid band contains no valid curve")
    if curves_per_band < 1:
        raise ValueError("need at least one curve per band")
    specs = []
    for band_index, h in enumerate(h_grid):
        for chunk_index, size in enumerate(
            chunk_sizes(curves_per_band, cfg.chunk)
        ):
            specs.append((h, band_index, chunk_index, size, cfg))
    partials = map_chunks(_survey_chunk, specs, threads)
    per_band = [[0] * (MAX_SURVEY_RANK + 1) for _ in h_grid]
    for spec, part in zip(specs, partials):
        acc = per_band[spec[1]]
        for r in range(1, MAX_SURVEY_RANK + 1):
            acc[r] += part[r]
    records = []
    for band_index, h in enumerate(h_grid):
        for r in range(1, MAX_SURVEY_RANK + 1):
            hits = per_band[band_index][r]
            p_hat = hits / curves_per_band
            records.append(
                SurveyRecord(
                    h_lo=h // 2,
                    h_hi=h,
                    r=r,
                    curves_sampled=curves_per_band,
                    hits=hits,
                    estimated_probability=p_hat,
                    standard_error=math.sqrt(
                        p_hat * (1 - p_hat) / curves_per_band
                    ),
                )
            )
    fits = {}
    for r in range(1, MAX_SURVEY_RANK + 1):
        points = [
            (rec.h_hi, rec.estimated_probability)
            for rec in records
            if rec.r == r and rec.estimated_probability > 0
        ]
        if len(points) >= 3:
            fits[r] = exponent_fit(points)
    return records, fits


def predicted_table(h_list):
    """Closed-form long-run percentages per height: rank 0, rank 1,
    rank >= 2 even, rank >= 3 odd.  Columns 1+3 and 2+4 each sum to 50.
    """
    rows = []
    for h in h_list:
        if h <= 1:
            raise ValueError("heights must exceed 1")
        u = math.exp(-math.log(h) / 24)
        v = u * u
        rows.append((h, 50 * (1 - u), 50 * (1 - v), 50 * u, 50 * v))
    return rows
