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
from itertools import islice, repeat
from operator import itemgetter
from random import Random
from typing import NamedTuple

from .fitting import FitResult, exponent_fit
from .frozen import frozen
from .groups import AbelianPGroup, group_label
from .linalg import (
    AlternatingMatrix,
    _alternating_rank,
    _corank_p_exponents,
    _diag_valuations_mod2_packed,
    _lane_ones,
    cokernel,
    diag_valuations_mod,
    kernel_rank,  # unused here, like smith_divisors: perfbench wraps both
    smith_divisors,
)
from .parallel import CHUNK, map_chunks, seeded_chunks
from .primes import iroot, is_prime
from .settings import ModelConfig  # its home is the CLI front end

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
    "check_sha_distribution",
    "empirical_sha_distribution",
    "empirical_square_cyclic_fraction",
    "check_cl_distribution",
    "empirical_cl_distribution",
    "merge_distributions",
    "rank_survey",
    "predicted_table",
    "exponent_fit",
]

_LN3 = math.log(3)

MIN_HEIGHT = 100

# the survey's slope fit and the period scan take heights as floats
MAX_FLOAT_HEIGHT = int(sys.float_info.max)

DRAW_BUDGET = 15 * 10**6  # steps of about 0.1 us in one draw, as _check_draw_cost counts them


def _check_int(name: str, value) -> None:
    # a float is refused, not rounded: int(1e24) is 999999999999999983222784
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")


# ---------------------------------------------------------------------------
# the curve family


def curve_height(a4: int, a6: int) -> int:
    """max(|4*a4^3|, 27*a6^2); a float coefficient is refused, not rounded."""
    _check_int("a4", a4)
    _check_int("a6", a6)
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
    4th (6th) power factor.  A draw of the curve sampler meets such
    a g with probability below 1e-23: it needs g > 10**24, or a4 = 0
    and |a6| > 10**36.
    """
    if 4 * a4 * a4 * a4 + 27 * a6 * a6 == 0:
        return False
    g = math.gcd(a4, a6)
    if g < 16:
        return True
    # floor(sqrt(floor(sqrt(g)))) is floor(g**(1/4))
    root = math.isqrt(math.isqrt(g)) if a4 else iroot(g, 6)
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

    _check_int("height_cap", height_cap)
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
    height in (height_cap/2, height_cap], by one uniform index over the
    band's cells per attempt.  The band is checked at the first curve.

    The band is the coefficient box without its inner box |a4| <= a_lo,
    |a6| <= b_lo, where a_lo = iroot(height_cap // 8, 3) and b_lo =
    isqrt(height_cap // 54): 8*|a4|**3 > height_cap iff |a4|**3 >
    height_cap // 8, and 54*a6**2 > height_cap iff a6**2 > height_cap //
    54.  So it is two rectangles, A (|a4| > a_lo, any a6) and B
    (|a4| <= a_lo, |a6| > b_lo).  Each attempt draws one index r over A
    then B, as rng.randrange(|A| + |B|) would, by the getrandbits
    rejection loop of _uniform_list, and decodes it by one divmod: in A
    into a4's rank among the values outside [-a_lo, a_lo] and a6 + b_max,
    in B into a4 + a_lo and a6's rank among the values outside
    [-b_lo, b_lo].  Each band cell has one index, so a kept curve is
    uniform over the valid band curves.  A cell forms 4*a4**3 and
    27*a6**2 once, for the discriminant, for is_valid_curve's own early
    accept at gcd(a4, a6) < 16 and for the height; is_valid_curve runs
    only at gcd >= 16, where it may trial-divide.
    """
    _check_int("band top", height_cap)
    if height_cap < MIN_HEIGHT:
        raise ValueError(f"band top must be at least {MIN_HEIGHT}")
    if not _band_nonempty(height_cap):
        raise ValueError(
            f"no valid curve has height in ({height_cap}/2, {height_cap}]"
        )
    a_max, b_max = _coefficient_box(height_cap)
    a_lo, b_lo = iroot(height_cap // 8, 3), math.isqrt(height_cap // 54)
    # m4 (m6) values of a4 (a6) lie below the inner interval; a rank past
    # them skips its 2*a_lo + 1 (2*b_lo + 1) values
    m4, m6 = a_max - a_lo, b_max - b_lo
    skip4, skip6 = a_max - 2 * a_lo - 1, b_max - 2 * b_lo - 1
    span6, outer6 = 2 * b_max + 1, 2 * m6
    size_a = 2 * m4 * span6
    total = size_a + (2 * a_lo + 1) * outer6
    k = total.bit_length()
    getrandbits, gcd = rng.getrandbits, math.gcd
    while True:
        r = getrandbits(k)
        while r >= total:
            r = getrandbits(k)
        if r < size_a:
            a4, a6 = divmod(r, span6)
            a4 = a4 - a_max if a4 < m4 else a4 - skip4
            a6 -= b_max
        else:
            a4, a6 = divmod(r - size_a, outer6)
            a4 -= a_lo
            a6 = a6 - b_max if a6 < m6 else a6 - skip6
        c4, c6 = 4 * a4 * a4 * a4, 27 * a6 * a6
        if c4 + c6 and (gcd(a4, a6) < 16 or is_valid_curve(a4, a6)):
            yield a4, a6, c6 if -c6 <= c4 <= c6 else c4 if c4 > 0 else -c4


def sample_curve_in_band(height_cap: int, rng: Random) -> CurveParams:
    """Uniform over valid curves with height in (height_cap/2, height_cap]."""
    a4, a6, _ = next(_curve_stream(height_cap, rng))
    return CurveParams(a4, a6)


# ---------------------------------------------------------------------------
# configuration and the (eta, x) schedule


class ModelParams(NamedTuple):
    eta: int
    n: int
    x: int


def schedule_eta(height: int, cfg: ModelConfig) -> int:
    _check_int("height", height)
    if height < 1:
        raise ValueError(f"height must be at least 1, got {height}")
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
    """Exact ceil(height**(ce/eta)): at least 2 at every height above 1."""
    num = cfg.calibration_exponent.numerator
    den = cfg.calibration_exponent.denominator * eta
    target = height**num
    r = iroot(target, den)
    if r**den != target:
        r += 1
    return r


def model_params(height: int, cfg: ModelConfig, rng: Random) -> ModelParams:
    """Matrix size (uniform on {eta, eta+1}) and entry bound for one draw."""
    _check_int("height", height)
    if height < MIN_HEIGHT:
        raise ValueError(f"height must be at least {MIN_HEIGHT}")
    eta = schedule_eta(height, cfg)
    return ModelParams(eta, eta + rng.getrandbits(1), schedule_x(height, eta, cfg))


def _schedule_interval(height: int, cfg: ModelConfig):
    """(lo, hi, eta, x) with eta = schedule_eta(h, cfg) and
    x = schedule_x(h, eta, cfg) for every height h in [lo, hi], an
    interval that contains `height`; (eta, x) differ at lo - 1 and at
    hi + 1.

    In terms of T = h**num (calibration exponent num/den): under "log3"
    eta is fixed on [3**(eta*den), 3**((eta+1)*den) - 1], with the lower
    end dropped at eta_floor, and x = ceil(T**(1/(den*eta))) is fixed on
    ((x-1)**(den*eta), x**(den*eta)].  Only the ends come from these
    formulas; (eta, x) come from the schedule itself.
    """
    num = cfg.calibration_exponent.numerator
    den = cfg.calibration_exponent.denominator
    eta = schedule_eta(height, cfg)
    x = schedule_x(height, eta, cfg)
    d = den * eta
    t_lo, t_hi = (x - 1) ** d + 1, x**d
    if cfg.eta_schedule == "log3":
        t_hi = min(t_hi, 3 ** ((eta + 1) * den) - 1)
        if eta > cfg.eta_floor:
            t_lo = max(t_lo, 3 ** (eta * den))
    # heights h with t_lo <= h**num <= t_hi
    lo = iroot(t_lo, num)
    if lo**num < t_lo:
        lo += 1
    return lo, iroot(t_hi, num), eta, x


def _uniform_list(getrandbits, span: int, count: int, lo: int = 0) -> list:
    """count values lo + r, r uniform on {0, ..., span - 1}: the values
    and the RNG state of as many lo + rng.randrange(span) calls, where
    getrandbits is rng.getrandbits and span >= 1.

    A copy of CPython's Random._randbelow_with_getrandbits: getrandbits
    of span's bit length, redrawn while it is at least span.  What this
    skips is randrange's argument handling and a method call per value,
    most of the cost of a draw at the model's small spans.
    """
    k = span.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= span:
            r = getrandbits(k)
        out.append(lo + r)
    return out


def _alternating_upper(n: int, x: int, getrandbits) -> list:
    """n(n-1)/2 upper entries uniform on {-x, ..., x}: the values and
    the RNG state of as many rng.randrange(2*x + 1) - x calls, where
    getrandbits is rng.getrandbits."""
    return _uniform_list(getrandbits, 2 * x + 1, n * (n - 1) // 2, -x)


def sample_alternating(n: int, x: int, rng: Random) -> AlternatingMatrix:
    """Entries above the diagonal independent uniform on {-x, ..., x}."""
    if x < 0:
        raise ValueError(f"entry bound x must be nonnegative, got {x}")
    return AlternatingMatrix(n, _alternating_upper(n, x, rng.getrandbits))


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


def _check_draw_cost(keys: str, values, *eliminations) -> None:
    """Refuse a draw whose eliminations (s, b) pass DRAW_BUDGET steps, in
    ints: s steps on entries of about b bits (a dense n x n elimination is
    s = n**3) take s * (1 + b / 300)**2 steps of about 0.1 us, as CPython
    works on small ints at a fixed cost and divides long ones in time
    quadratic in their length.  keys.format(*values) names the keys, an
    int past 2**100 by its bits.  check_sha_distribution,
    check_cl_distribution and rank_survey price their draws in comments.
    The constants fit timed eliminations on a 2-core Xeon VM within 1.5x
    from about 1000 to 66000 bits, and up to 3x high on small entries;
    BENCH_rank_price.json times the rank and the sha-dist and simulate edges.
    """
    if sum(s * (300 + b) ** 2 for s, b in eliminations) > DRAW_BUDGET * 300**2:
        vs = (f"of {v.bit_length()} bits" if isinstance(v, int) and v >> 100 else v for v in values)
        raise ValueError(f"{keys.format(*vs)}; one draw may take more than {DRAW_BUDGET / 1e7:g} s")


class Estimate(NamedTuple):
    value: float
    stderr: float


@frozen
class EmpiricalDistribution:
    counts: dict
    total: int
    meta: dict

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


def merge_distributions(parts) -> EmpiricalDistribution:
    """The distributions of seeded chunks as one: counts, total and meta's
    draws and refinement_rounds summed, the other meta keys the first's."""
    if not parts:
        raise ValueError("merge_distributions needs at least one distribution")
    counts: Counter = sum((Counter(part.counts) for part in parts), Counter())
    meta = dict(parts[0].meta)
    for key in {"draws", "refinement_rounds"} & meta.keys():
        meta[key] = sum(part.meta[key] for part in parts)
    return EmpiricalDistribution(dict(sorted(counts.items())), sum(part.total for part in parts), meta)


def empirical_corank_prob(n: int, x: int, r: int) -> Fraction:
    """Prob(corank >= r) for uniform alternating n x n, |entries| <= x,
    exactly, from the census of the whole box (subject to the
    enumeration cap)."""
    from .counting import count_alternating_by_rank

    if r <= 0:
        return Fraction(1)
    hist = count_alternating_by_rank(n, x, norm="box")
    return Fraction(hist.at_most(n - r), hist.total)


def check_sha_distribution(n: int, x: int, r: int, p: int, samples: int) -> None:
    """The ValueErrors of empirical_sha_distribution, raised before any draw."""
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
    if n < 0:
        # no draw would refuse it: n(n-1)/2 is positive at n < 0
        raise ValueError("dimension must be nonnegative")
    # kernel mod p**10 at half its size (2 x 2 pivots); rank at n**3/4, about n**3/12 updates
    # against Bareiss's n**3/3, on b = n*bits(x)/3 (Bareiss reaches n*bits(x) only at the end)
    kernel = (((n + 1) // 2) ** 3, 10 * (p - 1).bit_length())
    _check_draw_cost("n {}, x {} and p {}", (n, x, p), kernel, (n**3 // 4, n * x.bit_length() // 3))


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
    no random numbers.  A draw is the upper-entry list of
    sample_alternating, the same values from the same RNG calls, passed
    to the kernel without an AlternatingMatrix around it.
    """
    check_sha_distribution(n, x, r, p, samples)
    getrandbits = rng.getrandbits
    counts: Counter = Counter()
    drawn = 0
    kept = 0
    while kept < samples:
        upper = _alternating_upper(n, x, getrandbits)
        drawn += 1
        exponents = _corank_p_exponents(n, upper, p, r)
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


def check_cl_distribution(n: int, p: int, k: int, samples: int) -> None:
    """The ValueErrors of empirical_cl_distribution, raised before any draw."""
    if n < 0:
        raise ValueError(f"matrix size n must be nonnegative, got {n}")
    if k < 5:
        raise ValueError("precision k must be at least 5")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if samples < 1:
        raise ValueError("need at least one sample")
    # the first elimination mod p**k, of log2(p) bits a digit rounded up (exact at p = 2),
    # and its pivot inverses (n + 2); about 1 draw in 120 refines
    _check_draw_cost("n {}, p {} and k {}", (n, p, k), ((n + 2) ** 3, k * (p - 1).bit_length()))


def empirical_cl_distribution(
    n: int, p: int, k: int, samples: int, rng: Random
) -> EmpiricalDistribution:
    """p-part labels of cokernels of uniform square matrices over Z_p.

    Entries are only known to a finite number of p-adic digits: each
    draw starts with its first k digits, one uniform value mod p**k per
    entry, and is eliminated modulo p**prec, the digits drawn so far, at
    prec = k.  The kernel's ints are exact valuations, so a draw is
    accepted exactly when no diagonal vanishes mod p**prec: its cokernel
    then does not depend on the digits not yet drawn.  Otherwise every
    entry gets two more uniform digits appended (which refines the same
    p-adic law) and the draw is retried with prec raised by 2.

    Odd p draws the entries row-major with _uniform_list and eliminates
    with diag_valuations_mod.  At p = 2 a residue mod 2**prec is a bit
    field, so each row is one getrandbits(n * w) call, w = 2 * prec,
    masked to the packed row of _diag_valuations_mod2_packed, which
    eliminates a whole row per operation.  A refinement round moves the
    lanes to the wider width and takes each entry's two new digits from
    bits prec and prec + 1 of its lane of one more getrandbits(n * w)
    call per row, at the new w.
    Both routes draw every digit uniformly and independently, so they
    have the same law.
    """
    check_cl_distribution(n, p, k, samples)
    getrandbits = rng.getrandbits
    if p == 2:
        # lanes of 2 * prec bits hold entries mod 2**prec
        w = 2 * k
        first = _lane_ones(n, w) * ((1 << k) - 1)

        def draw():
            return [getrandbits(n * w) & first for _ in range(n)]

        def refine(rows, prec):
            old, new, keep = 2 * prec, 2 * (prec + 2), (1 << prec) - 1
            digits = _lane_ones(n, new) * (3 << prec)
            return [
                sum((r >> j * old & keep) << j * new for j in range(n)) | getrandbits(n * new) & digits
                for r in rows
            ]

        def valuations(rows, prec):
            return _diag_valuations_mod2_packed(rows, n, prec)

    else:
        span = p**k

        def draw():
            return [_uniform_list(getrandbits, span, n) for _ in range(n)]

        def refine(rows, prec):
            step = p**prec
            return [
                [e + step * d for e, d in zip(row, _uniform_list(getrandbits, p * p, n))]
                for row in rows
            ]

        def valuations(rows, prec):
            return diag_valuations_mod(rows, n, p, prec)

    counts: Counter = Counter()
    refinement_rounds = 0
    for _ in range(samples):
        rows, prec = draw(), k
        while None in (vals := valuations(rows, prec)):
            refinement_rounds += 1
            if prec >= k + 24:
                raise RuntimeError(
                    "cokernel structure failed to stabilize; this has "
                    "probability around p**-24 and suggests a broken rng"
                )
            rows, prec = refine(rows, prec), prec + 2
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
    each draw is tallied once, under its corank with 5 and above in one
    tally, and the counts are summed from the top at the end.

    Each draw is the one model_params and sample_alternating make at a
    uniform valid curve's height in the band (cap/2, cap].  When the
    schedule interval of cap holds the whole band, every such curve gets
    the same (eta, x), so no curve is drawn: each draw is the size bit
    and the entries alone.  Otherwise the heights come from
    _curve_stream, and the loop keeps two schedule intervals, the
    current one and the one before it: a height outside the current
    interval takes the other if it lies there, and only otherwise calls
    _schedule_interval, so a band across one step computes two
    intervals per chunk.  The size bit is one getrandbits(1), as in
    model_params.  The entries are drawn as _uniform_list draws them:
    at n >= 4 by _uniform_list itself, ranked by _alternating_rank; at
    n <= 3 by its getrandbits rejection loop inline, with no list and no
    rank call, since a nonzero alternating matrix of size n <= 3 has
    rank 2, and an entry r - x is 0 exactly when r == x.  Module level
    so process pools can pickle it.
    """
    height_cap, _, size, seed, cfg = spec
    rng = Random(seed)
    getrandbits = rng.getrandbits
    hist = [0] * (MAX_SURVEY_RANK + 1)  # draws by corank, 5 and above at 5
    lo, hi, eta, x = _schedule_interval(height_cap, cfg)  # (eta, x) holds on [lo, hi]
    before = (1, 0, eta, x)  # the interval before [lo, hi]; empty until one is left
    span = 2 * x + 1
    k = span.bit_length()
    if lo <= height_cap // 2 + 1:  # the band's least height
        heights = repeat(height_cap, size)
    else:
        heights = map(itemgetter(2), islice(_curve_stream(height_cap, rng), size))
    for h in heights:
        if not lo <= h <= hi:
            here = lo, hi, eta, x
            if before[0] <= h <= before[1]:
                lo, hi, eta, x = before
            else:
                lo, hi, eta, x = _schedule_interval(h, cfg)
            before = here
            span = 2 * x + 1
            k = span.bit_length()
        n = eta + getrandbits(1)
        if n < 4:
            corank = n  # until a nonzero entry
            for _ in range(n * (n - 1) // 2):
                r = getrandbits(k)
                while r >= span:
                    r = getrandbits(k)
                if r != x:
                    corank = n - 2
        else:
            upper = _uniform_list(getrandbits, span, n * (n - 1) // 2, -x)
            corank = n - _alternating_rank(n, upper)
        hist[corank if corank < MAX_SURVEY_RANK else MAX_SURVEY_RANK] += 1
    return [0] + [sum(hist[r:]) for r in range(1, MAX_SURVEY_RANK + 1)]


def rank_survey(h_grid, curves_per_band: int, cfg: ModelConfig, threads: int = 1):
    """Estimated Prob(corank >= r), r = 1..5, per height band, plus
    log-log slope fits across the grid for every r with enough signal.

    Each band (h/2, h] draws one model draw per uniform valid curve in
    it, as _survey_chunk says.  Returns (records, fits) where fits maps r
    to a FitResult.  Each band is split into chunks of CHUNK curves,
    seeded from (cfg.seed, band, chunk), so results do not depend on the
    thread count.
    """
    h_grid = list(h_grid)
    for h in h_grid:
        _check_int("grid height", h)
    _check_int("curves_per_band", curves_per_band)
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
    num, den = cfg.calibration_exponent.as_integer_ratio()
    eta = schedule_eta(h_grid[-1], cfg)
    bits = schedule_x(h_grid[-1], eta, cfg).bit_length()
    key = "eta_floor" if eta == cfg.eta_floor else "calibration_exponent"
    # the rank as in sha-dist; x**(den*eta) at b / 4, or 3b when its root runs Newton (num > 2)
    _check_draw_cost(
        key + " {} gives matrices of size {} at height {}, with "
        "calibration_exponent {} entries of {} bits",
        (getattr(cfg, key), eta + 1, h_grid[-1], cfg.calibration_exponent, bits),
        ((eta + 1) ** 3 // 4, (eta + 1) * bits // 3),
        (1, den * eta * bits * (12 if num > 2 else 1) // 4),
    )
    specs = [
        (h, band_index, size, seed, cfg)
        for band_index, h in enumerate(h_grid)
        for size, seed in seeded_chunks(curves_per_band, CHUNK, cfg.seed, f"survey:{band_index}")
    ]
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
