import math
import time
from itertools import combinations, permutations, product
from random import Random

import pytest
import sympy
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings, strategies as st

from altrank.groups import AbelianPGroup
from altrank.linalg import (
    AlternatingMatrix,
    IntegerMatrix,
    _alternating_elimination,
    _alternating_rank,
    _alternating_rows,
    _alternating_valuations_mod,
    _corank_p_exponents,
    _diag_valuations_mod2_packed,
    _p_valuation,
    _rank_rows,
    cokernel,
    determinant,
    diag_valuations_mod,
    divisors_from_minors,
    kernel_rank,
    matmul,
    pfaffian,
    rank,
    smith_divisors,
    smith_normal_form,
)
from altrank.model import empirical_cl_distribution, empirical_sha_distribution
from altrank.primes import is_prime


def random_alternating(n, bound, rng):
    m = n * (n - 1) // 2
    return AlternatingMatrix(n, tuple(rng.randint(-bound, bound) for _ in range(m)))


def random_integer_matrix(nr, nc, bound, rng):
    return IntegerMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]
    )


def as_sympy(m):
    if isinstance(m, AlternatingMatrix):
        m = m.to_integer_matrix()
    return Matrix(m.to_rows())


def perm_sign(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def pfaffian_by_permutation_sum(a):
    """Textbook (2^m m!)-fold redundant sum over all of S_2m.

    Slow and shares nothing with the expansion in the library.
    """
    n = a.n
    if n % 2:
        return 0
    m = n // 2
    total = 0
    for sigma in permutations(range(n)):
        term = perm_sign(sigma)
        for i in range(m):
            term *= a.entry(sigma[2 * i], sigma[2 * i + 1])
            if term == 0:
                break
        total += term
    denom = 2**m * math.factorial(m)
    assert total % denom == 0
    return total // denom


# ---------------------------------------------------------------------------
# constructors


def test_alternating_storage_roundtrip():
    a = AlternatingMatrix(3, (1, 2, 3))
    m = a.to_integer_matrix()
    assert m.to_rows() == [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]
    assert a.entry(0, 1) == 1 and a.entry(1, 0) == -1
    assert a.entry(2, 2) == 0


def test_alternating_rejects_bad_storage():
    with pytest.raises(ValueError):
        AlternatingMatrix(3, (1, 2))


def test_integer_matrix_entry_and_rows():
    m = IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.n_rows == 2 and m.n_cols == 3
    assert m.entry(1, 2) == 6
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]


# ---------------------------------------------------------------------------
# rank / determinant vs sympy


def test_rank_matches_sympy_random():
    rng = Random(2)
    for _ in range(150):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = random_integer_matrix(nr, nc, 9, rng)
        assert rank(m) == as_sympy(m).rank()


def test_rank_rank_deficient_constructions():
    rng = Random(3)
    for _ in range(60):
        # build a 4 x 4 with row3 = row1 + row2: rank <= 3 always
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
        rows.append([a + b for a, b in zip(rows[0], rows[1])])
        m = IntegerMatrix.from_rows(rows)
        assert rank(m) == as_sympy(m).rank() <= 3


def test_determinant_matches_sympy():
    rng = Random(4)
    for _ in range(120):
        n = rng.randint(1, 6)
        m = random_integer_matrix(n, n, 9, rng)
        assert determinant(m) == as_sympy(m).det()


def test_determinant_big_entries_exact():
    # entries around 10^12 overflow any float-based route
    rng = Random(5)
    m = random_integer_matrix(4, 4, 10**12, rng)
    assert determinant(m) == as_sympy(m).det()


def test_determinant_rejects_rectangular():
    with pytest.raises(ValueError):
        determinant(IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_matmul_against_sympy():
    rng = Random(6)
    for _ in range(40):
        a = random_integer_matrix(rng.randint(1, 4), rng.randint(1, 4), 9, rng)
        b = random_integer_matrix(a.n_cols, rng.randint(1, 4), 9, rng)
        assert as_sympy(matmul(a, b)) == as_sympy(a) * as_sympy(b)


# ---------------------------------------------------------------------------
# Pfaffian


def test_pfaffian_small_closed_forms():
    assert pfaffian(AlternatingMatrix(0, ())) == 1
    assert pfaffian(AlternatingMatrix(2, (7,))) == 7
    # pf = a01*a23 - a02*a13 + a03*a12
    a = AlternatingMatrix(4, (1, 2, 3, 4, 5, 6))
    assert pfaffian(a) == 1 * 6 - 2 * 5 + 3 * 4


def test_pfaffian_odd_dimension_is_zero():
    rng = Random(7)
    for n in (1, 3, 5, 7):
        assert pfaffian(random_alternating(n, 9, rng)) == 0


def test_pfaffian_matches_permutation_sum():
    rng = Random(8)
    for n in (2, 4, 6):
        for _ in range(25):
            a = random_alternating(n, 6, rng)
            assert pfaffian(a) == pfaffian_by_permutation_sum(a)
    for _ in range(3):
        a = random_alternating(8, 4, rng)
        assert pfaffian(a) == pfaffian_by_permutation_sum(a)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_pfaffian_squared_is_determinant(half, data):
    n = 2 * half
    m = n * (n - 1) // 2
    upper = data.draw(st.tuples(*[st.integers(-30, 30)] * m))
    a = AlternatingMatrix(n, upper)
    assert pfaffian(a) ** 2 == determinant(a.to_integer_matrix())


def test_pfaffian_of_a_40x40_matrix_is_fast():
    # the elimination takes O(n**3) steps; an expansion by minors would
    # not finish at this size
    a = random_alternating(40, 9, Random(40))
    start = time.perf_counter()
    pf = pfaffian(a)
    assert time.perf_counter() - start < 1.0
    assert pf**2 == determinant(a.to_integer_matrix())


def test_kernel_rank_matches_sympy():
    rng = Random(9)
    for n in range(2, 9):
        for _ in range(30):
            a = random_alternating(n, 3, rng)
            assert kernel_rank(a) == n - as_sympy(a).rank()


def test_alternating_rank_always_even():
    rng = Random(10)
    for n in range(2, 9):
        for _ in range(20):
            a = random_alternating(n, 2, rng)
            assert (n - kernel_rank(a)) % 2 == 0


@st.composite
def wedge_sums(draw):
    """(n, upper) of a sum of k wedges u ^ v, 5 <= n <= 12, k <= n // 2,
    so every even rank up to n occurs; entries of u, v in [-x, x]."""
    n = draw(st.integers(min_value=5, max_value=12))
    x = draw(st.sampled_from((2, 10**4, 10**12)))
    vector = st.lists(st.integers(-x, x), min_size=n, max_size=n)
    upper = [0] * (n * (n - 1) // 2)
    for _ in range(draw(st.integers(min_value=0, max_value=n // 2))):
        u, v = draw(vector), draw(vector)
        for e, (i, j) in enumerate(combinations(range(n), 2)):
            upper[e] += u[i] * v[j] - u[j] * v[i]
    return n, upper


@settings(max_examples=200, deadline=None)
@given(wedge_sums())
def test_pfaffian_ladder_equals_elimination(matrix):
    # the index-table ladder of n = 5 and the 2x2-pivot elimination
    # against Bareiss elimination on the dense rows
    n, upper = matrix
    want = _rank_rows(_alternating_rows(n, upper), n, n)[0]
    assert _alternating_rank(n, upper) == want
    assert _alternating_elimination(n, upper)[0] == want


@settings(max_examples=200, deadline=None)
@given(wedge_sums(), st.sampled_from((2, 3, 5)), st.sampled_from((0, 10, 25)))
def test_pivot_pfaffian_bounds_every_valuation(matrix, p, shift):
    # pf is a nonzero principal Pfaffian of size the rank, a multiple of
    # the product of the paired invariant factors, so the kernel modulo
    # p**(v_p(pf) + 1) leaves only the corank's Nones
    n, upper = matrix
    upper = [v * p**shift for v in upper]
    r, pf = _alternating_elimination(n, upper)
    assert pf
    if r == n:
        assert pf**2 == determinant(AlternatingMatrix(n, upper).to_integer_matrix())
    assert pfaffian(AlternatingMatrix(n, upper)) == (pf if r == n else 0)
    divisors = smith_divisors(AlternatingMatrix(n, upper))
    assert sum(1 for d in divisors if d) == r
    got = _alternating_valuations_mod(n, upper, p, _p_valuation(pf, p) + 1)
    assert got.count(None) == n - r
    assert [v for v in got if v is not None] == [_p_valuation(d, p) for d in divisors if d]


def test_pfaffian_ladder_exhaustive_small_entries():
    # every n = 5 matrix with entries in {-1, 0, 1}: rank 4 found through
    # one minor only is rare in a random sample
    n = 5
    for upper in product((-1, 0, 1), repeat=n * (n - 1) // 2):
        want = _rank_rows(_alternating_rows(n, upper), n, n)[0]
        assert _alternating_rank(n, upper) == want, upper


# ---------------------------------------------------------------------------
# Smith normal form: three routes plus sympy


def chain_ok(divisors):
    prev = None
    for d in divisors:
        assert d >= 0
        if prev not in (None, 0) and d:
            assert d % prev == 0
        prev = d
    return True


def test_smith_divisors_vs_minor_gcds_random():
    rng = Random(11)
    for _ in range(250):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = random_integer_matrix(nr, nc, 9, rng)
        fast = smith_divisors(m)
        assert fast == divisors_from_minors(m)
        chain_ok(fast)


def test_smith_divisors_vs_sympy_square():
    rng = Random(12)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = random_integer_matrix(n, n, 20, rng)
        ours = smith_divisors(m)
        theirs = sympy_snf(as_sympy(m), domain=ZZ)
        diag = [abs(theirs[i, i]) for i in range(n)]
        assert list(ours) == sorted(diag, key=lambda d: (d == 0, d))


def test_smith_known_example():
    m = IntegerMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert smith_divisors(m) == (2, 2, 156)


def test_smith_zero_and_identity():
    z = IntegerMatrix.from_rows([[0, 0], [0, 0]])
    assert smith_divisors(z) == (0, 0)
    assert smith_divisors(IntegerMatrix.identity(3)) == (1, 1, 1)


def test_smith_reconstruction_unimodular():
    rng = Random(13)
    for _ in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = random_integer_matrix(nr, nc, 15, rng)
        dec = smith_normal_form(m)
        assert abs(determinant(dec.U)) == 1
        assert abs(determinant(dec.V)) == 1
        prod = matmul(matmul(dec.U, m), dec.V)
        for i in range(nr):
            for j in range(nc):
                want = dec.divisors[i] if i == j else 0
                assert prod.entry(i, j) == want


def test_smith_reconstruction_big_entries():
    rng = Random(14)
    m = random_integer_matrix(4, 4, 10**9, rng)
    dec = smith_normal_form(m)
    prod = matmul(matmul(dec.U, m), dec.V)
    for i in range(4):
        for j in range(4):
            assert prod.entry(i, j) == (dec.divisors[i] if i == j else 0)


FULL_RANK_3x3 = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))  # leading minors 2, 36, 624


@pytest.mark.parametrize("nr, nc", list(product(range(4), repeat=2)))
def test_smith_reconstruction_every_small_shape(nr, nc):
    # empty shapes leave an identity block with no rows or no columns
    kinds = {
        "zero": lambda i, j: 0,
        "rank one": lambda i, j: (2, -4, 6)[i] * (3, 1, -5)[j],
        "full rank": lambda i, j: FULL_RANK_3x3[i][j],
    }
    for kind, entry in kinds.items():
        m = IntegerMatrix(nr, nc, tuple(entry(i, j) for i in range(nr) for j in range(nc)))
        dec = smith_normal_form(m)
        assert abs(determinant(dec.U)) == 1, kind
        assert abs(determinant(dec.V)) == 1, kind
        prod = matmul(matmul(dec.U, m), dec.V)
        assert (prod.n_rows, prod.n_cols) == (nr, nc)
        for i in range(nr):
            for j in range(nc):
                assert prod.entry(i, j) == (dec.divisors[i] if i == j else 0), kind
        assert dec.divisors == smith_divisors(m) == divisors_from_minors(m), kind


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_smith_routes_agree_property(nr, nc, data):
    rows = [
        [data.draw(st.integers(-8, 8)) for _ in range(nc)] for _ in range(nr)
    ]
    m = IntegerMatrix.from_rows(rows)
    assert smith_divisors(m) == divisors_from_minors(m)


# ---------------------------------------------------------------------------
# cokernels


def test_cokernel_pairing_and_structure():
    rng = Random(15)
    for n in range(2, 9):
        for _ in range(40):
            a = random_alternating(n, 4, rng)
            c = cokernel(a)  # raises AssertionError if factors fail to pair
            assert c.free_rank == kernel_rank(a)
            assert c.free_rank % 2 == n % 2
            order = 1
            for d in c.torsion:
                order *= d
            assert c.torsion_order == order
            if n % 2 == 0 and c.free_rank == 0:
                assert c.torsion_order == pfaffian(a) ** 2


def test_cokernel_known_small():
    # invariant factors (1, 1, 2, 2): cokernel is Z/2 x Z/2
    a = AlternatingMatrix(4, (1, 0, 0, 0, 0, 2))
    c = cokernel(a)
    assert c.free_rank == 0
    assert c.torsion == (2, 2)
    assert c.torsion_order == 4 == pfaffian(a) ** 2


# sha-dist's exact p-part route, on one matrix
def cokernel_p_part(a: AlternatingMatrix, p: int) -> AbelianPGroup:
    """p-primary part of the cokernel torsion, as an exponent partition."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    exponents = _corank_p_exponents(a.n, a.upper, p, kernel_rank(a))
    return AbelianPGroup.from_valuations(p, exponents)


def test_cokernel_p_part_matches_exact_divisors():
    rng = Random(16)
    for _ in range(60):
        a = random_alternating(6, 8, rng)
        divisors = smith_divisors(a)
        for p in (2, 3):
            g = cokernel_p_part(a, p)
            want = []
            for d in divisors:
                if d > 1:
                    v = 0
                    while d % p == 0:
                        d //= p
                        v += 1
                    if v:
                        want.append(v)
            assert sorted(g.exponents) == sorted(want)


def test_cokernel_p_part_rejects_composite():
    a = AlternatingMatrix(2, (1,))
    with pytest.raises(ValueError):
        cokernel_p_part(a, 6)


# ---------------------------------------------------------------------------
# certified valuations modulo p**prec


def exact_valuations(m, n, p):
    out = []
    for d in smith_divisors(m):
        if d == 0:
            out.append(None)
        else:
            v = 0
            while d % p == 0:
                d //= p
                v += 1
            out.append(v)
    out.sort(key=lambda v: (v is None, v))
    return out


def test_diag_valuations_match_exact_when_certified():
    rng = Random(17)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = random_integer_matrix(n, n, 40, rng)
        for p in (2, 3, 5):
            want = exact_valuations(m, n, p)
            got = diag_valuations_mod(m.to_rows(), n, p, 12)
            finite = [v for v in got if v is not None]
            if all(v <= 10 for v in finite) and got.count(None) == want.count(None):
                assert got == want


def test_diag_valuations_perturbation_invariance():
    # congruent inputs mod p**prec must give identical output
    rng = Random(18)
    p, prec = 2, 10
    q = p**prec
    for _ in range(40):
        n = rng.randint(2, 5)
        base = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        noisy = [
            [v + q * rng.randint(-3, 3) for v in row] for row in base
        ]
        a = diag_valuations_mod([row[:] for row in base], n, p, prec)
        b = diag_valuations_mod(noisy, n, p, prec)
        assert a == b


def test_diag_valuations_sorted_with_nones_last():
    rng = Random(19)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        vals = diag_valuations_mod(rows, n, 3, 8)
        finite = [v for v in vals if v is not None]
        assert finite == sorted(finite)
        assert vals[len(finite) :] == [None] * (n - len(finite))


def test_diag_valuations_zero_matrix_all_none():
    rows = [[0, 0], [0, 0]]
    assert diag_valuations_mod(rows, 2, 2, 6) == [None, None]


def truncated_valuations(m, p, prec):
    """min(v_p(d_i), prec) over the Smith divisors, None where it is prec."""
    return [
        v if v is not None and v < prec else None
        for v in exact_valuations(m, m.n_rows, p)
    ]


def test_diag_valuations_exhaustive_2x2():
    # every int is exact, certified or not: the kernel returns the Smith
    # form of A mod p**prec
    for entries in product(range(-4, 5), repeat=4):
        m = IntegerMatrix(2, 2, entries)
        for p in (2, 3):
            for prec in range(1, 6):
                got = diag_valuations_mod(m.to_rows(), 2, p, prec)
                assert got == truncated_valuations(m, p, prec), (entries, p, prec)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-60, 60), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.sampled_from((2, 3, 5, 7)),
    st.integers(min_value=1, max_value=10),
)
def test_diag_valuations_equal_truncated_smith(rows, p, prec):
    n = len(rows)
    m = IntegerMatrix.from_rows(rows)
    assert diag_valuations_mod(rows, n, p, prec) == truncated_valuations(m, p, prec)


def test_diag_valuations_leave_input_unchanged():
    rows = [[4, 6], [2, 9]]
    diag_valuations_mod(rows, 2, 2, 3)
    assert rows == [[4, 6], [2, 9]]


@st.composite
def matrices_mod_power_of_2(draw):
    """(rows, n, prec): entries in [0, 2**prec), uniform, all zero, of low
    rank, all multiples of one 2**v, or all 2**prec - 1, where a row
    update reaches the lane bound (q - 1) + (q - 1)**2."""
    n = draw(st.integers(0, 12))
    prec = draw(st.integers(1, 40))
    q = 2**prec
    kind = draw(st.sampled_from(["uniform", "zero", "low-rank", "multiples", "all-max"]))
    if kind == "zero":
        return [[0] * n for _ in range(n)], n, prec
    if kind == "all-max":
        return [[q - 1] * n for _ in range(n)], n, prec
    entry = st.integers(0, q - 1)
    if kind == "low-rank":
        r = draw(st.integers(0, max(n - 1, 0)))
        u = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n))
        v = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
        rows = [[sum(u[i][t] * v[t][j] for t in range(r)) % q for j in range(n)] for i in range(n)]
        return rows, n, prec
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "multiples":
        scale = 2 ** draw(st.integers(0, prec))
        rows = [[e * scale % q for e in row] for row in rows]
    return rows, n, prec


@settings(max_examples=500, deadline=None)
@given(matrices_mod_power_of_2())
def test_packed_kernel_equals_diag_valuations_mod(matrix):
    # row i packs entry (i, j) into bits j*w to j*w + w - 1, w = 2 * prec
    rows, n, prec = matrix
    w = 2 * prec
    packed = [sum(e << j * w for j, e in enumerate(row)) for row in rows]
    assert _diag_valuations_mod2_packed(packed, n, prec) == diag_valuations_mod(rows, n, 2, prec)


# ---------------------------------------------------------------------------
# the 2x2-pivot kernel for alternating matrices


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=9).flatmap(
        lambda n: st.lists(
            st.integers(-60, 60),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        ).map(lambda upper: (n, upper))
    ),
    st.sampled_from((2, 3, 5)),
    st.sampled_from((0, 10)),
    st.integers(min_value=1, max_value=24),
)
def test_alternating_valuations_equal_truncated_smith(matrix, p, shift, prec):
    # entries scaled by p**10 have every valuation at least 10, so the
    # kernel returns only Nones at prec <= 10 and the values above it
    n, upper = matrix
    upper = [v * p**shift for v in upper]
    got = _alternating_valuations_mod(n, upper, p, prec)
    dense = AlternatingMatrix(n, upper).to_integer_matrix()
    assert got == truncated_valuations(dense, p, prec)
    assert got == diag_valuations_mod(_alternating_rows(n, upper), n, p, prec)


def test_alternating_valuations_exhaustive_4x4():
    # a 4x4 alternating matrix has invariant factors g, g, h, h: g the
    # gcd of its entries, h = Pf/g (Pf its Pfaffian, divisible by g**2)
    def trunc(d, p, prec):
        v = _p_valuation(d, p) if d else prec
        return v if v < prec else None

    for upper in product(range(-2, 3), repeat=6):
        g = math.gcd(*upper)
        pf = upper[0] * upper[5] - upper[1] * upper[4] + upper[2] * upper[3]
        h = pf // g if g else 0
        for p in (2, 3, 5):
            for prec in range(1, 5):
                want = [trunc(g, p, prec)] * 2 + [trunc(h, p, prec)] * 2
                got = _alternating_valuations_mod(4, upper, p, prec)
                assert got == want, (upper, p, prec)


def test_alternating_valuations_leave_input_unchanged():
    upper = [4, 6, 2, 9, 8, 12]
    # Pfaffian 18: one unit pair and one pair of 2-valuation 1
    assert _alternating_valuations_mod(4, upper, 2, 3) == [0, 0, 1, 1]
    assert _alternating_valuations_mod(4, upper, 2, 1) == [0, 0, None, None]
    assert upper == [4, 6, 2, 9, 8, 12]


def test_corank_route_never_forms_dense_rows(monkeypatch):
    # alternating rank runs the Pfaffian ladder up to n = 5 and the
    # 2x2-pivot elimination above it, and pfaffian the same elimination:
    # none of them forms dense rows
    import altrank.linalg as linalg

    rng = Random(33)
    while True:  # a draw whose certificate mod 2**10 fails, so it is ranked
        upper10 = [rng.randint(-1, 1) for _ in range(45)]
        if _alternating_valuations_mod(10, upper10, 2, 10).count(None):
            break
    corank10 = 10 - _rank_rows(_alternating_rows(10, upper10), 10, 10)[0]
    a8 = random_alternating(8, 9, rng)
    corank8 = 8 - _rank_rows(_alternating_rows(8, a8.upper), 8, 8)[0]
    det8 = determinant(a8.to_integer_matrix())
    # invariant factors 1, 1, 1, 1, 2**12, 2**12, 0: three Nones mod 2**10
    up7 = [
        {(0, 1): 2**12, (2, 3): 1, (4, 5): 1}.get(ij, 0)
        for ij in combinations(range(7), 2)
    ]

    def refuse(*args):
        raise AssertionError("dense route called")

    for name in ("_alternating_rows", "_rank_rows", "diag_valuations_mod"):
        monkeypatch.setattr(linalg, name, refuse)
    # the route runs in fixed steps: a kernel pass, and at most one
    # elimination and one more pass
    calls = []
    for name in ("_alternating_valuations_mod", "_alternating_elimination"):
        def counted(*args, name=name, run=getattr(linalg, name)):
            calls.append(name)
            return run(*args)

        monkeypatch.setattr(linalg, name, counted)

    def route(*args):
        calls.clear()
        out = _corank_p_exponents(*args)
        assert calls.count("_alternating_valuations_mod") <= 2
        assert calls.count("_alternating_elimination") <= 1
        return out

    assert route(4, [2, 0, 0, 0, 0, 2], 2, 0) == [1, 1, 1, 1]
    assert route(3, [2**12, 0, 0], 2, 1) == [12, 12]
    assert route(7, up7, 2, 1) == [12, 12]
    assert len(calls) == 3  # the certificate failed mod 2**10
    assert (route(10, upper10, 2, 0) is None) == (corank10 > 0)
    assert kernel_rank(a8) == corank8
    assert pfaffian(a8) ** 2 == det8


# ---------------------------------------------------------------------------
# outputs of the kernel's callers; the cl table is the one the exact-Smith
# replay in test_model.py gives for the same arguments, where each row of
# a draw at p = 2 is one getrandbits call


def test_cl_distribution_pinned():
    dist = empirical_cl_distribution(8, 2, 8, 300, Random(1))
    assert dist.counts == {
        "2:[1,1,1]": 1, "2:[1,1]": 10, "2:[1]": 84, "2:[2,1]": 14, "2:[2,2]": 1,
        "2:[2]": 34, "2:[3,1]": 7, "2:[3,2]": 1, "2:[3]": 28, "2:[4,1]": 3,
        "2:[4,2]": 1, "2:[4]": 12, "2:[5,1]": 2, "2:[5]": 5, "2:[6,1]": 1,
        "2:[7]": 1, "2:[8]": 1, "2:[]": 94,
    }
    assert dist.meta["refinement_rounds"] == 1


def test_sha_distribution_mod_pinned():
    dist = empirical_sha_distribution(8, 10**4, 0, 2, 200, Random(7))
    assert dist.counts == {
        "2:[1,1,1,1]": 4, "2:[1,1]": 58, "2:[12,12]": 1, "2:[2,2,1,1]": 2,
        "2:[2,2]": 28, "2:[3,3]": 12, "2:[4,4]": 10, "2:[5,5]": 1,
        "2:[6,6]": 1, "2:[]": 83,
    }
    assert dist.meta["draws"] == 200


def test_sha_distribution_exact_pinned():
    # recorded with integer Smith on every draw (the former default route)
    dist = empirical_sha_distribution(9, 10**4, 1, 3, 1000, Random(7))
    assert dist.counts == {"3:[1,1]": 46, "3:[2,2]": 2, "3:[]": 952}
    assert dist.meta["draws"] == 1000
    # at x = 1 corank 3 is common, so draws are rejected
    dist = empirical_sha_distribution(9, 1, 1, 3, 500, Random(7))
    assert dist.counts == {"3:[1,1]": 16, "3:[]": 484}
    assert dist.meta["draws"] == 503


# ---------------------------------------------------------------------------
# the exact p-part route of sha-dist and cokernel_p_part


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.sampled_from((1, 2, 3, 10**4)).flatmap(
            lambda x: st.lists(
                st.integers(-x, x),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ).map(lambda upper: (n, upper))
        )
    ),
    st.sampled_from((2, 3, 5)),
    st.sampled_from((0, 10)),
)
def test_corank_route_equals_smith(matrix, p, shift):
    # entries scaled by p**10 hide every nonzero factor at the first
    # modulus p**10, so the route must raise the precision
    n, upper = matrix
    upper = [v * p**shift for v in upper]
    divisors = smith_divisors(AlternatingMatrix(n, upper))
    corank = n - sum(1 for d in divisors if d)
    want = [_p_valuation(d, p) for d in divisors if d and d % p == 0]
    assert _corank_p_exponents(n, upper, p, corank) == want
    # any r below the corank with its parity is refused
    for r in range(corank - 2, -1, -2):
        assert _corank_p_exponents(n, upper, p, r) is None


def test_corank_route_raises_precision():
    # factors hidden at the first modulus p**10; p**25 is hidden at
    # p**20 too and needs p**40
    for p in (2, 3, 5):
        assert _corank_p_exponents(2, [p**10], p, 0) == [10, 10]
        assert _corank_p_exponents(2, [-(p**25) * 7], p, 0) == [25, 25]
        assert _corank_p_exponents(3, [p**12, 0, 0], p, 1) == [12, 12]
    assert _corank_p_exponents(2, [0], 2, 0) is None
    assert _corank_p_exponents(3, [0, 0, 0], 2, 1) is None
