"""The `verify` suites: self-checks of the exact routines against
independent oracles.

Each suite is a function named after it (`lattice`, `snf`, `table`,
`period`) that takes the resolved settings and returns a list of check
dicts with "name", "passed" and "detail".  `settings._SUITES` says which
settings each suite reads and which claim its manifest records;
`cli.cmd_verify` imports this module only when it runs, so no other
command pays for compiling it.
"""

from __future__ import annotations

import math
from itertools import islice, product as iproduct
from random import Random

from .linalg import (
    AlternatingMatrix,
    IntegerMatrix,
    cokernel,
    determinant,
    divisors_from_minors,
    matmul,
    smith_divisors,
    smith_normal_form,
)
from .model import predicted_table

# counting and periods are imported inside the suites that use them, so
# each suite loads only the modules it checks

# Long-run rank-category percentages at heights 1e10..1e15; the closed
# forms must reproduce these printed values to 0.1 percentage points.
_REFERENCE_PERCENTAGES = {
    10**10: (30.8, 42.7, 19.2, 7.3),
    10**11: (32.6, 43.9, 17.4, 6.0),
    10**12: (34.2, 45.0, 15.8, 5.0),
    10**13: (35.6, 45.9, 14.4, 4.1),
    10**14: (36.9, 46.6, 13.0, 3.4),
    10**15: (38.1, 47.2, 11.9, 2.8),
}


def _random_basis(rng):
    from .counting import LatticeBasis

    while True:
        rdim = rng.randrange(2, 5)
        ndim = rdim + rng.randrange(0, 3)
        vectors = tuple(
            tuple(rng.randint(-20, 20) for _ in range(ndim))
            for _ in range(rdim)
        )
        try:
            return LatticeBasis(vectors)
        except ValueError:
            continue


def lattice(settings):
    from .counting import check_det_identity, check_inner_product_identity

    rng = Random(settings["seed"])
    samples = settings["samples"]
    bad_inner = bad_det = 0
    for _ in range(samples):
        basis = _random_basis(rng)
        if not check_inner_product_identity(basis):
            bad_inner += 1
        if not check_det_identity(basis):
            bad_det += 1
    return [
        {
            "name": "wedge-inner-product-identity",
            "passed": bad_inner == 0,
            "detail": f"{samples - bad_inner}/{samples} bases exact",
        },
        {
            "name": "wedge-gram-determinant-identity",
            "passed": bad_det == 0,
            "detail": f"{samples - bad_det}/{samples} bases exact",
        },
    ]


def _det_cols(cols):
    n = len(cols)
    if n == 1:
        return cols[0][0]
    if n == 2:
        return cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    a, b, c = cols
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - b[0] * (a[1] * c[2] - a[2] * c[1])
        + c[0] * (a[1] * b[2] - a[2] * b[1])
    )


def _cofactor_solve(cols, v, n):
    """Cramer numerators det(A with column i replaced by v)."""
    return [
        _det_cols([v if j == i else cols[j] for j in range(n)])
        for i in range(n)
    ]


def _quotient_order_multiset(cols, n, det):
    """Element orders of Z^n / (column lattice) by direct coset closure.

    Full-rank lattices with small determinant only.  Membership tests
    are Cramer divisibility checks, so this shares nothing with the
    Smith routines it cross-checks.
    """
    adet = abs(det)
    reps = [(0,) * n]
    basis_vecs = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    frontier = [reps[0]]
    while frontier:
        nxt = []
        for y in frontier:
            for e in basis_vecs:
                z = tuple(a + b for a, b in zip(y, e))
                new = True
                for w in reps:
                    diff = tuple(a - b for a, b in zip(z, w))
                    if all(
                        num % det == 0
                        for num in _cofactor_solve(cols, diff, n)
                    ):
                        new = False
                        break
                if new:
                    reps.append(z)
                    nxt.append(z)
        frontier = nxt
        if len(reps) > adet:
            break
    orders = []
    for y in reps:
        nums = _cofactor_solve(cols, y, n)
        k = 1
        for num in nums:
            g = math.gcd(num, det)
            k = k * (abs(det) // g) // math.gcd(k, abs(det) // g)
        orders.append(k)
    return sorted(orders)


def _direct_sum_orders(divisors):
    """Element orders of the direct sum of Z/d over the given divisors."""
    orders = [1]
    for d in divisors:
        if d <= 1:
            continue
        new = []
        for o in orders:
            for x in range(d):
                m = d // math.gcd(d, x)
                new.append(o * m // math.gcd(o, m))
        orders = new
    return sorted(orders)


def snf(settings):
    stride = settings["stride"]
    mismatches = 0
    oracle_bad = 0
    recon_bad = 0
    paired_bad = 0
    checked = 0
    oracle_checked = 0
    recon_checked = 0

    def one(rows, n, with_oracle):
        nonlocal mismatches, oracle_bad, recon_bad, checked, oracle_checked
        nonlocal recon_checked
        m = IntegerMatrix.from_rows(rows)
        fast = smith_divisors(m)
        slow = divisors_from_minors(m)
        checked += 1
        if fast != slow:
            mismatches += 1
            return
        if with_oracle and n <= 3:
            det = determinant(m)
            if det and abs(det) <= 60:
                cols = [tuple(rows[i][j] for i in range(n)) for j in range(n)]
                oracle_checked += 1
                got = _quotient_order_multiset(cols, n, det)
                want = _direct_sum_orders([d for d in fast if d])
                if got != want:
                    oracle_bad += 1
        dec = smith_normal_form(m)
        recon_checked += 1
        prod = matmul(matmul(dec.U, m), dec.V)
        diag = [
            prod.entry(i, j)
            for i in range(m.n_rows)
            for j in range(m.n_cols)
            if i != j
        ]
        lead = [prod.entry(i, i) for i in range(min(m.n_rows, m.n_cols))]
        if any(diag) or [abs(v) for v in lead] != list(fast):
            recon_bad += 1

    for n in (1, 2):
        cells = n * n
        for flat in iproduct(range(-2, 3), repeat=cells):
            rows = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            one(rows, n, with_oracle=True)
    # every stride-th 3 x 3 matrix, skipped over in C; from 5**9 on, only the first
    for flat in islice(iproduct(range(-2, 3), repeat=9), 0, None, min(stride, 5**9)):
        rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
        one(rows, 3, with_oracle=True)

    rng = Random(settings["seed"])
    for _ in range(200):
        nr = rng.randrange(2, 6)
        nc = rng.randrange(2, 6)
        rows = [
            [rng.randint(-99, 99) for _ in range(nc)] for _ in range(nr)
        ]
        one(rows, max(nr, nc), with_oracle=False)

    for upper in iproduct(range(-2, 3), repeat=6):
        try:
            cokernel(AlternatingMatrix(4, tuple(upper)))
        except AssertionError:
            paired_bad += 1

    return [
        {
            "name": "divisors-vs-minor-gcds",
            "passed": mismatches == 0 and checked > 0,
            "detail": f"{checked - mismatches}/{checked} matrices agree "
            f"(n=3 stride {stride})",
        },
        {
            "name": "quotient-enumeration-oracle",
            "passed": oracle_bad == 0 and oracle_checked > 0,
            "detail": f"{oracle_checked - oracle_bad}/{oracle_checked} "
            "full-rank quotients match element-order multisets",
        },
        {
            "name": "transform-reconstruction",
            "passed": recon_bad == 0 and recon_checked > 0,
            "detail": f"{recon_checked - recon_bad}/{recon_checked} have "
            "U*A*V diagonal with the invariant factors",
        },
        {
            "name": "alternating-paired-factors",
            "passed": paired_bad == 0,
            "detail": f"{5**6 - paired_bad}/{5**6} alternating 4x4 "
            "cokernels have paired invariant factors",
        },
    ]


def table(settings):
    rows = predicted_table(sorted(_REFERENCE_PERCENTAGES))
    worst = 0.0
    for h, c1, c2, c3, c4 in rows:
        ref = _REFERENCE_PERCENTAGES[h]
        worst = max(
            worst, *(abs(a - b) for a, b in zip((c1, c2, c3, c4), ref))
        )
    identity = max(
        max(abs(c1 + c3 - 50), abs(c2 + c4 - 50))
        for _, c1, c2, c3, c4 in rows
    )
    return [
        {
            "name": "reference-percentages",
            "passed": worst <= 0.1,
            "detail": f"max deviation {worst:.4f} percentage points "
            "(tolerance 0.1)",
        },
        {
            "name": "column-pairs-sum-to-fifty",
            "passed": identity < 1e-9,
            "detail": f"max |col1+col3-50|, |col2+col4-50| = {identity:.2e}",
        },
    ]


def period(settings):
    from .periods import period_bound_scan, real_period, real_period_quadrature

    rng = Random(settings["seed"])
    curves = []
    while len(curves) < 100:
        a4 = rng.randint(-50, 50)
        a6 = rng.randint(-50, 50)
        if 4 * a4**3 + 27 * a6**2 != 0:
            curves.append((a4, a6))
    worst_quad = 0.0
    for a4, a6 in curves:
        agm = real_period(a4, a6).omega
        quad = real_period_quadrature(a4, a6)
        worst_quad = max(worst_quad, abs(agm - quad))
    worst_scale = 0.0
    for a4, a6 in curves:
        base = real_period(a4, a6).omega
        for lam in (2, 3, 5):
            scaled = real_period(a4 * lam**4, a6 * lam**6).omega
            worst_scale = max(worst_scale, abs(scaled * lam - base))
    summary, _rows = period_bound_scan((10**4, 10**10), 1000, rng)
    norm_min = summary["normalized"]["min"]
    norm_max = summary["normalized"]["max"]
    return [
        {
            "name": "agm-vs-quadrature",
            "passed": worst_quad <= 1e-8,
            "detail": f"max |difference| {worst_quad:.2e} over 100 curves",
        },
        {
            "name": "scaling-covariance",
            "passed": worst_scale <= 1e-9,
            "detail": f"max |lam*omega(scaled) - omega| {worst_scale:.2e}",
        },
        {
            "name": "normalized-period-band",
            "passed": norm_min > 0 and math.isfinite(norm_max),
            "detail": f"omega*h^(1/12) in [{norm_min:.4f}, {norm_max:.4f}] "
            "over 1000 curves",
        },
    ]
