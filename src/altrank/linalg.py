"""Exact integer linear algebra for dense and alternating matrices.

All arithmetic is arbitrary-precision and exact.  The hot paths (the
small-dimension alternating rank ladders and the local Smith kernels
modulo p**prec) operate on plain lists of Python ints, or modulo 2**prec
on rows packed into one int each; the `@frozen` value classes are thin
immutable wrappers around that storage.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .frozen import frozen

__all__ = [
    "IntegerMatrix",
    "AlternatingMatrix",
    "SmithDecomposition",
    "CokernelStructure",
    "rank",
    "kernel_rank",
    "determinant",
    "pfaffian",
    "smith_normal_form",
    "smith_divisors",
    "divisors_from_minors",
    "cokernel",
    "matmul",
]


def _upper_index(n: int, i: int, j: int) -> int:
    """Position of a_ij (i < j) in row-major upper-triangle storage."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


@frozen
class IntegerMatrix:
    """Dense row-major integer matrix of any shape."""

    n_rows: int
    n_cols: int
    entries: tuple

    def __post_init__(self):
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.n_rows * self.n_cols:
            raise ValueError("entry storage length does not match dimensions")

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(m, n, tuple(v for r in rows for v in r))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.n_cols + j]

    def to_rows(self) -> list:
        n = self.n_cols
        return [list(self.entries[i * n : (i + 1) * n]) for i in range(self.n_rows)]


@frozen
class AlternatingMatrix:
    """n x n integer matrix with zero diagonal and a_ji = -a_ij.

    Only the n(n-1)/2 strictly-upper entries are stored, row-major:
    (a_01, a_02, ..., a_0(n-1), a_12, ...).
    """

    n: int
    upper: tuple

    def __post_init__(self):
        if not isinstance(self.upper, tuple):
            object.__setattr__(self, "upper", tuple(self.upper))
        if self.n < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.upper) != self.n * (self.n - 1) // 2:
            raise ValueError("upper-triangle storage length does not match n")

    def entry(self, i: int, j: int) -> int:
        if i == j:
            return 0
        if i < j:
            return self.upper[_upper_index(self.n, i, j)]
        return -self.upper[_upper_index(self.n, j, i)]

    def to_integer_matrix(self) -> IntegerMatrix:
        return IntegerMatrix.from_rows(_alternating_rows(self.n, self.upper))


def _alternating_rows(n: int, upper) -> list:
    """Dense rows of the n x n alternating matrix with these upper entries."""
    rows = [[0] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        ri = rows[i]
        for j in range(i + 1, n):
            v = next(entries)
            ri[j] = v
            rows[j][i] = -v
    return rows


@frozen
class SmithDecomposition:
    """U @ A @ V = diag(divisors), with U, V unimodular.

    Only the divisor chain is contractually stable; the transforms are
    one valid choice among many.
    """

    U: IntegerMatrix
    V: IntegerMatrix
    divisors: tuple


@frozen
class CokernelStructure:
    """Shape of Z^n / (column space): free rank plus invariant factors >= 2."""

    free_rank: int
    torsion: tuple

    @property
    def torsion_order(self) -> int:
        out = 1
        for d in self.torsion:
            out *= d
        return out


# ---------------------------------------------------------------------------
# rank / determinant (fraction-free elimination)


def _rank_rows(rows, m: int, n: int):
    """(rank, row-swap sign, last pivot) by Bareiss-style fraction-free
    elimination.

    Mutates `rows`.  Column skipping keeps the one-step-delayed divisor
    exact (entries stay minors of the column-filtered matrix).  At full
    rank of a square matrix no column is skipped, so sign times the
    last pivot is the determinant.
    """
    r = 0
    sign = 1
    prev = 1
    for col in range(n):
        piv = -1
        for i in range(r, m):
            if rows[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            rows[piv], rows[r] = rows[r], rows[piv]
            sign = -sign
        rr = rows[r]
        pv = rr[col]
        # zero-lead rows need the rescale too, or the delayed exact
        # division breaks at the next step
        for i in range(r + 1, m):
            ri = rows[i]
            rv = ri[col]
            for j in range(col + 1, n):
                ri[j] = (ri[j] * pv - rv * rr[j]) // prev
            ri[col] = 0
        prev = pv
        r += 1
        if r == m:
            break
    return r, sign, prev


def rank(m) -> int:
    """Exact rank over the rationals of an IntegerMatrix or AlternatingMatrix."""
    if isinstance(m, AlternatingMatrix):
        return _alternating_rank(m.n, m.upper)
    return _rank_rows(m.to_rows(), m.n_rows, m.n_cols)[0]


def kernel_rank(a: AlternatingMatrix) -> int:
    """n - rank(a); congruent to n mod 2 since alternating rank is even."""
    return a.n - _alternating_rank(a.n, a.upper)


def determinant(m: IntegerMatrix) -> int:
    if m.n_rows != m.n_cols:
        raise ValueError("determinant needs a square matrix")
    n = m.n_rows
    r, sign, pivot = _rank_rows(m.to_rows(), n, n)
    return sign * pivot if r == n else 0


def matmul(a: IntegerMatrix, b: IntegerMatrix) -> IntegerMatrix:
    if a.n_cols != b.n_rows:
        raise ValueError("inner dimensions do not match")
    ar = a.to_rows()
    br = b.to_rows()
    out = []
    for i in range(a.n_rows):
        rai = ar[i]
        row = [0] * b.n_cols
        for k in range(a.n_cols):
            v = rai[k]
            if v:
                rbk = br[k]
                for j in range(b.n_cols):
                    row[j] += v * rbk[j]
        out.append(row)
    return IntegerMatrix.from_rows(out) if out else IntegerMatrix(0, b.n_cols, ())


# ---------------------------------------------------------------------------
# Pfaffian and alternating rank


def pfaffian(a: AlternatingMatrix) -> int:
    """Integer Pfaffian; satisfies pfaffian(a)**2 == det(a).

    Odd dimension returns 0 by convention (odd alternating matrices are
    singular).  Read off _alternating_elimination in O(n**3) steps.
    """
    r, pf = _alternating_elimination(a.n, a.upper)
    return pf if r == a.n else 0


def _alternating_elimination(n: int, upper) -> tuple:
    """(rank, pf) of the alternating matrix with these upper entries: pf =
    +-Pf_S != 0, the Pfaffian on the pivot set S (1 at rank 0); Pf at full rank.

    The Pfaffian form of Bareiss (1968): each step pivots on the first
    nonzero a_ij (i < j) of the live indices, drops i and j, and sets each
    remaining a_kl (k < l) to (a_ij*a_kl - a_ik*a_jl + a_il*a_jk) / d, d the
    previous pivot (1 at first).  By the Pfaffian Sylvester identity (Knuth,
    "Overlapping Pfaffians", 1996) a_kl is then the Pfaffian on the pivots
    so far and k, l, in that order, so the division is exact and the rest
    is the pivot times a Schur complement: the rank is the number of
    indices dropped when it vanishes.  The last pivot is Pf_S up to the
    sign of that order, (-1)**(s + t - 1) per step for pivot positions
    s < t in the live list, which pf carries.
    """
    a = list(upper)
    pos = _upper_positions(n)
    live = list(range(n))
    sign = d = 1
    while True:
        piv = 0
        for s in range(len(live) - 1):
            pi = pos[live[s]]
            for t in range(s + 1, len(live)):
                piv = a[pi[live[t]]]
                if piv:
                    break
            if piv:
                break
        if not piv:
            break
        i, j = live[s], live[t]
        if (s + t - 1) & 1:
            sign = -sign
        del live[t], live[s]
        # rows i and j of the remaining columns: a_ik and a_jk
        pi, pj = pos[i], pos[j]
        xs = [a[pi[k]] if i < k else -a[pos[k][i]] for k in live]
        ys = [a[pj[k]] if j < k else -a[pos[k][j]] for k in live]
        for s in range(len(live) - 1):
            pk = pos[live[s]]
            x, y = xs[s], ys[s]
            for t in range(s + 1, len(live)):
                e = pk[live[t]]
                a[e] = (piv * a[e] - x * ys[t] + xs[t] * y) // d
        d = piv
    return n - len(live), sign * d


# flat upper indices (ij, kl, ik, jl, il, jk) of every 4x4 principal minor
# i < j < k < l of a 5x5 alternating matrix, whose Pfaffian is
# a_ij*a_kl - a_ik*a_jl + a_il*a_jk
_PF4_5 = tuple(
    tuple(
        _upper_index(5, s, t)
        for s, t in ((i, j), (k, l), (i, k), (j, l), (i, l), (j, k))
    )
    for i, j, k, l in combinations(range(5), 4)
)


def _alternating_rank(n: int, upper) -> int:
    """Rank of an alternating matrix given its upper entries.

    n <= 5 walks the principal-Pfaffian ladder (rank equals the largest
    2m with a nonvanishing principal 2m-Pfaffian), reading the 4x4
    Pfaffians through an index table; larger n runs _alternating_elimination.
    """
    if not any(upper):
        return 0
    if n <= 3:
        return 2
    u = upper
    if n == 4:
        return 4 if u[0] * u[5] - u[1] * u[4] + u[2] * u[3] else 2
    if n > 5:
        return _alternating_elimination(n, upper)[0]
    for a, b, c, d, e, f in _PF4_5:
        if u[a] * u[b] - u[c] * u[d] + u[e] * u[f]:
            return 4
    return 2


# ---------------------------------------------------------------------------
# Smith normal form


def _smith_core(rows, m: int, n: int) -> tuple:
    """Reduce the leading m x n block of `rows` in place to Smith form and
    return its divisors.

    Row operations act on whole rows and column operations on every row,
    so columns past n and rows past m ride along: smith_normal_form
    carries U and V there.  Pivoting always picks the entry of least
    magnitude to limit coefficient growth.
    """
    mn = min(m, n)
    t = 0
    while t < mn:
        # locate the smallest nonzero entry of the trailing block
        best = 0
        bi = bj = -1
        for i in range(t, m):
            ri = rows[i]
            for j in range(t, n):
                v = ri[j]
                if v:
                    av = -v if v < 0 else v
                    if bi < 0 or av < best:
                        best, bi, bj = av, i, j
                        if av == 1:
                            break
            if best == 1:
                break
        if bi < 0:
            break
        if bi != t:
            rows[bi], rows[t] = rows[t], rows[bi]
        if bj != t:
            for r in rows:
                r[bj], r[t] = r[t], r[bj]

        while True:
            # clear row t and column t; the pivot magnitude strictly
            # decreases every time a remainder is swapped in, so this
            # terminates
            while True:
                if rows[t][t] < 0:
                    rows[t] = [-v for v in rows[t]]
                p = rows[t][t]
                moved = False
                for i in range(t + 1, m):
                    v = rows[i][t]
                    if v:
                        q = v // p
                        if q:
                            ri, rt = rows[i], rows[t]
                            for jj in range(t, len(ri)):
                                ri[jj] -= q * rt[jj]
                        if rows[i][t]:
                            rows[i], rows[t] = rows[t], rows[i]
                            moved = True
                            break
                if moved:
                    continue
                for j in range(t + 1, n):
                    v = rows[t][j]
                    if v:
                        q = v // p
                        if q:
                            for r in rows:
                                r[j] -= q * r[t]
                        if rows[t][j]:
                            for r in rows:
                                r[j], r[t] = r[t], r[j]
                            moved = True
                            break
                if not moved:
                    break

            # divisor-chain repair: every trailing entry must be a
            # multiple of the pivot
            p = rows[t][t]
            if p == 1:
                break
            carrier = -1
            for i in range(t + 1, m):
                ri = rows[i]
                for j in range(t + 1, n):
                    if ri[j] % p:
                        carrier = i
                        break
                if carrier >= 0:
                    break
            if carrier < 0:
                break
            rt, rc = rows[t], rows[carrier]
            for jj in range(t, len(rt)):
                rt[jj] += rc[jj]
        t += 1

    return tuple(rows[i][i] for i in range(mn))


def _as_rows(m) -> tuple:
    if isinstance(m, AlternatingMatrix):
        return _alternating_rows(m.n, m.upper), m.n, m.n
    return m.to_rows(), m.n_rows, m.n_cols


def smith_normal_form(m) -> SmithDecomposition:
    """Smith decomposition of an IntegerMatrix or AlternatingMatrix.

    divisors d_1 | d_2 | ... are nonnegative with zeros trailing; the
    returned transforms satisfy U @ A @ V == diag(divisors) exactly.
    They are carried as identity blocks of [[A, I_m], [I_n]] (Cohen,
    GTM 138, 2.4): the row operations build U in the right block of the
    first m rows, and the column operations build V in the n rows below.
    """
    rows, nr, nc = _as_rows(m)
    for i, row in enumerate(rows):
        row.extend(int(i == j) for j in range(nr))
    rows.extend([int(i == j) for j in range(nc)] for i in range(nc))
    divisors = _smith_core(rows, nr, nc)
    U = [row[nc:] for row in rows[:nr]]
    V = rows[nr:]
    return SmithDecomposition(IntegerMatrix.from_rows(U), IntegerMatrix.from_rows(V), divisors)


def smith_divisors(m) -> tuple:
    """Divisor chain only: the same elimination on A's bare rows."""
    rows, nr, nc = _as_rows(m)
    return _smith_core(rows, nr, nc)


def divisors_from_minors(m) -> tuple:
    """Invariant factors via gcds of k x k minors.

    Independent slow route used to cross-check the elimination-based
    Smith form; only sensible for small matrices.
    """
    import math as _math

    rows, nr, nc = _as_rows(m)
    mn = min(nr, nc)
    prev = 1
    out = []
    for k in range(1, mn + 1):
        g = 0
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                sub = IntegerMatrix.from_rows(
                    [[rows[i][j] for j in csel] for i in rsel]
                )
                g = _math.gcd(g, determinant(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            out.extend([0] * (mn - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


# ---------------------------------------------------------------------------
# cokernels


def cokernel(a: AlternatingMatrix) -> CokernelStructure:
    """Structure of Z^n / (column space of a).

    The torsion of an alternating cokernel carries a nondegenerate
    alternating pairing, so its invariant factors pair up; that is
    asserted on every call.
    """
    divisors = smith_divisors(a)
    nonzero = sum(1 for d in divisors if d)
    free_rank = a.n - nonzero
    torsion = tuple(d for d in divisors if d > 1)
    if len(torsion) % 2 or any(
        torsion[i] != torsion[i + 1] for i in range(0, len(torsion), 2)
    ):
        raise AssertionError(
            f"alternating cokernel torsion failed to pair up: {torsion}"
        )
    return CokernelStructure(free_rank=free_rank, torsion=torsion)


def _p_valuation(d: int, p: int) -> int:
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    return v


def diag_valuations_mod(rows, n: int, p: int, prec: int):
    """Smith-form p-valuations of an n x n integer matrix modulo p**prec.

    One pass of local elimination over Z/p**prec (Cohen, GTM 138, 2.4):
    step t picks an entry of least p-valuation v among rows t.. and the
    columns still active, stopping the scan at the first unit, moves its
    row to t, clears its column below row t with the factor
    (a_i / p**v) * u**-1, u the unit part of the pivot, and retires the
    column.  Row t needs no clearing: its entries are multiples of the
    pivot and the pivot column below it is already zero.  The remaining
    block stays divisible by p**v, so the values come out nondecreasing.

    The Smith form of A mod p**prec is diag(p**min(v_i, prec)), v_i the
    valuations of A's invariant factors (infinite for zero ones), so
    every returned int equals v_i exactly and every None marks a
    v_i >= prec.  The result depends on `rows` only mod p**prec and is
    sorted ascending with Nones last.  `rows` is copied, not modified,
    and not reduced up front: the scan's a % p**best and the pivot's
    exact division read any integer, and an entry is reduced mod
    p**prec where it is read as a multiplier or written by an update.
    """
    q = p**prec
    rows = [list(r) for r in rows]
    cols = list(range(n))
    vals = []
    for t in range(n):
        # least valuation in the remaining block; a % p**best is nonzero
        # exactly when a has a smaller valuation than the best so far
        best, pb = prec, q
        bi = bj = -1
        for i in range(t, n):
            ri = rows[i]
            for j in cols:
                a = ri[j]
                if a % pb:
                    best = _p_valuation(a, p)
                    pb, bi, bj = p**best, i, j
                    if not best:
                        break
            if not best:
                break
        if bi < 0:
            break
        rows[bi], rows[t] = rows[t], rows[bi]
        cols.remove(bj)
        rt = rows[t]
        inv = pow(rt[bj] // pb, -1, q)
        for i in range(t + 1, n):
            ri = rows[i]
            c = ri[bj] % q
            if c:
                f = c // pb * inv % q
                for j in cols:
                    ri[j] = (ri[j] - f * rt[j]) % q
        vals.append(best)
    return vals + [None] * (n - len(vals))


def _lane_ones(n: int, w: int) -> int:
    """1 in each of n lanes of w >= 1 bits: bit j*w set for j < n."""
    return ((1 << n * w) - 1) // ((1 << w) - 1)


def _diag_valuations_mod2_packed(rows, n: int, prec: int):
    """diag_valuations_mod(A, n, 2, prec), prec >= 1, for A given as packed
    rows: row i is one int of n lanes of w = 2 * prec bits, lane j (bits
    j*w to j*w + w - 1) holding A[i][j] reduced mod q = 2**prec.

    The same local elimination, a whole row per operation.  The least
    valuation v is 0 when some remaining row has the lowest bit of a lane
    set, and otherwise the least bit set in a lane of the rows' OR; the
    pivot is the lowest lane with bit v set of the first row that has
    one.  Every other remaining row becomes (row + m * pivot_row) & mask,
    with m = -(c / 2**v) * u**-1 mod q for its entry c in the pivot
    column, u the unit part of the pivot, and mask the low prec bits of
    every lane.  Before the mask a lane holds at most (q - 1) + (q - 1)**2
    < q**2 = 2**w, so no lane carries into the next, and the mask reduces
    every lane mod q at once.  The pivot column becomes 0 mod q in every
    remaining row, so once the pivot row is dropped no retired column can
    be picked again.  `rows` is not modified.
    """
    q = 1 << prec
    qm = q - 1
    w = 2 * prec
    low = _lane_ones(n, w)
    mask = low * qm
    rows = list(rows)
    vals = []
    while rows:
        v, bit, o = 0, low, 0
        for r in rows:
            if r & low:
                break
            o |= r
        else:
            if not o:
                break
            while not o & bit:
                v, bit = v + 1, bit << 1
        for i, r in enumerate(rows):
            h = r & bit
            if h:
                break
        s = (h & -h).bit_length() - 1 - v  # the pivot lane's first bit
        pivot = rows.pop(i)
        neg_inv = q - pow((pivot >> s & qm) >> v, -1, q)
        for t, r in enumerate(rows):
            c = r >> s & qm
            if c:
                rows[t] = r + ((c >> v) * neg_inv & qm) * pivot & mask
        vals.append(v)
    return vals + [None] * (n - len(vals))


@lru_cache(maxsize=16)
def _upper_positions(n: int) -> tuple:
    """pos[i][j] = _upper_index(n, i, j) for i < j (-1 elsewhere)."""
    return tuple(
        tuple(_upper_index(n, i, j) if i < j else -1 for j in range(n))
        for i in range(n)
    )


def _alternating_valuations_mod(n: int, upper, p: int, prec: int):
    """Smith-form p-valuations modulo p**prec of the n x n alternating
    matrix with these upper entries; equal to diag_valuations_mod on its
    dense rows, but the mirror half is never formed.

    Local elimination by 2x2 pivots (Newman, Integral Matrices, IV;
    Cohen, GTM 138, 2.4): each step picks an upper entry a = a_ij =
    u * p**v of least valuation among the remaining indices, stopping
    the scan at the first unit, and replaces the rest by the Schur
    complement of the block [[0, a], [-a, 0]]:

        a'_kl = a_kl + (a_kj * a_li - a_ki * a_lj) / a    (k < l).

    Every entry is divisible by p**v, so the division is exact as
    (a_kj / p**v) * u**-1 * a_li, and the complement is alternating and
    again divisible by p**v.  The block has Smith form diag(p**v, p**v),
    so each step appends v twice, in nondecreasing order.  When the
    remaining block is 0 mod p**prec, one None is returned per remaining
    index (so always at least one when n is odd).  Entries are carried
    unreduced between steps and reduced mod p**prec where they are read
    as multipliers; only residues mod p**prec decide anything.  A step
    reads the two pivot columns of the remaining rows once, computes
    each row's two factors once, and walks the pairs k < l by index,
    with no list sliced per row.  `upper` is not modified.
    """
    q = p**prec
    a = list(upper)
    pos = _upper_positions(n)
    live = list(range(n))
    vals = []
    while len(live) > 1:
        best, pb = prec, q
        bi = bj = -1
        for s, i in enumerate(live):
            pi = pos[i]
            for j in live[s + 1 :]:
                e = a[pi[j]]
                if e % pb:
                    best = _p_valuation(e, p)
                    pb, bi, bj = p**best, i, j
                    if not best:
                        break
            if not best:
                break
        if bi < 0:
            break
        inv = pow(a[pos[bi][bj]] // pb, -1, q)
        live.remove(bi)
        live.remove(bj)
        # columns i and j of the remaining rows: a_ki and a_kj
        pi, pj = pos[bi], pos[bj]
        xs = [(a[pos[k][bi]] if k < bi else -a[pi[k]]) % q for k in live]
        ys = [(a[pos[k][bj]] if k < bj else -a[pj[k]]) % q for k in live]
        m = len(live)
        for s in range(m - 1):
            pk = pos[live[s]]
            fx = xs[s] // pb * inv % q
            fy = ys[s] // pb * inv % q
            for t in range(s + 1, m):
                a[pk[live[t]]] += fy * xs[t] - fx * ys[t]
        vals += (best, best)
    return vals + [None] * len(live)


def _corank_p_exponents(n: int, upper, p: int, r: int):
    """Positive p-valuations of the invariant factors of the alternating
    matrix with these upper entries, ascending, when its corank is r;
    None when it is not.  p must be prime, and the corank at least r,
    which holds for r = 0, for r = 1 with n odd (an odd alternating
    matrix is singular), and for r = kernel_rank.

    _alternating_valuations_mod runs modulo p**10.  Its ints are the exact
    valuations of nonzero invariant factors, so at least corank Nones are
    left, and exactly r certify corank r.  At more than r, one
    _alternating_elimination rejects the draw unless its corank is r; its
    pf, a principal Pfaffian of size the rank, is a multiple of their gcd
    e_1 * ... * e_m for the factors e_1, e_1, ..., e_m, e_m, which
    congruence keeps (Newman, Integral Matrices, IV), so one more pass
    modulo p**(v_p(pf) + 1) leaves exactly r Nones.
    """
    vals = _alternating_valuations_mod(n, upper, p, 10)
    if vals.count(None) > r:
        rank, pf = _alternating_elimination(n, upper)
        if n - rank != r:
            return None
        vals = _alternating_valuations_mod(n, upper, p, _p_valuation(pf, p) + 1)
    return [v for v in vals if v]
