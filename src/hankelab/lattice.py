"""Weighted lattice paths: the triangle by direct path counting, a
brute-force nonintersecting-family determinant oracle, and the dual-path
summation identities.

Paths use steps (1, 1) and (1, -1) and stay at height >= 0.  An upstep
weighs 1; a downstep weighs t when it ends at odd height and 1 otherwise.
The oracle sums sgn(sigma) * t^EO over families of vertex-disjoint paths,
EO counting the weight-t downsteps across the whole family.
"""

from __future__ import annotations

from fractions import Fraction

from . import ring
from .exactnum import binomial

__all__ = [
    "LGV_LIMIT",
    "weighted_triangle_entry",
    "lgv_matrix",
    "lgv_bruteforce",
    "dual_sum",
    "dual_sum_total",
    "dual_sum_closed",
]

LGV_LIMIT = 4


def weighted_triangle_entry(n: int, j: int) -> ring.Polynomial:
    """Weight sum over height-nonnegative paths from (0, 0) to (n, j)."""
    if n < 0 or j < 0:
        raise ValueError("indices must be >= 0")
    zero = ring.Polynomial.zero()
    t = ring.Polynomial.variable_poly("t")
    state = {0: ring.Polynomial.one()}
    for step in range(n):
        remaining = n - step - 1
        new: dict[int, ring.Polynomial] = {}
        for h, w in state.items():
            if abs(j - (h + 1)) <= remaining:
                new[h + 1] = new.get(h + 1, zero) + w
            if h >= 1 and abs(j - (h - 1)) <= remaining:
                down = w * t if (h - 1) % 2 else w
                new[h - 1] = new.get(h - 1, zero) + down
        state = new
    return state.get(j, zero)


def lgv_matrix(n: int) -> list:
    """Path-count matrix with entry(i, j) the weight sum into height 2."""
    return [
        [weighted_triangle_entry(2 * i + 2 * j + 2, 2) for j in range(n)]
        for i in range(n)
    ]


def _path_atoms(x0: int, x1: int, x_base: int, stride: int) -> list:
    """All paths (x0, 0) -> (x1, 2): pairs (vertex bitmask, t-downsteps)."""
    atoms = []
    start_bit = 1 << ((x0 - x_base) * stride)

    def walk(x: int, h: int, mask: int, eo: int):
        if x == x1:
            if h == 2:
                atoms.append((mask, eo))
            return
        remaining = x1 - x - 1
        for dh in (1, -1):
            nh = h + dh
            if nh < 0 or abs(2 - nh) > remaining:
                continue
            bit = 1 << ((x + 1 - x_base) * stride + nh)
            walk(x + 1, nh, mask | bit, eo + (1 if dh < 0 and nh % 2 else 0))

    walk(x0, 0, start_bit, 0)
    return atoms


def lgv_bruteforce(n: int) -> ring.Polynomial:
    """Signed weight sum over vertex-disjoint path families.

    Path i runs from (-2i, 0) to (2 sigma(i) + 2, 2) and the family weight
    is sgn(sigma) * t^EO.  Enumeration cost is exponential, so orders above
    LGV_LIMIT are refused outright.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n > LGV_LIMIT:
        raise ValueError(f"family enumeration is limited to n <= {LGV_LIMIT}")
    x_base = -2 * (n - 1)
    stride = 2 * n + 1
    atoms = [
        [_path_atoms(-2 * i, 2 * j + 2, x_base, stride) for j in range(n)]
        for i in range(n)
    ]
    coeffs: dict[int, int] = {}

    def assign(i: int, used_targets: int, used_vertices: int, inv: int, eo: int):
        if i == n:
            coeffs[eo] = coeffs.get(eo, 0) + (1 if inv % 2 == 0 else -1)
            return
        for j in range(n):
            if used_targets >> j & 1:
                continue
            flips = (used_targets >> (j + 1)).bit_count()
            for mask, steps in atoms[i][j]:
                if mask & used_vertices:
                    continue
                assign(
                    i + 1,
                    used_targets | 1 << j,
                    used_vertices | mask,
                    inv + flips,
                    eo + steps,
                )

    assign(0, 0, 0, 0, 0)
    top = max(coeffs, default=0)
    return ring.Polynomial([coeffs.get(e, 0) for e in range(top + 1)], "t")


def dual_sum(n: int, k: int) -> tuple:
    """One dual-path block sum as (shift, Polynomial).

    The value is t^(-shift) times the polynomial; the sum runs over
    s = k .. n-1 with coefficient binomial(s-1, k-1) * binomial(n+k-1-s, k)
    on t^(-s).  k = 0 contributes the single empty-block term 1.
    """
    if not 0 <= k <= n - 1:
        raise ValueError("need 0 <= k <= n - 1")
    if k == 0:
        return 0, ring.Polynomial.one()
    coeffs = [
        Fraction(binomial(s - 1, k - 1) * binomial(n + k - 1 - s, k))
        for s in range(n - 1, k - 1, -1)
    ]
    return n - 1, ring.Polynomial(coeffs, "t")


def dual_sum_total(n: int) -> ring.Polynomial:
    """Alternating sum of the dual-path blocks, cleared to a polynomial.

    Equals t^(binomial(n,2)) times the signed t^(-s) double sum; defined
    for n >= 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    monomial = ring.Polynomial.monomial
    acc = ring.Polynomial.zero()
    for k in range(n):
        shift, part = dual_sum(n, k)
        aligned = part * monomial("t", (n - 1) - shift)
        acc = acc + aligned if k % 2 == 0 else acc - aligned
    return acc * monomial("t", binomial(n, 2) - (n - 1))


def dual_sum_closed(n: int) -> ring.Polynomial:
    """Closed form t^(binomial(n,2)) * sum of (-1)^s binom(n-s,s) t^(-s)."""
    if n < 0:
        raise ValueError("need n >= 0")
    monomial = ring.Polynomial.monomial
    acc = ring.Polynomial.zero()
    for s in range(n // 2 + 1):
        term = monomial("t", binomial(n, 2) - s, binomial(n - s, s))
        acc = acc + term if s % 2 == 0 else acc - term
    return acc
