"""Independent certificate checkers.

Each check replays the defining inequalities of its certificate against a
standard-form program and reports a plain boolean.  Nothing here trusts
the solver: a certificate that fails any condition is rejected no matter
where it came from.

Every standard form minimizes ``x_0`` (``fmdp.lp``), so the objective
enters each test through column 0 alone: an optimal pair needs
``A^T y + e_0 = 0`` and ``x_0 + b^T y = 0``, and a ray needs ``r_0 < 0``.

There are two backends, and they share no arithmetic: only the length
checks, the row-denominator check and the sign test of a dual or Farkas
vector run before they split.  The default decides every test over
Python ints.  Each row is integers over its own positive denominator
``den_i`` (``fmdp.lp``), so a row's primal test compares the sum of its
numerators times the primal, put over one common denominator, with its
right-hand side numerator; the dual is read as ``y_i / den_i``, put over
one common denominator.  Every inequality and equality then compares
integers, with no gcd and no ``Fraction`` per term.  With
``normalized=False`` every value is carried instead as an unreduced
numerator/denominator pair with positive denominator, a row coefficient
as its numerator over its row's denominator, and comparisons
cross-multiply; it is the independent path for when the integer sums
themselves are under suspicion.  Both backends refuse a row denominator
that is not positive, as they refuse such an ``IntVector``.

Both backends leave a row with ``y_i = 0`` out of ``A^T y`` and
``b^T y``.  The raw-pair backend also leaves a term ``a_ij x_j`` with
``x_j = 0`` out of its row sum; the integer backend sums every term of a
row.  Adding a zero product is exact, so no verdict depends on it.
Every row is still compared, so a row that touches no nonzero entry is
tested as ``0 <= b_i``.

Every vector a check takes may be a ``Fraction`` sequence or an
``IntVector``, integer numerators over one positive denominator.  The
integer backend reads an ``IntVector`` as it stands, with no ``Fraction``
and no lcm; ``fmdp.weights`` hands its full primal and dual over in
this form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence, Union

from .errors import InvalidInputError
from .lp import StdLp

__all__ = ["IntVector", "check_optimality", "check_infeasible", "check_unbounded"]


@dataclass(frozen=True, slots=True)
class IntVector:
    """A rational vector as integers over one denominator: entry ``k`` is
    ``nums[k] / den``.  The checks require ``den > 0``."""

    nums: Sequence[int]
    den: int

    def __len__(self) -> int:
        return len(self.nums)

    def fractions(self) -> tuple[Fraction, ...]:
        """The entries as ``Fraction``s, one object per distinct value."""
        made = {n: Fraction(n, self.den) for n in set(self.nums)}
        return tuple(map(made.__getitem__, self.nums))


Vector = Union[Sequence[Fraction], IntVector]


def _require_len(name: str, vec: Vector, want: int) -> None:
    if isinstance(vec, IntVector) and not (isinstance(vec.den, int) and vec.den > 0):
        raise InvalidInputError(f"{name} has denominator {vec.den!r}, expected a positive integer")
    if len(vec) != want:
        raise InvalidInputError(f"{name} has length {len(vec)}, expected {want}")


def _require_rows(std: StdLp) -> None:
    if min(std.dens, default=1) <= 0:
        k, d = next((k, d) for k, d in enumerate(std.dens) if d <= 0)
        raise InvalidInputError(f"row {k} has denominator {d!r}, expected a positive integer")


def _has_negative(vec: Vector) -> bool:
    if isinstance(vec, IntVector):
        return any(n < 0 for n in vec.nums)
    return any(q.numerator < 0 for q in vec)


def _nonzero(vec: Vector) -> list[tuple[int, int, int]]:
    """``(k, numerator, denominator)`` of every nonzero entry."""
    if isinstance(vec, IntVector):
        return [(k, n, vec.den) for k, n in enumerate(vec.nums) if n]
    return [(k, *q.as_integer_ratio()) for k, q in enumerate(vec) if q.numerator]


# -- integer backend -----------------------------------------------------------


def _over_one_denominator(vec: Vector) -> tuple[Sequence[int], int]:
    """Integers ``n_k`` and one ``d > 0`` with ``vec[k] = n_k / d``."""
    if isinstance(vec, IntVector):
        return vec.nums, vec.den
    d = lcm(*{q.denominator for q in vec if q.numerator})
    return [q.numerator * (d // q.denominator) for q in vec], d


def _rows_hold(std: StdLp, x: Sequence[int], rhs_scale: int) -> bool:
    """``A x <= b * rhs_scale`` for every row, where ``x`` holds integers;
    a row's denominator is positive, so it compares its numerators."""
    at = x.__getitem__
    for cols, nums, b in zip(std.cols, std.nums, std.rhs):
        if sum(map(mul, nums, map(at, cols))) > b * rhs_scale:
            return False
    return True


def _scaled_dual(std: StdLp, y: Vector) -> tuple[list, int]:
    """The rows with ``y_i != 0``, each with the integer ``z_i`` of
    ``y_i / den_i = z_i / d``, plus ``d > 0``."""
    live = [(i, n, dy * std.dens[i]) for i, n, dy in _nonzero(y)]
    d = lcm(*{scale for _, _, scale in live})
    return [(i, n * (d // scale)) for i, n, scale in live], d


def _transpose_times(std: StdLp, scaled: list) -> list[int]:
    out = [0] * std.num_cols
    for i, z in scaled:
        for j, a in zip(std.cols[i], std.nums[i]):
            out[j] += a * z
    return out


def _rhs_pairing(std: StdLp, scaled: list) -> int:
    return sum(std.rhs[i] * z for i, z in scaled)


def _optimal_int(std: StdLp, primal, dual) -> bool:
    x, dx = _over_one_denominator(primal)
    if not _rows_hold(std, x, dx):
        return False
    scaled, dz = _scaled_dual(std, dual)
    # A^T y + e_0 = 0, where A^T y = (integer rows)^T z / dz.
    residual = _transpose_times(std, scaled)
    residual[0] += dz
    if any(residual):
        return False
    # x_0 + b^T y = 0, times dx * dz.
    return x[0] * dz + _rhs_pairing(std, scaled) * dx == 0


def _infeasible_int(std: StdLp, farkas) -> bool:
    scaled, _ = _scaled_dual(std, farkas)
    if any(_transpose_times(std, scaled)):
        return False
    return _rhs_pairing(std, scaled) < 0


def _unbounded_int(std: StdLp, point, ray) -> bool:
    x, dx = _over_one_denominator(point)
    r, _ = _over_one_denominator(ray)
    return _rows_hold(std, x, dx) and _rows_hold(std, r, 0) and r[0] < 0


# -- raw-pair backend ----------------------------------------------------------

_ZERO = (0, 1)

# A vector is carried as two lists, its numerators and its denominators,
# so a check makes no tuple per entry: a pass allocates few objects the
# garbage collector tracks.  A row coefficient is the pair of its numerator
# and its row's denominator, not reduced.


def _pairs(vec: Vector) -> tuple[Sequence[int], list[int]]:
    if isinstance(vec, IntVector):
        return vec.nums, [vec.den] * len(vec.nums)
    return [q.numerator for q in vec], [q.denominator for q in vec]


def _raw_add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def _raw_le(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] <= b[0] * a[1]


def _raw_rows_hold(std: StdLp, x, with_rhs: bool) -> bool:
    """``A x <= b`` row by row, or ``A x <= 0`` without ``with_rhs``; each
    product ``a_ij x_j`` with ``x_j != 0`` is added as ``_raw_add`` adds."""
    nums, dens = x
    for cols, row, den, b in zip(std.cols, std.nums, std.dens, std.rhs):
        n, d = _ZERO
        for j, a in zip(cols, row):
            v = nums[j]
            if v:
                tn, td = a * v, den * dens[j]
                n, d = n * td + tn * d, d * td
        if not _raw_le((n, d), (b, den) if with_rhs else _ZERO):
            return False
    return True


def _raw_transpose_times(std: StdLp, y) -> tuple[list[int], list[int]]:
    """``A^T y`` as numerators and denominators, summed over ``y_i != 0``."""
    out_n, out_d = [0] * std.num_cols, [1] * std.num_cols
    for cols, row, den, a, b in zip(std.cols, std.nums, std.dens, *y):
        if a:
            for j, q in zip(cols, row):
                tn, td = q * a, den * b
                n, d = out_n[j], out_d[j]
                out_n[j], out_d[j] = n * td + tn * d, d * td
    return out_n, out_d


def _raw_rhs_pairing(std: StdLp, y) -> tuple[int, int]:
    """``b^T y``, summed over ``y_i != 0``."""
    n, d = _ZERO
    for b, den, a, e in zip(std.rhs, std.dens, *y):
        if a:
            tn, td = b * a, den * e
            n, d = n * td + tn * d, d * td
    return n, d


def _optimal_raw(std: StdLp, primal, dual) -> bool:
    x, y = _pairs(primal), _pairs(dual)
    if not _raw_rows_hold(std, x, True):
        return False
    # A^T y + e_0 = 0: column 0 holds res_n[0] / res_d[0] + 1.
    res_n, res_d = _raw_transpose_times(std, y)
    res_n[0] += res_d[0]
    if any(res_n):
        return False
    # x_0 + b^T y = 0.
    nums, dens = x
    return _raw_add((nums[0], dens[0]), _raw_rhs_pairing(std, y))[0] == 0


def _infeasible_raw(std: StdLp, farkas) -> bool:
    y = _pairs(farkas)
    if any(_raw_transpose_times(std, y)[0]):
        return False
    return _raw_rhs_pairing(std, y)[0] < 0


def _unbounded_raw(std: StdLp, point, ray) -> bool:
    x, r = _pairs(point), _pairs(ray)
    return _raw_rows_hold(std, x, True) and _raw_rows_hold(std, r, False) and r[0][0] < 0


# -- public checks -------------------------------------------------------------


def check_optimality(
    std: StdLp,
    primal: Vector,
    dual: Vector,
    *,
    normalized: bool = True,
) -> bool:
    """Verify a claimed optimal pair.

    Requires primal feasibility, dual feasibility under the convention
    `max -b^T y, A^T y = -e_0, y >= 0`, and exact objective equality
    `x_0 = -b^T y`.
    """
    _require_rows(std)
    _require_len("primal", primal, std.num_cols)
    _require_len("dual", dual, std.num_rows)
    if _has_negative(dual):
        return False
    if normalized:
        return _optimal_int(std, primal, dual)
    return _optimal_raw(std, primal, dual)


def check_infeasible(
    std: StdLp,
    farkas: Vector,
    *,
    normalized: bool = True,
) -> bool:
    """Verify a Farkas vector: y >= 0, A^T y = 0, and b^T y < 0."""
    _require_rows(std)
    _require_len("farkas", farkas, std.num_rows)
    if _has_negative(farkas):
        return False
    if normalized:
        return _infeasible_int(std, farkas)
    return _infeasible_raw(std, farkas)


def check_unbounded(
    std: StdLp,
    point: Vector,
    ray: Vector,
    *,
    normalized: bool = True,
) -> bool:
    """Verify an unboundedness witness: a feasible point plus a ray with
    A r <= 0 and r_0 < 0."""
    _require_rows(std)
    _require_len("point", point, std.num_cols)
    _require_len("ray", ray, std.num_cols)
    if normalized:
        return _unbounded_int(std, point, ray)
    return _unbounded_raw(std, point, ray)
