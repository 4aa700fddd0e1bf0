"""Exact two-phase primal simplex over rationals, pivoting on integer rows.

The program is `min x_0, A x <= b`: column 0 is the objective variable
of every standard form (``fmdp.lp``), so phase two's cost row starts as
the unit row e_0.  Otherwise it is the textbook one: free variables are
split into nonnegative pairs u - v, every row gets a slack, rows are
sign-flipped (sigma_i = +1 or -1) so right-hand sides start nonnegative,
and one artificial variable per row seeds the basis.  Columns are
numbered u, v, slack, artificial, and Bland's rule runs over that
numbering: the lowest eligible column enters, ties on the ratio test go
to the lowest basic index.  That guarantees termination without cycling.

Only the u columns, the slacks and the right-hand side are stored, n + m + 1
columns instead of 2n + 2m + 1.  The other columns follow from
them at every step, because every pivot applies the same row operations
to all columns and they start out related:

- v_j = -u_j, in every row and in both objective rows;
- artificial a_i = sigma_i * s_i in every constraint row, since both start
  as multiples of the unit vector e_i.  In the objective rows the reduced
  costs satisfy a_i = 1 + sigma_i * s_i in phase one and a_i = sigma_i * s_i
  in phase two, so the Farkas vector (phase one) and the dual (phase two)
  are exactly the objective row on the slack columns.

Artificials never re-enter, so no artificial entry is ever needed.

Each row is stored sparsely: a dict from stored column (u columns 0..n-1,
slacks n..n+m-1, the right-hand side n+m) to a nonzero Python int, over
one positive denominator.  A tableau row is a row of B^-1 times the
starting tableau, so its slack part is that row of B^-1 up to the row
signs sigma.  u_j and v_j are never basic together (v_j = -u_j), so the
basis B holds at most n structural columns, and every other basic column
is a signed unit vector; block-inverting B leaves at most n + 1 nonzeros
in each row of B^-1, and a stored row holds at most about 2n + 2
nonzeros, against n + m + 1 entries in a dense row.  The objective rows
are stored the same way.

A singleton row i, with one structural column j (a master's box rows
`+-w_j <= box`), is derived instead of stored while its own artificial or
slack is basic at position i.  Column i of B is then +-e_i, so no other
tableau row holds any of seed row i, and seed row i less the multiple of
the basic row of u_j or v_j that clears column j is zero on every other
basic column: it is tableau row i, negated when the slack is basic at
sigma_i = -1.  No pivot walks it; the ratio test reads its entry and
right-hand side off the two rows, and one elimination materializes it
when it is chosen to leave, and after phase one while its artificial is
basic, for the infeasibility test and drive-out.  It is derived again
once its own slack enters at position i.  The certificate reads only
structural and objective rows.  Every derived entry is the rational the
full tableau holds, so every decision is too.

Input rows arrive as integers over one positive row denominator
(``fmdp.lp``), already in lowest terms, and seed the tableau as they
stand: the row's numerators, its denominator on its own slack, and its
right-hand side numerator, all times sigma_i.  A pivot with pivot entry
P turns row k into (P * row_k - f * row_r) / (den_k * P), walking only
the two rows' nonzeros, after dividing P and f by their gcd; the result
is reduced by one gcd over its nonzeros, so every row stays in lowest
terms.  The ratio test cross-multiplies, since a row's
denominator cancels in rhs / entry.  The rational tableau these rows
represent is, entry for entry, the dense ``Fraction`` one, so every sign
test and ratio comparison decides the same way: the Bland pivot
sequence, the certificates and the recorded stats are those of the plain
rational simplex.  ``Fraction`` appears only when the certificate is
read out.

Certificates come from three places: Farkas vectors from the phase-one
objective row when the artificial optimum stays positive, dual optima from
the phase-two objective row, and rays straight from an entering column
with no positive entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import LpInternalError
from .lp import Certificate, Infeasible, Optimal, StdLp, Unbounded

__all__ = ["solve_lp"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _eliminate(
    row: dict[int, int], den: int, f: int, pivot_row: dict[int, int], p: int
) -> tuple[dict[int, int], int]:
    """``row / den - (f / den) * (pivot_row / p)`` as a reduced sparse row."""
    g = gcd(p, f)
    if g > 1:
        p //= g
        f //= g
    new = {k: p * a for k, a in row.items()} if p != 1 else dict(row)
    for k, b in pivot_row.items():
        a = new.get(k, 0) - f * b
        if a:
            new[k] = a
        else:
            del new[k]
    den *= p
    g = gcd(den, *new.values())
    if g > 1:
        new = {k: q // g for k, q in new.items()}
        den //= g
    return new, den


def solve_lp(std: StdLp, stats: dict | None = None) -> Certificate:
    """Solve `min x_0, A x <= b` exactly and certify the outcome.

    Certificates follow the package-wide dual convention
    `max -b^T y, A^T y = -e_0, y >= 0`.  When ``stats`` is given, pivot
    counts and tableau dimensions are recorded in it.
    """
    n = std.num_cols
    m = std.num_rows
    v0, s0, a0 = n, 2 * n, 2 * n + m
    rhs_key = n + m

    def column(e: int) -> tuple[int, int]:
        """Stored key and sign of tableau column ``e`` (never artificial)."""
        if e < v0:
            return e, 1
        if e < s0:
            return e - v0, -1
        return e - s0 + n, 1

    # rows[:m] are the constraint rows; while a phase runs, its objective
    # row is rows[m], so every pivot updates it with the rest.
    rows: list[dict[int, int]] = []
    dens: list[int] = []
    basis: list[int] = []
    for i, (cols, nums, b, den) in enumerate(zip(std.cols, std.nums, std.rhs, std.dens)):
        if b >= 0:
            row = dict(zip(cols, nums))
            row[n + i] = den
        else:
            row = {j: -q for j, q in zip(cols, nums)}
            row[n + i] = -den
        if b:
            row[rhs_key] = abs(b)
        rows.append(row)
        dens.append(den)
        basis.append(a0 + i)

    # Phase one minimizes the artificial sum from the all-artificial basis.
    # Its reduced costs on stored columns are minus the column sums.
    z1, d1 = {}, 1
    for row, den in zip(rows, dens):
        z1, d1 = _eliminate(z1, d1, d1, row, den)

    # A derived row keeps its seed here and an empty stored row (a stored
    # row holds its basic column).  basic_row[j] is the position where u_j
    # or v_j is basic, if either is.
    seeds = {i: (cols[0], rows[i], dens[i]) for i, cols in enumerate(std.cols) if len(cols) == 1}
    for i in seeds:
        rows[i] = {}
    basic_row: list[int | None] = [None] * n

    def materialize(i: int) -> None:
        """Store derived row ``i`` as the full tableau holds it."""
        j, row, den = seeds[i]
        p = basic_row[j]
        if p is not None:
            f, q = row[j], rows[p][j]
            if q < 0:
                f, q = -f, -q
            row, den = _eliminate(row, den, f, rows[p], q)
        if basis[i] < a0 and row[n + i] < 0:
            row = {k: -a for k, a in row.items()}
        rows[i], dens[i] = row, den

    counts = {"phase1": 0, "phase2": 0, "driveout": 0}

    def pivot(r: int, e: int) -> None:
        if not rows[r]:
            materialize(r)
        k, sg = column(e)
        pr = rows[r]
        p = sg * pr[k]
        if p < 0:
            pr = {j: -q for j, q in pr.items()}
            p = -p
        for i, row in enumerate(rows):
            if i != r and k in row:
                rows[i], dens[i] = _eliminate(row, dens[i], sg * row[k], pr, p)
        g = gcd(p, *pr.values())
        rows[r] = {j: q // g for j, q in pr.items()} if g > 1 else pr
        dens[r] = p // g
        old = basis[r]
        if old < s0:
            basic_row[old - v0 if old >= v0 else old] = None
        basis[r] = e
        if e < s0:
            basic_row[k] = r
        elif e == s0 + r and r in seeds:
            rows[r] = {}

    def entering() -> int | None:
        z = rows[m]
        for j in range(n):
            if z.get(j, 0) < 0:
                return j
        for j in range(n):
            if z.get(j, 0) > 0:
                return v0 + j
        slack = min((k for k, q in z.items() if n <= k < rhs_key and q < 0), default=None)
        return None if slack is None else slack - n + s0

    def positive(k: int, sg: int):
        """Position, right-hand side and entry of each row positive in the
        column stored at ``k`` with sign ``sg``, over one positive
        denominator."""
        for r in range(m):
            row = rows[r]
            t = sg * row.get(k, 0)
            if t > 0:
                yield r, row.get(rhs_key, 0), t
        # Derived row r is (seed - seed[j] * row_p / row_p[j]) / den_r over
        # p = basic_row[j], negated while its slack is basic at sigma_r = -1.
        for r, (j, seed, _) in seeds.items():
            if rows[r]:
                continue
            t, num = seed.get(k, 0), seed.get(rhs_key, 0)
            p = basic_row[j]
            if p is not None:
                pr = rows[p]
                q, f = pr[j], seed[j]
                t, num = t * q - f * pr.get(k, 0), num * q - f * pr.get(rhs_key, 0)
                if q < 0:
                    t, num = -t, -num
            if basis[r] < a0 and seed[n + r] < 0:
                t, num = -t, -num
            t *= sg
            if t > 0:
                yield r, num, t

    def leaving(enter: int) -> int | None:
        """Bland's ratio test: the least rhs / entry over positive entries
        of column ``enter``, ties to the lowest basic column."""
        own = enter - s0
        if own >= 0 and basis[own] == a0 + own:
            # Phase one prices s_own at -sigma_own while a_own is basic, so
            # s_own enters only at sigma_own = +1, when its column is a_own's
            # unit column.
            return own
        leave = None
        for r, num, t in positive(*column(enter)):
            if leave is not None:
                lhs, rhs = num * best_t, best_num * t
                if lhs > rhs or (lhs == rhs and basis[r] > basis[leave]):
                    continue
            leave, best_num, best_t = r, num, t
        return leave

    def run(phase: str) -> int | None:
        """Iterate to optimality; return the entering column on unboundedness."""
        while True:
            enter = entering()
            if enter is None:
                return None
            leave = leaving(enter)
            if leave is None:
                return enter
            pivot(leave, enter)
            counts[phase] += 1

    rows.append(z1)
    dens.append(d1)
    blocked = run("phase1")
    if blocked is not None:
        raise LpInternalError("artificial phase cannot be unbounded")
    z1, d1 = rows.pop(), dens.pop()
    for i in seeds:
        if basis[i] >= a0:
            materialize(i)

    # Every right-hand side is nonnegative here, so the artificial sum is
    # positive exactly when some basic artificial is.
    if any(basis[r] >= a0 and rows[r].get(rhs_key, 0) > 0 for r in range(m)):
        farkas = tuple(Fraction(z1.get(n + i, 0), d1) for i in range(m))
        _record(stats, counts, m, 2 * n + 2 * m)
        return Infeasible(farkas)

    # Evict artificials still sitting in the basis at value zero.  Such a
    # row always offers a real pivot: expressing it as a combination of
    # input rows, the weight on its own is one (the basic artificial
    # column is a unit vector), so its own slack appears with coefficient
    # +1 or -1.  Pivoting at value zero preserves feasibility either way.
    # A v column is nonzero exactly where its u column is, so it never
    # comes first.
    for r in range(m):
        if basis[r] >= a0:
            row = rows[r]
            enter = next((j for j in range(n) if j in row), None)
            if enter is None:
                slack = min((k for k in row if n <= k < rhs_key), default=None)
                if slack is None:
                    raise LpInternalError("dependent row lost its slack column")
                enter = slack - n + s0
            pivot(r, enter)
            counts["driveout"] += 1

    # Phase two: the cost row of x_0 = u_0 - v_0, priced against the
    # current basis.  u_0 and v_0 are never basic together, so at most
    # one row is eliminated.
    z2, dz = {0: 1}, 1
    for r, e in enumerate(basis):
        if e == 0 or e == v0:
            z2, dz = _eliminate(z2, dz, 1 if e == 0 else -1, rows[r], dens[r])
    rows.append(z2)
    dens.append(dz)
    blocked = run("phase2")
    z2, dz = rows.pop(), dens.pop()
    _record(stats, counts, m, 2 * n + 2 * m)

    def coordinates(entry) -> list[Fraction]:
        """u - v over the basic columns, row r contributing ``entry(row_r)``."""
        out = [_ZERO] * n
        for e, row, den in zip(basis, rows, dens):
            if e < s0:
                value = Fraction(entry(row), den)
                if e < v0:
                    out[e] = value
                else:
                    out[e - v0] = -value
        return out

    point = tuple(coordinates(lambda row: row.get(rhs_key, 0)))
    if blocked is not None:
        k, sg = column(blocked)
        ray = coordinates(lambda row: -sg * row.get(k, 0))
        if blocked < s0:
            ray[k] = _ONE if blocked < v0 else -_ONE
        return Unbounded(point, tuple(ray))

    dual = tuple(Fraction(z2.get(n + i, 0), dz) for i in range(m))
    return Optimal(point, dual)


def _record(stats: dict | None, counts: dict, live_rows: int, ncols: int) -> None:
    if stats is None:
        return
    stats["pivots_phase1"] = counts["phase1"]
    stats["pivots_phase2"] = counts["phase2"]
    stats["pivots_driveout"] = counts["driveout"]
    stats["pivots"] = counts["phase1"] + counts["phase2"] + counts["driveout"]
    stats["rows"] = live_rows
    stats["cols"] = ncols
