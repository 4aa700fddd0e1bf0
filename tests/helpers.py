"""Shared random-instance generators and enumeration references for the
test suite."""

import random
from fractions import Fraction

from fmdp.factored import ScopedFn, assignments, consistent
from fmdp.lp import Lp, make_constraint
from fmdp.values import NEG_INF, fin


def random_ext_table_fns(
    rng: random.Random,
    n_max: int = 6,
    dim_max: int = 3,
    fn_count_max: int = 5,
    neg_inf_prob: float = 0.2,
):
    """A random family of ScopedFn<ExtReal> plus its dims vector.

    Scopes are random subsets, table entries are small rationals with an
    occasional negative infinity, which is the shape variable elimination
    has to survive.
    """
    n = rng.randint(1, n_max)
    dims = [rng.randint(1, dim_max) for _ in range(n)]
    fns = []
    for _ in range(rng.randint(0, fn_count_max)):
        scope = tuple(sorted(rng.sample(range(n), rng.randint(0, min(n, 3)))))
        card = tuple(dims[v] for v in scope)
        size = 1
        for c in card:
            size *= c
        table = tuple(
            NEG_INF
            if rng.random() < neg_inf_prob
            else fin(Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
            for _ in range(size)
        )
        fns.append(ScopedFn(scope, card, table))
    return fns, dims


def random_rational_fn(rng: random.Random, variables, dims) -> ScopedFn:
    """A ScopedFn with plain Fraction entries over the given variables."""
    return ScopedFn.tabulate(
        variables, dims, lambda _: Fraction(rng.randint(-12, 12), rng.randint(1, 4))
    )


def all_states(dims):
    return assignments(range(len(dims)), dims)


def random_token_lp(rng: random.Random, max_vars: int = 4, max_rows: int = 6) -> Lp:
    """A small dense-ish LP over string variables, objective `x0`.

    Row kinds, coefficients, and right-hand sides are drawn so the three
    solver outcomes all show up across a seeded run.
    """
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_rows)
    names = [f"x{j}" for j in range(n)]
    cons = []
    for _ in range(m):
        coefs = {}
        for name in names:
            if rng.random() < 0.6:
                coefs[name] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        kind = "eq" if rng.random() < 0.25 else "le"
        rhs = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        cons.append(make_constraint(kind, coefs, rhs))
    return Lp(tuple(cons), "x0")


def explicit_branch_sup(mdp, w, t, a, ts):
    """Largest |Q_w^a - nu_w| over the full states consistent with ``t``
    and with none of ``ts``, by enumeration; ``None`` when there are none."""
    deviations = [
        abs(mdp.q_value(w, a, x) - mdp.nu_w(w, x))
        for x in all_states(mdp.dims)
        if consistent(x, t) and not any(consistent(x, tp) for tp in ts)
    ]
    return max(deviations) if deviations else None
