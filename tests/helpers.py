"""Shared random-instance generators and enumeration references for the
test suite."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from fmdp.factored import ScopedFn, assignments, consistent, instantiate
from fmdp.lp import PHI, FnId, FnVar, Lp, Weight, make_constraint
from fmdp.model import FactoredMdp
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


def _row_values(std, x):
    return [sum((q * x[j] for j, q in sparse), Fraction(0)) for sparse in std.rows]


def _transpose_times(std, y):
    out = [Fraction(0)] * std.num_cols
    for sparse, yi in zip(std.rows, y):
        for j, q in sparse:
            out[j] += q * yi
    return out


def _objective_value(std, x):
    return sum((q * x[j] for j, q in std.objective), Fraction(0))


def reference_optimality(std, primal, dual) -> bool:
    """``fmdp.certify.check_optimality`` in plain ``Fraction`` arithmetic,
    every entry included, zero or not."""
    if any(lhs > b for lhs, b in zip(_row_values(std, primal), std.rhs)):
        return False
    if any(yi < 0 for yi in dual):
        return False
    residual = _transpose_times(std, dual)
    for j, q in std.objective:
        residual[j] += q
    if any(residual):
        return False
    dual_obj = sum((b * yi for b, yi in zip(std.rhs, dual)), Fraction(0))
    return _objective_value(std, primal) + dual_obj == 0


def reference_infeasible(std, farkas) -> bool:
    """``fmdp.certify.check_infeasible`` in plain ``Fraction`` arithmetic."""
    if any(yi < 0 for yi in farkas) or any(_transpose_times(std, farkas)):
        return False
    return sum((b * yi for b, yi in zip(std.rhs, farkas)), Fraction(0)) < 0


def reference_unbounded(std, point, ray) -> bool:
    """``fmdp.certify.check_unbounded`` in plain ``Fraction`` arithmetic."""
    if any(lhs > b for lhs, b in zip(_row_values(std, point), std.rhs)):
        return False
    if any(lhs > 0 for lhs in _row_values(std, ray)):
        return False
    return _objective_value(std, ray) < 0


def explicit_branch_sup(mdp, w, t, a, ts):
    """Largest |Q_w^a - nu_w| over the full states consistent with ``t``
    and with none of ``ts``, by enumeration; ``None`` when there are none."""
    deviations = [
        abs(mdp.q_value(w, a, x) - mdp.nu_w(w, x))
        for x in all_states(mdp.dims)
        if consistent(x, t) and not any(consistent(x, tp) for tp in ts)
    ]
    return max(deviations) if deviations else None


def reference_indicator_fns(ts, t, dims):
    """The exclusion functions as first written: each tabulated over all of
    domain(t'), minus infinity exactly at t', then instantiated by ``t``."""
    out = []
    for tp in ts:
        full = ScopedFn.tabulate(tp.domain, dims, lambda x, tp=tp: NEG_INF if x == tp else fin(0))
        out.append(instantiate(full, t))
    return out


def reference_difference_fns(mdp, t, a):
    """The basis differences h_i - gamma * g_i^a, freshly tabulated over
    the joint scope and instantiated by ``t``; nothing is cached."""
    out = []
    for i, h in enumerate(mdp.basis):
        g = mdp.g(i, a)
        joint = ScopedFn.tabulate(
            set(h.scope) | set(g.scope), mdp.dims, lambda x: h(x) - mdp.discount * g(x)
        )
        out.append(instantiate(joint, t))
    return tuple(out)


def reference_fn_vars(block):
    """One named private variable per table entry of every plan slot."""
    ids = [FnId("c", i) for i in range(len(block.c_fns))]
    ids += [FnId("b", k) for k in range(len(block.b_fns))]
    ids += [FnId("e", rnd.var) for rnd in block.plan.rounds]
    return [
        [FnVar(block.tag, fid, z) for z in assignments(scope, block.plan.dims)]
        for fid, scope in zip(ids, block.plan.scopes)
    ]


def reference_weight_lp(blocks):
    """The full program as first written, one named row at a time: per
    block its ties, pins, each round's dominance rows and the summary row."""
    one, minus = Fraction(1), Fraction(-1)
    rows = []
    for block in blocks:
        plan, fn_vars = block.plan, reference_fn_vars(block)
        for i, c in enumerate(block.c_fns):
            rows += [make_constraint("eq", [(v, minus), (Weight(i), q)], 0) for v, q in zip(fn_vars[i], c.table)]
        for b, b_vars in zip(block.b_fns, fn_vars[len(block.c_fns) :]):
            rows += [make_constraint("eq", [(v, one)], q.unwrap()) for v, q in zip(b_vars, b.table) if q.is_finite]
        for rnd, e_vars in zip(plan.rounds, fn_vars[plan.inputs :]):
            card = plan.dims[rnd.var]
            if not rnd.dependents:
                rows.append(make_constraint("le", [(e_vars[0], minus)], 0))
                continue
            deps = [(fn_vars[s], g) for s, g in zip(rnd.dependents, rnd.gather)]
            for j in range(len(e_vars) * card):
                terms = [(e_vars[j // card], minus)] + [(vs[g[j]], one) for vs, g in deps]
                rows.append(make_constraint("le", terms, 0))
        rows.append(make_constraint("le", [(fn_vars[s][0], one) for s in plan.final] + [(PHI, minus)], 0))
    return Lp(tuple(rows), PHI)


SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _scopes(n, most, least=0):
    scope = st.lists(st.integers(0, n - 1), min_size=least, max_size=most, unique=True)
    return scope.map(lambda s: tuple(sorted(s)))


@st.composite
def models(draw):
    """Valid models with domains of up to 3 values, transition scopes of up
    to 3 variables, and non-default actions that share the default's reward
    prefix and declare the variables they change."""
    n = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(n))

    def table(most):
        return ScopedFn.tabulate(draw(_scopes(n, most)), dims, lambda _: draw(SMALL))

    def distribution(i):
        mass = [draw(st.integers(0, 3)) for _ in range(dims[i])]
        if sum(mass) == 0:
            mass[draw(st.integers(0, dims[i] - 1))] = 1
        return tuple(Fraction(p, sum(mass)) for p in mass)

    def transition(i):
        return ScopedFn.tabulate(draw(_scopes(n, 3)), dims, lambda _: distribution(i))

    default_t = tuple(transition(i) for i in range(n))
    prefix = tuple(table(2) for _ in range(draw(st.integers(1, 2))))
    transitions, rewards, effects = [default_t], [prefix], [()]
    for _ in range(draw(st.integers(1, 2))):
        eff = draw(_scopes(n, n, 1))
        transitions.append(tuple(transition(i) if i in eff else default_t[i] for i in range(n)))
        rewards.append(prefix + (table(2),))
        effects.append(eff)
    mdp = FactoredMdp(
        domains=tuple(tuple(f"v{k}" for k in range(d)) for d in dims),
        actions=tuple(f"a{k}" for k in range(len(transitions))),
        default=0,
        transitions=tuple(transitions),
        rewards=tuple(rewards),
        effects=tuple(effects),
        discount=draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(9, 10)])),
        basis=tuple(table(2) for _ in range(draw(st.integers(1, 3)))),
    )
    assert mdp.validate() == []
    return mdp
