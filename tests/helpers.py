"""Shared random-instance generators and enumeration references for the
test suite."""

import importlib.util
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

from hypothesis import strategies as st

from fmdp.elim import ElimPlan, int_tables
from fmdp.errors import LpInternalError
from fmdp.factored import PartialState, ScopedFn, assignments, consistent, instantiate
from fmdp.lp import PHI, FnId, FnVar, LpVar, Phi, StdLp, StdRows, Weight
from fmdp.lpbuild import TagBlock, branch_lp
from fmdp.model import FactoredMdp


# The named program layer the package once built its programs in, kept as
# the tests' reference: a program as a list of canonical named rows, and
# its flattening to the standard form.


def _var_key(v: LpVar):
    if type(v) is str:
        return (3, v)
    if isinstance(v, Phi):
        return (0, 0)
    if isinstance(v, Weight):
        return (1, v.i)
    if isinstance(v, FnVar):
        return (
            2,
            (v.tag.t.items, v.tag.action, v.tag.pos, v.fn.kind, v.fn.idx, v.z.items),
        )
    return (3, str(v))


@dataclass(frozen=True, slots=True)
class Constraint:
    """A single row: sum of coef * var `kind` rhs, kind "le" or "eq".

    Coefficients are stored zero-free, one per variable, canonically ordered,
    so two constraints are structurally equal exactly when they say the same.
    """

    kind: str
    coefs: tuple[tuple[LpVar, Fraction], ...]
    rhs: Fraction


def make_constraint(
    kind: str,
    coefs: Mapping[LpVar, Fraction] | Iterable[tuple[LpVar, Fraction]],
    rhs: Fraction | int,
) -> Constraint:
    """The row without its zero terms; ``ValueError`` on an unknown kind or
    on a variable named twice, whatever its coefficients."""
    if kind not in ("le", "eq"):
        raise ValueError(f"constraint kind {kind!r}")
    # Lists and tuples skip the ABC check.
    if not isinstance(coefs, (list, tuple)) and isinstance(coefs, Mapping):
        coefs = coefs.items()
    keyed = sorted(((_var_key(v), v, q) for v, q in coefs), key=itemgetter(0))
    for (key, v, _), (next_key, _, _) in zip(keyed, keyed[1:]):
        if key == next_key:
            raise ValueError(f"repeated variable {v!r}")
    if type(rhs) is not Fraction:
        rhs = Fraction(rhs)
    return Constraint(kind, tuple((v, q) for _, v, q in keyed if q != 0), rhs)


@dataclass(frozen=True)
class Lp:
    """Ordered constraints plus the variable to minimize."""

    constraints: Sequence[Constraint]
    objective: LpVar


def column_order(lp: Lp) -> dict[LpVar, int]:
    """The column of every variable: the objective takes column 0 and the
    rest follow in order of first appearance across the constraint list."""
    col_of: dict[LpVar, int] = {lp.objective: 0}
    for con in lp.constraints:
        for v, _ in con.coefs:
            if v not in col_of:
                col_of[v] = len(col_of)
    return col_of


def flatten(lp: Lp) -> StdLp:
    """Flatten to inequality form, columns in ``column_order``."""
    col_of = column_order(lp)
    out = StdRows()
    for con in lp.constraints:
        out.add(con.kind, tuple(sorted((col_of[v], q) for v, q in con.coefs)), con.rhs)
    return out.std(tuple(col_of))


def renumbered(std: StdLp, columns) -> StdLp:
    """``std`` over ``columns``, the same variables in another order: each
    term moved to its variable's column there, each row sorted again."""
    col_of = {v: j for j, v in enumerate(columns)}
    to = [col_of[v] for v in std.columns]
    rows = tuple(tuple(sorted((to[j], q) for j, q in row)) for row in std.rows)
    return StdLp(tuple(columns), rows, std.rhs, tuple(std.constraint_rows))


def sum_or_none(values):
    """The sum of rationals, or ``None`` (minus infinity) if any is ``None``."""
    values = list(values)
    return None if None in values else sum(values, Fraction(0))


def max_or_none(values):
    """The largest rational, ``None`` (minus infinity) below every one;
    ``None`` when every value is."""
    return max((v for v in values if v is not None), default=None)


def random_ext_table_fns(
    rng: random.Random,
    n_max: int = 6,
    dim_max: int = 3,
    fn_count_max: int = 5,
    neg_inf_prob: float = 0.2,
):
    """A random family of ScopedFn plus its dims vector.

    Scopes are random subsets, table entries are small rationals with an
    occasional ``None`` (minus infinity), which is the shape variable
    elimination has to survive.
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
            None
            if rng.random() < neg_inf_prob
            else Fraction(rng.randint(-20, 20), rng.randint(1, 5))
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


def reference_optimality(std, primal, dual) -> bool:
    """``fmdp.certify.check_optimality`` in plain ``Fraction`` arithmetic,
    every entry included, zero or not.  The objective is column 0."""
    if any(lhs > b for lhs, b in zip(_row_values(std, primal), std.rhs)):
        return False
    if any(yi < 0 for yi in dual):
        return False
    residual = _transpose_times(std, dual)
    residual[0] += 1
    if any(residual):
        return False
    dual_obj = sum((b * yi for b, yi in zip(std.rhs, dual)), Fraction(0))
    return primal[0] + dual_obj == 0


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
    return ray[0] < 0


def min_lp(dims, tag, c_fns, b_fns, order) -> TagBlock:
    """The block for one tag from arbitrary summands.

    ``c_fns`` carry rational tables and enter scaled by their weight;
    ``b_fns`` carry rational tables with ``None`` for minus infinity and
    enter additively, a ``None`` entry simply leaving its variable
    unpinned.  Both are converted once, to integer tables over their least
    common denominator.
    """
    plan = ElimPlan.build((*c_fns, *b_fns), order, dims)
    tables, den = int_tables([f.table for f in (*c_fns, *b_fns)])
    return TagBlock.of(tag, tables[: len(c_fns)], tables[len(c_fns) :], den, plan)


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
    domain(t'), ``None`` (minus infinity) exactly at t' and 0 elsewhere,
    then instantiated by ``t``."""
    out = []
    for tp in ts:
        full = ScopedFn.tabulate(tp.domain, dims, lambda x, tp=tp: None if x == tp else 0)
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


def block_fns(block):
    """A block's integer tables read back as scoped functions on their plan
    slots' scopes: the weighted summands with ``Fraction`` tables and the
    constant ones with ``Fraction`` tables and ``None`` for minus
    infinity."""
    plan = block.plan

    def fn(s, table, value):
        scope = plan.scopes[s]
        return ScopedFn(scope, tuple(plan.dims[v] for v in scope), tuple(map(value, table)))

    c_fns = tuple(fn(i, t, lambda n: Fraction(n, block.den)) for i, t in enumerate(block.c))
    b_fns = tuple(
        fn(s, t, lambda n: None if n is None else Fraction(n, block.den))
        for s, t in enumerate(block.b, len(block.c))
    )
    return c_fns, b_fns


def reference_at(block, w):
    """A block's summands at ``w`` as ``Fraction`` tables with ``None`` for
    minus infinity, in plan order: each weighted summand scaled by its w_i,
    then the constant ones."""
    c_fns, b_fns = block_fns(block)
    scaled = [c.map_table(lambda q, wi=wi: wi * q) for wi, c in zip(w, c_fns)]
    return scaled + list(b_fns)


def reference_sweep(plan, tables):
    """``fmdp.elim.ElimPlan.sweep`` over ``Fraction`` tables with ``None``
    for minus infinity, written out: each point's total is ``None`` where
    some dependent is, and each entry of a round's replacement keeps the
    largest total of its points, ``None`` below every rational, and the
    lowest value of the eliminated variable among equal ones."""
    tables = list(tables)
    choices = []
    for rnd in plan.rounds:
        card = plan.dims[rnd.var]
        points = prod(plan.dims[v] for v in (*rnd.scope_e, rnd.var))
        deps = list(zip(rnd.dependents, rnd.gather))
        totals = [sum_or_none(tables[s][g[j]] for s, g in deps) for j in range(points)]
        table, choice = [], []
        for start in range(0, points, card):
            best = start
            for j in range(start + 1, start + card):
                if totals[j] is not None and (totals[best] is None or totals[j] > totals[best]):
                    best = j
            table.append(totals[best])
            choice.append(best - start)
        tables.append(tuple(table))
        choices.append(tuple(choice))
    return tables, choices


def reference_max_sum_decode(fns, plan):
    """``fmdp.elim.max_sum_decode`` as first written, before families were
    scaled to integers: the exact sweep (``reference_sweep``), its sum, and
    the maximizing state walked back from its choices."""
    tables, choices = reference_sweep(plan, [f.table for f in fns])
    value = sum_or_none(tables[s][0] for s in plan.final)
    x = [0] * len(plan.dims)
    for rnd, choice in zip(reversed(plan.rounds), reversed(choices)):
        x[rnd.var] = choice[plan.entry(rnd.scope_e, x)]
    return value, PartialState(tuple(enumerate(x)))


def reference_fn_vars(block):
    """One named private variable per table entry of every plan slot."""
    ids = [FnId("c", i) for i in range(len(block.c))]
    ids += [FnId("b", k) for k in range(len(block.b))]
    ids += [FnId("e", rnd.var) for rnd in block.plan.rounds]
    return [
        [FnVar(block.tag, fid, z) for z in assignments(scope, block.plan.dims)]
        for fid, scope in zip(ids, block.plan.scopes)
    ]


def reference_weight_lp_blocks(mdp, pol, order):
    """The weight LP's blocks as first built: a pair for every branch but
    an exact (state, action) repeat, shadowed branches included, and every
    built branch's state an earlier state to the branches after it."""
    blocks, earlier, seen = [], [], set()
    for branch in pol.branches:
        if (branch.t, branch.action) in seen:
            continue
        seen.add((branch.t, branch.action))
        blocks += branch_lp(mdp, branch.t, branch.action, tuple(earlier), order)
        earlier.append(branch.t)
    return tuple(blocks)


def reference_weight_lp(blocks):
    """The full program as first written, one named row at a time: per
    block its ties, pins, each round's dominance rows and the summary row."""
    one, minus = Fraction(1), Fraction(-1)
    rows = []
    for block in blocks:
        plan, fn_vars = block.plan, reference_fn_vars(block)
        c_fns, b_fns = block_fns(block)
        for i, c in enumerate(c_fns):
            rows += [make_constraint("eq", [(v, minus), (Weight(i), q)], 0) for v, q in zip(fn_vars[i], c.table)]
        for b, b_vars in zip(b_fns, fn_vars[len(c_fns) :]):
            rows += [make_constraint("eq", [(v, one)], q) for v, q in zip(b_vars, b.table) if q is not None]
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


def reference_block_tables(block, w, phi):
    """One block's private variables as the completion sweeps them, over
    ``Fraction``s: unpinned entries at pricing's stand-in, twice the sum of
    the summands' largest finite magnitudes at ``w`` plus one unit of
    ``block.den * lcm(w)``, negated."""
    c_fns, b_fns = block_fns(block)
    bound = Fraction(0)
    for wi, c in zip(w, c_fns):
        bound += abs(wi) * max(map(abs, c.table), default=0)
    for b in b_fns:
        bound += max((abs(v) for v in b.table if v is not None), default=Fraction(0))
    stand_in = -(2 * bound + Fraction(1, block.den * lcm(*(q.denominator for q in w))))
    weighted = [tuple(wi * q for q in c.table) for wi, c in zip(w, c_fns)]
    pinned = [tuple(stand_in if v is None else v for v in b.table) for b in b_fns]
    tables, _ = block.plan.sweep(weighted + pinned, Fraction(0))
    if sum((tables[s][0] for s in block.plan.final), Fraction(0)) > phi:
        raise LpInternalError("completed block exceeds phi")
    return tables


def reference_complete_primal(std, blocks, phi, w):
    """``fmdp.weights._complete_primal`` over ``Fraction``s: a ``Fraction``
    per column, each slot's table written to its run of columns."""
    primal = [Fraction(0)] * std.num_cols
    primal[0] = phi
    for wi, col in zip(w, std.weight_cols):
        if col is not None:
            primal[col] = wi
    for block, at in zip(blocks, std.placed):
        for k, table in zip(at.cols, reference_block_tables(block, w, phi)):
            primal[k : k + len(table)] = table
    return tuple(primal)


def _perfbench_models():
    """The benchmark's model generators, ``perfbench/models.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "models.py"
    spec = importlib.util.spec_from_file_location("perfbench_models", path)
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    return models


def sysadmin(n):
    """Perfbench's seed-0 SysAdmin model on ``n`` machines."""
    models = _perfbench_models()
    return models.sysadmin_mdp(n, models.sysadmin_params(None))


def perfbench_instances(seed):
    """Ring-3 to ring-6 and sysadmin-3 at a perfbench seed, by name.

    Ring-4 to ring-6 and sysadmin-3 draw their probabilities as
    ``perfbench/workloads.instance_builders`` does; ring-3, which the
    benchmark does not run, takes the seed's first ring draw, as ring-4
    does.  Seed 0 gives the package's reference models.
    """
    models = _perfbench_models()
    rng = None if seed == 0 else random.Random(seed)
    rings = {n: models.ring_params(rng) for n in (4, 5, 6)}
    rings[3] = rings[4]
    out = {f"ring-{n}": models.ring_mdp(n, rings[n]) for n in (3, 4, 5, 6)}
    out["sysadmin-3"] = models.sysadmin_mdp(3, models.sysadmin_params(rng))
    return out


SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))

_BIG_PRIMES = (1, 3, 10007, 65537, 2**31 - 1, 2**61 - 1)
BIG_DENOMINATOR_SMALL = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(_BIG_PRIMES))
BIG_DENOMINATOR_LARGE = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.sampled_from(_BIG_PRIMES)
)


@st.composite
def summands(draw):
    """The inputs of one ``min_lp`` block over 1-3 variables
    of 1-3 values: dims, weighted summands with rational tables, constant
    summands with rational tables and ``None`` (minus infinity) among
    them, and an elimination order."""
    n = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(n))
    scopes = _scopes(n, n)
    entry = st.one_of(
        BIG_DENOMINATOR_SMALL,
        BIG_DENOMINATOR_LARGE,
        st.just(None),
        st.just(Fraction(0)),
    )

    def fn(values):
        scope = draw(scopes)
        card = tuple(dims[v] for v in scope)
        size = 1
        for c in card:
            size *= c
        return ScopedFn(scope, card, tuple(draw(values) for _ in range(size)))

    c_fns = tuple(fn(BIG_DENOMINATOR_SMALL) for _ in range(draw(st.integers(0, 3))))
    b_fns = tuple(fn(entry) for _ in range(draw(st.integers(0, 4))))
    order = tuple(draw(st.permutations(range(n))))
    return dims, c_fns, b_fns, order


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
