"""Driver loop: termination flags, iteration accounting, and the bound."""

import dataclasses
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import perfbench_instances, sysadmin

import fmdp.lpbuild
from fmdp.api import ApiConfig, ApiResult, api, posterior_bound
from fmdp.error import factored_bellman_err
from fmdp.errors import InvalidInputError, OracleLimitError
from fmdp.lp import PHI, Optimal
from fmdp.model import elimination_order, make_ring
from fmdp.oracle import explicit_bellman_err, explicit_weight_lp
from fmdp.policy import greedy_decision_list
from fmdp.simplex import solve_lp
from fmdp.weights import update_weights


def test_ring_two_converges_quickly():
    res = api(make_ring(2), ApiConfig(epsilon=Fraction(0), t_max=30))
    assert res.w_eq
    assert res.t <= 5
    assert res.err >= 0
    assert len(res.phi_history) == res.t + 1
    assert res.w_eq or res.err_le or res.timeout


def test_t_max_one_forces_timeout():
    res = api(make_ring(2), ApiConfig(t_max=1))
    assert res.timeout
    assert res.t == 0
    assert len(res.phi_history) == 1


def test_myopic_exact_basis_hits_zero_error():
    # With no lookahead and the reward summands as the basis, the greedy
    # list is optimal right away and the projection is exact.
    ring = make_ring(2)
    mdp = dataclasses.replace(
        ring, discount=Fraction(0), basis=ring.rewards[ring.default]
    )
    res = api(mdp, ApiConfig(epsilon=Fraction(0), t_max=10))
    assert res.err == 0
    assert res.err_le
    assert res.t == 0


def test_reported_error_matches_oracle():
    mdp = make_ring(2)
    res = api(mdp, ApiConfig(t_max=30))
    assert res.err == explicit_bellman_err(mdp, res.w, res.pol)


def test_bit_for_bit_determinism():
    cfg = ApiConfig(epsilon=Fraction(0), t_max=30)
    assert api(make_ring(3), cfg) == api(make_ring(3), cfg)


def _explicit_phi(mdp, pol):
    std = explicit_weight_lp(mdp, pol)
    cert = solve_lp(std)
    assert isinstance(cert, Optimal)
    return cert.primal[std.col_of[PHI]]


@pytest.mark.parametrize(
    "name, every_fit",
    [
        ("ring-4", True),
        ("ring-5", True),
        ("sysadmin-3", True),
        ("ring-6", False),
        ("ring-6", True),
        ("sysadmin-4", False),
    ],
)
def test_fits_and_errors_match_the_oracle_on_benchmark_models(name, every_fit):
    """The construction against the oracle, not only the certificate: on
    the benchmark's seed-0 models, each checked fit's phi is the optimum of
    the explicit weight LP of the list it fitted, and the factored Bellman
    error is the brute-force one, at the fit's weights and at drawn ones.
    Sysadmin-4, the largest, is checked at its last fit only; ring-6 is
    checked both at every fit and at its last fit alone, where the drawn
    weights differ from those of the every-fit run."""
    mdp = sysadmin(4) if name == "sysadmin-4" else perfbench_instances(0)[name]
    order = elimination_order(mdp, "min-degree")
    steps = []
    api(mdp, ApiConfig(order=order), trace=steps)
    starts = [tuple(Fraction(0) for _ in mdp.basis)] + [step["w"] for step in steps[:-1]]
    fits = list(zip(starts, steps))
    rng = random.Random(0)
    for start, step in fits if every_fit else fits[-1:]:
        pol = greedy_decision_list(mdp, start)
        assert step["phi"] == _explicit_phi(mdp, pol)
        assert step["err"] == explicit_bellman_err(mdp, step["w"], greedy_decision_list(mdp, step["w"]))
        for _ in range(2):
            w = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in mdp.basis)
            assert factored_bellman_err(mdp, w, pol, order) == explicit_bellman_err(mdp, w, pol)


# Per update_weights call: cuts, cut rounds, the full program's standard
# form (rows, columns) and its constraint count.
_LP_SHAPES = {
    3: ([10, 14, 14], [5, 1, 1], [(106, 57), (1210, 693), (1210, 693)], [68, 680, 680]),
    4: ([18, 14, 18], [9, 1, 1], [(146, 78), (2514, 1438), (2514, 1438)], [96, 1424, 1424]),
}


@pytest.mark.parametrize(
    "n, pivots", [(3, [104, 24, 24]), (4, [260, 27, 30])]
)
def test_master_pivots_per_iteration_are_pinned(n, pivots):
    # Counts of the master simplex over each update_weights call with the
    # min-degree order (ring-3 totals 152, as in perfbench/test_bench.py).
    # A change to the pivot rule or to the cut sequence moves them, and a
    # change to the block rows moves the program's shape.
    mdp = make_ring(n)
    steps: list[dict] = []
    api(mdp, ApiConfig(order=elimination_order(mdp, "min-degree")), trace=steps)
    assert [step["pivots"] for step in steps] == pivots
    shape = (
        [step["cuts"] for step in steps],
        [step["rounds"] for step in steps],
        [(step["lp_rows"], step["lp_cols"]) for step in steps],
        [len(step["std"].constraint_rows) for step in steps],
    )
    assert shape == _LP_SHAPES[n]


@pytest.mark.parametrize("n, builds", [(3, 27), (4, 35)])
def test_each_policy_builds_its_blocks_once(n, builds, monkeypatch):
    # The error of each new greedy policy and the next weight fit price the
    # same blocks, so a branch's summands are tabulated once per run even
    # though both steps read them.
    calls = []
    original = fmdp.lpbuild.difference_fns

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fmdp.lpbuild, "difference_fns", counting)
    mdp = make_ring(n)
    steps: list[dict] = []
    api(mdp, ApiConfig(order=elimination_order(mdp, "min-degree")), trace=steps)
    weights = [tuple(Fraction(0) for _ in mdp.basis)] + [step["w"] for step in steps]
    policies = {greedy_decision_list(mdp, w) for w in weights}
    assert len(calls) == sum(len(pol) for pol in policies) == builds


def test_perfbench_tracer_sees_every_layer():
    # The benchmark's tracer patches solver names from outside; a refactor
    # that moves one of them must fail here, not only under --trace 1.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with module.Tracer() as tracer:
        api(make_ring(3))
    seen = {span[0] for span in tracer.spans}
    for name in (
        "weights.update", "policy.greedy", "error.bellman", "lpbuild.blocks",
        "lpbuild.assemble", "simplex.master", "certify.full",
        "elim.pricing", "elim.maxsum",
    ):
        assert name in seen, name
    # assemble_lp emits the full program in standard form, so a fit
    # flattens nothing; fmdp.weights.to_standard_form, the identity, is
    # still there to patch (entering the tracer would fail otherwise).
    assert "lp.stdform" not in seen


def test_trace_is_optional_and_inert():
    mdp = make_ring(1)
    steps: list[dict] = []
    traced = api(mdp, ApiConfig(t_max=30), trace=steps)
    plain = api(mdp, ApiConfig(t_max=30))
    assert traced == plain
    assert len(steps) == traced.t + 1
    for step in steps:
        assert step["phi"] in traced.phi_history
        assert step["lp_rows"] > 0
        assert step["seconds"] >= 0


def test_bad_config_rejected():
    mdp = make_ring(1)
    with pytest.raises(InvalidInputError):
        api(mdp, ApiConfig(epsilon=Fraction(-1, 2)))
    with pytest.raises(InvalidInputError):
        api(mdp, ApiConfig(t_max=0))


def test_posterior_bound_on_converged_ring():
    mdp = make_ring(2)
    res = api(mdp, ApiConfig(epsilon=Fraction(0), t_max=30))
    assert res.w_eq
    lhs, rhs, holds = posterior_bound(mdp, res)
    assert holds
    assert lhs <= rhs
    assert rhs == 2 * mdp.discount * res.err


def test_posterior_bound_zero_discount_is_tight():
    # The zero-error stop beats the weight-equality stop here, so convergence
    # is shown directly: refitting the final policy reproduces its weights.
    ring = make_ring(2)
    mdp = dataclasses.replace(
        ring, discount=Fraction(0), basis=ring.rewards[ring.default]
    )
    res = api(mdp, ApiConfig(t_max=10))
    assert res.err_le and res.err == 0
    w_again, _ = update_weights(mdp, res.pol)
    assert w_again == res.w
    converged = dataclasses.replace(res, w_eq=True)
    lhs, rhs, holds = posterior_bound(mdp, converged)
    assert (lhs, rhs, holds) == (0, 0, True)


def test_posterior_bound_rejects_unconverged_runs():
    mdp = make_ring(2)
    res = api(mdp, ApiConfig(t_max=1))
    assert not res.w_eq
    with pytest.raises(InvalidInputError):
        posterior_bound(mdp, res)


def test_posterior_bound_respects_oracle_limit():
    mdp = make_ring(2)
    res = api(mdp, ApiConfig(t_max=30))
    with pytest.raises(OracleLimitError):
        posterior_bound(mdp, res, limit=3)
