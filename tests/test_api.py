"""Driver loop: termination flags, iteration accounting, and the bound."""

import dataclasses
import importlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import perfbench_instances, sysadmin

import fmdp.lpbuild
from fmdp.api import ApiConfig, ApiResult, api, posterior_bound
from fmdp.elim import identity_order
from fmdp.error import factored_bellman_err
from fmdp.errors import InvalidInputError, OracleLimitError
from fmdp.lp import Optimal
from fmdp.model import elimination_order, make_ring
from fmdp.oracle import explicit_bellman_err, explicit_weight_lp
from fmdp.policy import greedy_decision_list
from fmdp.simplex import solve_lp
from fmdp.weights import update_weights

api_module = importlib.import_module("fmdp.api")
error_module = importlib.import_module("fmdp.error")
weights_module = importlib.import_module("fmdp.weights")


def _counting(calls, key, original):
    def wrapper(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        return original(*args, **kwargs)

    return wrapper


def _counted_api(mdp, monkeypatch, **config):
    """A traced ``api`` run with its steps and its calls, by key: greedy
    lists and Bellman errors ``api`` asked for, the fit's pricing
    sweeps (``max_sum_decode``) and the error's (``max_sum``)."""
    calls: dict = {}
    for module, name, key in (
        (api_module, "greedy_decision_list", "greedy"),
        (api_module, "factored_bellman_err", "error"),
        (weights_module, "max_sum_decode", "pricing"),
        (error_module, "max_sum", "sweeps"),
    ):
        monkeypatch.setattr(module, name, _counting(calls, key, getattr(module, name)))
    steps: list[dict] = []
    res = api(mdp, ApiConfig(**config), trace=steps)
    return res, steps, calls


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
    return cert.primal[std.col_of["phi"]]


@pytest.mark.parametrize(
    "name, every_fit",
    [
        ("ring-4", True),
        ("ring-5", True),
        ("sysadmin-3", True),
        ("ring-6", False),
        ("ring-6", True),
        ("sysadmin-4", False),
        ("sysadmin-5", False),
    ],
)
def test_fits_and_errors_match_the_oracle_on_benchmark_models(name, every_fit):
    """The construction against the oracle, not only the certificate: on
    the benchmark's seed-0 models, each checked fit's phi is the optimum of
    the explicit weight LP of the list it fitted, and the factored Bellman
    error is the brute-force one, at the fit's weights and at drawn ones.
    Sysadmin-4 and sysadmin-5, the largest (sysadmin-5's full program is
    228132x117196), are checked at their last fit only; ring-6 is checked
    both at every fit and at its last fit alone, where the drawn weights
    differ from those of the every-fit run."""
    if name in ("sysadmin-4", "sysadmin-5"):
        mdp = sysadmin(int(name[-1]))
    else:
        mdp = perfbench_instances(0)[name]
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
    "n, pivots",
    [
        (3, [104, 24, 24]),
        (4, [260, 27, 30]),
        ("ring-5", [311, 38, 38]),
        ("ring-6", [530, 90, 46, 45]),
        ("sysadmin-3", [528, 87, 87]),
    ],
)
def test_master_pivots_per_iteration_are_pinned(n, pivots):
    # Counts of the master simplex over each update_weights call with the
    # min-degree order (ring-3 totals 152, as in perfbench/test_bench.py),
    # on make_ring(n) or a seed-0 perfbench model by name.  A change to
    # the pivot rule or to the cut sequence moves them, and a change to the
    # block rows moves the program's shape.
    mdp = make_ring(n) if isinstance(n, int) else perfbench_instances(0)[n]
    steps: list[dict] = []
    api(mdp, ApiConfig(order=elimination_order(mdp, "min-degree")), trace=steps)
    assert [step["pivots"] for step in steps] == pivots
    if n not in _LP_SHAPES:
        return
    shape = (
        [step["cuts"] for step in steps],
        [step["rounds"] for step in steps],
        [(step["lp_rows"], step["lp_cols"]) for step in steps],
        [len(step["std"].constraint_rows) for step in steps],
    )
    assert shape == _LP_SHAPES[n]


@pytest.mark.parametrize(
    "name, pricing, sweeps",
    [("ring-6", 198, 74), ("ring-5", 108, 44), ("ring-4", 84, 32), ("sysadmin-3", 244, 108)],
)
def test_pricing_calls_and_error_sweeps_are_pinned(name, pricing, sweeps, monkeypatch):
    # Seed-0 min-degree runs, as perfbench's traced elim.pricing_calls
    # counts them: the fit prices every live block once up front and once
    # per cut round, and the error sweeps every live block of each greedy
    # list it measures.  Pricing dead blocks too, and measuring the
    # converged iteration's error again, gave 378/188/156/252 calls and
    # 200/126/102/168 sweeps.
    mdp = perfbench_instances(0)[name]
    _, _, calls = _counted_api(mdp, monkeypatch, order=elimination_order(mdp, "min-degree"))
    assert (calls["pricing"], calls["sweeps"]) == (pricing, sweeps)


def test_a_converged_iteration_reuses_the_last_greedy_list_and_error(monkeypatch):
    # Weights that repeat give the greedy list the iteration before derived
    # from them, and the error it measured: the run derives the starting
    # list and one per iteration but the last, and measures every error but
    # the last one.  What it reports is what a fresh derivation gives.
    mdp = make_ring(3)
    order = elimination_order(mdp, "min-degree")
    res, steps, calls = _counted_api(mdp, monkeypatch, order=order)
    assert res.w_eq and len(steps) == res.t + 1 == 3
    assert (calls["greedy"], calls["error"]) == (len(steps), len(steps) - 1)
    monkeypatch.undo()
    assert res.pol == greedy_decision_list(mdp, res.w)
    for step in steps:
        fresh = greedy_decision_list(mdp, step["w"])
        assert step["err"] == factored_bellman_err(mdp, step["w"], fresh, order)
    assert res.err == steps[-1]["err"] == steps[-2]["err"]


def test_a_run_converged_at_the_first_fit_still_measures_its_error(monkeypatch):
    # With no reward the first fit repeats the all-zero start, whose error
    # no earlier iteration measured.
    ring = make_ring(2)
    rewards = tuple(tuple(r.map_table(lambda _: Fraction(0)) for r in rs) for rs in ring.rewards)
    mdp = dataclasses.replace(ring, rewards=rewards)
    res, steps, calls = _counted_api(mdp, monkeypatch, t_max=10)
    assert res.w_eq and res.t == 0
    assert (calls["greedy"], calls["error"]) == (1, 1)
    assert res.err == explicit_bellman_err(mdp, res.w, res.pol) == 0


@pytest.mark.parametrize("n, builds", [(3, 13), (4, 17)])
def test_each_policy_builds_its_blocks_once(n, builds, monkeypatch):
    # The error of each new greedy policy and the next weight fit price the
    # same blocks, and a branch whose state and action the policy before
    # it has takes its summands from that policy's pair.  So a policy
    # tabulates the summands of each (t, action) the one before it lacks,
    # once per run even though both steps read them.
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
    keys = [set()] + [{(b.t, b.action) for b in greedy_decision_list(mdp, w).branches} for w in weights]
    assert len(calls) == sum(len(new - old) for old, new in zip(keys, keys[1:])) == builds


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
    # The zero-error stop beats the weight-equality stop here; the bound
    # accepts the run as it is, and refitting the final policy reproduces
    # its weights.
    ring = make_ring(2)
    mdp = dataclasses.replace(
        ring, discount=Fraction(0), basis=ring.rewards[ring.default]
    )
    res = api(mdp, ApiConfig(t_max=10))
    assert res.err_le and res.err == 0
    w_again, _ = update_weights(mdp, res.pol, identity_order(mdp.n))
    assert w_again == res.w
    lhs, rhs, holds = posterior_bound(mdp, res)
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
