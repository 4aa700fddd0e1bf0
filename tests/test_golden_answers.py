"""The solver's answers on the benchmark's models, pinned as one digest.

A change that keeps every answer but moves pivots, cut paths or the
certificate's layout leaves the digest alone; a change to any iterate,
error, weight or policy byte moves it.
"""

import hashlib
from fractions import Fraction

from helpers import perfbench_instances

from fmdp.api import ApiConfig, api
from fmdp.model import elimination_order
from fmdp.policy import decision_list_to_text

# SHA-256 over the repr of (seed, name, t, err, w, phi_history, policy text)
# of every min-degree run below, in order.
GOLDEN_ANSWERS = "5d04ae2363cf3943c82c5453290ca2ed6e8f727c3c1554f29d5019bb2b0b6b08"


def test_answers_on_the_benchmark_models_match_their_golden_digest():
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        for name, mdp in perfbench_instances(seed).items():
            order = elimination_order(mdp, "min-degree")
            res = api(mdp, ApiConfig(epsilon=Fraction(0), t_max=100, order=order))
            assert not res.timeout, (seed, name)
            policy = decision_list_to_text(mdp, res.pol)
            answer = (seed, name, res.t, res.err, res.w, res.phi_history, policy)
            digest.update(repr(answer).encode())
    assert digest.hexdigest() == GOLDEN_ANSWERS
