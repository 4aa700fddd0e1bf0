"""Exact solver for factored Markov decision processes.

Linear value-function approximation with decision-list policies, where every
number is an arbitrary-precision rational and every linear program is solved
exactly and certified.

The usual entry points are re-exported here: build or load a model
(``make_ring``, ``load_mdp``), run the solver (``api``), inspect the answer
(``ApiResult``, ``posterior_bound``), and print the policy
(``decision_list_to_text``).
"""

from fmdp.api import ApiConfig, ApiResult, Bound, api, posterior_bound
from fmdp.errors import FmdpError, InvalidInputError, LpInternalError, OracleLimitError
from fmdp.factored import PartialState, ScopedFn
from fmdp.mdpio import load_mdp, save_mdp
from fmdp.model import FactoredMdp, elimination_order, make_ring
from fmdp.policy import (
    decision_list_from_text,
    decision_list_to_text,
    greedy_decision_list,
    select_action,
)
from fmdp.values import format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "ApiConfig",
    "ApiResult",
    "Bound",
    "FactoredMdp",
    "FmdpError",
    "InvalidInputError",
    "LpInternalError",
    "OracleLimitError",
    "PartialState",
    "ScopedFn",
    "api",
    "decision_list_from_text",
    "decision_list_to_text",
    "elimination_order",
    "format_rational",
    "greedy_decision_list",
    "load_mdp",
    "make_ring",
    "parse_rational",
    "posterior_bound",
    "save_mdp",
    "select_action",
    "__version__",
]
