"""Factored Bellman error of a decision-list policy.

The error of a weight vector w against a policy is the largest deviation
|Q_w(x, pol(x)) - nu_w(x)| over all states.  The policy's weight-LP blocks
(``fmdp.lpbuild.weight_lp_blocks``) already hold that deviation in factored
form: priced at w, a branch's positive block sums to nu_w - Q_w^a and its
negative block to Q_w^a - nu_w on the states the branch handles, and to
minus infinity on every state an earlier branch claimed.  So the error is
the largest variable-elimination maximum over the blocks, each block's
integer tables scaled to w (``TagBlock.at``) and swept along its own
plan.  A dead pair (``TagBlock.live``), whose states earlier branches
jointly claim, prices to minus infinity and is never swept here; the
first branch's is always live.  The blocks are the same objects the
next weight fit for this policy reuses, so they are built once per
policy, not once per call, and a pair the policy before had is not
built again (``weight_lp_blocks``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .elim import max_sum
from .lpbuild import weight_lp_blocks
from .model import FactoredMdp
from .policy import DecisionList

__all__ = ["factored_bellman_err"]


def factored_bellman_err(
    mdp: FactoredMdp, w: Sequence[Fraction], pol: DecisionList, order: Sequence[int]
) -> Fraction:
    """The policy's Bellman error: the largest price of a live block.

    A list with no branch covers no state and is invalid input.
    """
    blocks = weight_lp_blocks(mdp, pol, order)
    return max(max_sum(b.at(w), b.plan) for b in blocks if b.live)
