"""Factored Bellman error of a decision-list policy.

The error of a weight vector w against a policy is the largest deviation
|Q_w(x, pol(x)) - nu_w(x)| over all states.  The policy's weight-LP blocks
(``fmdp.lpbuild.weight_lp_blocks``) already hold that deviation in factored
form: priced at w, a branch's positive block sums to nu_w - Q_w^a and its
negative block to Q_w^a - nu_w on the states the branch handles, and to
minus infinity on every state an earlier branch claimed.  So the error is
the largest variable-elimination maximum over the blocks, each block's
integer image (``TagBlock.ints``) swept along its own plan.  Blocks of
branches whose state set came up empty contribute negative infinity and
drop out; a block an earlier branch state subsumes has no image and is not
swept at all.  The blocks are the same objects the next weight fit for
this policy reuses, and so may be the images: handed over through
``images``, they are built once per policy, not once per call.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .elim import max_sum
from .errors import InvalidInputError
from .lpbuild import block_images, weight_lp_blocks
from .model import FactoredMdp
from .policy import DecisionList
from .values import NEG_INF

__all__ = ["factored_bellman_err"]


def factored_bellman_err(
    mdp: FactoredMdp,
    w: Sequence[Fraction],
    pol: DecisionList,
    order: Sequence[int],
    *,
    images: list | None = None,
) -> Fraction:
    """The policy's Bellman error, maximized block by block.

    If every block is empty the list could not have been a real policy,
    which is reported as invalid input.  When ``images`` is a list, it is
    left holding the one pair ``(blocks, block_images(blocks))`` this call
    swept, for ``update_weights`` on the same policy to take.
    """
    blocks = weight_lp_blocks(mdp, pol, order)
    live = block_images(blocks)
    best = NEG_INF
    for _, block, image in live:
        best = max(best, max_sum(image.at(w), order, mdp.dims, block.plan))
    if images is not None:
        images[:] = [(blocks, live)]
    if not best.is_finite:
        raise InvalidInputError("decision list covers no state at all")
    return best.unwrap()
