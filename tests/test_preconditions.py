"""Every input rule that raises PreconditionError, one row per rule: the call
and the words its message must carry."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import zerohold as z

from conftest import four_state_spec, single_interior_spec

SINGLE, FOUR = single_interior_spec(), four_state_spec()
NO_ROOT = z.PhiSolution(phi=math.nan, kappa=math.nan, regime="no-root", bracket=(0.0, 1.0), root=None, spec=SINGLE)
DEAD_ORIGIN = z.LimitVector(values=np.array([0.0, 1.0]), phi=0.0, provenance="recurrent", spec=SINGLE)


def _curve_from(state):
    return z.solve_renewal(SINGLE, 2.0, 0.02, z.AugmentedState(state))


RULES = [
    ("recurrent-limit-without-root", lambda: z.limit_vector_recurrent(NO_ROOT), "alpha-positive"),
    ("transient-limit-without-escape", lambda: z.limit_vector_transient(z.analyze_hitting(SINGLE)),
     "positive escape mass"),
    ("limit-chain-dead-origin", lambda: z.make_limit_chain(DEAD_ORIGIN), "positive at the origin"),
    ("hlambda-negative-tilt", lambda: z.make_hlambda(SINGLE, -0.1), "tilt must be nonnegative"),
    ("hlambda-transform-above-one", lambda: z.make_hlambda(SINGLE, 1.9), "must not exceed one"),
    ("subexp-length", lambda: z.make_subexp_weak(FOUR, [0.0, 1.0]), "length must equal n_states"),
    ("subexp-origin", lambda: z.make_subexp_weak(FOUR, [1.0, 1.0, 1.0, 1.0]), "at the origin must be zero"),
    ("subexp-negative", lambda: z.make_subexp_weak(FOUR, [0.0, 1.0, -1.0, 1.0]), "nonnegative"),
    ("subexp-no-exit-weight", lambda: z.make_subexp_weak(FOUR, [0.0, 0.0, 0.0, 1.0]), "vanish on every exit target"),
    ("tail-ratio-shift", lambda: z.estimate_tail_ratio(SINGLE, z.AugmentedState(0), z.AugmentedState(0), 2.0, 1.0,
                                                       100, 1), "t > v >= 0"),
    ("compare-window", lambda: z.conditioned_vs_rejection(z.make_vague_limit(SINGLE), 2.0, 2.0, 100, 1),
     "window must end before"),
    ("subexp-order", lambda: z.subexp_diagnostic([1.0, 2.0, 3.0], 1, [1.0]), "order must be at least 2"),
    ("subexp-samples", lambda: z.subexp_diagnostic([1.0], 2, [1.0]), "at least two samples"),
    ("hitting-from-origin", lambda: z.sample_hitting_times(SINGLE, 0, 100, 10.0, 1), "not interior"),
    ("renewal-step", lambda: z.solve_renewal(SINGLE, 2.0, 0.0), "dt must be positive"),
    ("renewal-node-cap", lambda: z.solve_renewal(SINGLE, 1e8, 0.02), "above the cap"),
    ("lift-from-interior", lambda: z.lift_survival(SINGLE, _curve_from(1), z.AugmentedState(1)), "fresh clock"),
    ("coin-run-length", lambda: z.coin_exact(0.5, 0, 3), "run length"),
    ("coin-tosses", lambda: z.coin_exact(0.5, 2, -1), "nonnegative"),
    ("bd-gamma-rates", lambda: z.bd_gamma(0.0, 1.0, 0.0), "positive rates"),
    ("bd-gamma-domain", lambda: z.bd_gamma(1.0, 2.0, 1.0), "domain"),
    ("negative-state", lambda: z.AugmentedState(-1), "nonnegative"),
    ("interior-clock", lambda: z.AugmentedState(1, 0.5), "only the origin"),
    ("linear-shapes", lambda: z.solve_linear(np.eye(2), np.ones(3)), "matching rhs"),
    ("perron-empty", lambda: z.perron_decay(np.zeros(0), np.zeros((0, 0))), "nonempty"),
]


@pytest.mark.parametrize("call, words", [(call, words) for _, call, words in RULES], ids=[r[0] for r in RULES])
def test_every_input_rule_raises_a_precondition_error(call, words):
    with pytest.raises(z.PreconditionError, match=re.escape(words)):
        call()
