"""PAC learning over compositions that may die partway through a string.

A guide's mask can zero every symbol a model's distribution allows, so the
composition is undefined at a string every step of which was in the
support. The PAC teacher reports that as a ModelFailureError naming the
string; it is no counterexample, no undefined access string and no
hypothesis state without a transition.
"""

import collections

import numpy as np
import pytest

from pdfalearn.automata import GuideAutomaton, compose, materialize_compose
from pdfalearn.errors import AllZeroError, ModelFailureError, TeacherUndefinedError
from pdfalearn.learner import LearnerConfig, LearnerMode, learn
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import QuantizationPartitioner, TopP, TopR
from pdfalearn.teacher import PacParams, pac_teacher

KAPPA = QuantizationPartitioner(10)
SEEDS = range(300)


def instance(seed):
    """A random target, a random guide of 1-3 states whose mask bits are
    each allowed with probability 0.7, and a sampling strategy."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(3, 26)), int(rng.integers(2, 5))
    theta = (0.3, 0.5, 0.9)[int(rng.integers(3))]
    target = random_pdfa(GenSpec(n=n, m=m, theta=theta, seed=seed))
    k = int(rng.integers(1, 4))
    masks = tuple(tuple(int(b) for b in rng.random(m + 1) < 0.7) for _ in range(k))
    delta = tuple(tuple(int(t) for t in rng.integers(k, size=m)) for _ in range(k))
    strategy = (None, TopR(2), TopP(0.9))[int(rng.integers(3))]
    return target, GuideAutomaton(target.alphabet, masks, delta), strategy


def outcome(target, guide, strategy, mode):
    teacher = pac_teacher(compose(target.language_model(), guide, strategy), KAPPA, PacParams(0.1, 0.1, 30))
    try:
        learn(teacher, KAPPA, LearnerConfig(mode=mode))
    except ModelFailureError:
        return "model failure"
    except TeacherUndefinedError as exc:
        if "empty string" not in str(exc):
            raise
        return "undefined at the empty string"
    return "learned"


@pytest.mark.parametrize("mode", [LearnerMode.OMIT_ZERO, LearnerMode.QNT_STANDARD], ids=lambda m: m.value)
def test_a_composition_learns_or_its_death_is_a_model_failure(mode):
    """Any other error propagates and fails the test; a composition that
    `materialize_compose` accepts never dies, so it learns."""
    seen = collections.Counter()
    for seed in SEEDS:
        target, guide, strategy = instance(seed)
        try:
            materialize_compose(target, guide, strategy)
            accepted = True
        except AllZeroError:
            accepted = False
        result = outcome(target, guide, strategy, mode)
        assert result == "learned" or not accepted, seed
        seen[result] += 1
    # the seeds reach every outcome often
    assert min(seen.values()) > 40 and len(seen) == 3, seen
