"""One pass per walk, against the two-pass code it replaced.

`learner._extension_key` branches on the mode once and steps through the
memo's trie with `get`; `shortest_defined_ce_prefix` folds one cursor along
the counterexample instead of walking each prefix from the trie's root. The
oracles below are the earlier versions, verbatim. A learning run with them
patched in must learn the same automaton with the same counts, handing the
teacher the same strings in the same order.
"""

import numpy as np
import pytest

from pdfalearn import learner
from pdfalearn.automata import (
    UNSET,
    GuideAutomaton,
    LanguageModel,
    MemoModel,
    Pdfa,
    String,
    compose,
    label_at,
)
from pdfalearn.bench import MODES, teacher_for_mode
from pdfalearn.errors import NotACounterexampleError
from pdfalearn.learner import LearnerConfig, LearnerMode, _label, learn
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import (
    ZERO_CLASS,
    Alphabet,
    ClassId,
    Distribution,
    ExactPartitioner,
    Partitioner,
    QuantizationPartitioner,
    TopR,
)
from pdfalearn.teacher import PacParams, exact_teacher, filter_teacher, pac_teacher

EXACT = ExactPartitioner()
KAPPA = QuantizationPartitioner(10)


# --- oracles: the earlier walks, verbatim ---


def _extension_key(memo, partitioner: Partitioner, mode: LearnerMode, at, w: String) -> ClassId:
    """Arc key for the extension v·w, where `at` is v's node in the memo's trie.

    The congruence assigns every undefined string to the reserved zero
    class, so in zero-omitting mode the walk along w is checked against the
    supports step by step; a teacher that answers structurally on
    zero-probability paths must not smuggle phantom evidence into the tree.
    Baseline mode keys on the raw answer for v·w. The walk steps from `at`
    through the trie and builds a string only to ask about it.
    """
    node = at
    for i, s in enumerate(w):
        if mode is LearnerMode.OMIT_ZERO:
            dist = node.value
            if dist is UNSET:
                dist = memo.value(node)
            if dist is None or s not in dist.support():
                return ZERO_CLASS
        node = node.child(s)
    dist = node.value
    if dist is UNSET:
        dist = memo.value(node)
    return _label(partitioner, dist)


def shortest_defined_ce_prefix(
    model: LanguageModel, hypothesis: Pdfa, partitioner: Partitioner, gamma: String
) -> String:
    """Shortest prefix of gamma on which model and hypothesis disagree.

    Requires gamma to be defined in the hypothesis and to be a genuine
    counterexample (labels differ at gamma, where an undefined model answer
    counts as the reserved zero class). The returned prefix is always
    defined in the model: a disagreement whose model answer is undefined is
    preceded by a support disagreement one step earlier.
    """
    gamma = tuple(gamma)
    q = hypothesis.initial
    hyp_dists = [hypothesis.dists[q]]  # hypothesis distribution after each prefix of gamma
    for s in gamma:
        if s not in hyp_dists[-1].support():
            raise NotACounterexampleError("counterexample is undefined in the hypothesis")
        q = hypothesis.trans[q][s]
        hyp_dists.append(hypothesis.dists[q])
    if label_at(model, partitioner, gamma) == hyp_dists[-1].label(partitioner):
        raise NotACounterexampleError("string does not distinguish model and hypothesis")
    for j, dist in enumerate(hyp_dists):
        p = gamma[:j]
        model_label = label_at(model, partitioner, p)
        if model_label != dist.label(partitioner):
            if model_label is ZERO_CLASS:
                raise NotACounterexampleError(
                    "first disagreement is model-undefined; supports were inconsistent earlier"
                )
            return p
    raise NotACounterexampleError("no disagreeing prefix found")


# --- the differential runs ---


class Recorder:
    """A teacher's interface, forwarded, with every string handed to `mq` kept in order."""

    def __init__(self, teacher):
        self.teacher = teacher
        self.alphabet = teacher.alphabet
        self.asked = []

    @property
    def mq_count(self):
        return self.teacher.mq_count

    def mq(self, u):
        self.asked.append(tuple(u))
        return self.teacher.mq(u)

    def prefetch(self, prefix, symbols):
        self.teacher.prefetch(prefix, symbols)

    def eq(self, hypothesis, partitioner=None):
        return self.teacher.eq(hypothesis, partitioner)


def run(make_teacher, partitioner, mode):
    recorder = Recorder(make_teacher())
    learned = learn(recorder, partitioner, LearnerConfig(mode=mode))
    return learned, recorder.teacher.mq_count, recorder.teacher.eq_count, recorder.asked


def assert_same_as_oracles(make_teacher, partitioner, mode, monkeypatch):
    new = run(make_teacher, partitioner, mode)
    with monkeypatch.context() as patched:
        patched.setattr(learner, "_extension_key", _extension_key)
        patched.setattr(learner, "shortest_defined_ce_prefix", shortest_defined_ce_prefix)
        old = run(make_teacher, partitioner, mode)
    learned, mq, eq, asked = new
    assert learned == old[0]
    assert (mq, eq) == (old[1], old[2])
    assert mq == len(asked) == len(set(asked))
    assert asked == old[3]
    return new


def chain_pdfa(n: int, seed: int) -> Pdfa:
    """`a` advances (the last state loops), `b` resets, only the last state differs."""
    alphabet = Alphabet(("a", "b"))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))

    def draw():
        w = 1.0 - rng.random(3)
        return Distribution(alphabet, tuple(float(x) for x in w / w.sum()))

    body, last = draw(), draw()
    dists = (body,) * (n - 1) + (last,)
    return Pdfa(alphabet, dists, tuple((min(q + 1, n - 1), 0) for q in range(n)))


@pytest.mark.parametrize("mode", [LearnerMode.OMIT_ZERO, LearnerMode.QNT_STANDARD], ids=lambda m: m.value)
def test_chain_learns_as_with_the_oracles(mode, monkeypatch):
    target = chain_pdfa(50, seed=1)
    learned, *_ = assert_same_as_oracles(lambda: exact_teacher(target, EXACT), EXACT, mode, monkeypatch)
    assert learned.n_states == 50


@pytest.mark.parametrize("mode", MODES)
def test_random_instances_learn_as_with_the_oracles(mode, monkeypatch):
    for seed in range(10):
        target = random_pdfa(GenSpec(n=60, m=10, theta=0.9, seed=seed))
        learner_mode = teacher_for_mode(target, KAPPA, mode)[1]
        assert_same_as_oracles(lambda: teacher_for_mode(target, KAPPA, mode)[0], KAPPA, learner_mode, monkeypatch)


def test_a_discriminator_tail_off_the_support_keys_zero_as_with_the_oracles(monkeypatch):
    """On this instance a structural answer past the support would over-refine to 33 states."""
    target = random_pdfa(GenSpec(n=60, m=8, theta=0.85, seed=19))
    make = lambda: exact_teacher(target, KAPPA)  # noqa: E731
    learned, *_ = assert_same_as_oracles(make, KAPPA, LearnerMode.OMIT_ZERO, monkeypatch)
    assert learned.n_states == 32


def test_pac_runs_over_a_composition_learn_as_with_the_oracles(monkeypatch):
    rounds = 0
    for seed in range(8):
        target = random_pdfa(GenSpec(n=30, m=4, theta=0.5, seed=seed))
        # a two-stage guide that allows everything, so that top-2 sampling shapes the model
        guide = GuideAutomaton(target.alphabet, ((1,) * 5,) * 2, ((0, 1, 0, 0), (1, 1, 1, 1)))
        params = PacParams(epsilon=0.05, delta=0.05, max_len=30)
        model = compose(target.language_model(), guide, TopR(2))
        make = lambda: pac_teacher(model, KAPPA, params, seed=2)  # noqa: E731
        rounds += assert_same_as_oracles(make, KAPPA, LearnerMode.OMIT_ZERO, monkeypatch)[2]
    assert rounds > 20


# --- the memo's cursors ---


@pytest.mark.parametrize("teacher", [exact_teacher, filter_teacher])
def test_memo_cursor_steps_to_none_off_the_support_of_an_answer_it_read(loop_pdfa, teacher):
    oracle = teacher(loop_pdfa, EXACT)
    asked = []
    memo = MemoModel(loop_pdfa.alphabet, lambda u: asked.append(u) or oracle.mq(u))
    root = memo.start()
    # nothing read yet: a step follows the trie and asks nothing
    assert memo.step(root, 1) is not None and asked == []
    assert memo.dist(root) == loop_pdfa.dists[0]
    a = memo.step(root, 0)
    assert memo.dist(a) == loop_pdfa.dists[1]
    assert memo.step(a, 1) is None  # `b` has probability 0 after `a`
    assert memo.dist(memo.step(a, 0)) == loop_pdfa.dists[1]
    assert asked == [(), (0,), (0, 0)]


def test_memo_cursors_fold_to_the_support_following_model(loop_pdfa):
    """Read through its cursors, a memo over an exact teacher is the PDFA's language model."""
    lm = loop_pdfa.language_model()
    oracle = exact_teacher(loop_pdfa, EXACT)
    memo = MemoModel(loop_pdfa.alphabet, oracle.mq)
    strings = [()]
    for _ in range(4):
        strings += [u + (s,) for u in strings if len(u) == len(strings[-1]) for s in (0, 1)]
    for u in strings:
        cursor = memo.start()
        for s in u:
            memo.dist(cursor)  # the fold reads each answer before it steps on
            cursor = memo.step(cursor, s)
            if cursor is None:
                break
        assert (None if cursor is None else memo.dist(cursor)) == lm.next(u)
    # a structural answer past the support is still what `next` asks for
    assert memo.next((0, 1)) == loop_pdfa.dists[1] and lm.next((0, 1)) is None
