"""Exact, filter, and sampling teachers."""

import random

import pytest

from pdfalearn.automata import Pdfa, is_defined, quotient
from pdfalearn.equivcheck import CeKind, hk_equiv
from pdfalearn.errors import AlphabetMismatchError
from pdfalearn.learner import LearnerConfig, LearnerMode, _initial_hypothesis, learn
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import Distribution, ExactPartitioner, QuantizationPartitioner
from pdfalearn.teacher import ExactTeacher, PacParams, exact_teacher, filter_teacher, pac_teacher

EXACT = ExactPartitioner()


# --- exact teacher ---

def test_exact_mq_answers_everything(loop_pdfa, ab_alphabet):
    t = exact_teacher(loop_pdfa, EXACT)
    assert t.mq(ab_alphabet.string("a")).as_map() == {"a": 0.6, "b": 0.0, "$": 0.4}
    # even a zero-probability path gets a real answer
    assert t.mq(ab_alphabet.string("ab")) is not None
    assert t.mq_count == 2


def test_exact_eq_reflexive_and_counts(loop_pdfa):
    t = exact_teacher(loop_pdfa, EXACT)
    assert t.eq(loop_pdfa) is None
    assert t.eq_count == 1


def test_exact_eq_finds_truncation_witness(loop_pdfa, loop_pdfa_top2, ab_alphabet):
    t = exact_teacher(loop_pdfa, EXACT)
    ce = t.eq(loop_pdfa_top2)
    assert ce.gamma == ab_alphabet.string("b")
    assert t.last_ce_length == 1


class KeepingTeacher(ExactTeacher):
    """An exact teacher that keeps every hypothesis it is asked about."""

    def __init__(self, target, partitioner):
        super().__init__(target, partitioner)
        self.hypotheses = []

    def eq(self, hypothesis, partitioner=None):
        self.hypotheses.append(hypothesis)
        return super().eq(hypothesis, partitioner)


def changed_in_place(rng, pdfa):
    """`pdfa` with its rows rebuilt as equal copies, then with one row
    changed, one distribution changed, and another initial state; every
    state keeps its number."""
    n, terminal_only = pdfa.n_states, Distribution(pdfa.alphabet, (0,) * pdfa.alphabet.size + (1,))
    copies = tuple(tuple(list(row)) for row in pdfa.trans)
    yield Pdfa(pdfa.alphabet, pdfa.dists, copies, pdfa.initial)
    q = rng.randrange(n)
    row = list(pdfa.trans[q])
    row[rng.choice(sorted(pdfa.dists[q].support()) or [0])] = rng.randrange(n)
    yield Pdfa(pdfa.alphabet, pdfa.dists, copies[:q] + (tuple(row),) + copies[q + 1:], pdfa.initial)
    q = rng.randrange(n)
    dists = pdfa.dists[:q] + (terminal_only,) + pdfa.dists[q + 1:]
    yield Pdfa(pdfa.alphabet, dists, pdfa.trans, pdfa.initial)
    yield Pdfa(pdfa.alphabet, pdfa.dists, pdfa.trans, rng.randrange(n))


def nudged(pdfa):
    """`pdfa` with 1e-9 of each state's largest probability moved to its
    second largest: the same automaton to a coarse partitioner, not to EXACT."""
    dists = []
    for d in pdfa.dists:
        probs = list(d.probs)
        big, second = sorted(range(len(probs)), key=probs.__getitem__)[-1:-3:-1]
        if probs[second] > 0:
            probs[big] -= 1e-9
            probs[second] += 1e-9
        dists.append(Distribution(pdfa.alphabet, probs))
    return Pdfa(pdfa.alphabet, tuple(dists), pdfa.trans, pdfa.initial)


def test_exact_teacher_answers_as_hk_equiv_on_any_sequence_of_hypotheses():
    """`ExactTeacher.eq` resumes the previous call's pair search. Whatever it
    is asked next, it answers as `hk_equiv` from scratch: learner rounds in
    order and shuffled, unrelated automata, a hypothesis with a row or a
    distribution changed in place, and a switch of partitioner."""
    rng = random.Random(5)
    kappa = QuantizationPartitioner(10)
    partitioners = [kappa, EXACT, QuantizationPartitioner(3)]
    target = random_pdfa(GenSpec(n=200, m=10, theta=0.9, seed=0))
    keeper = KeepingTeacher(target, kappa)
    learn(keeper, kappa, LearnerConfig(mode=LearnerMode.OMIT_ZERO))
    rounds = keeper.hypotheses
    assert len(rounds) > 10
    unrelated = [random_pdfa(GenSpec(n=n, m=10, theta=0.9, seed=n)) for n in (5, 50, 200)]
    shuffled = rng.sample(rounds, len(rounds))
    sequence = [(h, kappa) for h in rounds]
    for h in shuffled + unrelated + [target, quotient(target, kappa)]:
        sequence.append((h, rng.choice(partitioners)))
        sequence.extend((v, rng.choice(partitioners[:1] * 3 + partitioners)) for v in changed_in_place(rng, h))
    # only the partitioner tells these two apart
    near = nudged(target)
    assert hk_equiv(target, near, kappa) is None and hk_equiv(target, near, EXACT) is not None
    sequence += [(near, kappa), (near, EXACT), (near, kappa)]
    teacher = exact_teacher(target, kappa)
    answers = []
    for h, p in sequence:
        ce = teacher.eq(h, p)
        assert ce == hk_equiv(target, h, p)
        answers.append(ce is None)
    assert any(answers) and not all(answers)
    # a refused hypothesis leaves the search as it was
    other = random_pdfa(GenSpec(n=5, m=3, theta=0.5, seed=1))
    for h, p in ((near, kappa), (other, EXACT), (near, EXACT)):
        if h is other:
            with pytest.raises(AlphabetMismatchError):
                teacher.eq(h, p)
        else:
            assert teacher.eq(h, p) == hk_equiv(target, h, p)


# --- filter teacher ---

def test_filter_mq_reports_undefined(loop_pdfa, ab_alphabet):
    t = filter_teacher(loop_pdfa, EXACT)
    assert t.mq(ab_alphabet.string("ab")) is None
    assert t.mq(()) is not None
    assert t.mq(ab_alphabet.string("ba")).as_map() == {"a": 0.4, "b": 0.4, "$": 0.2}


def test_filter_mq_agrees_with_definedness_everywhere(merged_pair_pdfa):
    t = filter_teacher(merged_pair_pdfa, EXACT)
    lm = merged_pair_pdfa.language_model()
    stack = [()]
    while stack:
        u = stack.pop()
        assert (t.mq(u) is None) == (not is_defined(lm, u))
        if len(u) < 8:
            stack.extend(u + (s,) for s in range(2))


# --- pac teacher ---

def test_pac_accepts_the_quotient(merged_pair_pdfa):
    q = quotient(merged_pair_pdfa, EXACT)
    t = pac_teacher(merged_pair_pdfa.language_model(), EXACT, PacParams(max_len=20), seed=7)
    assert t.eq(q) is None


def test_pac_accepts_its_own_hypothesis(loop_pdfa):
    t = pac_teacher(loop_pdfa.language_model(), EXACT, PacParams(max_len=30), seed=2)
    assert t.eq(loop_pdfa) is None


def test_pac_rejects_collapsed_hypothesis(loop_pdfa):
    t = pac_teacher(loop_pdfa.language_model(), EXACT, PacParams(max_len=20), seed=3)
    hyp = _initial_hypothesis(loop_pdfa.alphabet, loop_pdfa.dists[0], LearnerMode.OMIT_ZERO)
    ce = t.eq(hyp)
    assert ce is not None
    assert len(ce.gamma) == 1
    assert is_defined(hyp.language_model(), ce.gamma)


@pytest.mark.parametrize(
    "hyp_law, kind",
    [
        ({"a": 0.3, "b": 0.3, "$": 0.4}, CeKind.SUPPORT_MISMATCH),
        ({"a": 0.4, "b": 0.0, "$": 0.6}, CeKind.DIST_MISMATCH),
    ],
    ids=["support", "dist"],
)
def test_pac_counterexample_kind_matches_hk_equiv(ab_alphabet, hyp_law, kind):
    """A one-state target over {a, b} whose λ support is {a}: the sampled
    counterexample is the exact check's, kind included."""
    law = {"a": 0.5, "b": 0.0, "$": 0.5}
    target = Pdfa(ab_alphabet, (Distribution.from_map(ab_alphabet, law),), ((0, 0),))
    hyp = Pdfa(ab_alphabet, (Distribution.from_map(ab_alphabet, hyp_law),), ((0, 0),))
    ce = pac_teacher(target.language_model(), EXACT, PacParams(max_len=10), seed=0).eq(hyp)
    assert ce == hk_equiv(target, hyp, EXACT)
    assert ce.kind is kind


def test_pac_refuses_a_first_disagreement_where_the_model_is_undefined(ab_alphabet):
    """λ agrees, but the model is undefined after `a`, which its λ support
    allows: the model died, which is no counterexample."""
    from pdfalearn.automata import LanguageModel
    from pdfalearn.errors import ModelFailureError

    law = Distribution.from_map(ab_alphabet, {"a": 0.5, "b": 0.0, "$": 0.5})

    class UndefinedAfterA(LanguageModel):
        alphabet = ab_alphabet

        def next(self, u):
            return None if u else law

    with pytest.raises(ModelFailureError) as err:
        pac_teacher(UndefinedAfterA(), EXACT, PacParams(max_len=10), seed=0).eq(Pdfa(ab_alphabet, (law,), ((0, 0),)))
    assert err.value.prefix == (0,)


def test_pac_seed_determinism(loop_pdfa):
    hyp = _initial_hypothesis(loop_pdfa.alphabet, loop_pdfa.dists[0], LearnerMode.OMIT_ZERO)
    runs = []
    for _ in range(2):
        t = pac_teacher(loop_pdfa.language_model(), EXACT, PacParams(max_len=10), seed=11)
        runs.append(t.eq(hyp).gamma)
    assert runs[0] == runs[1]


def test_pac_sample_schedule_grows():
    params = PacParams(epsilon=0.1, delta=0.05)
    counts = [params.sample_count(r) for r in (1, 2, 5)]
    assert counts[0] < counts[1] < counts[2]
    assert counts[0] == 37  # ceil((ln 20 + ln 2) / 0.1)


def test_pac_model_cache_counts_unique_queries(loop_pdfa):
    t = pac_teacher(loop_pdfa.language_model(), EXACT, PacParams(max_len=10), seed=5)
    u = (0,)
    t.mq(u)
    t.mq(u)
    assert t.mq_count == 2
    assert t.model_query_count == 1


# --- counterexamples always satisfy hypothesis definedness ---

@pytest.mark.parametrize("seed", range(5))
def test_all_teacher_ces_defined_in_hypothesis(seed):
    kappa = QuantizationPartitioner(8)
    target = random_pdfa(GenSpec(n=8, m=3, theta=0.5, seed=seed))
    hyp = quotient(random_pdfa(GenSpec(n=3, m=3, theta=0.5, seed=seed + 99)), kappa)
    for make in (exact_teacher, filter_teacher):
        t = make(target, kappa)
        ce = t.eq(hyp)
        if ce is not None:
            assert is_defined(hyp.language_model(), ce.gamma)
