"""Pair-BFS equivalence checking and counterexample prefix reduction."""

import pytest

from pdfalearn.automata import (
    CongruenceMode,
    Pdfa,
    congruence_partition,
    is_defined,
    label_at,
    quotient,
)
from pdfalearn.equivcheck import (
    CeKind,
    Counterexample,
    HkStats,
    PairSearch,
    hk_equiv,
    shortest_defined_ce_prefix,
)
from pdfalearn.errors import AlphabetMismatchError, NotACounterexampleError
from pdfalearn.learner import LearnerConfig, LearnerMode, learn
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import Alphabet, Distribution, ExactPartitioner, QuantizationPartitioner
from pdfalearn.teacher import PacParams, exact_teacher, filter_teacher, pac_teacher

EXACT = ExactPartitioner()


def exhaustive_equiv(a, b, partitioner, max_len):
    """Oracle: label agreement on every string defined in either automaton."""
    lm_a, lm_b = a.language_model(), b.language_model()
    stack = [()]
    while stack:
        u = stack.pop()
        la, lb = label_at(lm_a, partitioner, u), label_at(lm_b, partitioner, u)
        if la != lb:
            return False
        da = lm_a.next(u)
        if da is not None and len(u) < max_len:
            stack.extend(u + (s,) for s in da.support())
    return True


# --- verdicts on the worked figures ---

def test_quotient_pair_is_equivalent(merged_pair_pdfa, merged_pair_quotient_pdfa):
    assert hk_equiv(merged_pair_pdfa, merged_pair_quotient_pdfa, EXACT) is None


def test_truncation_shows_up_at_shortest_witness(loop_pdfa, loop_pdfa_top2, ab_alphabet):
    ce = hk_equiv(loop_pdfa, loop_pdfa_top2, EXACT)
    assert ce is not None
    assert ce.gamma == ab_alphabet.string("b")
    # the conflicting pair differs in termination mass: 0.2 vs 0
    assert ce.kind is CeKind.SUPPORT_MISMATCH


def test_reflexivity(loop_pdfa, merged_pair_pdfa):
    for pdfa in (loop_pdfa, merged_pair_pdfa):
        assert hk_equiv(pdfa, pdfa, EXACT) is None
        assert hk_equiv(pdfa, pdfa, QuantizationPartitioner(10)) is None


def test_alphabet_mismatch_rejected(loop_pdfa):
    one = Alphabet(("x",))
    other = Pdfa(one, (Distribution.from_map(one, {"$": 1}),), ((None,),))
    with pytest.raises(AlphabetMismatchError):
        hk_equiv(loop_pdfa, other, EXACT)


def test_verdict_symmetry_and_req8(loop_pdfa, loop_pdfa_top2):
    ce_ab = hk_equiv(loop_pdfa, loop_pdfa_top2, EXACT)
    ce_ba = hk_equiv(loop_pdfa_top2, loop_pdfa, EXACT)
    assert (ce_ab is None) == (ce_ba is None)
    # every proper prefix of the witness is defined in both automata
    for ce, pair in ((ce_ab, (loop_pdfa, loop_pdfa_top2)), (ce_ba, (loop_pdfa_top2, loop_pdfa))):
        for k in range(len(ce.gamma)):
            assert is_defined(pair[0].language_model(), ce.gamma[:k])
            assert is_defined(pair[1].language_model(), ce.gamma[:k])


def test_comparison_never_walks_zero_transitions(merged_pair_pdfa, merged_pair_quotient_pdfa):
    # merging the twins changes behavior on zero-probability strings only,
    # which the comparison never walks: it accepts the merge
    stats = HkStats()
    assert hk_equiv(merged_pair_pdfa, merged_pair_quotient_pdfa, EXACT, stats=stats) is None
    assert stats.pairs_visited >= 1
    smaller = quotient(merged_pair_pdfa, EXACT)  # positive part only: 1 state
    assert hk_equiv(merged_pair_pdfa, smaller, EXACT) is None


def test_a_resumed_search_examines_pairs_again_only_from_the_first_changed_state():
    kappa = QuantizationPartitioner(10)
    target = random_pdfa(GenSpec(n=200, m=10, theta=0.9, seed=0))
    reference = quotient(target, kappa)
    search, full = PairSearch(target, reference, kappa), HkStats()
    assert search.run(full) is None and full.pairs_visited == len(search.order) > 50
    # rows equal by value are unchanged, though they are other objects
    copy = Pdfa(reference.alphabet, reference.dists, tuple(tuple(list(row)) for row in reference.trans))
    again = HkStats()
    assert search.resume(copy, kappa, again) is None and again.pairs_visited == 0
    # the pair examined last is the first with its state; ending there, the
    # state now differs from the target's and is examined again alone
    q = search.order[-1][1]
    assert [qb for _, qb in search.order].index(q) == len(search.order) - 1
    terminal_only = Distribution(copy.alphabet, (0,) * copy.alphabet.size + (1,))
    dists = copy.dists[:q] + (terminal_only,) + copy.dists[q + 1:]
    ends = Pdfa(copy.alphabet, dists, copy.trans)
    once = HkStats()
    ce = search.resume(ends, kappa, once)
    assert ce is not None and ce == hk_equiv(target, ends, kappa)
    assert once.pairs_visited == 1


# --- verdict agreement with the exhaustive oracle ---

def test_verdict_matches_exhaustive_oracle_on_random_pairs():
    kappa = QuantizationPartitioner(4)
    checked_equal = 0
    for seed in range(40):
        a = random_pdfa(GenSpec(n=4, m=2, theta=0.4, seed=seed))
        b = random_pdfa(GenSpec(n=4, m=2, theta=0.4, seed=seed + 1000))
        verdict = hk_equiv(a, b, kappa) is None
        assert verdict == exhaustive_equiv(a, b, kappa, max_len=12)
        q = quotient(a, kappa)
        assert hk_equiv(a, q, kappa) is None
        assert exhaustive_equiv(a, q, kappa, max_len=12)
        checked_equal += 1
    assert checked_equal == 40


def test_counterexamples_are_shortest():
    kappa = QuantizationPartitioner(4)
    for seed in range(30):
        a = random_pdfa(GenSpec(n=5, m=2, theta=0.3, seed=seed))
        b = random_pdfa(GenSpec(n=5, m=2, theta=0.3, seed=seed + 500))
        ce = hk_equiv(a, b, kappa)
        if ce is None:
            continue
        lm_a, lm_b = a.language_model(), b.language_model()
        # no strictly shorter mutually-explorable disagreement exists
        stack = [()]
        while stack:
            u = stack.pop()
            if len(u) >= len(ce.gamma):
                continue
            assert label_at(lm_a, kappa, u) == label_at(lm_b, kappa, u)
            da, db = lm_a.next(u), lm_b.next(u)
            stack.extend(u + (s,) for s in da.support() & db.support())


# --- shortest defined prefix ---

def test_prefix_reduction_stops_at_first_disagreement(loop_pdfa, loop_pdfa_top2, ab_alphabet):
    gamma = ab_alphabet.string("ba")
    out = shortest_defined_ce_prefix(
        loop_pdfa.language_model(), loop_pdfa_top2, EXACT, gamma
    )
    assert out == ab_alphabet.string("b")


def test_prefix_reduction_identity_when_minimal(loop_pdfa, loop_pdfa_top2, ab_alphabet):
    gamma = ab_alphabet.string("b")
    out = shortest_defined_ce_prefix(loop_pdfa.language_model(), loop_pdfa_top2, EXACT, gamma)
    assert out == gamma


def test_prefix_reduction_on_support_divergence(ab_alphabet):
    # model and hypothesis agree at the root but diverge in support at "a"
    model = Pdfa(
        ab_alphabet,
        (
            Distribution.from_map(ab_alphabet, {"a": 0.5, "b": 0.5, "$": 0}),
            Distribution.from_map(ab_alphabet, {"a": 1.0}),
        ),
        ((1, 1), (1, None)),
    )
    hyp = Pdfa(
        ab_alphabet,
        (
            Distribution.from_map(ab_alphabet, {"a": 0.5, "b": 0.5, "$": 0}),
            Distribution.from_map(ab_alphabet, {"b": 1.0}),
        ),
        ((1, 1), (None, 1)),
    )
    gamma = ab_alphabet.string("ab")
    out = shortest_defined_ce_prefix(model.language_model(), hyp, EXACT, gamma)
    assert out == ab_alphabet.string("a")
    # brute force: "a" is indeed the shortest disagreeing prefix
    assert label_at(model.language_model(), EXACT, ()) == label_at(hyp.language_model(), EXACT, ())


def test_prefix_reduction_rejects_non_counterexamples(loop_pdfa, ab_alphabet):
    with pytest.raises(NotACounterexampleError):
        shortest_defined_ce_prefix(
            loop_pdfa.language_model(), loop_pdfa, EXACT, ab_alphabet.string("a")
        )
    with pytest.raises(NotACounterexampleError):
        # undefined in the hypothesis
        shortest_defined_ce_prefix(
            loop_pdfa.language_model(), loop_pdfa, EXACT, ab_alphabet.string("ab")
        )


# --- one label per distribution object ---


class LabelCounter(QuantizationPartitioner):
    """quant:10 that counts its label computations per distribution object.

    It keeps every distribution it labels alive, so no id is reused.
    """

    def __init__(self):
        super().__init__(10)
        self.seen = {}

    def label(self, dist):
        self.seen.setdefault(id(dist), [dist, 0])[1] += 1
        return super().label(dist)

    def most_per_distribution(self):
        return max(count for _, count in self.seen.values())


def criterion_6_instance(n=100, seed=3):
    return random_pdfa(GenSpec(n=n, m=10, theta=0.95, seed=seed))


def test_hk_equiv_labels_each_distribution_once(loop_pdfa, loop_pdfa_top2):
    target = criterion_6_instance()
    # the quotient keeps the target's distribution objects for its states
    reference = quotient(target, QuantizationPartitioner(10))
    for a, b, verdict in ((target, reference, None), (loop_pdfa, loop_pdfa_top2, (1,))):
        part = LabelCounter()
        ce = hk_equiv(a, b, part)
        assert (ce and ce.gamma) == verdict
        assert part.most_per_distribution() == 1


def test_quotient_labels_each_distribution_once():
    alphabet = Alphabet(("a", "b"))
    body, last = Distribution(alphabet, (0.5, 0.3, 0.2)), Distribution(alphabet, (0.1, 0.1, 0.8))
    # every state of the chain but the last shares one distribution object
    chain = Pdfa(alphabet, (body,) * 29 + (last,), tuple((min(q + 1, 29), 0) for q in range(30)))
    for pdfa in (chain, criterion_6_instance()):
        part = LabelCounter()
        quotient(pdfa, part)
        assert part.most_per_distribution() == 1
    assert len(part.seen) > 2


def test_pac_equivalence_labels_each_distribution_once():
    target = random_pdfa(GenSpec(n=40, m=4, theta=0.5, seed=5))
    part = LabelCounter()
    teacher = pac_teacher(target.language_model(), part, PacParams(max_len=30), seed=2)
    assert teacher.eq(target) is None
    assert part.most_per_distribution() == 1
    learn(teacher, part)
    assert teacher.eq_count > 2
    assert part.most_per_distribution() == 1


@pytest.mark.parametrize(
    "make, mode",
    [
        (exact_teacher, LearnerMode.OMIT_ZERO),
        (filter_teacher, LearnerMode.QNT_STANDARD),
        (exact_teacher, LearnerMode.QNT_STANDARD),
    ],
)
def test_learning_labels_each_distribution_once(make, mode):
    """Learner, teacher and equivalence check share one label per distribution."""
    target = criterion_6_instance(n=200, seed=1)
    part = LabelCounter()
    teacher = make(target, part)
    learned = learn(teacher, part, LearnerConfig(mode=mode))
    assert hk_equiv(learned, quotient(target, part), part) is None
    assert quotient(learned, part).n_states == 41
    assert part.most_per_distribution() == 1
