"""Classification-tree operations and the full learning loop."""

import pytest

from pdfalearn.automata import (
    CongruenceMode,
    MemoModel,
    Pdfa,
    congruence_partition,
    is_defined,
    isomorphic,
    quotient,
)
from pdfalearn.equivcheck import hk_equiv
from pdfalearn.errors import NotACounterexampleError, QueryBudgetExceededError, TeacherUndefinedError
from pdfalearn.learner import (
    ClassificationTree,
    LearnerConfig,
    LearnerMode,
    LearnerMonitor,
    _initial_hypothesis,
    build,
    initialize_tree,
    learn,
    sift,
    update,
)
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import Distribution, ExactPartitioner, QuantizationPartitioner
from pdfalearn.teacher import PacParams, exact_teacher, filter_teacher, pac_teacher

EXACT = ExactPartitioner()


def cached_mq(teacher):
    return MemoModel(teacher.alphabet, teacher.mq)


# --- initialize ---

def test_initialize_uses_shortest_defined_prefix(loop_pdfa, ab_alphabet):
    teacher = exact_teacher(loop_pdfa, EXACT)
    mq = cached_mq(teacher)
    hyp0 = _initial_hypothesis(loop_pdfa.alphabet, mq.next(()), LearnerMode.OMIT_ZERO)
    ce = teacher.eq(hyp0)
    # breadth-first with ascending symbols: the length-1 conflict on 'a' comes first
    assert ce.gamma == ab_alphabet.string("a")
    tree = initialize_tree(ce.gamma, mq, hyp0, EXACT, LearnerMode.OMIT_ZERO)
    assert set(tree.leaves) == {(), ab_alphabet.string("a")}


def test_initialize_keeps_longer_ce_when_no_shorter_prefix_disagrees(loop_pdfa, ab_alphabet):
    teacher = exact_teacher(loop_pdfa, EXACT)
    mq = cached_mq(teacher)
    hyp0 = _initial_hypothesis(loop_pdfa.alphabet, mq.next(()), LearnerMode.OMIT_ZERO)
    gamma = ab_alphabet.string("b")  # valid counterexample on its own
    tree = initialize_tree(gamma, mq, hyp0, EXACT, LearnerMode.OMIT_ZERO)
    assert set(tree.leaves) == {(), gamma}


def test_initialize_baseline_mode_keeps_gamma_unreduced(loop_pdfa, ab_alphabet):
    teacher = exact_teacher(loop_pdfa, EXACT)
    mq = cached_mq(teacher)
    hyp0 = _initial_hypothesis(loop_pdfa.alphabet, mq.next(()), LearnerMode.QNT_STANDARD)
    gamma = ab_alphabet.string("ba")  # "b" already disagrees, but no reduction happens
    tree = initialize_tree(gamma, mq, hyp0, EXACT, LearnerMode.QNT_STANDARD)
    assert set(tree.leaves) == {(), gamma}


@pytest.mark.parametrize("mode", [LearnerMode.OMIT_ZERO, LearnerMode.QNT_STANDARD])
def test_initialize_rejects_a_counterexample_in_the_empty_strings_class(mode, ab_alphabet):
    """`a` returns to the initial state; the hypothesis wrongly sends it elsewhere."""
    start = Distribution.from_map(ab_alphabet, {"a": 0.5, "b": 0.25, "$": 0.25})
    other = Distribution.from_map(ab_alphabet, {"a": 0.2, "b": 0.2, "$": 0.6})
    target = Pdfa(ab_alphabet, (start, other), ((0, 1), (1, 1)))
    hypothesis = Pdfa(ab_alphabet, (start, other), ((1, 1), (1, 1)))
    mq = cached_mq(exact_teacher(target, EXACT))
    with pytest.raises(NotACounterexampleError, match="empty string's class"):
        initialize_tree(ab_alphabet.string("a"), mq, hypothesis, EXACT, mode)


def test_initialize_baseline_mode_keeps_an_undefined_counterexample_stateless(loop_pdfa, ab_alphabet):
    teacher = filter_teacher(loop_pdfa, EXACT)
    mq = cached_mq(teacher)
    hyp0 = _initial_hypothesis(loop_pdfa.alphabet, mq.next(()), LearnerMode.QNT_STANDARD)
    gamma = ab_alphabet.string("ab")  # b has probability 0 after a
    tree = initialize_tree(gamma, mq, hyp0, EXACT, LearnerMode.QNT_STANDARD)
    leaf = tree.leaves[gamma]
    assert leaf.dist is None and leaf.index is None
    assert tree.states == [tree.leaves[()]]


# --- sift ---

@pytest.fixture
def seeded_tree(loop_pdfa, ab_alphabet):
    teacher = exact_teacher(loop_pdfa, EXACT)
    mq = cached_mq(teacher)
    hyp0 = _initial_hypothesis(loop_pdfa.alphabet, mq.next(()), LearnerMode.OMIT_ZERO)
    tree = initialize_tree(ab_alphabet.string("b"), mq, hyp0, EXACT, LearnerMode.OMIT_ZERO)
    return tree, mq


def test_sift_root_leaf(seeded_tree):
    tree, mq = seeded_tree
    leaf, grew = sift(tree, mq.root)
    assert leaf.string == () and not grew


def test_sift_reaches_existing_class(seeded_tree, ab_alphabet):
    tree, mq = seeded_tree
    leaf, grew = sift(tree, mq.root.find(ab_alphabet.string("ba")))
    assert leaf.string == ab_alphabet.string("b") and not grew


def test_sift_update_adds_fresh_class(seeded_tree, ab_alphabet):
    tree, mq = seeded_tree
    leaf, grew = sift(tree, mq.root.find(ab_alphabet.string("a")))
    assert grew and leaf.string == ab_alphabet.string("a")
    assert len(tree.leaves) == 3
    again, grew2 = sift(tree, mq.root.find(ab_alphabet.string("a")))
    assert not grew2 and again is leaf


def test_sift_rejects_undefined_access_candidate(ab_alphabet):
    undefined = MemoModel(ab_alphabet, lambda u: None)
    tree = ClassificationTree(undefined, EXACT, LearnerMode.OMIT_ZERO)
    with pytest.raises(TeacherUndefinedError):
        sift(tree, undefined.root.find((0,)))


# --- build ---

def test_build_reaches_fixed_point_with_sift_updates(seeded_tree, loop_pdfa):
    tree, mq = seeded_tree
    hyp = build(tree)
    # sifting (λ, a) discovers the third class, so the stable result has 3 states
    assert hyp.n_states == 3
    # the zero-omitting build leaves b undefined at the a-loop state, so
    # compare against the quotient, which follows the same transition rule
    assert isomorphic(hyp, quotient(loop_pdfa, EXACT))
    assert tree.states[hyp.initial].string == ()


def test_build_undef_outside_support(merged_pair_pdfa):
    teacher = exact_teacher(merged_pair_pdfa, EXACT)
    mq = cached_mq(teacher)
    tree = ClassificationTree(mq, EXACT, LearnerMode.OMIT_ZERO)
    tree.add_leaf(tree.root, EXACT.label(mq.next(())), mq.root, mq.next(()))
    hyp = build(tree)
    assert hyp.n_states == 1
    assert hyp.trans[0] == (0, None)


def test_build_total_in_baseline_mode(loop_pdfa):
    teacher = exact_teacher(loop_pdfa, EXACT)
    mq = cached_mq(teacher)
    tree = ClassificationTree(mq, EXACT, LearnerMode.QNT_STANDARD)
    tree.add_leaf(tree.root, EXACT.label(mq.next(())), mq.root, mq.next(()))
    hyp = build(tree)
    assert hyp.is_total()


# --- update ---

def test_update_adds_exactly_one_leaf(loop_pdfa, loop_pdfa_top2, ab_alphabet):
    teacher = exact_teacher(loop_pdfa, EXACT)
    mq = cached_mq(teacher)
    hyp0 = _initial_hypothesis(loop_pdfa.alphabet, mq.next(()), LearnerMode.OMIT_ZERO)
    tree = initialize_tree(ab_alphabet.string("a"), mq, hyp0, EXACT, LearnerMode.OMIT_ZERO)
    hyp = build(tree)
    before = len(tree.leaves)
    ce = teacher.eq(hyp)
    if ce is not None:
        update(tree, ce.gamma)
        assert len(tree.leaves) == before + 1


# --- full runs ---

def test_learn_already_minimal_target(loop_pdfa):
    teacher = exact_teacher(loop_pdfa, EXACT)
    out = learn(teacher, EXACT)
    assert out.n_states == 3
    assert isomorphic(out, quotient(loop_pdfa, EXACT))
    assert hk_equiv(loop_pdfa, out, EXACT) is None


def test_learn_single_state_target(ab_alphabet):
    from pdfalearn.automata import Pdfa
    from pdfalearn.simplex import Distribution

    target = Pdfa(
        ab_alphabet,
        (Distribution.from_map(ab_alphabet, {"a": 0.5, "$": 0.5}),),
        ((0, None),),
    )
    teacher = exact_teacher(target, EXACT)
    out = learn(teacher, EXACT)
    assert out.n_states == 1
    assert teacher.eq_count == 1  # first equivalence query already accepts


def test_learn_ignores_zero_only_distinctions(merged_pair_pdfa):
    """States separated only by zero-probability evidence collapse."""
    teacher = exact_teacher(merged_pair_pdfa, EXACT)
    out = learn(teacher, EXACT)
    assert out.n_states == 1
    assert hk_equiv(merged_pair_pdfa, out, EXACT) is None
    part = congruence_partition(
        quotient(merged_pair_pdfa, EXACT), EXACT, CongruenceMode.SUPPORT
    )
    assert out.n_states == part.num_blocks


def test_learn_synchronized_product_merges_twins(sync_model_pdfa, sync_guide):
    from pdfalearn.automata import materialize_compose
    from pdfalearn.simplex import TopR

    target = materialize_compose(sync_model_pdfa, sync_guide, TopR(2))
    assert target.n_states == 4
    teacher = exact_teacher(target, EXACT)
    out = learn(teacher, EXACT)
    assert out.n_states == 3
    assert hk_equiv(target, out, EXACT) is None


@pytest.mark.parametrize("theta", [0.0, 0.5, 0.9])
def test_learn_matches_quotient_on_random_targets(theta):
    kappa = QuantizationPartitioner(10)
    for seed in range(4):
        target = random_pdfa(GenSpec(n=15, m=4, theta=theta, seed=seed))
        teacher = exact_teacher(target, kappa)
        out = learn(teacher, kappa)
        q = quotient(target, kappa)
        assert hk_equiv(out, q, kappa) is None
        assert out.n_states == q.n_states
        # every failed equivalence query added at least one class
        assert teacher.eq_count <= out.n_states + 1


def test_learn_modes_agree_on_defined_behavior_and_query_order():
    kappa = QuantizationPartitioner(10)
    counts = {}
    for seed in (2, 3):
        target = random_pdfa(GenSpec(n=12, m=3, theta=0.6, seed=seed))
        per_mode = {}
        for label, mode, make in (
            ("omit", LearnerMode.OMIT_ZERO, exact_teacher),
            ("filter", LearnerMode.QNT_STANDARD, filter_teacher),
            ("standard", LearnerMode.QNT_STANDARD, exact_teacher),
        ):
            teacher = make(target, kappa)
            out = learn(teacher, kappa, LearnerConfig(mode=mode))
            assert hk_equiv(target, out, kappa) is None
            per_mode[label] = teacher.mq_count
        counts[seed] = per_mode
        assert per_mode["omit"] <= per_mode["standard"]


def test_learn_is_not_fooled_by_structural_answers_on_zero_paths():
    """Regression: a discriminator tail leaving the support must key ZERO.

    With raw structural keys this instance over-refined to 33 states; the
    congruence-faithful keying gives exactly the 32-block quotient.
    """
    kappa = QuantizationPartitioner(10)
    target = random_pdfa(GenSpec(n=60, m=8, theta=0.85, seed=19))
    teacher = exact_teacher(target, kappa)
    out = learn(teacher, kappa)
    q = quotient(target, kappa)
    assert out.n_states == q.n_states == 32
    assert hk_equiv(out, q, kappa) is None


def test_learn_with_pac_teacher_recovers_small_target(loop_pdfa):
    t = pac_teacher(
        loop_pdfa.language_model(), EXACT, PacParams(epsilon=0.02, delta=0.02, max_len=30), seed=1
    )
    out = learn(t, EXACT)
    assert out.n_states == 3
    assert hk_equiv(loop_pdfa, out, EXACT) is None


def test_learn_determinism(loop_pdfa_top2):
    runs = []
    for _ in range(2):
        teacher = exact_teacher(loop_pdfa_top2, EXACT)
        out = learn(teacher, EXACT)
        runs.append((out.n_states, teacher.mq_count, teacher.eq_count))
    assert runs[0] == runs[1]


def test_learn_query_budget_guard(loop_pdfa):
    teacher = exact_teacher(loop_pdfa, EXACT)
    with pytest.raises(QueryBudgetExceededError):
        learn(teacher, EXACT, LearnerConfig(max_queries=1))


def test_learn_query_length_guard(loop_pdfa):
    teacher = exact_teacher(loop_pdfa, EXACT)
    with pytest.raises(QueryBudgetExceededError):
        learn(teacher, EXACT, LearnerConfig(max_query_len=0))


def test_learn_with_monitor_sees_no_violations():
    kappa = QuantizationPartitioner(10)
    total_events = 0
    for seed in range(3):
        target = random_pdfa(GenSpec(n=10, m=3, theta=0.7, seed=seed))
        lm = target.language_model()
        monitor = LearnerMonitor(is_defined_fn=lambda u, lm=lm: is_defined(lm, u))
        teacher = exact_teacher(target, kappa)
        out = learn(teacher, kappa, LearnerConfig(monitor=monitor))
        total_events += monitor.events
        assert monitor.violations == []
        assert hk_equiv(target, out, kappa) is None
    assert total_events > 0
