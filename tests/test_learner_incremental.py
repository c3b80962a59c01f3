"""Incremental hypothesis construction against the restart-from-root reference.

`build` keeps each (leaf, symbol) target across rounds and re-sifts only
the transitions whose target was split; `sift` resumes where a string's last
sift ended. The reference below is the construction they replace: every
sift walks from the root, and every pass over all (leaf, symbol) pairs
restarts from the first leaf whenever a sift adds a leaf. Both must ask the
same membership queries in the same order and produce the same hypotheses,
once the learner's states, numbered by leaf creation, are numbered as the
reference numbers them.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pytest

from pdfalearn.automata import LanguageModel, MemoModel, Pdfa, trim
from pdfalearn.equivcheck import hk_equiv, shortest_defined_ce_prefix
from pdfalearn.errors import NotACounterexampleError, TeacherUndefinedError
from pdfalearn.learner import (
    ClassificationTree,
    LearnerConfig,
    LearnerMode,
    LearnerMonitor,
    _Inner,
    _initial_hypothesis,
    _label,
    build,
    initialize_tree,
    learn,
    update,
)
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import (
    ZERO_CLASS,
    Alphabet,
    Distribution,
    ExactPartitioner,
    QuantizationPartitioner,
)
from pdfalearn.teacher import ExactTeacher, PacParams, exact_teacher, filter_teacher, pac_teacher

KAPPA = QuantizationPartitioner(10)
EXACT = ExactPartitioner()


# --- reference: the restart-from-root construction ---


class _MqModel(LanguageModel):
    """Language-model view over a membership-query function."""

    def __init__(self, alphabet, mq):
        self.alphabet = alphabet
        self._mq = mq

    def next(self, u):
        return self._mq(tuple(u))


def _extension_key(mq, partitioner, mode, v, w):
    """Arc key for v·w, asking for every prefix of v·w in turn as a fresh tuple."""
    if mode is LearnerMode.OMIT_ZERO:
        u = v
        for s in w:
            dist = mq(u)
            if dist is None or s not in dist.support():
                return ZERO_CLASS
            u = u + (s,)
        return _label(partitioner, mq(u))
    return _label(partitioner, mq(v + w))


class _RefLeaf:
    def __init__(self, string, dist, parent):
        self.string = string
        self.dist = dist
        self.parent = parent


class _RefInner:
    def __init__(self, string, parent=None):
        self.string = string
        self.arcs = {}
        self.parent = parent


class _RefTree:
    def __init__(self, partitioner):
        self.partitioner = partitioner
        self.root = _RefInner(())
        self.leaves = {}

    def add_leaf(self, parent, key, string, dist):
        leaf = _RefLeaf(string, dist, parent)
        parent.arcs[key] = leaf
        self.leaves[string] = leaf
        return leaf

    def defined_leaves(self):
        return sorted(
            (l for l in self.leaves.values() if l.dist is not None),
            key=lambda l: (len(l.string), l.string),
        )

    def lca(self, u, v):
        ancestors = set()
        node = self.leaves[u]
        while node is not None:
            ancestors.add(id(node))
            node = node.parent
        node = self.leaves[v]
        while node is not None:
            if id(node) in ancestors:
                return node
            node = node.parent
        raise ValueError("leaves share no ancestor")


def ref_sift(tree, mq, v, mode):
    node = tree.root
    while isinstance(node, _RefInner):
        key = _extension_key(mq, tree.partitioner, mode, v, node.string)
        if key is ZERO_CLASS and node is tree.root and mode is LearnerMode.OMIT_ZERO:
            raise TeacherUndefinedError(f"access-string candidate {v!r} reported undefined")
        child = node.arcs.get(key)
        if child is None:
            return tree.add_leaf(node, key, v, mq(v)), True
        node = child
    return node, False


def ref_build(tree, mq, alphabet, mode):
    m = alphabet.size
    while True:
        leaves = tree.defined_leaves()
        index = {l.string: i for i, l in enumerate(leaves)}
        rows = []
        grew = False
        for leaf in leaves:
            scope = sorted(leaf.dist.support()) if mode is LearnerMode.OMIT_ZERO else range(m)
            row = [None] * m
            for s in scope:
                target, grew = ref_sift(tree, mq, leaf.string + (s,), mode)
                if grew:
                    break
                row[s] = index[target.string] if target.dist is not None else None
            if grew:
                break
            rows.append(row)
        if grew:
            continue
        dists = tuple(l.dist for l in leaves)
        pdfa = Pdfa(alphabet, dists, tuple(tuple(r) for r in rows), index[()])
        return pdfa, [l.string for l in leaves]


def ref_initialize_tree(gamma, mq, hypothesis, partitioner, mode):
    gamma = tuple(gamma)
    if mode is LearnerMode.OMIT_ZERO:
        gamma = shortest_defined_ce_prefix(
            _MqModel(hypothesis.alphabet, mq), hypothesis, partitioner, gamma
        )
    tree = _RefTree(partitioner)
    lambda_dist, gamma_dist = mq(()), mq(gamma)
    tree.add_leaf(tree.root, _label(partitioner, lambda_dist), (), lambda_dist)
    tree.add_leaf(tree.root, _label(partitioner, gamma_dist), gamma, gamma_dist)
    return tree


def ref_update(tree, mq, hypothesis, access, gamma, mode):
    gamma = tuple(gamma)
    partitioner = tree.partitioner
    if mode is LearnerMode.OMIT_ZERO:
        gamma = shortest_defined_ce_prefix(
            _MqModel(hypothesis.alphabet, mq), hypothesis, partitioner, gamma
        )
    prev_leaf = tree.leaves[()]
    state = hypothesis.initial
    for i in range(1, len(gamma) + 1):
        leaf_i, grew = ref_sift(tree, mq, gamma[:i], mode)
        if grew:
            return
        state = hypothesis.trans[state][gamma[i - 1]]
        if state is None:
            raise NotACounterexampleError("counterexample walks off the hypothesis")
        if leaf_i.string != access[state]:
            j = i
            u_j, uprime_j = leaf_i.string, access[state]
            break
        prev_leaf = leaf_i
    else:
        raise NotACounterexampleError("tree and hypothesis agree on every prefix")
    w = tree.lca(u_j, uprime_j)
    new_dis = (gamma[j - 1],) + w.string
    new_string = gamma[: j - 1]
    key_old = _extension_key(mq, partitioner, mode, prev_leaf.string, new_dis)
    key_new = _extension_key(mq, partitioner, mode, new_string, new_dis)
    parent = prev_leaf.parent
    arc_key = next(k for k, child in parent.arcs.items() if child is prev_leaf)
    inner = _RefInner(new_dis, parent)
    parent.arcs[arc_key] = inner
    prev_leaf.parent = inner
    inner.arcs[key_old] = prev_leaf
    tree.add_leaf(inner, key_new, new_string, mq(new_string))


def ref_learn(teacher, partitioner, mode):
    """The learning loop over the reference construction.

    Returns the result and the access strings of every round's hypothesis.
    """
    cache = {}

    def mq(u):
        u = tuple(u)
        if u not in cache:
            cache[u] = teacher.mq(u)
        return cache[u]

    hypothesis = _initial_hypothesis(teacher.alphabet, mq(()), mode)
    ce = teacher.eq(hypothesis, partitioner)
    if ce is None:
        return hypothesis, []
    tree = ref_initialize_tree(ce.gamma, mq, hypothesis, partitioner, mode)
    rounds = []
    while True:
        hypothesis, access = ref_build(tree, mq, teacher.alphabet, mode)
        rounds.append(access)
        ce = teacher.eq(hypothesis, partitioner)
        if ce is None:
            return trim(hypothesis), rounds
        ref_update(tree, mq, hypothesis, access, ce.gamma, mode)


# --- differential runs ---


class Recorder:
    """Teacher proxy that keeps every MQ string and every hypothesis, in order.

    An exact teacher resumes its pair search from one equivalence query to
    the next; each of its answers must equal `hk_equiv` from scratch, the
    counterexample and its kind.
    """

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.queries = []
        self.hypotheses = []

    @property
    def mq_count(self):
        return self.inner.mq_count

    def mq(self, u):
        self.queries.append(tuple(u))
        return self.inner.mq(u)

    def eq(self, hypothesis, partitioner=None):
        self.hypotheses.append(hypothesis)
        ce = self.inner.eq(hypothesis, partitioner)
        if isinstance(self.inner, ExactTeacher):
            assert ce == hk_equiv(self.inner.target, hypothesis, partitioner or self.inner.partitioner)
        return ce


def _shortlex(u):
    return len(u), u


@dataclass
class AccessSpy(LearnerMonitor):
    """Monitor that checks nothing and keeps the access strings of every round:
    by state in `by_state`, in (length, string) order in `rounds`."""

    tree: Optional[ClassificationTree] = None
    by_state: list = field(default_factory=list)
    rounds: list = field(default_factory=list)

    def tree_changed(self, tree, mode):
        self.tree = tree

    def sift_depth(self, before, after):
        pass

    def counterexample(self, hypothesis, gamma, hyp_defined):
        pass

    def progress(self, prev_states, new_states):
        access = [leaf.string for leaf in self.tree.states]
        self.by_state.append(access)
        self.rounds.append(sorted(access, key=_shortlex))


def _parts(pdfa):
    return pdfa.dists, pdfa.trans, pdfa.initial


def in_reference_order(pdfa, access):
    """`pdfa` with its states renumbered as the reference numbers them: in
    (length, string) order of their access strings `access[q]`."""
    assert len(access) == pdfa.n_states
    order = sorted(range(pdfa.n_states), key=lambda q: _shortlex(access[q]))
    remap = {old: new for new, old in enumerate(order)}
    rows = tuple(tuple(map(remap.get, pdfa.trans[q])) for q in order)
    return Pdfa(pdfa.alphabet, tuple(pdfa.dists[q] for q in order), rows, remap[pdfa.initial])


def assert_same_run(make_teacher, partitioner, mode):
    new, spy = Recorder(make_teacher()), AccessSpy()
    learned = learn(new, partitioner, LearnerConfig(mode=mode, monitor=spy))
    ref = Recorder(make_teacher())
    expected, ref_rounds = ref_learn(ref, partitioner, mode)
    assert new.queries == ref.queries
    # the learner numbers states by leaf creation; every hypothesis after the
    # initial one comes from a build, whose access strings the spy kept
    built = [in_reference_order(h, a) for h, a in zip(new.hypotheses[1:], spy.by_state, strict=True)]
    assert [_parts(h) for h in new.hypotheses[:1] + built] == [_parts(h) for h in ref.hypotheses]
    assert spy.rounds == ref_rounds
    assert _parts(learned) == _parts(expected)
    return new


TEACHERS = {
    "omit-zero": (exact_teacher, LearnerMode.OMIT_ZERO),
    "qnt-filter": (filter_teacher, LearnerMode.QNT_STANDARD),
    "qnt-standard": (exact_teacher, LearnerMode.QNT_STANDARD),
}


@pytest.mark.parametrize("mode", sorted(TEACHERS))
@pytest.mark.parametrize("n", [50, 100, 200])
def test_matches_reference_on_the_benchmark_sweep(n, mode):
    """The instances of acceptance criterion 6, in each of its three modes."""
    make, learner_mode = TEACHERS[mode]
    for seed in range(10):
        target = random_pdfa(GenSpec(n=n, m=10, theta=0.95, seed=seed))
        assert_same_run(lambda: make(target, KAPPA), KAPPA, learner_mode)


def chain_pdfa(n: int, seed: int) -> Pdfa:
    """`a` advances (the last state loops), `b` resets; only the last state differs."""
    alphabet = Alphabet(("a", "b"))
    rng = np.random.default_rng(seed)

    def draw():
        w = 1.0 - rng.random(3)
        return Distribution(alphabet, tuple(float(x) for x in w / w.sum()))

    body, last = draw(), draw()
    dists = (body,) * (n - 1) + (last,)
    return Pdfa(alphabet, dists, tuple((min(q + 1, n - 1), 0) for q in range(n)))


@pytest.mark.parametrize("mode", [LearnerMode.OMIT_ZERO, LearnerMode.QNT_STANDARD])
def test_matches_reference_on_a_deep_chain(mode):
    target = chain_pdfa(50, seed=3)
    run = assert_same_run(lambda: exact_teacher(target, EXACT), EXACT, mode)
    assert run.hypotheses[-1].n_states == 50


def test_matches_reference_with_a_pac_teacher():
    target = random_pdfa(GenSpec(n=40, m=4, theta=0.5, seed=5))
    params = PacParams(epsilon=0.05, delta=0.05, max_len=30)
    run = assert_same_run(
        lambda: pac_teacher(target.language_model(), KAPPA, params, seed=2),
        KAPPA,
        LearnerMode.OMIT_ZERO,
    )
    assert len(run.hypotheses) > 2


# --- incremental bookkeeping ---


class CountingPartitioner(QuantizationPartitioner):
    def __init__(self, kappa):
        super().__init__(kappa)
        self.calls = 0

    def label(self, dist):
        self.calls += 1
        return super().label(dist)


def test_rebuilding_an_unchanged_tree_asks_nothing():
    target = random_pdfa(GenSpec(n=60, m=4, theta=0.5, seed=11))
    part = CountingPartitioner(10)
    teacher = exact_teacher(target, part)
    mq = MemoModel(target.alphabet, teacher.mq)
    hypothesis = _initial_hypothesis(target.alphabet, mq.next(()), LearnerMode.OMIT_ZERO)
    tree = initialize_tree(teacher.eq(hypothesis).gamma, mq, hypothesis, part)
    for _ in range(5):
        hypothesis = build(tree)
        ce = teacher.eq(hypothesis)
        assert ce is not None
        update(tree, ce.gamma)
    first = build(tree)
    labels, mqs = part.calls, teacher.mq_count
    again = build(tree)
    assert (part.calls, teacher.mq_count) == (labels, mqs)
    assert _parts(again) == _parts(first)


def scan_for_redirected_rows(tree):
    """The scan `build` made before splits recorded it: per leaf, the row
    entries that point at an inner node."""
    found = {}
    for leaf in tree.leaves.values():
        symbols = {s for s, target in enumerate(leaf.row or ()) if isinstance(target, _Inner)}
        if symbols:
            found[leaf] = symbols
    return found


@pytest.mark.parametrize("mode", sorted(TEACHERS))
def test_splits_record_exactly_the_rows_a_scan_finds(mode):
    make, learner_mode = TEACHERS[mode]
    redirected = 0
    for seed in range(6):
        target = random_pdfa(GenSpec(n=100, m=10, theta=0.95, seed=seed))
        teacher = make(target, KAPPA)
        memo = MemoModel(target.alphabet, teacher.mq)
        hypothesis = _initial_hypothesis(target.alphabet, memo.next(()), learner_mode)
        ce = teacher.eq(hypothesis)
        if ce is None:
            continue
        tree = initialize_tree(ce.gamma, memo, hypothesis, KAPPA, learner_mode)
        while True:
            hypothesis = build(tree)
            assert tree.redirected == {} == scan_for_redirected_rows(tree)
            ce = teacher.eq(hypothesis)
            if ce is None:
                break
            update(tree, ce.gamma)
            assert tree.redirected == scan_for_redirected_rows(tree)
            redirected += sum(map(len, tree.redirected.values()))
    assert redirected > 10


@pytest.mark.parametrize("mode", sorted(TEACHERS))
def test_a_build_rewrites_only_new_and_redirected_rows(mode):
    """States keep their numbers: each hypothesis is the last one with the
    new leaves appended, and shares every row that `build` did not rewrite."""
    make, learner_mode = TEACHERS[mode]
    shared = 0
    for seed in range(4):
        target = random_pdfa(GenSpec(n=100, m=10, theta=0.95, seed=seed))
        teacher = make(target, KAPPA)
        memo = MemoModel(target.alphabet, teacher.mq)
        hypothesis = _initial_hypothesis(target.alphabet, memo.next(()), learner_mode)
        ce = teacher.eq(hypothesis)
        if ce is None:
            continue
        tree = initialize_tree(ce.gamma, memo, hypothesis, KAPPA, learner_mode)
        previous = build(tree)
        while (ce := teacher.eq(previous)) is not None:
            update(tree, ce.gamma)
            rewritten = {leaf.index for leaf in tree.redirected}
            hypothesis = build(tree)
            n = previous.n_states
            assert hypothesis.dists[:n] == previous.dists and hypothesis.initial == previous.initial
            assert {q for q in range(n) if hypothesis.trans[q] is not previous.trans[q]} == rewritten
            shared += n - len(rewritten)
            previous = hypothesis
    assert shared > 300


def test_depth_is_kept_on_a_tree_deeper_than_the_recursion_limit():
    memo = MemoModel(Alphabet(("a", "b")), lambda u: None)
    tree = ClassificationTree(memo, EXACT)
    node = memo.root
    deep = tree.add_leaf(tree.root, 0, node, None)
    for k in range(2000):
        node = node.child(1)
        tree.split(deep, (0,) * (k + 1), 0, node, 1, None)
    assert tree.depth() == deep.depth == 2001
    assert tree.lca(deep, tree.leaves[(1,)]).string == (0,)
    assert tree.lca(deep, tree.leaves[(1,) * 2000]).string == (0,) * 2000
