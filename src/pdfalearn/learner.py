"""Active PDFA learner over a classification tree.

Two algorithm variants share the machinery. The zero-omitting variant keeps
every access string defined (positive prefix probability), builds hypothesis
transitions only on support symbols, and reduces every counterexample to its
shortest defined disagreeing prefix. The baseline variant adds transitions
for every symbol and consumes counterexamples unreduced; paired with a
teacher that reports undefined queries it degrades gracefully by classifying
all undefined strings into one reserved leaf that yields no state.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .automata import UNSET, MemoModel, Pdfa, Prefix, String, is_defined, trim
from .equivcheck import shortest_defined_ce_prefix
from .errors import (
    NotACounterexampleError,
    QueryBudgetExceededError,
    TeacherUndefinedError,
)
from .simplex import ClassId, Distribution, Partitioner, ZERO_CLASS
from .teacher import Teacher

MAX_ROUNDS = 100_000  # every round adds a state, so a run that outlasts this many is stuck


class LearnerMode(Enum):
    OMIT_ZERO = "omit-zero"
    QNT_STANDARD = "qnt-standard"


@dataclass
class LearnerConfig:
    mode: LearnerMode = LearnerMode.OMIT_ZERO
    max_query_len: Optional[int] = None
    max_queries: Optional[int] = None
    monitor: Optional["LearnerMonitor"] = None


class _Leaf:
    """An access string's class; `node` is the string's node in the memo's trie.

    `sifted` lists the trie nodes whose last sift ended here. `row` holds the
    hypothesis transitions out of a defined leaf once `build` has computed
    them: per symbol the target leaf, None outside the scope, or the inner
    node that replaced a target split since, where that sift resumes.
    `index` is a defined leaf's hypothesis state, fixed when the leaf is
    created; an undefined leaf has none.
    """

    __slots__ = ("node", "dist", "parent", "depth", "sifted", "row", "index")

    def __init__(self, node: Prefix, dist: Optional[Distribution], parent, depth: int):
        self.node = node
        self.dist = dist
        self.parent = parent
        self.depth = depth
        self.sifted: list[Prefix] = []
        self.row: Optional[list] = None
        self.index: Optional[int] = None

    @property
    def string(self) -> String:
        return self.node.string


class _Inner:
    __slots__ = ("string", "arcs", "parent", "depth")

    def __init__(self, string: String, parent, depth: int):
        self.string = string
        self.arcs: dict[ClassId, object] = {}
        self.parent = parent
        self.depth = depth


class ClassificationTree:
    """One learning run: access strings at the leaves, distinguishing strings at inner nodes.

    Arcs out of an inner node w are keyed by the class of MQ(v·w); the
    reserved ZERO key groups strings whose extension by w is undefined.
    The tree keeps the run's query memo, partitioner, mode and monitor.

    The tree changes in two ways only: an arc is added to an inner node, or
    a leaf is replaced by an inner node (`split`). Neither changes the path
    above an existing node, so a string once sifted resumes where its last
    sift ended, or at the inner node that replaced that leaf: `resume` is
    keyed by the string's trie node.

    Defined leaves are hypothesis states numbered in creation order:
    `states[q]` is state q's leaf. The list only grows, so an index keeps
    its meaning across rounds.
    """

    def __init__(
        self,
        memo: MemoModel,
        partitioner: Partitioner,
        mode: LearnerMode = LearnerMode.OMIT_ZERO,
        monitor: Optional["LearnerMonitor"] = None,
    ):
        self.memo = memo
        self.partitioner = partitioner
        self.mode = mode
        self.monitor = monitor
        self.root = _Inner((), None, 0)
        self.leaves: dict[String, _Leaf] = {}
        self.states: list[_Leaf] = []
        self.resume: dict[Prefix, object] = {}
        self.redirected: dict[_Leaf, set[int]] = {}  # row symbols split since `build`
        self.hypothesis: Optional[Pdfa] = None  # what the last `build` returned
        self._depth = 0

    def add_leaf(self, parent: _Inner, key: ClassId, node: Prefix, dist) -> _Leaf:
        if key in parent.arcs:
            raise ValueError("arc key already present")
        leaf = _Leaf(node, dist, parent, parent.depth + 1)
        parent.arcs[key] = leaf
        self.leaves[node.string] = leaf
        if dist is not None:
            leaf.index = len(self.states)
            self.states.append(leaf)
        self._depth = max(self._depth, leaf.depth)
        return leaf

    def split(
        self, leaf: _Leaf, dis: String, key_old: ClassId, node: Prefix, key_new: ClassId, dist
    ) -> _Leaf:
        """Replace `leaf` by an inner node `dis` over it and a new leaf for `node`'s string.

        Strings whose sift ended at `leaf` now resume at the new inner node,
        and so do the transitions that targeted it.
        """
        parent = leaf.parent
        arc_key = next(k for k, child in parent.arcs.items() if child is leaf)
        inner = _Inner(dis, parent, leaf.depth)
        parent.arcs[arc_key] = inner
        leaf.parent = inner
        leaf.depth += 1
        inner.arcs[key_old] = leaf
        new_leaf = self.add_leaf(inner, key_new, node, dist)
        for at in leaf.sifted:
            self.resume[at] = inner
            v = at.string
            source = self.leaves.get(v[:-1]) if v else None
            if source is not None and source.row is not None and source.row[v[-1]] is leaf:
                source.row[v[-1]] = inner
                self.redirected.setdefault(source, set()).add(v[-1])
        leaf.sifted = []
        return new_leaf

    def record(self, at: Prefix, leaf: _Leaf) -> None:
        """Note that the sift of at's string ended at `leaf`."""
        if self.resume.get(at) is not leaf:
            self.resume[at] = leaf
            leaf.sifted.append(at)

    def depth(self) -> int:
        """Length of the longest root-to-leaf path, kept up to date on insertion."""
        return self._depth

    def lca(self, a: _Leaf, b: _Leaf) -> _Inner:
        ancestors = set()
        node = a
        while node is not None:
            ancestors.add(id(node))
            node = node.parent
        node = b
        while node is not None:
            if id(node) in ancestors:
                return node
            node = node.parent
        raise ValueError("leaves share no ancestor")


def _order(leaf: _Leaf):
    return len(leaf.string), leaf.string


@dataclass
class LearnerMonitor:
    """Optional assertion hooks evaluated during learning.

    is_defined_fn, when provided, is the ground-truth definedness oracle
    used to check that every leaf keeps a positive prefix probability.
    """

    is_defined_fn: Optional[Callable[[String], bool]] = None
    events: int = 0
    violations: list = field(default_factory=list)

    def _fail(self, message):
        self.violations.append(message)
        raise AssertionError(message)

    def tree_changed(self, tree: ClassificationTree, mode: LearnerMode):
        self.events += 1
        if mode is LearnerMode.OMIT_ZERO:
            for leaf in tree.leaves.values():
                if leaf.dist is None:
                    self._fail(f"leaf {leaf.string!r} stored as undefined")
                if self.is_defined_fn is not None and not self.is_defined_fn(leaf.string):
                    self._fail(f"leaf {leaf.string!r} is not defined in the model")
                node = leaf.parent
                while node is not None:
                    if node.string != () and node.string[0] not in leaf.dist.support():
                        self._fail(
                            f"discriminator {node.string!r} starts outside the support of {leaf.string!r}"
                        )
                    node = node.parent

    def sift_depth(self, before: int, after: int):
        self.events += 1
        if after > before:
            self._fail("sift increased the tree depth")

    def counterexample(self, hypothesis: Pdfa, gamma: String, hyp_defined: bool):
        self.events += 1
        if not hyp_defined:
            self._fail(f"counterexample {gamma!r} undefined in the hypothesis")

    def progress(self, prev_states: int, new_states: int):
        self.events += 1
        if new_states <= prev_states:
            self._fail("hypothesis did not grow across an equivalence failure")


def _label(partitioner: Partitioner, dist: Optional[Distribution]) -> ClassId:
    return ZERO_CLASS if dist is None else dist.label(partitioner)


def _extension_key(memo, partitioner: Partitioner, mode: LearnerMode, at: Prefix, w: String) -> ClassId:
    """Arc key for the extension v·w, where `at` is v's node in the memo's trie.

    The congruence assigns every undefined string to the reserved zero
    class, so in zero-omitting mode the walk along w is checked against the
    supports step by step; a teacher that answers structurally on
    zero-probability paths must not smuggle phantom evidence into the tree.
    Baseline mode keys on the raw answer for v·w. The walk steps from `at`
    through the trie once; each node it asks about carries its string.
    """
    if mode is LearnerMode.OMIT_ZERO:
        node = at
        for s in w:
            dist = node.value
            if dist is UNSET:
                dist = memo.value(node)
            if dist is None or s not in dist.support():
                return ZERO_CLASS
            child = node.get(s)
            node = node.child(s) if child is None else child
    else:
        node = at.find(w)
    dist = node.value
    if dist is UNSET:
        dist = memo.value(node)
    return _label(partitioner, dist)


def sift(tree: ClassificationTree, at: Prefix) -> tuple[_Leaf, bool]:
    """Classify the string of `at`, its memo trie node, to a leaf, adding one when its class is new.

    Returns (leaf, grew). The walk starts where the string's last sift ended
    (the leaf itself, or the inner node that split it) and at the root only
    for a string never sifted: the nodes above that point have not changed,
    so walking them again would repeat cached queries. The tree's degree may
    grow; its depth never does.
    """
    memo, mode, monitor = tree.memo, tree.mode, tree.monitor
    depth_before = tree.depth() if monitor else 0
    node = tree.resume.get(at, tree.root)
    while isinstance(node, _Inner):
        key = _extension_key(memo, tree.partitioner, mode, at, node.string)
        if key is ZERO_CLASS and node is tree.root and mode is LearnerMode.OMIT_ZERO:
            raise TeacherUndefinedError(
                f"access-string candidate {at.string!r} reported undefined; tree invariant broken"
            )
        child = node.arcs.get(key)
        if child is None:
            leaf = tree.add_leaf(node, key, at, memo.value(at))
            tree.record(at, leaf)
            if monitor:
                monitor.sift_depth(depth_before, tree.depth())
                monitor.tree_changed(tree, mode)
            return leaf, True
        node = child
    tree.record(at, node)
    if monitor:
        monitor.sift_depth(depth_before, tree.depth())
    return node, False


def build(tree: ClassificationTree, prefetch: Optional[Callable[[String, list[int]], None]] = None) -> Pdfa:
    """Construct the hypothesis for the current tree, and keep it as `tree.hypothesis`.

    Transition targets come from sifting each (leaf, symbol) extension and
    stay in the leaves' rows across rounds. One pass in (length, string)
    order sifts the rows of leaves new since the last pass and the
    transitions whose target was split since, which `redirected` names;
    every other target is known without a query. A leaf that a sift
    discovers sorts after the leaf being filled, so the same pass fills its
    row in turn. Queries thus come in the order of sifting every pair afresh
    until no leaf appears.

    State q is the leaf `tree.states[q]`, so the hypothesis is the previous
    one with the new leaves appended and the rows this pass wrote replaced;
    no other row is touched.

    Before it sifts a new leaf's row, build hands `prefetch` the row's
    symbols whose strings the memo lacks. Such a string was never sifted,
    so its sift starts at the root and asks it: a teacher may ask them
    together, and the queries and their order stay the same.
    """
    alphabet = tree.memo.alphabet
    m = alphabet.size
    previous = tree.hypothesis
    built = 0 if previous is None else previous.n_states
    # every pass fills every new leaf's row, so the rowless leaves are the newest
    work = sorted([*tree.states[built:], *tree.redirected], key=_order)
    i = 0
    while i < len(work):
        leaf = work[i]
        i += 1
        fresh = leaf.row is None
        if fresh:
            leaf.row = [None] * m
            scope = sorted(leaf.dist.support()) if tree.mode is LearnerMode.OMIT_ZERO else range(m)
        else:
            scope = sorted(tree.redirected.pop(leaf, ()))
        at = leaf.node
        if fresh and prefetch is not None and scope:
            prefetch(at.string, [s for s in scope if at.child(s).value is UNSET])
        for s in scope:
            target, grew = sift(tree, at.child(s))
            leaf.row[s] = target
            if grew and target.dist is not None:
                insort(work, target, key=_order)
    rows = {leaf.index: tuple([None if t is None else t.index for t in leaf.row]) for leaf in work}
    new = range(built, len(tree.states))
    dists = [tree.states[q].dist for q in new]
    appended = [rows.pop(q) for q in new]
    if previous is None:
        pdfa = Pdfa(alphabet, tuple(dists), tuple(appended), tree.leaves[()].index)
    else:
        pdfa = previous.extended(dists, appended, rows)
    tree.hypothesis = pdfa
    return pdfa


def initialize_tree(
    gamma: String,
    memo: MemoModel,
    hypothesis: Pdfa,
    partitioner: Partitioner,
    mode: LearnerMode = LearnerMode.OMIT_ZERO,
    monitor: Optional[LearnerMonitor] = None,
) -> ClassificationTree:
    """The run's first tree: root λ over λ's leaf and the (possibly reduced) counterexample's.

    `hypothesis`, which `gamma` refutes, serves only to reduce it; the
    tree's own hypothesis comes from its first `build`.
    """
    gamma = tuple(gamma)
    if mode is LearnerMode.OMIT_ZERO:
        gamma = shortest_defined_ce_prefix(memo, hypothesis, partitioner, gamma)
    tree = ClassificationTree(memo, partitioner, mode, monitor)
    lambda_dist = memo.value(memo.root)
    tree.add_leaf(tree.root, _label(partitioner, lambda_dist), memo.root, lambda_dist)
    if not sift(tree, memo.root.find(gamma))[1]:
        raise NotACounterexampleError("counterexample agrees with the empty string's class")
    return tree


def update(tree: ClassificationTree, gamma: String) -> None:
    """Fold a counterexample to `tree.hypothesis` into the tree; exactly one leaf is added.

    Either a sift during the analysis discovers a fresh class (the tree
    already grew, the stale counterexample is dropped), or the first index
    where the tree's view of the prefix diverges from the hypothesis walk
    splits a leaf with a new distinguishing string. The split leaves every
    string sifted to that leaf, and every transition into it, to resume at
    the new inner node: the next `build` sifts exactly those transitions.
    """
    memo, partitioner, mode, hypothesis = tree.memo, tree.partitioner, tree.mode, tree.hypothesis
    gamma = tuple(gamma)
    if mode is LearnerMode.OMIT_ZERO:
        gamma = shortest_defined_ce_prefix(memo, hypothesis, partitioner, gamma)
    n_before = len(tree.leaves)
    prev_leaf = tree.leaves[()]
    state = hypothesis.initial
    at = memo.root
    for s in gamma:
        before, at = at, at.child(s)
        leaf_i, grew = sift(tree, at)
        if grew:
            if len(tree.leaves) != n_before + 1:
                raise AssertionError("sift added more than one leaf")
            return
        state = hypothesis.trans[state][s]
        if state is None:
            raise NotACounterexampleError("counterexample walks off the hypothesis")
        if leaf_i is not tree.states[state]:
            break
        prev_leaf = leaf_i
    else:
        raise NotACounterexampleError("tree and hypothesis agree on every prefix")

    w = tree.lca(leaf_i, tree.states[state])
    new_dis = (s,) + w.string
    if before.string in tree.leaves:
        raise NotACounterexampleError("divergence point is already an access string")
    key_old = _extension_key(memo, partitioner, mode, prev_leaf.node, new_dis)
    key_new = _extension_key(memo, partitioner, mode, before, new_dis)
    if key_old == key_new:
        raise NotACounterexampleError("new distinguishing string fails to separate the leaves")
    tree.split(prev_leaf, new_dis, key_old, before, key_new, memo.value(before))
    if tree.monitor:
        tree.monitor.tree_changed(tree, mode)


def _initial_hypothesis(alphabet, root_dist: Distribution, mode: LearnerMode) -> Pdfa:
    if mode is LearnerMode.OMIT_ZERO:
        row = tuple(0 if s in root_dist.support() else None for s in range(alphabet.size))
    else:
        row = tuple(0 for _ in range(alphabet.size))
    return Pdfa(alphabet, (root_dist,), (row,))


def learn(teacher: Teacher, partitioner: Partitioner, config: Optional[LearnerConfig] = None) -> Pdfa:
    """Run the main loop: hypothesize, ask for equivalence, refine.

    With an exact teacher the result matches the target's quotient modulo
    the partitioner, with one state per reachable defined class.
    """
    config = config or LearnerConfig()
    mode = config.mode
    monitor = config.monitor

    def ask(u: String) -> Optional[Distribution]:
        if config.max_query_len is not None and len(u) > config.max_query_len:
            raise QueryBudgetExceededError(f"query length {len(u)} exceeds the guard")
        if config.max_queries is not None and teacher.mq_count >= config.max_queries:
            raise QueryBudgetExceededError(f"query budget {config.max_queries} exhausted")
        return teacher.mq(u)

    # a string whose query raised is never stored, so the guards see it again
    memo = MemoModel(teacher.alphabet, ask)
    # a guard may refuse a row's later strings, which then must not reach
    # the model: under a guard nothing is asked ahead. A duck-typed
    # teacher may have no `prefetch`.
    guarded = config.max_queries is not None or config.max_query_len is not None
    prefetch = None if guarded else getattr(teacher, "prefetch", None)

    root_dist = memo.next(())
    if root_dist is None:
        raise TeacherUndefinedError("model undefined at the empty string")
    hypothesis = _initial_hypothesis(teacher.alphabet, root_dist, mode)
    ce = teacher.eq(hypothesis, partitioner)
    if ce is None:
        return hypothesis
    if monitor:
        monitor.counterexample(hypothesis, ce.gamma, is_defined(hypothesis.language_model(), ce.gamma))
    tree = initialize_tree(ce.gamma, memo, hypothesis, partitioner, mode, monitor)

    prev_states = hypothesis.n_states
    for _ in range(MAX_ROUNDS):
        hypothesis = build(tree, prefetch)
        if monitor:
            monitor.progress(prev_states, hypothesis.n_states)
        prev_states = hypothesis.n_states
        ce = teacher.eq(hypothesis, partitioner)
        if ce is None:
            # updates can strand a leaf without incoming transitions; the
            # returned automaton is the reachable part
            return trim(hypothesis)
        if monitor:
            monitor.counterexample(hypothesis, ce.gamma, is_defined(hypothesis.language_model(), ce.gamma))
        update(tree, ce.gamma)
    raise QueryBudgetExceededError("iteration guard exhausted before convergence")

