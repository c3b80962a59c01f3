"""PDFA core: evaluation, definedness, termination mass, congruences, quotients.

A Pdfa couples a deterministic transition structure with a next-symbol
distribution per state. Transitions may be missing (None): walking into a
missing transition makes the string structurally undefined. Independently, a
string is *probability*-undefined as soon as one step leaves the support of
the current distribution; the language-model view of a PDFA follows supports
and reports such strings as undefined even where the structure is total.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import (
    AllZeroError,
    AlphabetMismatchError,
    NonConvergenceError,
    UnknownSymbolError,
)
from .simplex import (
    Alphabet,
    ClassId,
    Distribution,
    Partitioner,
    SamplingStrategy,
    ZERO_CLASS,
    apply_sampling,
    normalize,
)

String = tuple[int, ...]
EMPTY: String = ()
TERMINATION_TOL = 1e-12  # termination_mass stops once no state's mass moves by more


@dataclass(frozen=True)
class Pdfa:
    """Probabilistic deterministic finite automaton.

    `trans[q][s]` is the successor state or None (no transition). Every
    state has a distribution; a symbol inside a state's support must have a
    transition, while symbols outside the support may keep a structural
    zero-probability transition or omit it.
    """

    alphabet: Alphabet
    dists: tuple[Distribution, ...]
    trans: tuple[tuple[Optional[int], ...], ...]
    initial: int = 0

    def __post_init__(self):
        n = len(self.dists)
        if len(self.trans) != n:
            raise ValueError("dists and trans disagree on state count")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        self._check_rows(range(n))

    def _check_rows(self, states) -> None:
        """Validate the distribution and row of each state in `states`, in order."""
        alphabet, m = self.alphabet, self.alphabet.size
        targets = {*range(len(self.dists)), None}
        for q in states:
            dist, row = self.dists[q], self.trans[q]
            if dist.alphabet is not alphabet and dist.alphabet != alphabet:
                raise AlphabetMismatchError(f"state {q} distribution has a different alphabet")
            if len(row) != m:
                raise ValueError(f"state {q} transition row has wrong arity")
            if targets.issuperset(row) and None not in map(row.__getitem__, dist.support()):
                continue
            for s, target in enumerate(row):  # the row is faulty: report its first fault
                if target not in targets:
                    raise ValueError(f"transition ({q},{s}) target {target} out of range")
                if target is None and s in dist.support():
                    raise ValueError(
                        f"state {q} gives positive probability to symbol {s} but has no transition"
                    )

    def extended(self, dists: Sequence[Distribution], rows: Sequence, replaced: dict) -> "Pdfa":
        """This automaton with states appended and rows replaced.

        The appended states have distributions `dists` and rows `rows`;
        `replaced` maps existing states to their new rows. Only those states
        are validated, with the constructor's checks and messages, and every
        other row is shared with this automaton. The result `==` the
        constructor's on the same fields.
        """
        old = len(self.dists)
        for q in replaced:
            if not 0 <= q < old:
                raise ValueError(f"replaced state {q} out of range")
        if len(rows) != len(dists):
            raise ValueError("dists and trans disagree on state count")
        trans = list(self.trans)
        for q, row in replaced.items():
            trans[q] = row
        trans.extend(rows)
        pdfa = object.__new__(Pdfa)  # past __post_init__: the checks below cover what changed
        pdfa.__dict__.update(
            alphabet=self.alphabet, dists=self.dists + tuple(dists), trans=tuple(trans), initial=self.initial
        )
        pdfa._check_rows([*sorted(replaced), *range(old, len(trans))])
        return pdfa

    @property
    def n_states(self) -> int:
        return len(self.dists)

    def is_total(self) -> bool:
        return all(t is not None for row in self.trans for t in row)

    def language_model(self) -> "PdfaLanguageModel":
        return PdfaLanguageModel(self)


@functools.cache
def _indices(m: int) -> frozenset[int]:
    return frozenset(range(m))


def _check_symbols(u: Sequence[int], m: int) -> None:
    """Raise UnknownSymbolError unless every symbol of u is in range(m): one set test."""
    if not _indices(m).issuperset(u):
        raise UnknownSymbolError(f"symbol index {next(s for s in u if not 0 <= s < m)} not in alphabet")


def walk(pdfa: Pdfa, u: Sequence[int]) -> Optional[int]:
    """Follow the transitions from the initial state; None if a step is missing. Symbols are checked first."""
    u = tuple(u)
    _check_symbols(u, pdfa.alphabet.size)
    q, trans = pdfa.initial, pdfa.trans
    for s in u:
        q = trans[q][s]
        if q is None:
            return None
    return q


def next_dist(pdfa: Pdfa, u: Sequence[int]) -> Optional[Distribution]:
    """Distribution at the state reached by u, or None when the walk dies."""
    q = walk(pdfa, u)
    return None if q is None else pdfa.dists[q]


class LanguageModel:
    """Total map from strings to next-symbol distributions, with undefinedness.

    next(u) returns None exactly when some step of u left the support of the
    distribution at the preceding prefix; it must be a pure function of u.
    Models are read one symbol at a time through cursors: start() for the
    empty string, step(c, s), None when s leaves the support of dist(c), and
    dist(c), None where undefined. A model overrides `next` or all three;
    one that overrides only `next` is read with its prefix as the cursor.
    dists(cursors) and next_many(strings) answer several at once; a model
    that can resolve cursors together (one request to a served model)
    overrides `dists`.
    """

    alphabet: Alphabet

    def start(self):
        return EMPTY

    def step(self, cursor, s: int):
        return cursor + (s,)

    def dist(self, cursor) -> Optional[Distribution]:
        return self.next(cursor)

    def dists(self, cursors: Sequence) -> list[Optional[Distribution]]:
        return [self.dist(c) for c in cursors]

    def cursor(self, u: Sequence[int]):
        """Fold `step` over u: the cursor after u, or None once a step leaves
        the support. An unknown symbol anywhere in u raises, as in `walk`."""
        _check_symbols(u, self.alphabet.size)
        cursor, step = self.start(), self.step
        for s in u:
            cursor = step(cursor, s)
            if cursor is None:
                return None
        return cursor

    def next(self, u: Sequence[int]) -> Optional[Distribution]:
        cursor = self.cursor(u)
        return None if cursor is None else self.dist(cursor)

    def next_many(self, strings: Sequence[Sequence[int]]) -> list[Optional[Distribution]]:
        """next(u) for every u, the defined ones resolved by one `dists` call."""
        cursors = [self.cursor(u) for u in strings]
        found = iter(self.dists([c for c in cursors if c is not None]))
        return [None if c is None else next(found) for c in cursors]


UNSET = object()  # value of a trie node whose string has not been evaluated


class Prefix(dict):
    """A trie node: maps each symbol to a child. `string`, set when the node is made, is the
    root's string and the path's symbols; `value` is UNSET until that string is evaluated."""

    __slots__ = ("string", "value")
    # a node is one prefix: it compares and hashes by identity, so it can be in a cursor
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, string: String = EMPTY):
        self.string = string
        self.value = UNSET

    def child(self, s) -> "Prefix":
        node = self.get(s)
        if node is None:
            node = self[s] = Prefix(self.string + (s,))
        return node

    def find(self, u) -> "Prefix":
        node = self
        for s in u:  # child(s), inlined: every memo lookup walks this loop
            nxt = node.get(s)
            if nxt is None:
                nxt = node[s] = Prefix(node.string + (s,))
            node = nxt
        return node


class MemoModel(LanguageModel):
    """Language model that asks `answer(u)` once per distinct string u.

    Answers live on the trie at `root`: a caller walking it reads
    `node.value` and calls `value` only where that is UNSET. A string whose
    answer raised stays UNSET. `misses` counts the calls to `answer`.
    A cursor is the trie node: `step` asks nothing and is None where s leaves
    the support of an answer already read. `next(u)` asks u whatever its prefixes' answers.
    """

    def __init__(self, alphabet: Alphabet, answer):
        self.alphabet = alphabet
        self.answer = answer
        self.root = Prefix()
        self.misses = 0

    def value(self, node: Prefix) -> Optional[Distribution]:
        """The answer for the node's string."""
        if node.value is UNSET:
            self.misses += 1
            node.value = self.answer(node.string)
        return node.value

    def next(self, u: String) -> Optional[Distribution]:
        return self.value(self.root.find(u))

    def start(self) -> Prefix:
        return self.root

    def step(self, node: Prefix, s: int) -> Optional[Prefix]:
        if node.value is None or (node.value is not UNSET and s not in node.value.support()):
            return None
        return node.child(s)

    dist = value


class PdfaLanguageModel(LanguageModel):
    """Support-following view of a PDFA as a language model."""

    def __init__(self, pdfa: Pdfa):
        self.pdfa = pdfa
        self.alphabet = pdfa.alphabet

    def start(self) -> int:
        return self.pdfa.initial

    def step(self, q: int, s: int) -> Optional[int]:
        return self.pdfa.trans[q][s] if s in self.pdfa.dists[q].support() else None

    def dist(self, q: int) -> Distribution:
        return self.pdfa.dists[q]

    def cursor(self, u: Sequence[int]) -> Optional[int]:
        """The state after u, or None once a step leaves the support: `step`'s fold, in one loop."""
        _check_symbols(u, self.alphabet.size)
        q, dists, trans = self.pdfa.initial, self.pdfa.dists, self.pdfa.trans
        for s in u:
            if s not in dists[q].support():
                return None
            q = trans[q][s]
        return q


def _prefix_fold(model: LanguageModel, w: Sequence[int]):
    """Prefix probability of w and the cursor after w, or (0, None)."""
    p, cursor = 1, model.start()
    for s in w:
        dist = model.dist(cursor)
        factor = 0 if dist is None else dist.prob(s)
        if factor == 0:
            return 0, None
        p *= factor
        cursor = model.step(cursor, s)
    return p, cursor


def prefix_prob(model: LanguageModel, w: Sequence[int]):
    """Probability that w occurs as a prefix of a generated string."""
    return _prefix_fold(model, w)[0]


def string_prob(model: LanguageModel, u: Sequence[int]):
    """Probability that generation produces exactly u and terminates."""
    p, cursor = _prefix_fold(model, u)
    dist = None if p == 0 else model.dist(cursor)
    return 0 if dist is None else p * dist.terminal_prob


def is_defined(model: LanguageModel, u: Sequence[int]) -> bool:
    """True iff u has positive prefix probability (checked via supports only)."""
    return model.next(tuple(u)) is not None


def label_at(model: LanguageModel, partitioner: Partitioner, u: String) -> ClassId:
    """Class label of model(u), with the reserved ZERO label for undefined u."""
    dist = model.next(u)
    return ZERO_CLASS if dist is None else dist.label(partitioner)


class SupportEdges:
    """Per state q, pi(q)($) as `terminal[q]` and the support edges (symbol,
    pi(q)(symbol), target) as `edges[q]`: floats, in `dist.support()` order,
    which every sum over them keeps."""

    def __init__(self, pdfa: Pdfa):
        self.terminal = [float(d.terminal_prob) for d in pdfa.dists]
        self.edges = [
            [(s, float(dist.probs[s]), row[s]) for s in dist.support()]
            for dist, row in zip(pdfa.dists, pdfa.trans)
        ]

    def completion_step(self, x: list[float]) -> tuple[list[float], float]:
        """x_q <- pi(q)($) + sum_s pi(q)(s) * x[trans(q,s)] for every q, and the largest change."""
        new = []
        delta = 0.0
        for v, row, old in zip(self.terminal, self.edges, x):
            for _, p, t in row:
                v += p * x[t]
            new.append(v)
            if abs(v - old) > delta:
                delta = abs(v - old)
        return new, delta


def termination_mass(pdfa: Pdfa, max_iter: int = 10**6) -> list[float]:
    """Per-state probability of eventual termination.

    Monotone fixed-point iteration of the completion step from 0; converges from below.
    """
    step = SupportEdges(pdfa).completion_step
    x, delta = [0.0] * pdfa.n_states, float("inf")
    for _ in range(max_iter):
        x, delta = step(x)
        if delta < TERMINATION_TOL:
            return x
    raise NonConvergenceError(delta, max_iter)


# ---------------------------------------------------------------------------
# Reachability and trimming
# ---------------------------------------------------------------------------

def reachable_states(trans, initial: int = 0, supports=None) -> list[int]:
    """States reachable from `initial` over a transition table, in BFS discovery order.

    `trans[q][s]` is a successor or None. Successors are expanded in
    ascending symbol order, so the states come out in shortlex order of
    their shortest access strings. `supports[q]`, when given, restricts the
    symbols followed out of q.
    """
    seen = [False] * len(trans)
    seen[initial] = True
    order = [initial]
    for q in order:  # the list grows behind the cursor: a FIFO queue
        row = trans[q]
        for s in range(len(row)) if supports is None else sorted(supports[q]):
            t = row[s]
            if t is not None and not seen[t]:
                seen[t] = True
                order.append(t)
    return order


def trim(pdfa: Pdfa, positive_only: bool = False) -> Pdfa:
    """Restrict to reachable states, renumbering in BFS discovery order.

    This numbering is canonical: isomorphic reachable parts trim to equal
    automata, and state q precedes q' iff q's shortest access string is
    shortlex-smaller. positive_only follows support symbols only and drops
    the zero-probability transitions it orphans.
    """
    supports = [d.support() for d in pdfa.dists] if positive_only else None
    order = reachable_states(pdfa.trans, pdfa.initial, supports)
    remap = {old: new for new, old in enumerate(order)}
    dists = tuple(pdfa.dists[q] for q in order)
    trans = tuple(tuple(map(remap.get, pdfa.trans[q])) for q in order)
    return Pdfa(pdfa.alphabet, dists, trans, 0)


# ---------------------------------------------------------------------------
# Congruence partitioning
# ---------------------------------------------------------------------------

class CongruenceMode(Enum):
    """How state behavior is compared during partition refinement.

    SUPPORT: continuations are compared only on support symbols, so
    zero-probability extensions (undefined strings) collapse together.
    ALL: continuations are compared on every symbol.
    """

    SUPPORT = "support"
    ALL = "all"


@dataclass(frozen=True)
class StatePartition:
    """Blocks over the reachable states plus the reserved zero class.

    block_of[q] is the block index, or None for unreachable states. Blocks
    are numbered by their smallest member and list their members in
    ascending order, so the coarsest congruence has exactly one
    representation and partitions compare with `==`. zero_states collects
    states with no valid distribution; for any Pdfa built through this
    package it is empty (the zero class only ever holds undefined strings,
    which no state represents).
    """

    block_of: tuple[Optional[int], ...]
    blocks: tuple[tuple[int, ...], ...]
    zero_states: tuple[int, ...] = ()

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def congruence_partition(
    pdfa: Pdfa, partitioner: Partitioner, mode: CongruenceMode = CongruenceMode.SUPPORT
) -> StatePartition:
    """Coarsest congruence on the reachable states that refines their labels.

    Two states share a block iff their labels agree and, on every probed
    symbol, their successors share a block. SUPPORT mode probes support
    symbols only (equal labels force equal supports, so a block's members
    probe the same symbols) and never follows a zero-probability transition;
    ALL mode probes every symbol, a missing transition leading to a sink of
    its own.

    Splitter-driven refinement for partial transition functions (Valmari and
    Lehtinen, STACS 2008; Hopcroft's method made sound for missing
    transitions): every initial block is a splitter, each popped splitter
    splits the blocks its predecessors only partly fill, and a block split
    after it was used re-enters as its smaller half. It runs in
    O(edges * log n) for the probed edges.
    """
    n = pdfa.n_states
    reach = reachable_states(pdfa.trans, pdfa.initial)
    # the probed edges into each state as (symbol, source); a missing
    # transition leads to state n, the sink, whose block is its own
    into: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    block: list[Optional[int]] = [None] * (n + 1)
    labels: dict[ClassId, int] = {}
    for q in reach:
        dist, row = pdfa.dists[q], pdfa.trans[q]
        for s in dist.support() if mode is CongruenceMode.SUPPORT else range(len(row)):
            t = row[s]
            into[n if t is None else t].append((s, q))
        block[q] = labels.setdefault(dist.label(partitioner), len(labels))
    block[n] = len(labels)
    members: list[set[int]] = [set() for _ in range(len(labels) + 1)]
    for q in reach + [n]:
        members[block[q]].add(q)
    # with missing transitions no block's splits follow from the others':
    # every initial block is a splitter
    work = set(range(len(members)))
    while work and len(members) <= len(reach):  # once all blocks are singletons, none splits
        splitter = work.pop()
        sources: dict[int, list[int]] = collections.defaultdict(list)
        for t in members[splitter]:
            for s, q in into[t]:
                if len(members[block[q]]) > 1:  # a singleton never splits
                    sources[s].append(q)
        for preds in sources.values():
            hit: dict[int, list[int]] = collections.defaultdict(list)
            for q in preds:
                hit[block[q]].append(q)
            for b, part in hit.items():
                rest = members[b]
                if len(part) == len(rest):
                    continue
                rest.difference_update(part)
                fresh = len(members)
                members.append(set(part))
                for q in part:
                    block[q] = fresh
                # a waiting block's halves both wait; otherwise the smaller
                # half suffices, the other's splits following from b's
                work.add(fresh if b in work or len(part) < len(rest) else b)
    # blocks sort by their smallest member; the sink's, [n], sorts last
    blocks = sorted(map(sorted, members))[:-1]
    block_of: list[Optional[int]] = [None] * n
    for i, states in enumerate(blocks):
        for q in states:
            block_of[q] = i
    return StatePartition(tuple(block_of), tuple(map(tuple, blocks)))


def quotient(pdfa: Pdfa, partitioner: Partitioner) -> Pdfa:
    """Smallest PDFA matching pdfa on every defined string, modulo the partitioner.

    The positively-reachable part is partitioned; each block becomes one
    state whose distribution comes from the block's representative (the
    state with the shortest access string, ties broken lexicographically on
    symbol indices). Transitions exist only on support symbols.
    """
    sub = trim(pdfa, positive_only=True)
    part = congruence_partition(sub, partitioner, CongruenceMode.SUPPORT)
    # trim numbers sub's states in shortlex order of their shortest access
    # strings and blocks come ordered by smallest member: each block's first
    # state is its representative, and block 0 holds the initial state
    dists = []
    trans = []
    for states in part.blocks:
        rep = states[0]
        dist = sub.dists[rep]
        dists.append(dist)
        support = dist.support()
        trans.append(tuple(part.block_of[t] if s in support else None for s, t in enumerate(sub.trans[rep])))
    return Pdfa(sub.alphabet, tuple(dists), tuple(trans), 0)


def isomorphic(a: Pdfa, b: Pdfa) -> bool:
    """Structure- and distribution-exact isomorphism on the reachable parts.

    trim's numbering is canonical, so isomorphic reachable parts trim to equal automata.
    """
    return trim(a) == trim(b)


# ---------------------------------------------------------------------------
# Guide automata and composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GuideAutomaton:
    """Deterministic automaton with a {0,1} mask per state over Σ ∪ {terminal}.

    delta is total; masked-out symbols still have transitions (their targets
    are simply unreachable through any allowed path).
    """

    alphabet: Alphabet
    masks: tuple[tuple[int, ...], ...]
    delta: tuple[tuple[int, ...], ...]
    initial: int = 0

    def __post_init__(self):
        n = len(self.masks)
        if len(self.delta) != n:
            raise ValueError("masks and delta disagree on state count")
        if not 0 <= self.initial < n:
            raise ValueError("initial state out of range")
        m = self.alphabet.size
        for q in range(n):
            if len(self.masks[q]) != m + 1:
                raise ValueError(f"state {q} mask has wrong arity")
            if any(v not in (0, 1) for v in self.masks[q]):
                raise ValueError("mask values must be 0 or 1")
            if len(self.delta[q]) != m:
                raise ValueError(f"state {q} delta row has wrong arity")
            if any(not 0 <= t < n for t in self.delta[q]):
                raise ValueError("delta target out of range")

    @property
    def n_states(self) -> int:
        return len(self.masks)


def _masked(dist: Distribution, mask: Sequence[int]) -> Optional[Distribution]:
    """Mask, renormalize, or report a dead state as None."""
    weights = tuple(p * v for p, v in zip(dist.probs, mask))
    try:
        return normalize(dist.alphabet, weights)
    except AllZeroError:
        return None


class ComposedLanguageModel(LanguageModel):
    """On-demand product of a language model with a guide plus sampling.

    The cursor is the pair (inner cursor, guide state). Its distribution
    masks the inner model's with the guide state's mask, renormalizes, and
    applies the sampling strategy; it is None where the inner model is
    undefined or the masked weights all vanish. Each pair's distribution is
    computed once: over a PDFA the pairs are the product's states. `dists`
    hands the inner model every pair it has not computed in one call.
    """

    def __init__(self, model: LanguageModel, guide: GuideAutomaton, strategy: SamplingStrategy = None):
        if model.alphabet != guide.alphabet:
            raise AlphabetMismatchError("model and guide alphabets differ")
        self.model = model
        self.guide = guide
        self.strategy = strategy
        self.alphabet = model.alphabet
        self._dists: dict = {}

    def start(self):
        return self.model.start(), self.guide.initial

    def step(self, cursor, s: int):
        dist = self.dist(cursor)
        if dist is None or s not in dist.support():
            return None
        # composite supports lie inside the inner model's: it steps along
        inner, g = cursor
        return self.model.step(inner, s), self.guide.delta[g][s]

    def dist(self, cursor) -> Optional[Distribution]:
        dist = self._dists.get(cursor, UNSET)
        return self.dists((cursor,))[0] if dist is UNSET else dist

    def dists(self, cursors: Sequence) -> list[Optional[Distribution]]:
        """The pairs not yet computed resolve their inner cursors in one inner `dists` call."""
        todo = [c for c in dict.fromkeys(cursors) if c not in self._dists]
        if todo:
            for (inner, g), dist in zip(todo, self.model.dists([inner for inner, _ in todo])):
                masked = None if dist is None else _masked(dist, self.guide.masks[g])
                self._dists[inner, g] = None if masked is None else apply_sampling(self.strategy, masked)
        return [self._dists[c] for c in cursors]


def compose(
    model: LanguageModel, guide: GuideAutomaton, strategy: SamplingStrategy = None
) -> ComposedLanguageModel:
    """Synchronize a model with a guide; no product automaton is built."""
    return ComposedLanguageModel(model, guide, strategy)


def materialize_compose(
    pdfa: Pdfa, guide: GuideAutomaton, strategy: SamplingStrategy = None
) -> Pdfa:
    """Explicit product PDFA of a finite model with a guide.

    Product states with all-zero masked weights are dead: transitions into
    them are dropped (None). A dead state reachable with positive
    probability makes the composition itself undefined mid-generation,
    which AllZeroError reports.
    """
    # the product's states are the on-demand composition's cursors
    state_dist = ComposedLanguageModel(pdfa.language_model(), guide, strategy).dist
    start = (pdfa.initial, guide.initial)
    init_dist = state_dist(start)
    if init_dist is None:
        raise AllZeroError("composition is dead at the initial state")
    index = {start: 0}
    dists = [init_dist]
    rows: list[list[Optional[int]]] = []
    queue = collections.deque([start])
    while queue:
        l, g = queue.popleft()
        dist = dists[index[(l, g)]]
        row: list[Optional[int]] = []
        for s in range(pdfa.alphabet.size):
            lt = pdfa.trans[l][s]
            if lt is None:
                row.append(None)
                continue
            target = (lt, guide.delta[g][s])
            if target not in index:
                tdist = state_dist(target)
                if tdist is None:
                    if dist.prob(s) > 0:
                        raise AllZeroError(
                            f"composition dies with positive probability on symbol {s}"
                        )
                    row.append(None)
                    continue
                index[target] = len(dists)
                dists.append(tdist)
                queue.append(target)
            row.append(index[target])
        rows.append(row)
    # a zero-probability edge may point at a state first discovered as dead
    return Pdfa(pdfa.alphabet, tuple(dists), tuple(tuple(r) for r in rows), 0)
