"""Equivalence checking between PDFA modulo a simplex equivalence.

The checker explores reachable state pairs breadth-first, which makes every
returned counterexample a shortest conflicting witness. Only mutually
supported symbols are traversed, so the witness is defined in both automata
up to the conflict: zero-probability transitions are never walked.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .automata import LanguageModel, Pdfa, String, label_at
from .errors import AlphabetMismatchError, NotACounterexampleError
from .simplex import Partitioner, ZERO_CLASS


class CeKind(Enum):
    DIST_MISMATCH = "dist-mismatch"
    SUPPORT_MISMATCH = "support-mismatch"


@dataclass(frozen=True)
class Counterexample:
    gamma: String
    kind: CeKind

    def __len__(self):
        return len(self.gamma)


@dataclass
class HkStats:
    """Instrumentation for the pair exploration."""

    pairs_visited: int = 0


def _conflict_kind(da, db) -> CeKind:
    if da.support_with_terminal() != db.support_with_terminal():
        return CeKind.SUPPORT_MISMATCH
    return CeKind.DIST_MISMATCH


class PairSearch:
    """Breadth-first search over the reachable state pairs of `a` and `b`.

    `order` lists the pairs in discovery order, `head` counts the pairs
    examined, and `parents` maps each discovered pair to the index in
    `order` of the pair that found it and the symbol. `resume` continues
    the search on a new `b`. The pairs examined before the first one whose
    `b` state changed (its distribution or row, by value) expand as they
    did, so it rewinds to that pair and goes on from there; its result is
    the one a fresh search on the new `b` returns. It starts over when the
    partitioner, the alphabet or `b`'s initial state differs.
    """

    def __init__(self, a: Pdfa, b: Pdfa, partitioner: Partitioner):
        self.a = a
        self._restart(b, partitioner)

    def _restart(self, b: Pdfa, partitioner: Partitioner) -> None:
        if self.a.alphabet != b.alphabet:
            raise AlphabetMismatchError("cannot compare PDFA over different alphabets")
        self.b, self.partitioner = b, partitioner
        start = (self.a.initial, b.initial)
        self.order = [start]
        self.parents: dict[tuple[int, int], tuple[int, int]] = {start: (-1, -1)}
        self.head = 0

    def resume(
        self, b: Pdfa, partitioner: Partitioner, stats: Optional[HkStats] = None
    ) -> Optional[Counterexample]:
        """Compare `a` with `b`, reusing what the last search examined."""
        old = self.b
        if partitioner is not self.partitioner or b.alphabet != old.alphabet or b.initial != old.initial:
            self._restart(b, partitioner)
            return self.run(stats)
        # only the states both have are compared: an examined pair whose
        # state the new `b` lacks was found through a row that pointed past
        # its states, which has changed and was examined before that pair
        changed = {
            q for q in range(min(old.n_states, b.n_states))
            if (old.trans[q] is not b.trans[q] and old.trans[q] != b.trans[q])
            or (old.dists[q] is not b.dists[q] and old.dists[q] != b.dists[q])
        }
        order, parents = self.order, self.parents
        head = next((j for j in range(self.head) if order[j][1] in changed), self.head)
        # pairs are found in the order of their finders: keep those found before `head`
        cut = bisect_left(order, head, key=lambda pair: parents[pair][0])
        for pair in order[cut:]:
            del parents[pair]
        del order[cut:]
        self.b, self.head = b, head
        return self.run(stats)

    def run(self, stats: Optional[HkStats] = None) -> Optional[Counterexample]:
        """Examine the pairs from `head` on, up to the first conflict."""
        start = self.head
        ce = self._examine()
        if stats is not None:
            stats.pairs_visited += self.head - start + (ce is not None)
        return ce

    def _examine(self) -> Optional[Counterexample]:
        a, b, partitioner = self.a, self.b, self.partitioner
        order, parents = self.order, self.parents
        j = self.head
        try:
            while j < len(order):
                qa, qb = order[j]
                da, db = a.dists[qa], b.dists[qb]
                if da.label(partitioner) != db.label(partitioner):
                    return Counterexample(self._path(j), _conflict_kind(da, db))
                # labels matched, so under a support-respecting partitioner the
                # supports coincide and no one-sided symbol can exist; guard anyway
                if da.support() != db.support():
                    return Counterexample(self._path(j), CeKind.SUPPORT_MISMATCH)
                for s in sorted(da.support()):
                    ta, tb = a.trans[qa][s], b.trans[qb][s]
                    if ta is None or tb is None:
                        # unreachable: supports matched and in-support transitions exist
                        return Counterexample(self._path(j) + (s,), CeKind.SUPPORT_MISMATCH)
                    pair = (ta, tb)
                    if pair not in parents:
                        parents[pair] = (j, s)
                        order.append(pair)
                j += 1
            return None
        finally:
            self.head = j

    def _path(self, j: int) -> String:
        """The string that leads to the j-th pair."""
        out = []
        while True:
            j, s = self.parents[self.order[j]]
            if j < 0:
                return tuple(reversed(out))
            out.append(s)


def hk_equiv(
    a: Pdfa,
    b: Pdfa,
    partitioner: Partitioner,
    stats: Optional[HkStats] = None,
) -> Optional[Counterexample]:
    """Compare two PDFA modulo the partitioner; None means equivalent.

    Only the defined fragments are compared: successors are explored for
    symbols in the mutual support, and the verdict is None iff the automata
    agree (labels and definedness) on every mutually defined string.
    """
    return PairSearch(a, b, partitioner).run(stats)


def shortest_defined_ce_prefix(
    model: LanguageModel, hypothesis: Pdfa, partitioner: Partitioner, gamma: String
) -> String:
    """Shortest prefix of gamma on which model and hypothesis disagree.

    Requires gamma to be defined in the hypothesis and to be a genuine
    counterexample (labels differ at gamma, where an undefined model answer
    counts as the reserved zero class). The returned prefix is always
    defined in the model: a disagreement whose model answer is undefined is
    preceded by a support disagreement one step earlier. The model is asked
    gamma, then each prefix up to the first disagreement: one cursor's fold.
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
    cursor = model.start()
    for j, dist in enumerate(hyp_dists):
        model_dist = None if cursor is None else model.dist(cursor)
        model_label = ZERO_CLASS if model_dist is None else model_dist.label(partitioner)
        if model_label != dist.label(partitioner):
            if model_label is ZERO_CLASS:
                raise NotACounterexampleError(
                    "first disagreement is model-undefined; supports were inconsistent earlier"
                )
            return gamma[:j]
        if j < len(gamma):
            cursor = model.step(cursor, gamma[j])
    raise NotACounterexampleError("no disagreeing prefix found")
