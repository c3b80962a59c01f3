"""Equivalence checking between PDFA modulo a simplex equivalence.

The checker explores reachable state pairs breadth-first, which makes every
returned counterexample a shortest conflicting witness. Only mutually
supported symbols are traversed, so the witness is defined in both automata
up to the conflict: zero-probability transitions are never walked.
"""

from __future__ import annotations

import collections
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
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("cannot compare PDFA over different alphabets")
    start = (a.initial, b.initial)
    parents: dict[tuple[int, int], tuple[Optional[tuple[int, int]], int]] = {start: (None, -1)}
    queue = collections.deque([start])

    def rebuild(pair) -> String:
        out = []
        while True:
            prev, sym = parents[pair]
            if prev is None:
                return tuple(reversed(out))
            out.append(sym)
            pair = prev

    while queue:
        qa, qb = queue.popleft()
        if stats is not None:
            stats.pairs_visited += 1
        da, db = a.dists[qa], b.dists[qb]
        if da.label(partitioner) != db.label(partitioner):
            return Counterexample(rebuild((qa, qb)), _conflict_kind(da, db))
        # labels matched, so under a support-respecting partitioner the
        # supports coincide and no one-sided symbol can exist; guard anyway
        if da.support() != db.support():
            return Counterexample(rebuild((qa, qb)), CeKind.SUPPORT_MISMATCH)
        for s in sorted(da.support()):
            ta, tb = a.trans[qa][s], b.trans[qb][s]
            if ta is None or tb is None:
                # unreachable: supports matched and in-support transitions exist
                return Counterexample(rebuild((qa, qb)) + (s,), CeKind.SUPPORT_MISMATCH)
            pair = (ta, tb)
            if pair not in parents:
                parents[pair] = ((qa, qb), s)
                queue.append(pair)
    return None


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
