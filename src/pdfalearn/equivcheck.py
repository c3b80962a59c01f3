"""Equivalence checking between PDFA modulo a simplex equivalence.

The checker explores reachable state pairs breadth-first, which makes every
returned counterexample a shortest conflicting witness. In zero-avoiding
mode only mutually supported symbols are traversed, so the witness is
defined in both automata up to the conflict; this is the variant the
learner's teachers use.
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
    offsupport_enqueued: int = 0


def _conflict_kind(da, db) -> CeKind:
    if da.support_with_terminal() != db.support_with_terminal():
        return CeKind.SUPPORT_MISMATCH
    return CeKind.DIST_MISMATCH


def hk_equiv(
    a: Pdfa,
    b: Pdfa,
    partitioner: Partitioner,
    zero_avoiding: bool = True,
    stats: Optional[HkStats] = None,
) -> Optional[Counterexample]:
    """Compare two PDFA modulo the partitioner; None means equivalent.

    zero_avoiding=True compares the defined fragments only: successors are
    explored for symbols in the mutual support, and the verdict is None iff
    the automata agree (labels and definedness) on every mutually defined
    string. zero_avoiding=False also walks zero-probability transitions
    wherever both structures define them.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("cannot compare PDFA over different alphabets")
    m = a.alphabet.size
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
        supp_a, supp_b = da.support(), db.support()
        if zero_avoiding:
            symbols = sorted(supp_a & supp_b)
            # labels matched, so under a support-respecting partitioner the
            # supports coincide and no one-sided symbol can exist; guard anyway
            if supp_a != supp_b:
                return Counterexample(rebuild((qa, qb)), CeKind.SUPPORT_MISMATCH)
        else:
            symbols = range(m)
        for s in symbols:
            ta, tb = a.trans[qa][s], b.trans[qb][s]
            if ta is None or tb is None:
                if zero_avoiding:
                    # unreachable: supports matched and in-support transitions exist
                    return Counterexample(rebuild((qa, qb)) + (s,), CeKind.SUPPORT_MISMATCH)
                in_supp = s in supp_a or s in supp_b
                if ta is None and tb is None:
                    continue
                if not in_supp:
                    # a structural zero edge against a missing one carries no mass
                    continue
                return Counterexample(rebuild((qa, qb)) + (s,), CeKind.SUPPORT_MISMATCH)
            if stats is not None and not (s in supp_a and s in supp_b):
                stats.offsupport_enqueued += 1
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
