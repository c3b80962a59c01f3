"""Membership/equivalence oracles backed by a PDFA or a black-box model."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .automata import UNSET, LanguageModel, MemoModel, Pdfa, Prefix, is_defined, next_dist
from .equivcheck import Counterexample, PairSearch, _conflict_kind
from .errors import ModelFailureError, NotACounterexampleError, PdfaError, TransportError
from .simplex import Distribution, Partitioner, ZERO_CLASS


class Teacher:
    """Answer membership (mq) and equivalence (eq) queries.

    mq returns the next-symbol distribution of the hidden model, or None
    when the teacher reports the string as undefined. eq returns None for
    equivalence or a counterexample that is always defined in the
    hypothesis. Counters track oracle usage.
    """

    def __init__(self, alphabet, partitioner: Partitioner):
        self.alphabet = alphabet
        self.partitioner = partitioner
        self.mq_count = 0
        self.eq_count = 0
        self.last_ce_length: Optional[int] = None

    def mq(self, u) -> Optional[Distribution]:
        raise NotImplementedError

    def prefetch(self, prefix, symbols) -> None:
        """Notice that mq(prefix + (s,)) follows for every s in `symbols`.

        A teacher that can ask its model about them together does so here;
        mq's counts and answers stay the same.
        """

    def eq(self, hypothesis: Pdfa, partitioner: Optional[Partitioner] = None):
        raise NotImplementedError

    def _record_ce(self, hypothesis: Pdfa, ce: Optional[Counterexample]):
        if ce is not None:
            self.last_ce_length = len(ce.gamma)
            assert is_defined(hypothesis.language_model(), ce.gamma), (
                "equivalence oracle returned a counterexample undefined in the hypothesis"
            )
        return ce


class ExactTeacher(Teacher):
    """Answers every membership query from an explicit target PDFA."""

    def __init__(self, target: Pdfa, partitioner: Partitioner):
        super().__init__(target.alphabet, partitioner)
        self.target = target
        self._search: Optional[PairSearch] = None

    def mq(self, u) -> Optional[Distribution]:
        self.mq_count += 1
        return next_dist(self.target, u)

    def eq(self, hypothesis: Pdfa, partitioner: Optional[Partitioner] = None):
        """hk_equiv(target, hypothesis), resuming the previous call's pair
        search: a hypothesis that keeps its states' numbers, as the
        learner's do, is searched again only from its first changed state."""
        self.eq_count += 1
        partitioner = partitioner or self.partitioner
        if self._search is None:
            self._search = PairSearch(self.target, hypothesis, partitioner)
            ce = self._search.run()
        else:
            ce = self._search.resume(hypothesis, partitioner)
        return self._record_ce(hypothesis, ce)


class FilterTeacher(ExactTeacher):
    """Like ExactTeacher but reports strings through zero transitions as undefined."""

    def __init__(self, target: Pdfa, partitioner: Partitioner):
        super().__init__(target, partitioner)
        self._lm = target.language_model()

    def mq(self, u) -> Optional[Distribution]:
        self.mq_count += 1
        return self._lm.next(tuple(u))


@dataclass(frozen=True)
class PacParams:
    """Sampling-based equivalence parameters.

    On its i-th call (i = 1, 2, ...), the oracle draws
    ceil((1/epsilon) * (ln(1/delta) + i * ln 2)) strings.
    """

    epsilon: float = 0.05
    delta: float = 0.05
    max_len: int = 50

    def __post_init__(self):
        if not 0 < self.epsilon < 1 or not 0 < self.delta < 1:
            raise ValueError("epsilon and delta must lie in (0, 1)")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")

    def sample_count(self, round_index: int) -> int:
        return math.ceil((math.log(1 / self.delta) + round_index * math.log(2)) / self.epsilon)


class PacTeacher(Teacher):
    """Black-box teacher: eq samples random walks over the hypothesis.

    Every sampled string is generated from the hypothesis' own
    distributions, so all its prefixes are defined in the hypothesis and any
    disagreement with the model yields a valid counterexample directly.
    The model is asked once per distinct string, through a memo shared by
    membership and equivalence queries; `prefetch` asks a built row's
    strings together. A model undefined at u·s, where its answer for u
    allows s, has died: reading that answer raises ModelFailureError.
    """

    def __init__(self, model: LanguageModel, partitioner: Partitioner, params: PacParams, seed=0):
        super().__init__(model.alphabet, partitioner)
        self.model = model
        self.params = params
        self._rng = np.random.default_rng(seed)
        self._round = 1

        def ask(u) -> Optional[Distribution]:
            try:
                return model.next(u)
            except (TransportError, PdfaError) as exc:
                raise ModelFailureError(u, exc) from exc

        self._memo = MemoModel(model.alphabet, ask)

    @property
    def model_query_count(self) -> int:
        return self._memo.misses

    def mq(self, u) -> Optional[Distribution]:
        self.mq_count += 1
        u = tuple(u)
        if not u:
            return self._memo.value(self._memo.root)
        return self._child(self._memo.root.find(u[:-1]), u[-1]).value

    def _child(self, node: Prefix, s: int) -> Prefix:
        """node's child on s, with its answer read: None there, where node's
        answer has s in its support, is the model dying on s."""
        child = node.child(s)
        dist = child.value
        if dist is UNSET:
            dist = self._memo.value(child)
        if dist is None and isinstance(node.value, Distribution) and s in node.value.support():
            raise ModelFailureError(child.string, f"model undefined after symbol {s}, which its support allows")
        return child

    def prefetch(self, prefix, symbols) -> None:
        """Ask the model about the strings prefix·s the memo lacks in one
        `next_many` call. It counts them as misses, as `mq` would; if the
        call fails, nothing is kept and `mq` asks them one at a time."""
        node = self._memo.root.find(prefix)
        todo = [child for child in map(node.child, symbols) if child.value is UNSET]
        if not todo:
            return
        try:
            answers = self.model.next_many([child.string for child in todo])
        except (TransportError, PdfaError):
            return
        for child, dist in zip(todo, answers):
            child.value = dist
        self._memo.misses += len(todo)

    def _walk(self, hypothesis: Pdfa) -> tuple:
        q = hypothesis.initial
        u = ()
        term = hypothesis.alphabet.terminal_index
        while len(u) < self.params.max_len:
            s = hypothesis.dists[q].draw(self._rng)
            if s == term:
                return u
            u = u + (s,)
            q = hypothesis.trans[q][s]
        return u

    def eq(self, hypothesis: Pdfa, partitioner: Optional[Partitioner] = None):
        partitioner = partitioner or self.partitioner
        self.eq_count += 1
        n = self.params.sample_count(self._round)
        self._round += 1
        for _ in range(n):
            u = self._walk(hypothesis)
            # the sample follows the hypothesis' supports, so its state is
            # defined at every prefix
            node, q = self._memo.root, hypothesis.initial
            self._memo.value(node)
            for s in [*u, None]:
                dist = node.value
                model_label = ZERO_CLASS if dist is None else dist.label(partitioner)
                if model_label != hypothesis.dists[q].label(partitioner):
                    # the first disagreeing prefix of the sample, and so the shortest
                    if dist is None:
                        raise NotACounterexampleError(
                            "first disagreement is model-undefined; supports were inconsistent earlier"
                        )
                    kind = _conflict_kind(dist, hypothesis.dists[q])
                    return self._record_ce(hypothesis, Counterexample(node.string, kind))
                if s is not None:
                    node, q = self._child(node, s), hypothesis.trans[q][s]
        return None


def exact_teacher(target: Pdfa, partitioner: Partitioner) -> ExactTeacher:
    """Teacher that answers every query, including zero-probability paths."""
    return ExactTeacher(target, partitioner)


def filter_teacher(target: Pdfa, partitioner: Partitioner) -> FilterTeacher:
    """Teacher that flags membership queries through zero transitions as undefined."""
    return FilterTeacher(target, partitioner)


def pac_teacher(
    model: LanguageModel, partitioner: Partitioner, params: PacParams, seed=0
) -> PacTeacher:
    """Sampling-based teacher for models without an explicit automaton."""
    return PacTeacher(model, partitioner, params, seed)
