"""The prefix trie under every memoised query layer.

Composition and the token bridge keep their answers on a trie walked in one
loop along the query, where the dict-cached constructions they replace
recursed once per symbol. Those constructions are kept below as oracles:
on seeded strings, including strings through undefined prefixes, both must
return the same distributions after asking the inner model about the same
strings in the same order, or the token model about the same contexts.
"""

from typing import Optional

import numpy as np
import pytest

from pdfalearn.automata import (
    EMPTY,
    UNSET,
    GuideAutomaton,
    LanguageModel,
    MemoModel,
    Prefix,
    _masked,
    compose,
    isomorphic,
)
from pdfalearn.errors import ModelFailureError, TransportError
from pdfalearn.learner import LearnerConfig, learn
from pdfalearn.lmbridge import SymbolMap, TokenModel, pdfa_token_model, symbol_model
from pdfalearn.randgen import GenSpec, random_pdfa
from pdfalearn.simplex import Alphabet, Distribution, ExactPartitioner, TopP, TopR, apply_sampling
from pdfalearn.teacher import PacParams, PacTeacher, pac_teacher

LONG = 3000  # well past the interpreter's default recursion limit


# --- oracles: the recursive, dict-cached constructions ---


class RecursiveComposed(LanguageModel):
    def __init__(self, model, guide, strategy=None):
        self.model = model
        self.guide = guide
        self.strategy = strategy
        self.alphabet = model.alphabet
        self._cache = {}
        self._gstate = {EMPTY: guide.initial}

    def _eval(self, u):
        if u in self._cache:
            return self._cache[u]
        if u:
            parent = self._eval(u[:-1])
            s = u[-1]
            if parent is None or s not in parent.support():
                self._cache[u] = None
                return None
            self._gstate[u] = self.guide.delta[self._gstate[u[:-1]]][s]
        inner = self.model.next(u)
        if inner is None:
            result = None
        else:
            masked = _masked(inner, self.guide.masks[self._gstate[u]])
            result = None if masked is None else apply_sampling(self.strategy, masked)
        self._cache[u] = result
        return result

    def next(self, u):
        return self._eval(tuple(u))


class RecursiveSymbolModel(LanguageModel):
    def __init__(self, tm, smap, alphabet):
        self.tm = tm
        self.alphabet = alphabet
        self.sequences = smap.sequences_for(alphabet)
        self._tok_cache = {}
        self._ctx_cache = {(): (tm.bos,)}

    def _step(self, context):
        if context not in self._tok_cache:
            self._tok_cache[context] = self.tm.next_tokens(context)
        return self._tok_cache[context]

    def _extend(self, context, tokens):
        mass = 1.0
        for t in tokens:
            p = self._step(context).get(t, 0.0)
            if p <= 0:
                return None, 0.0
            mass *= p
            context = context + (t,)
        return context, mass

    def _context(self, u):
        if u in self._ctx_cache:
            return self._ctx_cache[u]
        parent = self._context(u[:-1])
        if parent is None:
            ctx = None
        else:
            ctx, mass = self._extend(parent, self.sequences[u[-1]])
            if mass <= 0:
                ctx = None
        self._ctx_cache[u] = ctx
        return ctx

    def next(self, u):
        u = tuple(u)
        ctx = self._context(u)
        if ctx is None:
            return None
        weights = [self._extend(ctx, seq)[1] for seq in self.sequences]
        weights.append(self._step(ctx).get(self.tm.eos, 0.0))
        total = sum(weights)
        if total <= 0:
            return None
        return Distribution(self.alphabet, tuple(w / total for w in weights))


# --- recording doubles ---


class RecordingModel(LanguageModel):
    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.asked = []

    def next(self, u):
        self.asked.append(tuple(u))
        return self.inner.next(u)


class RecordingTokens(TokenModel):
    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.bos = inner.bos
        self.eos = inner.eos
        self.asked = []

    def next_tokens(self, context):
        self.asked.append(tuple(context))
        return self.inner.next_tokens(context)


class ConstantModel(LanguageModel):
    """The same distribution after every string."""

    def __init__(self, dist: Distribution):
        self.alphabet = dist.alphabet
        self.answer = dist

    def next(self, u) -> Optional[Distribution]:
        return self.answer


class ConstantTokens(TokenModel):
    vocab = frozenset({0, 1, 2})

    def next_tokens(self, context):
        return {2: 0.5, 1: 0.5}


AB = Alphabet(("a", "b"))


def permissive_guide(alphabet):
    m = alphabet.size
    return GuideAutomaton(alphabet, ((1,) * (m + 1),), ((0,) * m,))


def random_guide(alphabet, n, rng):
    m = alphabet.size
    masks = tuple(tuple(int(rng.random() < 0.7) for _ in range(m + 1)) for _ in range(n))
    delta = tuple(tuple(int(rng.integers(n)) for _ in range(m)) for _ in range(n))
    return GuideAutomaton(alphabet, masks, delta)


def seeded_strings(rng, m, count, max_len):
    return [tuple(int(s) for s in rng.integers(m, size=rng.integers(max_len + 1))) for _ in range(count)]


# --- the trie and the memo ---


def test_find_walks_and_creates_children():
    root = Prefix()
    node = root.find((1, 0, 1))
    assert node is root.child(1).child(0).child(1)
    assert node.value is UNSET and root.find(()) is root


def test_nodes_made_by_child_and_by_find_carry_their_path():
    root = Prefix()
    node = root.find((1, 0, 1))
    assert (root.string, node.string) == ((), (1, 0, 1))
    assert root.child(1).string == (1,) and root.child(1).child(0).string == (1, 0)
    assert root.child(0).string == (0,) and root.child(0).find((1, 1)).string == (0, 1, 1)
    # a root with a string of its own prefixes it to every path
    rooted = Prefix((7,))
    assert rooted.find((2, 3)).string == (7, 2, 3) and rooted.child(2).string == (7, 2)


def test_a_find_of_5000_symbols_keeps_its_string_without_recursion():
    u = tuple(i % 3 for i in range(5000))
    root = Prefix()
    assert root.find(u).string == u
    assert root.find(u[:2500]).string == u[:2500]


def test_bridge_nodes_carry_bos_and_their_tokens():
    class Bos5(ConstantTokens):
        bos = 5

    xy = Alphabet(("x", "y"))
    lm = symbol_model(Bos5(), SymbolMap((("x", "x", (2,)), ("y", "y", (2, 2)))), xy)
    root = lm.start()
    end = lm.step(lm.step(root, 1), 0)
    assert (root.string, end.string) == ((5,), (5, 2, 2, 2))
    assert root.child(2).string == (5, 2)  # made inside y's two tokens


def test_memo_asks_each_node_string_once():
    dist = Distribution(AB, (0.5, 0.25, 0.25))
    asked = []
    memo = MemoModel(AB, lambda u: asked.append(u) or dist)
    nodes = [memo.root.find(u) for u in ((), (0,), (0, 1), (1,))]
    for node in nodes + nodes:
        assert memo.value(node) is dist and memo.dist(node) is dist
    assert memo.step(memo.step(memo.start(), 0), 1) is nodes[2]
    assert memo.next((0, 1)) is dist and memo.next([1]) is dist
    assert asked == [(), (0,), (0, 1), (1,)] and memo.misses == 4


def test_memo_asks_once_per_string_and_keeps_no_failure():
    asked = []

    def answer(u):
        asked.append(u)
        if u == (1,):
            raise TransportError("down")
        return len(u)

    memo = MemoModel(AB, answer)
    assert [memo.next(u) for u in ((), (0,), [0], ())] == [0, 1, 1, 0]
    for _ in range(2):
        with pytest.raises(TransportError):
            memo.next((1,))
    assert asked == [(), (0,), (1,), (1,)]
    assert memo.misses == 4


# --- long prefixes ---


def test_compose_answers_a_long_prefix():
    dist = Distribution(AB, (0.5, 0.25, 0.25))
    comp = compose(ConstantModel(dist), permissive_guide(AB))
    assert comp.next((0,) * LONG) == dist
    assert comp.next((0,) * LONG + (1,)) == dist


def test_symbol_model_answers_a_long_prefix():
    one = Alphabet(("x",))
    lm = symbol_model(ConstantTokens(), SymbolMap((("x", "x", (2,)),)), one)
    assert lm.next((0,) * LONG).probs == (0.5, 0.5)


def test_pac_teacher_answers_a_long_prefix_through_composition():
    dist = Distribution(AB, (0.5, 0.25, 0.25))
    inner = RecordingModel(ConstantModel(dist))
    comp = compose(inner, permissive_guide(AB))
    teacher = pac_teacher(comp, ExactPartitioner(), PacParams(), seed=0)
    assert teacher.mq((1,) * LONG) == dist
    assert teacher.mq((1,) * LONG) == dist
    assert teacher.model_query_count == 1
    assert len(inner.asked) == LONG + 1


def test_pac_teacher_wraps_model_failures():
    class Failing(LanguageModel):
        alphabet = AB

        def next(self, u):
            raise TransportError("down")

    teacher = pac_teacher(Failing(), ExactPartitioner(), PacParams(), seed=0)
    with pytest.raises(ModelFailureError):
        teacher.mq((0,))
    assert teacher.model_query_count == 1


# --- differential checks against the oracles ---


@pytest.mark.parametrize("strategy", [None, TopR(2), TopP(0.8)])
@pytest.mark.parametrize("seed", range(4))
def test_compose_matches_the_recursive_construction(seed, strategy):
    rng = np.random.default_rng(seed)
    base = random_pdfa(GenSpec(n=12, m=3, theta=0.3, seed=seed))
    guide = random_guide(base.alphabet, 4, rng)
    new_inner, old_inner = RecordingModel(base.language_model()), RecordingModel(base.language_model())
    new = compose(new_inner, guide, strategy)
    old = RecursiveComposed(old_inner, guide, strategy)
    undefined = 0
    for u in seeded_strings(rng, base.alphabet.size, 300, 8):
        got = new.next(u)
        assert got == old.next(u)
        assert new_inner.asked == old_inner.asked
        undefined += got is None and len(u) > 1
    assert undefined > 20  # many strings pass through undefined prefixes


@pytest.mark.parametrize("seed", range(4))
def test_symbol_model_matches_the_recursive_construction(seed):
    rng = np.random.default_rng(seed + 100)
    tokens = random_pdfa(GenSpec(n=15, m=4, theta=0.3, seed=seed))
    symbols = Alphabet(("x", "y", "z"))
    ids = [2, 3, 4, 5]
    smap = SymbolMap(
        tuple(
            (name, name, tuple(int(t) for t in rng.choice(ids, size=rng.integers(1, 4))))
            for name in symbols.symbols
        )
    )
    new_tm = RecordingTokens(pdfa_token_model(tokens))
    old_tm = RecordingTokens(pdfa_token_model(tokens))
    new = symbol_model(new_tm, smap, symbols)
    old = RecursiveSymbolModel(old_tm, smap, symbols)
    undefined = 0
    for u in seeded_strings(rng, symbols.size, 200, 6):
        got = new.next(u)
        assert got == old.next(u)
        # a distribution asks one token depth per wave, so a symbol of three
        # tokens reorders the asks; the contexts asked are the same
        assert set(new_tm.asked) == set(old_tm.asked)
        assert len(new_tm.asked) == len(set(new_tm.asked))
        undefined += got is None
    assert undefined > 10


# --- cursors that resolve together ---


class BatchRecording(ConstantModel):
    """A next-only model whose cursors are prefixes; records each `dists` call."""

    def __init__(self, dist: Distribution):
        super().__init__(dist)
        self.calls = []

    def dists(self, cursors):
        self.calls.append(list(cursors))
        return super().dists(cursors)


def test_symbol_model_cursor_is_its_trie_node():
    """A step follows the trie and copies no context: the cursor after u is one node, whose context it keeps."""
    one = Alphabet(("x",))
    lm = symbol_model(ConstantTokens(), SymbolMap((("x", "x", (2,)),)), one)

    def fold(u):
        cursor = lm.start()
        for s in u:
            cursor = lm.step(cursor, s)
        return cursor

    end = fold((0,) * LONG)
    assert isinstance(end, Prefix) and fold((0,) * LONG) is end
    assert end.string == (0,) + (2,) * LONG


def test_next_many_folds_every_string_and_resolves_their_ends_in_one_call():
    dist = Distribution(AB, (0.5, 0.25, 0.25))
    inner = BatchRecording(dist)
    comp = compose(inner, permissive_guide(AB))
    assert comp.next_many([(0,), (1,), (0, 1), (0,)]) == [dist] * 4
    # each step needs the distribution it steps from; the ends not yet
    # known come in one inner call
    assert inner.calls == [[()], [(0,)], [(1,), (0, 1)]]
    assert comp.next_many([(1,), ()]) == [dist, dist]
    assert len(inner.calls) == 3


def test_pac_teacher_prefetch_asks_a_row_at_once_and_counts_as_mq_would():
    dist = Distribution(AB, (0.5, 0.25, 0.25))
    inner = BatchRecording(dist)
    teacher = pac_teacher(compose(inner, permissive_guide(AB)), ExactPartitioner(), PacParams(), seed=0)
    assert teacher.mq((0,)) == dist
    teacher.prefetch((0,), [0, 1])
    assert inner.calls[-1] == [(0, 0), (0, 1)]
    assert (teacher.mq_count, teacher.model_query_count) == (1, 3)
    asked = len(inner.calls)
    assert teacher.mq((0, 1)) == teacher.mq((0, 0)) == dist
    teacher.prefetch((0,), [0, 1])
    assert len(inner.calls) == asked
    assert (teacher.mq_count, teacher.model_query_count) == (3, 3)


def test_pac_teacher_prefetch_that_fails_leaves_its_strings_to_mq():
    class Failing(LanguageModel):
        alphabet = AB

        def next(self, u):
            raise TransportError("down")

    teacher = pac_teacher(Failing(), ExactPartitioner(), PacParams(), seed=0)
    teacher.prefetch((), [0, 1])
    assert teacher.model_query_count == 0
    with pytest.raises(ModelFailureError) as err:
        teacher.mq((1,))
    assert err.value.prefix == (1,)


@pytest.mark.parametrize(
    "config", [LearnerConfig(), LearnerConfig(max_queries=10**6), LearnerConfig(max_query_len=10**6)]
)
def test_learn_asks_rows_ahead_only_without_a_guard(config):
    """A guard may refuse a row's later strings, so under a guard nothing is asked ahead."""
    target = random_pdfa(GenSpec(n=10, m=3, theta=0.3, seed=3))
    prefetched = []

    class Watching(PacTeacher):
        def prefetch(self, prefix, symbols):
            prefetched.append((prefix, tuple(symbols)))
            super().prefetch(prefix, symbols)

    teacher = Watching(target.language_model(), ExactPartitioner(), PacParams(max_len=20), 1)
    learned = learn(teacher, ExactPartitioner(), config)
    twin = pac_teacher(target.language_model(), ExactPartitioner(), PacParams(max_len=20), 1)
    assert isomorphic(learned, learn(twin, ExactPartitioner()))
    counts = (teacher.mq_count, teacher.eq_count, teacher.model_query_count)
    assert counts == (twin.mq_count, twin.eq_count, twin.model_query_count)
    assert bool(prefetched) == (config.max_queries is None and config.max_query_len is None)
