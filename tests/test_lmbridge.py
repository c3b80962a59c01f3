"""Token models, symbol maps, the token-product bridge, and the wire protocol."""

import re

import pytest

from pdfalearn.automata import Pdfa
from pdfalearn.errors import ModelFailureError, ParseFailureError, ProtocolError, TransportError, VocabMismatchError
from pdfalearn.lmbridge import (
    BATCH_PATH,
    MAX_REQUEST_BYTES,
    PdfaTokenModel,
    SymbolMap,
    TokenModel,
    TokenModelServer,
    identity_symbol_map,
    load_symbol_map,
    pdfa_token_model,
    remote_token_model,
    save_symbol_map,
    symbol_model,
)
from pdfalearn.simplex import Alphabet, Distribution


@pytest.fixture(scope="module")
def token_target(ab_alphabet=None):
    # three-token vocabulary over the loop automaton's alphabet
    ab = Alphabet(("a", "b"))
    pdfa = Pdfa(
        ab,
        (
            Distribution.from_map(ab, {"a": 0.3, "b": 0.7, "$": 0.0}),
            Distribution.from_map(ab, {"a": 0.6, "b": 0.0, "$": 0.4}),
            Distribution.from_map(ab, {"a": 0.4, "b": 0.4, "$": 0.2}),
        ),
        ((1, 2), (1, 1), (2, 2)),
    )
    return pdfa


def test_token_model_initial_distribution(token_target):
    tm = pdfa_token_model(token_target)
    out = tm.next_tokens(())
    assert out == {2: 0.3, 3: 0.7, 1: 0.0}
    assert tm.next_tokens((tm.bos,)) == out  # BOS prefix is transparent


def test_token_model_rejects_unknown_tokens(token_target):
    tm = pdfa_token_model(token_target)
    with pytest.raises(VocabMismatchError):
        tm.next_tokens((99,))


def test_identity_bridge_matches_pdfa(token_target):
    tm = pdfa_token_model(token_target)
    lm = symbol_model(tm, identity_symbol_map(token_target.alphabet), token_target.alphabet)
    ref = token_target.language_model()
    stack = [()]
    checked = 0
    while stack:
        u = stack.pop()
        got, want = lm.next(u), ref.next(u)
        assert (got is None) == (want is None)
        if want is not None:
            for i in range(len(want.probs)):
                assert got.probs[i] == pytest.approx(float(want.probs[i]), abs=1e-12)
            checked += 1
            if len(u) < 8:
                stack.extend(u + (s,) for s in want.support())
    assert checked > 10


def test_multi_token_product_before_renormalization():
    """x spans tokens (2,3) with step probs 0.5 then 0.4: raw mass 0.2."""
    toks = Alphabet(("t2", "t3", "t4"))
    token_pdfa = Pdfa(
        toks,
        (
            Distribution.from_map(toks, {"t2": 0.5, "t4": 0.3, "$": 0.2}),
            Distribution.from_map(toks, {"t3": 0.4, "t4": 0.35, "$": 0.25}),
            Distribution.from_map(toks, {"$": 1.0}),
        ),
        ((1, 2, 2), (2, 2, 2), (2, 2, 2)),
    )
    tm = pdfa_token_model(token_pdfa, token_ids=[2, 3, 4])
    symbols = Alphabet(("x", "y"))
    smap = SymbolMap((("x", "x", (2, 3)), ("y", "y", (4,))))
    lm = symbol_model(tm, smap, symbols)
    out = lm.next(())
    # raw masses: x = 0.5*0.4 = 0.2, y = 0.3, terminal = 0.2 -> total 0.7
    assert out.prob(0) == pytest.approx(0.2 / 0.7)
    assert out.prob(1) == pytest.approx(0.3 / 0.7)
    assert out.terminal_prob == pytest.approx(0.2 / 0.7)


def test_token_sequence_choice_changes_probabilities():
    """The same character string under two tokenizations yields different values."""
    toks = Alphabet(("t9007", "t1150", "t291", "t500"))
    token_pdfa = Pdfa(
        toks,
        (
            Distribution.from_map(toks, {"t9007": 0.1, "t1150": 0.6, "$": 0.3}),
            Distribution.from_map(toks, {"t291": 0.5, "$": 0.5}),
            Distribution.from_map(toks, {"t500": 0.8, "$": 0.2}),
            Distribution.from_map(toks, {"$": 1.0}),
        ),
        ((3, 1, 3, 3), (3, 3, 2, 3), (3, 3, 3, 3), (3, 3, 3, 3)),
    )
    tm = pdfa_token_model(token_pdfa, token_ids=[9007, 1150, 291, 500])
    symbols = Alphabet(("medicine",))
    one_piece = symbol_model(tm, SymbolMap((("medicine", " medicine", (9007,)),)), symbols)
    three_piece = symbol_model(
        tm, SymbolMap((("medicine", "medicine", (1150, 291, 500)),)), symbols
    )
    p1 = one_piece.next(())
    p3 = three_piece.next(())
    # raw masses 0.1 vs 0.6*0.5*0.8 = 0.24; same EOS mass 0.3
    assert p1.prob(0) == pytest.approx(0.1 / 0.4)
    assert p3.prob(0) == pytest.approx(0.24 / 0.54)
    assert p1.prob(0) != p3.prob(0)


def test_zero_token_step_kills_the_symbol():
    """A zero factor in a symbol's token product removes it from the support."""
    toks = Alphabet(("t2", "t3"))
    token_pdfa = Pdfa(
        toks,
        (
            Distribution.from_map(toks, {"t2": 0.7, "$": 0.3}),  # t3 impossible here
            Distribution.from_map(toks, {"$": 1.0}),
        ),
        ((1, 1), (1, 1)),
    )
    tm = pdfa_token_model(token_pdfa, token_ids=[2, 3])
    symbols = Alphabet(("x", "z"))
    smap = SymbolMap((("x", "x", (2,)), ("z", "z", (2, 3))))  # z's second step has prob 0
    lm = symbol_model(tm, smap, symbols)
    out = lm.next(())
    assert out.prob(symbols.index("z")) == 0
    assert symbols.index("z") not in out.support()
    assert out.prob(symbols.index("x")) == pytest.approx(0.7)


def test_vocab_mismatch_detected(token_target):
    tm = pdfa_token_model(token_target)
    bad = SymbolMap((("a", "a", (2,)), ("b", "b", (999,))))
    with pytest.raises(VocabMismatchError):
        symbol_model(tm, bad, token_target.alphabet)


@pytest.mark.parametrize("name, token", [("BOS", 0), ("EOS", 1)])
def test_a_symbol_may_not_use_the_bos_or_eos_token(token_target, name, token):
    """Such a symbol's products would count the token's mass as the symbol's."""
    tm = pdfa_token_model(token_target)
    bad = SymbolMap((("a", "a", (2,)), ("b", "b", (token,))))
    with pytest.raises(VocabMismatchError, match=f"{name} token {token}"):
        symbol_model(tm, bad, token_target.alphabet)


def test_symbol_map_round_trip(tmp_path):
    smap = SymbolMap((("x", "ex", (2, 3)), ("y", "why", (4,))))
    path = tmp_path / "map.tsv"
    save_symbol_map(smap, path)
    assert load_symbol_map(path) == smap


@pytest.mark.parametrize(
    "line, name",
    [("a\tb\t4", "'a'"), ("$\tend\t4", "'$'"), ("\tnone\t4", "''"), ("c d\tcd\t4", "'c d'")],
)
def test_symbol_map_rejects_names_that_are_not_alphabet_symbols(tmp_path, line, name):
    path = tmp_path / "map.tsv"
    path.write_text("# symbol map\na\ta\t2\nb\tb\t3\n" + line + "\n")
    with pytest.raises(ParseFailureError, match=rf"^{re.escape(str(path))}:4: bad or repeated symbol name {re.escape(name)}$"):
        load_symbol_map(path)


def test_symbol_map_names_starting_with_a_hash_are_rejected_on_both_sides(tmp_path):
    path = tmp_path / "map.tsv"
    with pytest.raises(ParseFailureError, match=rf"^{re.escape(str(path))}: bad or repeated symbol name '#x'$"):
        save_symbol_map(SymbolMap((("a", "a", (2,)), ("#x", "x", (3,)))), path)
    assert not path.exists()  # nothing is written
    path.write_text("# symbol map\n#\n#\tcommented out\na\ta\t2\n#x\tx\t3\n")
    with pytest.raises(ParseFailureError, match=rf"^{re.escape(str(path))}:5: bad or repeated symbol name '#x'$"):
        load_symbol_map(path)
    path.write_text("# symbol map\n#\n#\tcommented out\n# b\tb\t3\na\ta\t2\n")
    assert load_symbol_map(path) == SymbolMap((("a", "a", (2,)),))


def test_symbol_map_duplicate_sequences_logged(caplog):
    with caplog.at_level("WARNING", logger="pdfalearn.lmbridge"):
        SymbolMap((("x", "x", (2,)), ("y", "y", (2,))))
    assert any("share the token sequence" in r.message for r in caplog.records)


# --- wire protocol ---

def test_remote_round_trip(token_target):
    tm = pdfa_token_model(token_target)
    with TokenModelServer(tm) as server, remote_token_model(server.url) as client:
        assert client.next_tokens(()) == tm.next_tokens(())
        assert client.next_tokens((2,)) == tm.next_tokens((2,))
        contexts = [(2,), (), (0, 3, 2)]
        assert client.next_tokens_many(contexts) == [tm.next_tokens(c) for c in contexts]
    assert client.request_count == 3  # a batch is one request


class RecordingServed(PdfaTokenModel):
    """A served token model that records every context it answers."""

    def __init__(self, pdfa, token_ids=None):
        super().__init__(pdfa, token_ids)
        self.asked = []

    def next_tokens(self, context):
        self.asked.append(tuple(context))
        return super().next_tokens(context)


def test_learning_through_the_bridge_asks_the_server_each_context_once(token_target):
    """The client keeps no answers: the bridge's trie asks each context once, and asking again costs no request."""
    from pdfalearn.learner import learn
    from pdfalearn.simplex import ExactPartitioner
    from pdfalearn.teacher import PacParams, pac_teacher

    served = RecordingServed(token_target)
    with TokenModelServer(served) as server, remote_token_model(server.url) as client:
        model = symbol_model(client, identity_symbol_map(token_target.alphabet), token_target.alphabet)
        teacher = pac_teacher(model, ExactPartitioner(), PacParams(max_len=20), seed=2)
        learn(teacher, ExactPartitioner())
        strings = [()]
        for u in strings:
            if len(u) < 4:
                strings.extend(u + (s,) for s in range(token_target.alphabet.size))
        first = [model.next(u) for u in strings]
        before = client.request_count
        assert [model.next(u) for u in strings] == first
        assert client.request_count == before
    assert len(served.asked) > 10
    assert len(served.asked) == len(set(served.asked))


def test_remote_rejects_unnormalized_payload():
    class Broken(PdfaTokenModel):
        def next_tokens(self, context):
            return {2: 0.5, 3: 0.48}  # sums to 0.98

    ab = Alphabet(("a", "b"))
    inner = Pdfa(
        ab,
        (Distribution.from_map(ab, {"a": 0.5, "b": 0.5}),),
        ((0, 0),),
    )
    with TokenModelServer(Broken(inner)) as server, remote_token_model(server.url) as client:
        with pytest.raises(ProtocolError):
            client.next_tokens(())


@pytest.mark.parametrize("probs", [{2: float("nan"), 3: 0.5, 1: 0.5}, {2: float("nan"), 3: 1.0}])
def test_remote_rejects_nan_probabilities(token_target, probs):
    class Nan(PdfaTokenModel):
        def next_tokens(self, context):
            return probs

    with TokenModelServer(Nan(token_target)) as server, remote_token_model(server.url) as client:
        with pytest.raises(ProtocolError, match="NaN"):
            client.next_tokens(())


def test_remote_model_error_fails_at_once_with_the_servers_detail():
    """A 4xx is the model's own answer: no retry, and its detail reaches the caller."""

    class Failing(PdfaTokenModel):
        calls = 0

        def next_tokens(self, context):
            Failing.calls += 1
            raise ValueError("context runs past the model's window → 2 tokens")

    ab = Alphabet(("a", "b"))
    inner = Pdfa(ab, (Distribution.from_map(ab, {"a": 0.5, "b": 0.5}),), ((0, 0),))
    with TokenModelServer(Failing(inner)) as server:
        with remote_token_model(server.url, retries=3) as client:
            with pytest.raises(ModelFailureError, match="context runs past the model's window → 2 tokens") as err:
                client.next_tokens((0, 2))
    assert Failing.calls == 1
    assert client.request_count == 1
    assert "HTTP 400" in str(err.value) and err.value.prefix == (0, 2)


def test_remote_model_error_in_a_batch_names_its_context():
    """A model error on one context of a batch fails the batch at once, naming that context."""

    class FailsOnOne(PdfaTokenModel):
        calls = 0

        def next_tokens(self, context):
            FailsOnOne.calls += 1
            if tuple(context) == (0, 2, 3):
                raise ValueError("context runs past the model's window")
            return super().next_tokens(context)

    ab = Alphabet(("a", "b"))
    inner = Pdfa(ab, (Distribution.from_map(ab, {"a": 0.5, "b": 0.5}),), ((0, 0),))
    with TokenModelServer(FailsOnOne(inner)) as server:
        with remote_token_model(server.url, retries=3) as client:
            with pytest.raises(ModelFailureError, match="context runs past the model's window") as err:
                client.next_tokens_many([(0,), (0, 2), (0, 2, 3), (0, 3)])
    assert FailsOnOne.calls == 3  # answered in order up to the failing context
    assert client.request_count == 1
    assert "HTTP 400" in str(err.value) and err.value.prefix == (0, 2, 3)


def test_remote_transport_error_after_retries():
    with remote_token_model("http://127.0.0.1:9", retries=2, timeout=0.2) as client:
        with pytest.raises(TransportError):
            client.next_tokens(())


def test_learning_through_fresh_clients_is_cache_transparent(token_target):
    """Two cold-cache clients with the same seed learn identical automata."""
    from pdfalearn.automata import isomorphic
    from pdfalearn.learner import learn
    from pdfalearn.simplex import ExactPartitioner
    from pdfalearn.teacher import PacParams, pac_teacher

    tm = pdfa_token_model(token_target)
    smap = identity_symbol_map(token_target.alphabet)
    results = []
    counts = []
    with TokenModelServer(tm) as server:
        for _ in range(2):
            with remote_token_model(server.url) as client:
                model = symbol_model(client, smap, token_target.alphabet)
                teacher = pac_teacher(
                    model, ExactPartitioner(), PacParams(epsilon=0.05, delta=0.05, max_len=20), seed=2
                )
                results.append(learn(teacher, ExactPartitioner()))
                counts.append((teacher.mq_count, teacher.eq_count))
    assert isomorphic(results[0], results[1])
    assert counts[0] == counts[1]


def test_remote_requests_share_one_kept_alive_connection(token_target):
    tm = pdfa_token_model(token_target)
    server = TokenModelServer(tm)
    accepted = []
    process_request = server._server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    server._server.process_request = counting
    with server, remote_token_model(server.url) as client:
        for k in range(20):
            assert client.next_tokens((2,) * k) == tm.next_tokens((2,) * k)
    assert client.request_count == 20
    assert len(accepted) == 1


def test_remote_client_reconnects_after_the_server_drops_its_connection(token_target):
    """A kept-alive connection that the server dropped costs one retry, not a failure."""
    tm = pdfa_token_model(token_target)
    first = TokenModelServer(tm)
    port = first._server.server_address[1]
    with remote_token_model(first.url) as client:
        with first:
            assert client.next_tokens(()) == tm.next_tokens(())
        with TokenModelServer(tm, port=port):
            assert client.next_tokens((2,)) == tm.next_tokens((2,))
    assert client.request_count == 3  # one request, then a failed attempt and its retry


def _raw_exchange(url: str, request: bytes) -> tuple[int, dict, bytes]:
    """Send raw bytes and read until the server closes: status, headers, body."""
    import socket

    host, port = url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=2) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.lower().split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


@pytest.mark.parametrize(
    "content_length, body",
    [
        pytest.param(None, b'{"contexts": "23"}', id="batch-string-contexts"),
        pytest.param(None, b'{"contexts": [2, 3]}', id="batch-context-not-a-list"),
        pytest.param(None, b'{"context": [2, 3]}', id="batch-without-contexts"),
        pytest.param(None, b'{"contexts": [[2], [2, "3"]]}', id="batch-string-token"),
        pytest.param(None, b'{"contexts": [[2.5]]}', id="batch-float-token"),
        pytest.param(
            None, b'{"contexts": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", id="batch-nested-past-json-depth"
        ),
        pytest.param(None, b'{"contexts": ["23"]}', id="string-context"),  # would iterate into digits
        pytest.param("-1", b'{"contexts": [[]]}', id="negative-length"),  # read(-1) waits for hang-up
        pytest.param("12abc", b'{"contexts": [[]]}', id="non-integer-length"),
        pytest.param(str(1 << 62), b'{"contexts": [[]]}', id="unallocatable-length"),
        pytest.param(str(MAX_REQUEST_BYTES + 1), b'{"contexts": [[]]}', id="batch-over-max-request-bytes"),
    ],
)
def test_server_answers_a_malformed_batch_400_and_closes(token_target, content_length, body):
    _assert_400_and_closed(token_target, BATCH_PATH, content_length, body)


def _assert_400_and_closed(token_target, path, content_length, body):
    import json

    length = str(len(body)) if content_length is None else content_length
    request = (
        f"POST {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode() + body
    with TokenModelServer(pdfa_token_model(token_target)) as server:
        status, headers, reply = _raw_exchange(server.url, request)
    assert status == 400
    assert headers.get("connection") == "close"
    assert "error" in json.loads(reply)


# --- batched asks against the one-context-per-request path ---


class CountingRows(tuple):
    """A transition table that counts the rows read, one per automaton step."""

    reads = 0

    def __getitem__(self, q):
        self.reads += 1
        return tuple.__getitem__(self, q)


def test_pdfa_token_model_steps_from_the_parents_state(token_target):
    """The first query of an L-symbol string steps the token automaton about
    L times in all, not once per symbol of every prefix."""
    rows = CountingRows(token_target.trans)
    tm = pdfa_token_model(Pdfa(token_target.alphabet, token_target.dists, rows))
    lm = symbol_model(tm, identity_symbol_map(token_target.alphabet), token_target.alphabet)
    length = 1000
    assert lm.next((0,) * length) is not None  # a, then a's loop with probability 0.6
    assert rows.reads <= 2 * length
    # a context whose parent was never asked walks from the start, without recursion
    deep = (tm.bos,) + (3,) * 5000
    assert tm.next_tokens(deep) == tm.next_tokens((3,) * 2)


class NextOnly(TokenModel):
    """A token model with `next_tokens` alone: one request per context."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.bos = inner.bos
        self.eos = inner.eos

    def next_tokens(self, context):
        return self.inner.next_tokens(context)


class Unprefetched:
    """A duck-typed teacher that forwards queries and has no `prefetch`."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet

    @property
    def mq_count(self):
        return self.inner.mq_count

    def mq(self, u):
        return self.inner.mq(u)

    def eq(self, hypothesis, partitioner=None):
        return self.inner.eq(hypothesis, partitioner)


def _served_pipelines():
    """Criterion 9's pipeline, then ten seeded served models behind a
    multi-token symbol map, a guide and top-p, as in a served-model run."""
    from test_acceptance import _hermetic_setup

    from pdfalearn.automata import GuideAutomaton
    from pdfalearn.randgen import GenSpec, random_pdfa
    from pdfalearn.simplex import ExactPartitioner, QuantizationPartitioner, TopP
    from pdfalearn.teacher import PacParams

    symbols, _, token_pdfa, smap = _hermetic_setup()
    yield token_pdfa, [2, 3, 4], smap, symbols, None, ExactPartitioner(), PacParams(0.02, 0.02, 30), 13
    pqr = Alphabet(("p", "q", "r"))
    smap = SymbolMap((("p", "p", (2,)), ("q", "q", (3, 4)), ("r", "r", (5, 2, 3))))
    # stages 0 and 1 allow p, q, r; stage 2 only termination; 3 is dead
    masks = ((1, 1, 1, 0), (1, 1, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    guide = GuideAutomaton(pqr, masks, ((1, 1, 1), (2, 2, 2), (3, 3, 3), (3, 3, 3)))
    for seed in range(10):
        tokens = random_pdfa(GenSpec(n=20, m=4, theta=0.0, seed=500 + seed))
        params = PacParams(epsilon=0.05, delta=0.05, max_len=30)
        yield tokens, None, smap, pqr, (guide, TopP(0.9)), QuantizationPartitioner(10), params, seed


def _learn_served(served, smap, symbols, composed, partitioner, params, seed, batched):
    from pdfalearn.automata import compose
    from pdfalearn.learner import learn
    from pdfalearn.teacher import pac_teacher

    served.asked.clear()
    with TokenModelServer(served) as server, remote_token_model(server.url) as client:
        model = symbol_model(client if batched else NextOnly(client), smap, symbols)
        if composed is not None:
            model = compose(model, *composed)
        teacher = pac_teacher(model, partitioner, params, seed=seed)
        learned = learn(teacher if batched else Unprefetched(teacher), partitioner)
    asked = list(served.asked)
    return learned, (teacher.mq_count, teacher.eq_count), asked, client.request_count


def test_batched_learning_asks_the_same_contexts_in_fewer_requests():
    """Batching regroups the contexts asked and changes nothing else.

    Criterion 9's pipeline asks as many requests either way: its rows'
    strings were all drawn by equivalence sampling before `build` reaches
    them, and a distribution there needs one context per token depth. Every
    served model behind the guide asks fewer."""
    from pdfalearn.automata import isomorphic

    requests = []
    for tokens, ids, smap, symbols, composed, partitioner, params, seed in _served_pipelines():
        served = RecordingServed(tokens, ids)
        args = (served, smap, symbols, composed, partitioner, params, seed)
        learned, counts, asked, batched = _learn_served(*args, batched=True)
        oracle, oracle_counts, oracle_asked, one_each = _learn_served(*args, batched=False)
        assert isomorphic(learned, oracle)
        assert counts == oracle_counts
        assert set(asked) == set(oracle_asked)
        assert len(asked) == len(set(asked)) and len(oracle_asked) == len(set(oracle_asked))
        assert one_each == len(oracle_asked)
        requests.append((batched, one_each))
    assert len(requests) == 11
    assert requests[0][0] <= requests[0][1]
    assert all(batched < one_each for batched, one_each in requests[1:])
