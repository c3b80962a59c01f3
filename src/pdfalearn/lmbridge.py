"""Token-level model interface and the symbol-to-token probability bridge.

A TokenModel produces next-token distributions over an integer vocabulary
with reserved begin/end markers. A SymbolMap assigns every guide symbol a
nonempty token sequence; the symbol-level view multiplies the model's
step probabilities along each symbol's tokens and renormalizes, so learners
and guides can work over a small symbol alphabet regardless of tokenizer
granularity.

Served models speak a small JSON protocol: POST {"contexts": [[token
ids], ...]} to BATCH_PATH, answered {"probs": [{token id: probability},
...]} in the same order; a model error is 4xx with {"error": detail} and
the "index" of the context that failed. Connections are HTTP/1.1 and kept
alive, one per client; a request the server cannot parse is answered 400
and its connection closed. A symbol-level distribution costs one request
per token depth.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import urlsplit

from .automata import UNSET, LanguageModel, Pdfa, Prefix
from .errors import ModelFailureError, ParseFailureError, ProtocolError, TransportError, VocabMismatchError
from .fileio import read_text
from .simplex import Alphabet, Distribution

logger = logging.getLogger(__name__)

BATCH_PATH = "/v1/next_token_distributions"
SUM_TOLERANCE = 1e-6
MAX_REQUEST_BYTES = 1 << 24


class TokenModel:
    """Next-token distributions over an integer vocabulary.

    vocab may be None when the membership cannot be known client-side
    (remote models). Returned maps must sum to 1 within 1e-6; omitted
    tokens have probability 0.
    """

    vocab: Optional[frozenset[int]] = None
    bos: int = 0
    eos: int = 1

    def next_tokens(self, context: tuple[int, ...]) -> dict[int, float]:
        raise NotImplementedError

    def next_tokens_many(self, contexts: list[tuple[int, ...]]) -> list[dict[int, float]]:
        """next_tokens of every context, in order; a served model answers them in one request."""
        return [self.next_tokens(c) for c in contexts]


class PdfaTokenModel(TokenModel):
    """Fully-defined PDFA over tokens; the test double for a served model.

    It keeps the state of every context it has answered, so a context whose
    parent was asked costs one step.
    """

    def __init__(self, pdfa: Pdfa, token_ids: Optional[list[int]] = None, bos: int = 0, eos: int = 1):
        if not pdfa.is_total():
            raise ValueError("token model needs a fully-defined automaton")
        self.pdfa = pdfa
        self.bos = bos
        self.eos = eos
        self.token_ids = list(token_ids) if token_ids else [i + 2 for i in range(pdfa.alphabet.size)]
        if len(self.token_ids) != pdfa.alphabet.size:
            raise ValueError("need one token id per symbol")
        ids = set(self.token_ids) | {bos, eos}
        if len(ids) != pdfa.alphabet.size + 2:
            raise ValueError("token ids must be distinct from each other and from BOS/EOS")
        self.vocab = frozenset(ids)
        self._sym_of = {t: i for i, t in enumerate(self.token_ids)}
        self._states = {(): pdfa.initial, (bos,): pdfa.initial}  # every context asked so far

    def next_tokens(self, context: tuple[int, ...]) -> dict[int, float]:
        context = tuple(context)
        q = self._states.get(context)
        if q is None:
            # a symbol bridge asks a context's parent before it: one step
            # from the parent's state; any other context walks from the start
            q, rest = self._states.get(context[:-1]), context[-1:]
            if q is None:
                q, rest = self.pdfa.initial, context[1:] if context[:1] == (self.bos,) else context
            try:
                for t in rest:
                    q = self.pdfa.trans[q][self._sym_of[t]]
            except KeyError as exc:
                raise VocabMismatchError(f"token {exc.args[0]} not in vocabulary") from None
            self._states[context] = q
        dist = self.pdfa.dists[q]
        out = {t: float(dist.prob(i)) for i, t in enumerate(self.token_ids)}
        out[self.eos] = float(dist.terminal_prob)
        return out


def pdfa_token_model(pdfa: Pdfa, token_ids: Optional[list[int]] = None, bos: int = 0, eos: int = 1) -> PdfaTokenModel:
    return PdfaTokenModel(pdfa, token_ids, bos, eos)


# ---------------------------------------------------------------------------
# Symbol maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolMap:
    """symbol -> (character string, nonempty token sequence).

    Token sequences need not be injective across symbols; collisions are
    only logged since downstream products can still differ by context.
    """

    entries: tuple[tuple[str, str, tuple[int, ...]], ...]

    def __post_init__(self):
        seen = {}
        for symbol, _, tokens in self.entries:
            if not tokens:
                raise ValueError(f"symbol {symbol!r} maps to an empty token sequence")
            if tokens in seen:
                logger.warning(
                    "symbols %r and %r share the token sequence %r", seen[tokens], symbol, tokens
                )
            seen[tokens] = symbol

    def tok_of(self, symbol: str) -> tuple[int, ...]:
        for name, _, tokens in self.entries:
            if name == symbol:
                return tokens
        raise KeyError(symbol)

    def sequences_for(self, alphabet: Alphabet) -> list[tuple[int, ...]]:
        return [self.tok_of(name) for name in alphabet.symbols]


def identity_symbol_map(alphabet: Alphabet, token_ids: Optional[list[int]] = None) -> SymbolMap:
    """One single-token sequence per symbol, in alphabet order."""
    ids = token_ids or [i + 2 for i in range(alphabet.size)]
    return SymbolMap(tuple((name, name, (t,)) for name, t in zip(alphabet.symbols, ids)))


def _check_symbol_name(name: str, seen, where: str) -> None:
    # `#name` would read back as a comment line
    if name.split() != [name] or name == "$" or name.startswith("#") or name in seen:
        raise ParseFailureError(f"{where}: bad or repeated symbol name {name!r}")


def load_symbol_map(path) -> SymbolMap:
    """Read `symbol<TAB>chars<TAB>comma-separated token ids` lines. Each symbol
    becomes an alphabet name: one word, unique, not the terminal `$` and not
    starting with `#`. A comment line is `#` alone or `#` and a space or tab."""
    entries = {}
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if not line or line == "#" or line[:2] in ("# ", "#\t"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseFailureError(f"{path}:{lineno}: expected 3 tab-separated fields")
        _check_symbol_name(parts[0], entries, f"{path}:{lineno}")
        try:
            tokens = tuple(int(x) for x in parts[2].split(","))
        except ValueError:
            raise ParseFailureError(f"{path}:{lineno}: bad token id list {parts[2]!r}") from None
        entries[parts[0]] = (parts[0], parts[1], tokens)
    if not entries:
        raise ParseFailureError(f"{path}: no symbol entries")
    return SymbolMap(tuple(entries.values()))


def save_symbol_map(smap: SymbolMap, path):
    """Write the lines `load_symbol_map` reads; a name it would not read back is a ParseFailureError."""
    seen = set()
    for symbol, _, _ in smap.entries:
        _check_symbol_name(symbol, seen, str(path))
        seen.add(symbol)
    with open(path, "w", encoding="utf-8") as fh:
        for symbol, chars, tokens in smap.entries:
            fh.write(f"{symbol}\t{chars}\t{','.join(str(t) for t in tokens)}\n")


# ---------------------------------------------------------------------------
# Symbol-level view of a token model
# ---------------------------------------------------------------------------

def _advance(tokens: tuple[int, ...], k: int, node: Prefix, mass: float, ask=None):
    """Multiply the step probabilities of tokens[k:], from node on, into
    mass. Returns (k, node, mass) once the mass is zero or every token is
    multiplied, node then being the last token's context; without `ask`,
    also at the first context not yet asked, which `ask` would answer."""
    while True:
        probs = node.value
        if probs is UNSET:
            if ask is None:
                return k, node, mass
            probs = node.value = ask(node.string)
        mass *= probs.get(tokens[k], 0.0)
        k += 1
        if mass <= 0 or k == len(tokens):
            return k, node, mass
        node = node.child(tokens[k - 1])


class SymbolLanguageModel(LanguageModel):
    """Language model over symbols whose probabilities are token products.

    The cursor is a node on a trie of token contexts, rooted at (BOS,): its
    string is its context and its value, once asked, the token model's
    next-token map there, so each context is asked once. step(c, s) follows
    s's tokens and is None once their step probabilities multiply to zero.
    dist(c)(s) multiplies the step probabilities along s's tokens, the
    terminal takes EOS's, and the masses are renormalized; dist is None
    when they all vanish.

    `step` and `dists` multiply their products through one walk,
    `_advance`. `step` asks each context on its way by itself; `dists`
    resolves its cursors together, one token depth per wave: each wave asks
    every context the products stopped at in one `next_tokens_many` call.
    A product stops at the first token that zeroes it, so the contexts
    asked are those that asking one at a time would ask.
    """

    def __init__(self, tm: TokenModel, smap: SymbolMap, alphabet: Alphabet):
        self.tm = tm
        self.alphabet = alphabet
        self.sequences = smap.sequences_for(alphabet)
        used = {t for seq in self.sequences for t in seq}
        for name, token in (("BOS", tm.bos), ("EOS", tm.eos)):
            if token in used:
                raise VocabMismatchError(f"a symbol's tokens include the model's {name} token {token}")
        if tm.vocab is not None:
            missing = used - set(tm.vocab)
            if missing:
                raise VocabMismatchError(f"tokens {sorted(missing)} not in the model vocabulary")
        # EOS's weight is the one-token product (EOS,)
        self._products = [*self.sequences, (tm.eos,)]
        self._root = Prefix((tm.bos,))

    def start(self) -> Prefix:
        return self._root

    def step(self, node: Prefix, s: int) -> Optional[Prefix]:
        tokens = self.sequences[s]
        _, node, mass = _advance(tokens, 0, node, 1.0, self.tm.next_tokens)
        return node.child(tokens[-1]) if mass > 0 else None

    def dists(self, cursors) -> list[Optional[Distribution]]:
        products = self._products
        weights = [[0.0] * len(products) for _ in cursors]
        # (cursor index, product index, tokens multiplied, node, mass so far)
        walks = [(i, j, 0, node, 1.0) for i, node in enumerate(cursors) for j in range(len(products))]
        while walks:
            waiting = []
            for i, j, k, node, mass in walks:
                tokens = products[j]
                k, node, mass = _advance(tokens, k, node, mass)
                if mass <= 0:
                    continue
                if k == len(tokens):
                    weights[i][j] = mass
                else:
                    waiting.append((i, j, k, node, mass))
            if waiting:
                nodes = list(dict.fromkeys(walk[3] for walk in waiting))
                for node, probs in zip(nodes, self.tm.next_tokens_many([n.string for n in nodes]), strict=True):
                    node.value = probs
            walks = waiting
        out = []
        for row in weights:
            total = sum(row)
            out.append(Distribution(self.alphabet, tuple(w / total for w in row)) if total > 0 else None)
        return out

    def dist(self, node: Prefix) -> Optional[Distribution]:
        return self.dists((node,))[0]


def symbol_model(tm: TokenModel, smap: SymbolMap, alphabet: Alphabet) -> SymbolLanguageModel:
    return SymbolLanguageModel(tm, smap, alphabet)


# ---------------------------------------------------------------------------
# HTTP client and in-repo mock server
# ---------------------------------------------------------------------------

class RemoteTokenModel(TokenModel):
    """Client for a served token model.

    Every fetch is one batch request, a single context a batch of one.
    Requests go over one kept-alive connection, opened on first use and
    opened again after any transport failure. close() releases it; the
    client is also a context manager. It keeps no answers: the symbol
    bridge's trie asks each context once.
    """

    vocab = None

    def __init__(self, endpoint: str, bos: int = 0, eos: int = 1, timeout: float = 10.0, retries: int = 3):
        self.endpoint = endpoint.rstrip("/") + BATCH_PATH
        try:
            url = urlsplit(self.endpoint)
            port = url.port
        except ValueError:  # an unclosed "[" or a port outside 0-65535
            url = None
        if url is None or url.scheme not in ("http", "https") or not url.hostname:
            raise ParseFailureError(f"endpoint {endpoint!r} is not an http:// or https:// URL")
        connection = HTTPSConnection if url.scheme == "https" else HTTPConnection
        self._conn = connection(url.hostname, port, timeout=timeout)
        self._path = url.path
        self.bos = bos
        self.eos = eos
        self.timeout = timeout
        self.retries = retries
        self.request_count = 0
        self._lock = threading.Lock()

    def _fetch(self, contexts: list[tuple[int, ...]]) -> list[dict[int, float]]:
        """Ask the server; only connection errors and 5xx answers are retried."""
        payload = json.dumps({"contexts": [list(c) for c in contexts]}).encode()
        last_error = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(0.05 * 2 ** (attempt - 1))
            self.request_count += 1
            try:
                self._conn.request("POST", self._path, payload, {"Content-Type": "application/json"})
                resp = self._conn.getresponse()
                text = resp.read()
            except (OSError, HTTPException) as exc:
                self._conn.close()  # the next attempt reconnects
                last_error = exc
                continue
            if resp.status >= 500:
                last_error = f"HTTP {resp.status}"
                continue
            if resp.status != 200:  # the model's own answer: asking again repeats it
                detail = text.decode("utf-8", errors="replace")
                raise ModelFailureError(_failed_context(text, contexts), f"HTTP {resp.status}: {detail}")
            try:
                body = json.loads(text)
            except ValueError as exc:
                raise ProtocolError(f"response is not JSON: {exc}") from exc
            probs = body.get("probs") if isinstance(body, dict) else None
            if not isinstance(probs, list) or len(probs) != len(contexts):
                raise ProtocolError(f"response must be an object with a list of {len(contexts)} 'probs' maps")
            return [_validate_probs(p) for p in probs]
        raise TransportError(f"request failed after {self.retries} attempts: {last_error}")

    def next_tokens(self, context) -> dict[int, float]:
        return self.next_tokens_many([context])[0]

    def next_tokens_many(self, contexts) -> list[dict[int, float]]:
        contexts = [tuple(c) for c in contexts]
        with self._lock:  # one exchange at a time on the shared connection
            return self._fetch(contexts)

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _failed_context(text: bytes, contexts: list):
    """The context a 4xx answer names by its "index"; the whole batch if it names none."""
    try:
        index = json.loads(text).get("index")
    except (ValueError, AttributeError):
        index = None
    return contexts[index] if type(index) is int and 0 <= index < len(contexts) else contexts


def _validate_probs(probs) -> dict[int, float]:
    if not isinstance(probs, dict):
        raise ProtocolError("each 'probs' entry must be a map from token id to probability")
    out = {}
    for key, value in probs.items():
        try:
            token = int(key)
            p = float(value)
        except (TypeError, ValueError):
            raise ProtocolError(f"bad probability entry {key!r}: {value!r}") from None
        if not p >= 0:  # written so that NaN fails it
            raise ProtocolError(f"probability {p!r} for token {token} is negative or NaN")
        out[token] = p
    total = sum(out.values())
    if not abs(total - 1.0) <= SUM_TOLERANCE:
        raise ProtocolError(f"probabilities sum to {total!r}, not 1")
    return out


def remote_token_model(
    endpoint: str, bos: int = 0, eos: int = 1, timeout: float = 10.0, retries: int = 3
) -> RemoteTokenModel:
    return RemoteTokenModel(endpoint, bos, eos, timeout, retries)


def _read_contexts(headers, rfile) -> list[tuple[int, ...]]:
    """The token contexts a request asks about; ValueError or RecursionError
    if it is malformed."""
    length = int(headers.get("Content-Length", "0"))
    if not 0 <= length <= MAX_REQUEST_BYTES:  # the body buffer is allocated up front
        raise ValueError(f"Content-Length {length} is outside 0..{MAX_REQUEST_BYTES}")
    body = json.loads(rfile.read(length))
    body = body if isinstance(body, dict) else {}
    contexts = body.get("contexts")
    if not isinstance(contexts, list):
        raise ValueError("'contexts' must be a list of token id lists")
    for context in contexts:
        if not isinstance(context, list) or not all(type(t) is int for t in context):
            raise ValueError("each context must be a list of integer token ids")
    return [tuple(c) for c in contexts]


class TokenModelServer:
    """Threaded HTTP/1.1 server exposing a TokenModel over the wire protocol.

    A batch's contexts are answered in order, and the first whose model
    call raises is answered 400 with its index. Connections are kept alive
    between requests. A request the server cannot parse is answered 400 and
    its connection closed, since the rest of that stream cannot be trusted;
    so is a 404. stop() also ends the kept-alive connections that are still
    open.
    """

    def __init__(self, model: TokenModel, host: str = "127.0.0.1", port: int = 0):
        self.model = model
        self._connections: set[socket.socket] = set()
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # headers and body go out in two writes; with Nagle's algorithm
            # on, the second waits for the client's delayed ACK
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with outer._lock:
                    outer._connections.add(self.connection)

            def finish(self):
                with outer._lock:
                    outer._connections.discard(self.connection)
                super().finish()

            def do_POST(self):  # noqa: N802 (stdlib naming)
                if self.path != BATCH_PATH:
                    self.send_error(404)  # closes the connection: the body is left unread
                    return
                try:
                    contexts = _read_contexts(self.headers, self.rfile)
                except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
                    self._reply(400, {"error": f"bad request: {type(exc).__name__}: {exc}"}, close=True)
                    return
                answers = []
                for index, context in enumerate(contexts):
                    try:
                        probs = outer.model.next_tokens(context)
                    except Exception as exc:  # surface model errors as HTTP 400
                        self._reply(400, {"error": f"{type(exc).__name__}: {exc}", "index": index})
                        return
                    answers.append({str(t): p for t, p in probs.items()})
                self._reply(200, {"probs": answers})

            def _reply(self, status: int, body: dict, close: bool = False):
                payload = json.dumps(body, ensure_ascii=False).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                if close:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                logger.debug("token server: " + args[0], *args[1:])

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> str:
        # poll_interval 0.01 s, since stop() waits for serve_forever to see the shutdown
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.01,), daemon=True)
        self._thread.start()
        return self.url

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        with self._lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # wakes its handler with end of stream
                except OSError:
                    pass
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
