"""Token-level model interface and the symbol-to-token probability bridge.

A TokenModel produces next-token distributions over an integer vocabulary
with reserved begin/end markers. A SymbolMap assigns every guide symbol a
nonempty token sequence; the symbol-level view multiplies the model's
step probabilities along each symbol's tokens and renormalizes, so learners
and guides can work over a small symbol alphabet regardless of tokenizer
granularity.

Served models speak a small JSON protocol: POST {"context": [token ids]}
to ENDPOINT_PATH, answered {"probs": {token id: probability}}, or 4xx with
{"error": detail}. Connections are HTTP/1.1 and kept alive, one per
client; a request the server cannot parse is answered 400 and its
connection closed.
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

from .automata import UNSET, LanguageModel, Pdfa, Prefix, next_dist
from .errors import ModelFailureError, ParseFailureError, ProtocolError, TransportError, VocabMismatchError
from .fileio import read_text
from .simplex import Alphabet, Distribution

logger = logging.getLogger(__name__)

ENDPOINT_PATH = "/v1/next_token_distribution"
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


class PdfaTokenModel(TokenModel):
    """Fully-defined PDFA over tokens; the test double for a served model."""

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

    def next_tokens(self, context: tuple[int, ...]) -> dict[int, float]:
        context = tuple(context)
        if context[:1] == (self.bos,):
            context = context[1:]
        try:
            symbols = tuple(self._sym_of[t] for t in context)
        except KeyError as exc:
            raise VocabMismatchError(f"token {exc.args[0]} not in vocabulary") from None
        dist = next_dist(self.pdfa, symbols)
        if dist is None:
            raise VocabMismatchError("context walks off the automaton")
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

class SymbolLanguageModel(LanguageModel):
    """Language model over symbols whose probabilities are token products.

    The cursor is (node, context): a token context after BOS and its node on
    a trie of contexts, where each context's next-token map is kept, so the
    token model is asked once per context. step(c, s) extends the context by
    s's tokens and is None once their step probabilities multiply to zero.
    dist(c)(s) multiplies the step probabilities along s's tokens, the
    terminal takes EOS's, and the masses are renormalized; dist is None when
    they all vanish.
    """

    def __init__(self, tm: TokenModel, smap: SymbolMap, alphabet: Alphabet):
        self.tm = tm
        self.alphabet = alphabet
        self.sequences = smap.sequences_for(alphabet)
        if tm.vocab is not None:
            used = {t for seq in self.sequences for t in seq}
            missing = used - set(tm.vocab)
            if missing:
                raise VocabMismatchError(f"tokens {sorted(missing)} not in the model vocabulary")
        self._root = Prefix()

    def _tokens(self, node: Prefix, context: tuple[int, ...]) -> dict[int, float]:
        """Next-token map at `node`, the trie node of BOS·context."""
        if node.value is UNSET:
            node.value = self.tm.next_tokens((self.tm.bos, *context))
        return node.value

    def _extend(self, node: Prefix, context: tuple[int, ...], tokens: tuple[int, ...]):
        """The cursor after `tokens` and the product of their step
        probabilities, or (None, 0.0) once the product vanishes."""
        mass = 1.0
        for t in tokens:
            mass *= self._tokens(node, context).get(t, 0.0)
            if mass <= 0:
                return None, 0.0
            node, context = node.child(t), context + (t,)
        return (node, context), mass

    def start(self):
        return self._root, ()

    def step(self, cursor, s: int):
        return self._extend(*cursor, self.sequences[s])[0]

    def dist(self, cursor) -> Optional[Distribution]:
        weights = [self._extend(*cursor, seq)[1] for seq in self.sequences]
        weights.append(self._tokens(*cursor).get(self.tm.eos, 0.0))
        total = sum(weights)
        if total <= 0:
            return None
        return Distribution(self.alphabet, tuple(w / total for w in weights))


def symbol_model(tm: TokenModel, smap: SymbolMap, alphabet: Alphabet) -> SymbolLanguageModel:
    return SymbolLanguageModel(tm, smap, alphabet)


# ---------------------------------------------------------------------------
# HTTP client and in-repo mock server
# ---------------------------------------------------------------------------

class RemoteTokenModel(TokenModel):
    """Client for a served token model; caches one answer per context.

    Requests go over one kept-alive connection, opened on first use and
    opened again after any transport failure. close() releases it; the
    client is also a context manager.
    """

    vocab = None

    def __init__(self, endpoint: str, bos: int = 0, eos: int = 1, timeout: float = 10.0, retries: int = 3):
        self.endpoint = endpoint.rstrip("/") + ENDPOINT_PATH
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
        self._cache: dict[tuple[int, ...], dict[int, float]] = {}
        self._lock = threading.Lock()

    def _fetch(self, context: tuple[int, ...]) -> dict[int, float]:
        """Ask the server; only connection errors and 5xx answers are retried."""
        payload = json.dumps({"context": list(context)}).encode()
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
                raise ModelFailureError(context, f"HTTP {resp.status}: {detail}")
            try:
                body = json.loads(text)
            except ValueError as exc:
                raise ProtocolError(f"response is not JSON: {exc}") from exc
            return _validate_probs(body)
        raise TransportError(f"request failed after {self.retries} attempts: {last_error}")

    def next_tokens(self, context) -> dict[int, float]:
        context = tuple(context)
        with self._lock:  # one exchange at a time on the shared connection
            if context not in self._cache:
                self._cache[context] = self._fetch(context)
            return self._cache[context]

    def close(self):
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _validate_probs(body) -> dict[int, float]:
    if not isinstance(body, dict) or "probs" not in body or not isinstance(body["probs"], dict):
        raise ProtocolError("response must be an object with a 'probs' map")
    out = {}
    for key, value in body["probs"].items():
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


def _read_context(headers, rfile) -> tuple[int, ...]:
    """The token context a request asks about; ValueError or RecursionError if it is malformed."""
    length = int(headers.get("Content-Length", "0"))
    if not 0 <= length <= MAX_REQUEST_BYTES:  # the body buffer is allocated up front
        raise ValueError(f"Content-Length {length} is outside 0..{MAX_REQUEST_BYTES}")
    body = json.loads(rfile.read(length))
    context = body.get("context") if isinstance(body, dict) else None
    if not isinstance(context, list) or not all(type(t) is int for t in context):
        raise ValueError("'context' must be a list of integer token ids")
    return tuple(context)


class TokenModelServer:
    """Threaded HTTP/1.1 server exposing a TokenModel over the wire protocol.

    Connections are kept alive between requests. A request the server
    cannot parse is answered 400 and its connection closed, since the rest
    of that stream cannot be trusted; so is a 404. stop() also ends the
    kept-alive connections that are still open.
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
                if self.path != ENDPOINT_PATH:
                    self.send_error(404)  # closes the connection: the body is left unread
                    return
                try:
                    context = _read_context(self.headers, self.rfile)
                except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
                    self._reply(400, {"error": f"bad request: {type(exc).__name__}: {exc}"}, close=True)
                    return
                try:
                    probs = outer.model.next_tokens(context)
                except Exception as exc:  # surface model errors as HTTP 400
                    self._reply(400, {"error": f"{type(exc).__name__}: {exc}"})
                    return
                self._reply(200, {"probs": {str(t): p for t, p in probs.items()}})

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
