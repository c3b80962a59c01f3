"""Token-level model interface and the symbol-to-token probability bridge.

A TokenModel produces next-token distributions over an integer vocabulary
with reserved begin/end markers. A SymbolMap assigns every guide symbol a
nonempty token sequence; the symbol-level view multiplies the model's
step probabilities along each symbol's tokens and renormalizes, so learners
and guides can work over a small symbol alphabet regardless of tokenizer
granularity.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

import requests

from .automata import UNSET, LanguageModel, Pdfa, Prefix, next_dist
from .errors import ModelFailureError, ParseFailureError, ProtocolError, TransportError, VocabMismatchError
from .simplex import Alphabet, Distribution

logger = logging.getLogger(__name__)

ENDPOINT_PATH = "/v1/next_token_distribution"
SUM_TOLERANCE = 1e-6


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


def load_symbol_map(path) -> SymbolMap:
    """Read `symbol<TAB>chars<TAB>comma-separated token ids` lines."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseFailureError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                tokens = tuple(int(x) for x in parts[2].split(","))
            except ValueError:
                raise ParseFailureError(f"{path}:{lineno}: bad token id list {parts[2]!r}") from None
            entries.append((parts[0], parts[1], tokens))
    if not entries:
        raise ParseFailureError(f"{path}: no symbol entries")
    return SymbolMap(tuple(entries))


def save_symbol_map(smap: SymbolMap, path):
    with open(path, "w", encoding="utf-8") as fh:
        for symbol, chars, tokens in smap.entries:
            fh.write(f"{symbol}\t{chars}\t{','.join(str(t) for t in tokens)}\n")


# ---------------------------------------------------------------------------
# Symbol-level view of a token model
# ---------------------------------------------------------------------------

class SymbolLanguageModel(LanguageModel):
    """Language model over symbols whose probabilities are token products.

    next(u)(s) multiplies the token model's step probabilities along s's
    token sequence after u's token context; the per-symbol masses are then
    renormalized into a distribution. next(u) is None when the context has
    a zero-probability token step or every symbol mass vanishes.
    Each token context after BOS is asked for once, on a trie of contexts.
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

    def _step(self, node: Prefix, path: list[int]) -> dict[int, float]:
        """Next-token map at `node`, the trie node of the context BOS·path."""
        if node.value is UNSET:
            node.value = self.tm.next_tokens((self.tm.bos, *path))
        return node.value

    def _extend(self, node: Prefix, path: list[int], tokens: tuple[int, ...]):
        """Walk `tokens` from `node`, appending them to `path`.

        Returns the node reached and the product of the step probabilities,
        which is 0.0, and the walk stops, at a zero-probability step.
        """
        mass = 1.0
        for t in tokens:
            p = self._step(node, path).get(t, 0.0)
            if p <= 0:
                return node, 0.0
            mass *= p
            path.append(t)
            node = node.child(t)
        return node, mass

    def next(self, u) -> Optional[Distribution]:
        node, path = self._root, []
        for s in u:
            node, mass = self._extend(node, path, self.sequences[s])
            if mass <= 0:
                return None
        weights = [self._extend(node, list(path), seq)[1] for seq in self.sequences]
        weights.append(self._step(node, path).get(self.tm.eos, 0.0))
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
    """Client for a served token model; caches one answer per context."""

    vocab = None

    def __init__(self, endpoint: str, bos: int = 0, eos: int = 1, timeout: float = 10.0, retries: int = 3):
        self.endpoint = endpoint.rstrip("/") + ENDPOINT_PATH
        self.bos = bos
        self.eos = eos
        self.timeout = timeout
        self.retries = retries
        self.request_count = 0
        self._cache: dict[tuple[int, ...], dict[int, float]] = {}
        self._lock = threading.Lock()
        self._session = requests.Session()

    def _fetch(self, context: tuple[int, ...]) -> dict[int, float]:
        """Ask the server; only connection errors and 5xx answers are retried."""
        payload = {"context": list(context)}
        last_error = None
        for attempt in range(self.retries):
            if attempt:
                time.sleep(0.05 * 2 ** (attempt - 1))
            self.request_count += 1
            try:
                resp = self._session.post(self.endpoint, json=payload, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
                continue
            if resp.status_code != 200:  # the model's own answer: asking again repeats it
                raise ModelFailureError(context, f"HTTP {resp.status_code}: {resp.text}")
            try:
                body = resp.json()
            except ValueError as exc:
                raise ProtocolError(f"response is not JSON: {exc}") from exc
            return _validate_probs(body)
        raise TransportError(f"request failed after {self.retries} attempts: {last_error}")

    def next_tokens(self, context) -> dict[int, float]:
        context = tuple(context)
        with self._lock:
            if context in self._cache:
                return self._cache[context]
        probs = self._fetch(context)
        with self._lock:
            self._cache[context] = probs
        return probs


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
        if p < 0:
            raise ProtocolError(f"negative probability for token {token}")
        out[token] = p
    total = sum(out.values())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ProtocolError(f"probabilities sum to {total!r}, not 1")
    return out


def remote_token_model(
    endpoint: str, bos: int = 0, eos: int = 1, timeout: float = 10.0, retries: int = 3
) -> RemoteTokenModel:
    return RemoteTokenModel(endpoint, bos, eos, timeout, retries)


class TokenModelServer:
    """Threaded HTTP server exposing a TokenModel over the wire protocol."""

    def __init__(self, model: TokenModel, host: str = "127.0.0.1", port: int = 0):
        self.model = model
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (stdlib naming)
                if self.path != ENDPOINT_PATH:
                    self.send_error(404)
                    return
                length = int(self.headers.get("Content-Length", "0"))
                try:
                    body = json.loads(self.rfile.read(length))
                    context = tuple(int(t) for t in body["context"])
                    probs = outer.model.next_tokens(context)
                except Exception as exc:  # surface model errors as HTTP 400
                    self._reply(400, {"error": f"{type(exc).__name__}: {exc}"})
                    return
                self._reply(200, {"probs": {str(t): p for t, p in probs.items()}})

            def _reply(self, status: int, body: dict):
                payload = json.dumps(body, ensure_ascii=False).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
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
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self.url

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
