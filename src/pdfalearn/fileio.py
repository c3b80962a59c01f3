"""Text formats for automata and guides.

Probabilities serialize as `p/q` rationals (kept exact) or shortest
round-trip decimals, so files reload bit-exactly. Both formats share one
header and one reader.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NoReturn, Optional

from .automata import GuideAutomaton, Pdfa
from .errors import NondeterministicSpecError, ParseFailureError
from .simplex import Alphabet, Distribution


def _format_number(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _header_lines(kind: str, alphabet: Alphabet, n_states: int, initial: int) -> list[str]:
    return [f"# {kind} v1", "alphabet " + " ".join(alphabet.symbols),
            f"terminal {alphabet.terminal}", f"states {n_states}", f"initial {initial}"]


class _Reader:
    """The line grammar that the .pdfa and guide formats share.

    A header of `alphabet`, `terminal`, `states` and `initial` lines, in any
    order, ends at the first other line. Then `state Q` opens the record of
    state Q: its `state` line, a vector over `slots` (the symbols, then the
    terminal) and a row over `symbols`, kept at `vectors[vector_at]` and
    `rows[row_at]` in flat lists, so the garbage collector tracks nothing
    per state while the body is read. Each other line `kind ...` calls
    body[kind](reader, parts). State indices are checked against `states`
    as they are read, and only states with a `state` line get a record;
    `records` lists them in state order, as tuples. Every error is a
    ParseFailureError that starts with `source:line`.
    """

    def __init__(self, text: str, source: str, body: dict[str, Callable[["_Reader", list[str]], None]]):
        self.source, self.lineno = source, 0
        self.alphabet: Optional[Alphabet] = None
        self.vector_at = self.row_at = None  # those of the state being read
        self.lines, self.vectors, self.rows = [], [], []  # records in opening order
        self._header: dict[str, tuple[int, list[str]]] = {}
        self._opened: dict[int, int] = {}  # state -> record number
        handlers = {**body, "state": _Reader._open}
        for self.lineno, line in enumerate(text.splitlines(), 1):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            handler = handlers.get(parts[0])
            if handler is None:  # a header line, or an unknown one
                kind = parts[0]
                if kind not in ("alphabet", "terminal", "states", "initial"):
                    self.fail(f"unknown directive {kind!r}")
                if self.alphabet is not None:
                    self.fail(f"`{kind}` after the header")
                if kind != "alphabet" and len(parts) != 2:
                    self.fail(f"`{kind}` takes one argument")
                self._header[kind] = (self.lineno, parts[1:])
                continue
            if self.alphabet is None:
                self._close()
            try:
                handler(self, parts)
            except KeyError as exc:  # from a look-up in symbols or slots
                self.fail(f"unknown symbol {exc.args[0]!r}")
        if self.alphabet is None:
            self._close()
        try:  # every opened state is in range, so this stops at the first gap
            order = [self._opened[q] for q in range(self.n_states)]
        except KeyError as exc:
            self.fail(f"state {exc.args[0]} has no `state` line")
        k, m, vectors, rows = len(self.slots), len(self.symbols), self.vectors, self.rows
        self.records = [(self.lines[b], tuple(vectors[b * k:b * k + k]), tuple(rows[b * m:b * m + m])) for b in order]

    def fail(self, message: str) -> NoReturn:
        raise ParseFailureError(f"{self.source}:{self.lineno}: {message}")

    def integer(self, token: str, states: Optional[int] = None) -> int:
        """`token` as an int; given `states`, as a state index below it."""
        try:
            q = int(token)
        except ValueError:
            self.fail(f"bad integer {token!r}")
        if states is not None and not 0 <= q < states:
            self.fail(f"state {q} is out of range for `states {states}`")
        return q

    def number(self, token: str):
        """`p/q` as a Fraction, a decimal as a float, anything else as an int."""
        try:
            if "/" in token:
                return Fraction(*map(int, token.split("/", 1)))
            if "." in token or "e" in token or "E" in token:
                return float(token)
            return int(token)
        except (ValueError, ZeroDivisionError):
            self.fail(f"bad number {token!r}")

    def build(self, make: Callable, *args):
        """make(*args), with a ValueError from its checks as a failure at this line."""
        try:
            return make(*args)
        except ValueError as exc:
            self.fail(str(exc))

    def _open(self, parts: list[str]) -> None:
        if len(parts) != 2:
            self.fail("`state` takes one argument")
        q = self.integer(parts[1], self.n_states)
        b = self._opened.setdefault(q, len(self.lines))
        if b == len(self.lines):  # a new record
            self.lines.append(self.lineno)
            self.vectors += [0] * len(self.slots)
            self.rows += [None] * len(self.symbols)
        self.vector_at, self.row_at = b * len(self.slots), b * len(self.symbols)

    def _close(self) -> None:
        """Build the alphabet and check `states` and `initial`."""
        at, header = self.lineno, self._header
        if "alphabet" not in header or "states" not in header:
            self.fail("the header needs `alphabet` and `states` lines")
        self.lineno, names = header["alphabet"]
        terminal = header.get("terminal", (0, ()))[1]  # empty: Alphabet's default
        self.alphabet = self.build(Alphabet, tuple(names), *terminal)
        self.symbols = {name: s for s, name in enumerate(names)}
        self.slots = {**self.symbols, self.alphabet.terminal: len(names)}
        self.lineno, (count,) = header["states"]
        self.n_states = self.integer(count)
        self.lineno, (q,) = header.get("initial", (self.lineno, ("0",)))
        self.initial = self.integer(q, self.n_states)
        self.lineno = at


def save_pdfa(pdfa: Pdfa, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pdfa(pdfa))


def format_pdfa(pdfa: Pdfa) -> str:
    a = pdfa.alphabet
    lines = _header_lines("pdfa", a, pdfa.n_states, pdfa.initial)
    slots = (*a.symbols, a.terminal)
    for q, (dist, row) in enumerate(zip(pdfa.dists, pdfa.trans)):
        lines.append(f"state {q}")
        lines += (f"dist {name} {_format_number(p)}" for name, p in zip(slots, dist.probs))
        lines += (f"trans {name} {'UNDEF' if t is None else t}" for name, t in zip(a.symbols, row))
    return "\n".join(lines) + "\n"


def read_text(path) -> str:
    """The UTF-8 text of a file; one that cannot be opened or decoded is a ParseFailureError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseFailureError(f"{path}: cannot read: {exc}") from exc


def load_pdfa(path) -> Pdfa:
    return parse_pdfa(read_text(path), source=str(path))


def parse_pdfa(text: str, source: str = "<string>") -> Pdfa:
    def dist(r, parts):
        if r.vector_at is None or len(parts) != 3:
            r.fail("expected `dist SYMBOL PROBABILITY` inside a state")
        r.vectors[r.vector_at + r.slots[parts[1]]] = r.number(parts[2])

    def trans(r, parts):
        if r.row_at is None or len(parts) != 3:
            r.fail("expected `trans SYMBOL TARGET|UNDEF` inside a state")
        r.rows[r.row_at + r.symbols[parts[1]]] = None if parts[2] == "UNDEF" else r.integer(parts[2], r.n_states)

    r = _Reader(text, source, {"dist": dist, "trans": trans})
    dists = [r.build(Distribution, r.alphabet, probs) for r.lineno, probs, _ in r.records]
    for q, (r.lineno, _, row) in enumerate(r.records):
        if None in row and any(row[s] is None for s in dists[q].support()):
            r.fail(f"state {q} gives positive probability to a symbol without a transition")
    return r.build(Pdfa, r.alphabet, tuple(dists), tuple(tuple(row) for _, _, row in r.records), r.initial)


def guide_from_spec(text: str, source: str = "<string>") -> GuideAutomaton:
    """Parse the guide format (see save_guide_spec). Missing transitions lead to
    an implicit dead state with an all-zero mask; a repeated one is rejected."""
    edges: dict[tuple[int, int], int] = {}

    def allow(r, parts):
        if r.vector_at is None:
            r.fail("`allow` outside a state")
        for name in parts[1:]:
            r.vectors[r.vector_at + r.slots[name]] = 1

    def trans(r, parts):
        if len(parts) != 4:
            r.fail("expected `trans SOURCE SYMBOL TARGET`")
        key = (r.integer(parts[1], r.n_states), r.symbols[parts[2]])
        if key in edges:
            raise NondeterministicSpecError(f"{source}:{r.lineno}: a second transition for {key[0]} {parts[2]!r}")
        edges[key] = r.integer(parts[3], r.n_states)

    r = _Reader(text, source, {"allow": allow, "trans": trans})
    m, dead = r.alphabet.size, r.n_states  # dead: implicit sink for unspecified transitions
    masks = [tuple(mask) for _, mask, _ in r.records]
    delta = [tuple(edges.get((q, s), dead) for s in range(m)) for q in range(dead)]
    if any(dead in row for row in delta):
        masks, delta = masks + [(0,) * (m + 1)], delta + [(dead,) * m]
    return r.build(GuideAutomaton, r.alphabet, tuple(masks), tuple(delta), r.initial)


def save_guide_spec(guide: GuideAutomaton) -> str:
    """Serialize a guide in the format accepted by guide_from_spec."""
    a = guide.alphabet
    lines = _header_lines("guide", a, guide.n_states, guide.initial)
    for q, mask in enumerate(guide.masks):
        lines.append(f"state {q}")
        allowed = [name for name, bit in zip((*a.symbols, a.terminal), mask) if bit]
        if allowed:
            lines.append("allow " + " ".join(allowed))
    for q, row in enumerate(guide.delta):
        lines += (f"trans {q} {name} {t}" for name, t in zip(a.symbols, row))
    return "\n".join(lines) + "\n"


def save_guide(guide: GuideAutomaton, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_guide_spec(guide))


def load_guide(path) -> GuideAutomaton:
    return guide_from_spec(read_text(path), source=str(path))
