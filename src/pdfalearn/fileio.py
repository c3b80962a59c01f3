"""Text formats for automata, guides, and symbol maps.

Probabilities serialize as `p/q` rationals (kept exact) or shortest
round-trip decimals, so files reload bit-exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .automata import GuideAutomaton, Pdfa
from .errors import NondeterministicSpecError, ParseFailureError, PdfaError
from .simplex import Alphabet, Distribution


def _format_number(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _parse_number(text: str):
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            raise ParseFailureError(f"bad rational {text!r}") from None
    try:
        if "." not in text and "e" not in text and "E" not in text:
            return int(text)
        return float(text)
    except ValueError:
        raise ParseFailureError(f"bad number {text!r}") from None


def save_pdfa(pdfa: Pdfa, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pdfa(pdfa))


def format_pdfa(pdfa: Pdfa) -> str:
    a = pdfa.alphabet
    lines = [
        "# pdfa v1",
        "alphabet " + " ".join(a.symbols),
        f"terminal {a.terminal}",
        f"states {pdfa.n_states}",
        f"initial {pdfa.initial}",
    ]
    for q in range(pdfa.n_states):
        lines.append(f"state {q}")
        dist = pdfa.dists[q]
        for s, name in enumerate(a.symbols):
            lines.append(f"dist {name} {_format_number(dist.prob(s))}")
        lines.append(f"dist {a.terminal} {_format_number(dist.terminal_prob)}")
        for s, name in enumerate(a.symbols):
            target = pdfa.trans[q][s]
            lines.append(f"trans {name} {'UNDEF' if target is None else target}")
    return "\n".join(lines) + "\n"


def load_pdfa(path) -> Pdfa:
    with open(path, encoding="utf-8") as fh:
        return parse_pdfa(fh.read(), source=str(path))


def parse_pdfa(text: str, source: str = "<string>") -> Pdfa:
    symbols: tuple[str, ...] = ()
    terminal = "$"
    n_states = None
    initial = 0
    alphabet = None
    dists: list[dict[str, object]] = []
    trans: list[dict[str, object]] = []
    current = None

    def fail(lineno, message):
        raise ParseFailureError(f"{source}:{lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "alphabet":
            symbols = tuple(parts[1:])
        elif kind == "terminal":
            if len(parts) != 2:
                fail(lineno, "terminal takes one name")
            terminal = parts[1]
        elif kind == "states":
            n_states = int(parts[1])
        elif kind == "initial":
            initial = int(parts[1])
        elif kind == "state":
            current = int(parts[1])
            while len(dists) <= current:
                dists.append({})
                trans.append({})
        elif kind == "dist":
            if current is None or len(parts) != 3:
                fail(lineno, "dist outside a state or malformed")
            dists[current][parts[1]] = _parse_number(parts[2])
        elif kind == "trans":
            if current is None or len(parts) != 3:
                fail(lineno, "trans outside a state or malformed")
            trans[current][parts[1]] = None if parts[2] == "UNDEF" else int(parts[2])
        else:
            fail(lineno, f"unknown directive {kind!r}")
    if not symbols or n_states is None:
        raise ParseFailureError(f"{source}: missing alphabet or states directive")
    if len(dists) != n_states:
        raise ParseFailureError(f"{source}: saw {len(dists)} states, expected {n_states}")
    try:
        alphabet = Alphabet(symbols, terminal)
        built_dists = tuple(Distribution.from_map(alphabet, d) for d in dists)
        built_trans = tuple(
            tuple(t.get(name) for name in symbols) for t in trans
        )
        return Pdfa(alphabet, built_dists, built_trans, initial)
    except ParseFailureError:
        raise
    except (ValueError, KeyError, PdfaError) as exc:
        raise ParseFailureError(f"{source}: {exc}") from exc


def guide_from_spec(text: str) -> GuideAutomaton:
    """Parse the guide format (see save_guide_spec) into an automaton.

    Missing transitions lead to an implicit dead state with an all-zero
    mask; duplicate (state, symbol) transitions are rejected.
    """
    alphabet: Optional[Alphabet] = None
    terminal = "$"
    n_states = None
    initial = 0
    allows: dict[int, list[str]] = {}
    edges: dict[tuple[int, int], int] = {}
    symbols: tuple[str, ...] = ()
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "alphabet":
                symbols = tuple(parts[1:])
            elif kind == "terminal":
                terminal = parts[1]
            elif kind == "states":
                n_states = int(parts[1])
            elif kind == "initial":
                initial = int(parts[1])
            elif kind == "state":
                current = int(parts[1])
                allows.setdefault(current, [])
            elif kind == "allow":
                if current is None:
                    raise ParseFailureError(f"line {lineno}: allow before any state")
                allows[current].extend(parts[1:])
            elif kind == "trans":
                alphabet = alphabet or Alphabet(symbols, terminal)
                src, name, dst = int(parts[1]), parts[2], int(parts[3])
                key = (src, alphabet.index(name))
                if key in edges:
                    raise NondeterministicSpecError(
                        f"line {lineno}: duplicate transition for state {src} symbol {name!r}"
                    )
                edges[key] = dst
            else:
                raise ParseFailureError(f"line {lineno}: unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            raise ParseFailureError(f"line {lineno}: {exc}") from None
    if not symbols or n_states is None:
        raise ParseFailureError("guide needs `alphabet` and `states` directives")
    alphabet = alphabet or Alphabet(symbols, terminal)
    m = alphabet.size
    dead = n_states  # implicit sink for unspecified transitions
    masks = []
    delta = []
    for q in range(n_states):
        mask = [0] * (m + 1)
        for name in allows.get(q, []):
            idx = m if name == alphabet.terminal else alphabet.index(name)
            mask[idx] = 1
        masks.append(tuple(mask))
        delta.append(tuple(edges.get((q, s), dead) for s in range(m)))
    used_dead = any(dead in row for row in delta)
    if used_dead:
        masks.append(tuple([0] * (m + 1)))
        delta.append(tuple(dead for _ in range(m)))
    return GuideAutomaton(alphabet, tuple(masks), tuple(delta), initial)


def save_guide_spec(guide: GuideAutomaton) -> str:
    """Serialize a guide in the format accepted by guide_from_spec."""
    lines = [
        "# guide v1",
        "alphabet " + " ".join(guide.alphabet.symbols),
        f"terminal {guide.alphabet.terminal}",
        f"states {guide.n_states}",
        f"initial {guide.initial}",
    ]
    m = guide.alphabet.size
    for q in range(guide.n_states):
        lines.append(f"state {q}")
        allowed = [guide.alphabet.symbols[s] for s in range(m) if guide.masks[q][s]]
        if guide.masks[q][m]:
            allowed.append(guide.alphabet.terminal)
        if allowed:
            lines.append("allow " + " ".join(allowed))
    for q in range(guide.n_states):
        for s in range(m):
            lines.append(f"trans {q} {guide.alphabet.symbols[s]} {guide.delta[q][s]}")
    return "\n".join(lines) + "\n"


def save_guide(guide: GuideAutomaton, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_guide_spec(guide))


def load_guide(path) -> GuideAutomaton:
    with open(path, encoding="utf-8") as fh:
        return guide_from_spec(fh.read())
