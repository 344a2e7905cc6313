"""Group presentations and words over their generators.

A word is a free-reduced sequence of (generator index, sign) letters; a
presentation is an ordered generator list plus a list of relator words.
Multiplication is read left to right throughout the package.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import groupby

__all__ = [
    "Letter",
    "Word",
    "Presentation",
    "ParseError",
    "free_reduce",
    "inverse_word",
    "concat",
    "word_power",
    "parse_presentation",
    "parse_word",
    "format_word",
    "label_word",
    "format_presentation",
    "evaluate_word",
]

Letter = tuple[int, int]  # (generator index, +1 or -1)
Word = tuple[Letter, ...]

GENERATOR_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# Bound on outside input: the letters that parsing one text may build, each
# power counted as multiplied out (nested ones at every level) and each copy of
# a chain's base word; every count is made before its letters are built.
MAX_EXPANDED_LETTERS = 10**6


class ParseError(ValueError):
    """Raised on malformed presentation text; carries the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def free_reduce(word: Word) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[Letter] = []
    for gen, sign in word:
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


def inverse_word(word: Word) -> Word:
    return tuple((gen, -sign) for gen, sign in reversed(word))


def concat(*parts: Word) -> Word:
    joined: tuple[Letter, ...] = ()
    for part in parts:
        joined += tuple(part)
    return free_reduce(joined)


def word_power(word: Word, exponent: int) -> Word:
    if exponent < 0:
        word, exponent = inverse_word(word), -exponent
    return free_reduce(tuple(word) * exponent)


def _check_generator_names(generators: tuple[str, ...]):
    """Checks a presentation's generator names, and so a graph's colour names."""
    if not generators:
        raise ValueError("presentation needs at least one generator")
    seen = set()
    for name in generators:
        if not GENERATOR_NAME.fullmatch(name):
            raise ValueError(f"invalid generator name {name!r}")
        if name in seen:
            raise ValueError(f"duplicate generator name {name!r}")
        seen.add(name)


class Presentation(namedtuple("Presentation", "generators relators")):
    """Generators plus free-reduced relator words, checked here for outside
    callers; the parser and the graph layer build it with ``tuple.__new__``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, generators: tuple[str, ...], relators: tuple[Word, ...]):
        _check_generator_names(generators)
        for rel in relators:
            if not rel:
                raise ValueError("empty relator")
            if rel != free_reduce(rel):
                raise ValueError("relator is not free-reduced")
            for gen, sign in rel:
                if not 0 <= gen < len(generators):
                    raise ValueError(f"relator refers to undeclared generator {gen}")
                if sign not in (1, -1):
                    raise ValueError(f"bad exponent sign {sign}")
        return super().__new__(cls, generators, relators)

    @property
    def rank(self) -> int:
        return len(self.generators)


class _Scanner:
    """Cursor over presentation text; whitespace is skipped between tokens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.room = MAX_EXPANDED_LETTERS  # letters the text may still build

    def spend(self, letters: int):  # before the letters are built
        if letters > self.room:
            raise ParseError(
                f"words expand to more than {MAX_EXPANDED_LETTERS} letters",
                self.pos,
            )
        self.room -= letters

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str):
        if self.peek() != char:
            raise ParseError(f"expected {char!r}", self.pos)
        self.pos += 1

    def try_char(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def identifier(self) -> str:
        self.skip_ws()
        m = GENERATOR_NAME.match(self.text, self.pos)
        if not m:
            raise ParseError("expected generator name", self.pos)
        self.pos = m.end()
        return m.group()

    def integer(self) -> int:
        self.skip_ws()
        m = re.compile(r"-?\d+").match(self.text, self.pos)
        if not m:
            raise ParseError("expected integer exponent", self.pos)
        self.pos = m.end()
        return int(m.group())

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_word(sc: _Scanner, gen_index: dict[str, int], by_length: list[str]) -> Word:
    try:
        return _parse_factors(sc, gen_index, by_length)
    except RecursionError:  # one stack frame per open parenthesis
        raise ParseError("parentheses nested too deeply", sc.pos) from None


def _parse_factors(sc: _Scanner, gen_index: dict[str, int], by_length: list[str]) -> Word:
    sc.skip_ws()
    start = sc.pos
    letters: list[Letter] = []
    while True:
        sc.skip_ws()
        if sc.pos < len(sc.text) and sc.text[sc.pos] == "(":
            sc.pos += 1
            inner = _parse_factors(sc, gen_index, by_length)
            sc.expect(")")
            exp = sc.integer() if sc.try_char("^") else 1
            sc.spend(len(inner) * abs(exp))
            letters.extend(word_power(inner, exp))
            continue
        if sc.pos < len(sc.text) and sc.text[sc.pos] == "1":
            if letters or sc.pos != start:
                raise ParseError("'1' is only valid as a whole word", sc.pos)
            sc.pos += 1
            return ()
        matched = None
        for name in by_length:
            if sc.text.startswith(name, sc.pos):
                matched = name
                break
        if matched is None:
            if GENERATOR_NAME.match(sc.text, sc.pos):
                raise ParseError("undeclared generator", sc.pos)
            break
        sc.pos += len(matched)
        exp = sc.integer() if sc.try_char("^") else 1
        sc.spend(abs(exp))
        letters.extend(word_power(((gen_index[matched], 1),), exp))
    if sc.pos == start:
        raise ParseError("expected a word", sc.pos)
    return free_reduce(tuple(letters))


def parse_word(text: str, generators) -> Word:
    """Parse a single word over the given generator names."""
    gens = tuple(generators)
    sc = _Scanner(text)
    word = _parse_word(sc, {g: i for i, g in enumerate(gens)},
                       sorted(gens, key=len, reverse=True))
    if not sc.at_end():
        raise ParseError("trailing input after word", sc.pos)
    return word


def parse_presentation(text: str) -> Presentation:
    """Parse ``<g1,...,gk | item, item, ...>``.

    An item is a single word (a relator) or a chain ``w1=w2=...=wm``; chains
    relate every word to the chain's "1" if present, else to its last word.
    The literal word ``1`` is the empty word.
    """
    sc = _Scanner(text)
    sc.expect("<")
    gens = [sc.identifier()]
    while sc.try_char(","):
        gens.append(sc.identifier())
    if len(set(gens)) != len(gens):
        raise ParseError("duplicate generator name", sc.pos)
    sc.expect("|")
    gen_index = {name: i for i, name in enumerate(gens)}
    # longest declared name wins when one generator name prefixes another
    by_length = sorted(gens, key=len, reverse=True)

    relators: list[Word] = []
    while True:
        chain = [_parse_word(sc, gen_index, by_length)]
        while sc.try_char("="):
            chain.append(_parse_word(sc, gen_index, by_length))
        if len(chain) == 1:
            new = [chain[0]]
        else:
            base = () if () in chain else chain[-1]
            others = [w for w in chain if w != base]
            sc.spend(len(base) * len(others))
            new = [concat(w, inverse_word(base)) for w in others]
        relators.extend(w for w in new if w)
        if not sc.try_char(","):
            break
    sc.expect(">")
    if not sc.at_end():
        raise ParseError("trailing input after '>'", sc.pos)
    return tuple.__new__(Presentation, (tuple(gens), tuple(relators)))


def _factors(word: Word, generators: tuple[str, ...]) -> list[str]:
    """Each run of a word as g or g^e; the empty word is the one factor 1."""
    factors = []
    for (gen, sign), run in groupby(word):
        exp = sign * len(list(run))
        factors.append(generators[gen] if exp == 1 else f"{generators[gen]}^{exp}")
    return factors or ["1"]


def format_word(word: Word, generators: tuple[str, ...]) -> str:
    """Grammar-compatible rendering, factors separated by spaces."""
    return " ".join(_factors(word, generators))


def label_word(word: Word, generators: tuple[str, ...]) -> str:
    """Whitespace-free rendering for element labels and table headers."""
    return "*".join(_factors(word, generators))


def format_presentation(p: Presentation) -> str:
    gens = ",".join(p.generators)
    if not p.relators:
        return f"<{gens} | 1>"  # free group; "1" re-parses to no relators
    rels = ", ".join(format_word(rel, p.generators) for rel in p.relators)
    return f"<{gens} | {rels}>"


def evaluate_word(group, assignment: dict[int, int], word: Word) -> int:
    """Left-to-right product of a word's letters in a ``groups.Group``.

    ``assignment`` maps generator indices to element indices of ``group``.
    Each element and inverse used acts by its right multiplication, walked
    along the group's action once in O(n): a letter is one lookup.
    """
    from .groups import _right  # deferred: words loads without groups

    right: dict[tuple[int, int], list[int]] = {}  # (element, sign) -> x -> x element^sign
    value = group.identity
    for gen, sign in word:
        if gen not in assignment:
            raise KeyError(f"generator {gen} has no assigned element")
        image = assignment[gen]
        if (image, sign) not in right:
            perm = _right(group, image)
            right[image, sign] = perm if sign > 0 else _right(group, perm.index(0))
        value = right[image, sign][value]
    return value
