import random

import pytest

from cayleykit.words import (
    ParseError,
    Presentation,
    evaluate_word,
    format_presentation,
    format_word,
    free_reduce,
    inverse_word,
    label_word,
    parse_presentation,
    parse_word,
    word_power,
)
from cayleykit.families import dihedral


def w(*letters):
    return tuple(letters)


def test_parse_dihedral_presentation():
    p = parse_presentation("<r,f | r^4=f^2=1, rfr=f>")
    assert p.generators == ("r", "f")
    assert p.relators == (
        w((0, 1), (0, 1), (0, 1), (0, 1)),
        w((1, 1), (1, 1)),
        w((0, 1), (1, 1), (0, 1), (1, -1)),
    )


def test_parse_single_generator():
    p = parse_presentation("<s | s^2>")
    assert p.generators == ("s",)
    assert p.relators == (w((0, 1), (0, 1)),)


def test_parse_collapsing_presentation():
    p = parse_presentation("<r,s | r^5=s^2=1, r^3s=sr, srs=r^2>")
    assert len(p.generators) == 2
    assert len(p.relators) == 4


def test_parse_whitespace_insignificant():
    a = parse_presentation("<r,f|r^4=f^2=1,rfr=f>")
    b = parse_presentation("  < r , f |  r^4 = f^2 = 1 ,  r f r = f >  ")
    assert a == b


def test_parse_parenthesized_power():
    p = parse_presentation("<r,f | (rf)^2>")
    assert p.relators == (w((0, 1), (1, 1), (0, 1), (1, 1)),)


def test_parse_negative_and_zero_exponents():
    # s^0 vanishes and r^-2 r^2 cancels after expansion
    p = parse_presentation("<r,s | r^-2 s^0 r^2 s>")
    assert p.relators == (w((1, 1)),)
    q = parse_presentation("<r,s | r^-2 s r^2>")
    assert q.relators == (w((0, -1), (0, -1), (1, 1), (0, 1), (0, 1)),)


def test_parse_longest_generator_name_wins():
    p = parse_presentation("<a,ab | ab a>")
    assert p.relators == (w((1, 1), (0, 1)),)


def test_parse_trivial_relators_dropped():
    p = parse_presentation("<r | r=r, r^3>")
    assert p.relators == (w((0, 1), (0, 1), (0, 1)),)


def test_parse_errors_report_position():
    text = "<r,f | r^4=q^2>"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert err.value.position == text.index("q")
    with pytest.raises(ParseError):
        parse_presentation("<r,f | r^4")
    with pytest.raises(ParseError):
        parse_presentation("r^4=f^2")
    with pytest.raises(ParseError):
        parse_presentation("<r,r | r^2>")


def test_reserved_empty_word():
    p = parse_presentation("<r | r^2=1>")
    assert p.relators == (w((0, 1), (0, 1)),)
    with pytest.raises(ParseError):
        parse_presentation("<r | r1>")


def test_free_reduce_examples():
    # r r^-1 f -> f
    assert free_reduce(w((0, 1), (0, -1), (1, 1))) == w((1, 1))
    assert free_reduce(()) == ()
    # s r r^-1 s -> s s (inner cancellation only)
    assert free_reduce(w((1, 1), (0, 1), (0, -1), (1, 1))) == w((1, 1), (1, 1))


def test_free_reduce_idempotent_and_shrinking():
    rng = random.Random(7)
    for _ in range(500):
        word = tuple(
            (rng.randrange(3), rng.choice((1, -1))) for _ in range(rng.randrange(12))
        )
        once = free_reduce(word)
        assert free_reduce(once) == once
        assert len(once) <= len(word)


def test_word_power_and_inverse():
    word = w((0, 1), (1, 1))
    assert word_power(word, 2) == w((0, 1), (1, 1), (0, 1), (1, 1))
    assert word_power(word, -1) == inverse_word(word)
    assert word_power(word, 0) == ()
    assert free_reduce(word + inverse_word(word)) == ()


def test_format_round_trip():
    texts = [
        "<r,f | r^4=f^2=1, rfr=f>",
        "<s | s^2>",
        "<r,s | r^5=s^2=1, r^3s=sr, srs=r^2>",
        "<a,b | a^3, b^3, a b a^-1 b^-1>",
        "<r,s | r^8=1, s^2=r^4, s^-1 r s=r^-1>",
        "<r | 1>",
    ]
    for text in texts:
        p = parse_presentation(text)
        assert parse_presentation(format_presentation(p)) == p
        assert Presentation(*p) == p  # the parser's record passes the checks it skips


def test_parser_skips_the_record_checks(monkeypatch):
    # the parser checks names, reduction and indices as it reads them, so it
    # never enters the constructor that checks them again for outside callers
    calls = []
    new = Presentation.__new__
    monkeypatch.setattr(Presentation, "__new__", lambda cls, *a: calls.append(a) or new(cls, *a))
    for text in ("<r,f | r^4=f^2=1, rfr=f>", "<a,b | (a b^-1)^3 = b a, a a^-1>", "<r | 1>"):
        parse_presentation(text)
    assert calls == []
    Presentation(("r",), ())
    assert len(calls) == 1


def test_format_word_styles():
    word = w((0, 1), (0, 1), (1, 1), (0, -1))
    gens = ("r", "f")
    assert format_word(word, gens) == "r^2 f r^-1"
    assert label_word(word, gens) == "r^2*f*r^-1"
    assert format_word((), gens) == "1"


def test_parse_word_standalone():
    assert parse_word("r^2 s", ("r", "s")) == w((0, 1), (0, 1), (1, 1))
    with pytest.raises(ParseError):
        parse_word("r^2 )", ("r", "s"))


def test_evaluate_word_in_dihedral():
    G = dihedral(4)
    assignment = {i: el for i, (_, el) in enumerate(G.generators)}
    relator = parse_word("r f r f^-1", ("r", "f"))
    assert evaluate_word(G, assignment, relator) == 0
    assert evaluate_word(G, assignment, ()) == 0


def test_evaluate_word_odd_power():
    G = dihedral(1)  # the 2-element group, generated by the reflection
    assignment = {0: [el for _, el in G.generators if el != 0][0]}
    word = w((0, 1), (0, 1), (0, 1))
    assert evaluate_word(G, assignment, word) == assignment[0]


def test_evaluate_word_walks_each_element_once(monkeypatch):
    # one right multiplication per (element, sign), and per inverse letter one
    # more to find the inverse: a long word costs a lookup a letter
    from cayleykit import groups

    walks = []
    right = groups._right
    monkeypatch.setattr(groups, "_right", lambda G, g: walks.append(g) or right(G, g))
    G = dihedral(420)
    assignment = {i: el for i, (_, el) in enumerate(G.generators)}
    word = parse_word("r^1000 f^-1 r^-3 f", ("r", "f"))
    # f^-1 r^-3 f = r^3, so the word is r^1003 = r^163 in D_420
    assert evaluate_word(G, assignment, word) == evaluate_word(
        G, assignment, parse_word("r^163", ("r", "f"))
    )
    assert len(walks) == 1 + 2 + 2 + 1 + 1


def test_evaluate_word_missing_assignment():
    G = dihedral(4)
    with pytest.raises(KeyError):
        evaluate_word(G, {}, w((0, 1)))


def test_presentation_invariants():
    with pytest.raises(ValueError):
        Presentation((), ())
    with pytest.raises(ValueError):
        Presentation(("r",), (w((0, 1), (0, -1)),))
    with pytest.raises(ValueError):
        Presentation(("r",), (w((1, 1)),))


@pytest.mark.parametrize(
    "generators, relators, message",
    [
        ((), (), "presentation needs at least one generator"),
        (("red color",), (), "invalid generator name 'red color'"),
        (("r", "s", "r"), (), "duplicate generator name 'r'"),
        (("r",), (w(),), "empty relator"),
        (("r",), (w((0, 1), (0, -1)),), "relator is not free-reduced"),
        (("r", "s"), (w((0, 1), (2, 1)),), "relator refers to undeclared generator 2"),
        (("r",), (w((0, 2)),), "bad exponent sign 2"),
    ],
)
def test_presentation_rejection_messages(generators, relators, message):
    with pytest.raises(ValueError) as err:
        Presentation(generators, relators)
    assert str(err.value) == message
