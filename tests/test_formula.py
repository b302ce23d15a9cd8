import dataclasses
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from bkw import formula as fm
from conftest import random_formula


def test_parse_modal_chain():
    f = fm.parse("[ab] Hba (Ua & D)")
    assert f == fm.Box("ab", fm.Heart("ba", fm.And(fm.Ua(), fm.Dclass())))


def test_parse_constants():
    assert fm.parse("true") == fm.Top()
    assert fm.parse("false") == fm.Bot()
    assert fm.parse("D+") == fm.Dplus()
    assert fm.parse("Dt") == fm.Dtopo()


def test_parse_topological_sentence():
    f = fm.parse("Ba Xb Dt & Ea true")
    assert f == fm.And(fm.TBel("a", fm.TAsm("b", fm.Dtopo())),
                       fm.TDia("a", fm.Top()))


def test_precedence():
    assert fm.parse("!p & q") == fm.And(fm.Not(fm.Atom("p")), fm.Atom("q"))
    assert fm.parse("p & q | r") == fm.Or(fm.And(fm.Atom("p"), fm.Atom("q")),
                                          fm.Atom("r"))
    assert fm.parse("p -> q -> r") == fm.Imp(fm.Atom("p"),
                                             fm.Imp(fm.Atom("q"), fm.Atom("r")))
    assert fm.parse("p | q <-> r") == fm.Iff(fm.Or(fm.Atom("p"), fm.Atom("q")),
                                             fm.Atom("r"))
    assert fm.parse("~p | q") == fm.Or(fm.Pneg(fm.Atom("p")), fm.Atom("q"))
    # conjunction and disjunction associate to the left
    assert fm.parse("p & q & r") == fm.And(fm.And(fm.Atom("p"), fm.Atom("q")),
                                           fm.Atom("r"))


def test_whitespace_insensitive():
    assert fm.parse(" [ab]   Hba ( Ua &  D ) ") == fm.parse("[ab] Hba (Ua & D)")


def test_print_examples():
    assert fm.to_text(fm.Box("ab", fm.Ua())) == "[ab] Ua"
    assert fm.to_text(fm.And(fm.Ua(), fm.Dclass())) == "Ua & D"
    assert str(fm.parse("Hab (p | q)")) == "Hab (p | q)"


def test_parse_errors_carry_positions():
    # the exact message and position of each kind of error
    table = [
        ("", "empty formula", 0),
        ("p & ", "expected a formula, found 'end of input'", 4),
        ("(p q", "expected ')'", 3),
        ("(p & q", "expected ')'", 6),
        ("p)", "unexpected trailing input ')'", 1),
        ("p q", "unexpected trailing input 'q'", 2),
        ("p !q", "unexpected trailing input '!'", 2),
        ("()", "expected a formula, found ')'", 1),
        ("Hab", "expected a formula, found 'end of input'", 3),
        ("[ab]", "expected a formula, found 'end of input'", 4),
        ("p -> ", "expected a formula, found 'end of input'", 5),
        ("p & %", "unexpected character '%'", 4),
        ("   ", "empty formula", 0),
    ]
    for text, message, position in table:
        with pytest.raises(fm.ParseError) as err:
            fm.parse(text)
        assert str(err.value) == f"{message} (at position {position})", text
        assert err.value.position == position, text


def test_tokenizer_reads_the_grammar_tables():
    # every token of the tables (and the parentheses) is read as one token
    for token in (*fm._CONSTANTS, *fm._PREFIXES, *fm._INFIX, "(", ")"):
        kind = "word" if token[0].isalpha() else token
        assert fm._tokenize(f" {token} ") == [(kind, token, 1), ("eof", "", len(token) + 2)]
    # symbols are matched longest first, with or without spaces between them
    assert [value for _, value, _ in fm._tokenize("<ab><->[ba]->!~p&D+|(q)")] == [
        "<ab>", "<->", "[ba]", "->", "!", "~", "p", "&", "D+", "|", "(", "q", ")", ""]
    # a malformed spelling fails at the first character that starts no token
    for text, position in (("<-", 0), ("p <- q", 2), ("[a", 0), ("[ab", 0), ("<ab", 0),
                           ("<a b>", 0), ("- >", 0), ("D +", 2), ("Dt+", 2), ("D++", 2)):
        with pytest.raises(fm.ParseError) as err:
            fm._tokenize(text)
        assert str(err.value) == (f"unexpected character {text[position]!r} "
                                  f"(at position {position})"), text


def _reference_tokenize(text):
    """The per-character tokenizer loop that the one regular expression
    replaced, kept as its oracle."""
    symbols = {t[0]: [s for s in fm._SYMBOL_TOKENS if s[0] == t[0]] for t in fm._SYMBOL_TOKENS}
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if text.startswith("+", j) and text[i:j] + "+" in fm._CONSTANTS:
                j += 1
            tokens.append(("word", text[i:j], i))
            i = j
        else:
            symbol = next((s for s in symbols.get(c, ()) if text.startswith(s, i)), None)
            if symbol is None:
                raise fm.ParseError(f"unexpected character {c!r}", i)
            tokens.append((symbol, symbol, i))
            i += len(symbol)
    tokens.append(("eof", "", n))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except fm.ParseError as exc:
        return str(exc), exc.position


#: the grammar's symbols and their pieces, "+" next to words, ASCII
#: letters and "_", and characters whose Unicode class sits at an edge:
#: a letter (é), digits that are not decimal (², ½), a decimal digit of
#: another script (٣), and whitespace that is not ASCII space (NBSP, \x1c)
_TOKEN_PIECES = sorted({*fm._SYMBOL_TOKENS, *"".join(fm._SYMBOL_TOKENS), "D+", "+", "x+",
                        "D", "Dt", "Ua", "Hab", "Ba", "true", "p", "q", "_", "0", "9",
                        " ", "\t", "é", "²", "½", "٣", "\xa0", "\x1c"})


@seed(27)
@settings(max_examples=2000, database=None, deadline=None)
@given(st.lists(st.sampled_from(_TOKEN_PIECES) | st.characters(max_codepoint=127),
                max_size=16).map("".join))
def test_tokenizer_matches_the_reference_loop(text):
    assert _tokens_or_error(fm._tokenize, text) == _tokens_or_error(_reference_tokenize, text)


def test_tokenizer_unicode_words():
    # a word starts with a letter or "_" and goes on with letters, digits or "_"
    for text in ("x²", "é½", "_", "_x", "p٣"):
        assert fm._tokenize(text) == [("word", text, 0), ("eof", "", len(text))]
        assert fm.parse(text) == fm.Atom(text)
    for text in ("²x", "½", "٣p", "0"):
        with pytest.raises(fm.ParseError) as err:
            fm._tokenize(text)
        assert str(err.value) == f"unexpected character {text[0]!r} (at position 0)"
    assert fm._tokenize("\xa0p\x1c") == [("word", "p", 1), ("eof", "", 3)]


def test_reserved_words():
    assert fm.RESERVED_WORDS == {"true", "false", "Ua", "Ub", "D", "D+", "Dt",
                                 "Hab", "Hba", "Ba", "Bb", "Xa", "Xb", "Ea", "Eb"}


def test_reserved_words_need_operands():
    # modal keywords cannot stand as atoms
    for word in ("Hab", "Ba", "Xb", "Ea"):
        with pytest.raises(fm.ParseError):
            fm.parse(word)
    # but longer identifiers are ordinary atoms
    assert fm.parse("Bax") == fm.Atom("Bax")
    assert fm.parse("Dtx") == fm.Atom("Dtx")


def test_direction_validation():
    with pytest.raises(ValueError):
        fm.Box("aa", fm.Top())
    with pytest.raises(ValueError):
        fm.TBel("c", fm.Top())


def test_modal_nodes_keep_their_identity():
    p = fm.Atom("p")
    assert fm.Box("ab", p) != fm.Heart("ab", p)
    assert fm.TBel("a", p) != fm.TAsm("a", p)
    assert fm.Box("ab", p) == fm.Box("ab", p) and fm.Box("ab", p) != fm.Box("ba", p)
    assert hash(fm.TDia("b", p)) == hash(fm.TDia("b", p))
    assert repr(fm.Diamond("ba", p)) == "Diamond(direction='ba', body=Atom(name='p'))"
    assert repr(fm.TAsm("b", p)) == "TAsm(agent='b', body=Atom(name='p'))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        fm.Heart("ba", p).body = p


def test_modal_depth():
    assert fm.modal_depth(fm.Ua()) == 0
    assert fm.modal_depth(fm.parse("[ab] Hba Ua")) == 2
    assert fm.modal_depth(fm.parse("[ab] [ba] [ab] Hba Ua")) == 4
    assert fm.modal_depth(fm.parse("[ab] p & q")) == 1
    assert fm.modal_depth(fm.parse("!Ba ~Xb p")) == 2
    # iterative, like the parser
    assert fm.modal_depth(fm.parse("[ab] " * 3000 + "p")) == 3000


def test_roundtrip_random_asts():
    rng = random.Random(20240811)
    for _ in range(1000):
        f = random_formula(rng, rng.randint(0, 6))
        assert fm.parse(fm.to_text(f)) == f


def test_deep_nesting_parses():
    deep = "!" * 3000 + "p"
    assert fm.to_text(fm.parse(deep)) == deep
    assert fm.parse("(" * 3000 + "p" + ")" * 3000) == fm.Atom("p")
    for levels in (130, 1000):
        text = "p"
        for _ in range(levels):
            text = f"!(p & {text})"
        assert fm.to_text(fm.parse(text)) == text


def test_deep_formulas_compare_hash_and_print():
    # ==, hash() and repr() loop like the parser: 3000 levels of ! and of
    # each modality, whose direction or agent is a field beside the body
    f, g = fm.parse("!" * 3000 + "p"), fm.parse("!" * 3000 + "p")
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != fm.parse("!" * 3000 + "q") and f != fm.parse("!" * 2999 + "p")
    assert repr(f) == "Not(body=" * 3000 + "Atom(name='p')" + ")" * 3000
    assert len({f, g, fm.parse("!" * 2999 + "p")}) == 2
    for token, other, name, field in (("[ab] ", "[ba] ", "Box", "direction='ab'"),
                                      ("Hba ", "Hab ", "Heart", "direction='ba'"),
                                      ("Xb ", "Xa ", "TAsm", "agent='b'")):
        deep, same = fm.parse(token * 3000 + "p"), fm.parse(token * 3000 + "p")
        assert deep == same and hash(deep) == hash(same)
        assert deep != fm.parse(token * 2999 + other + "p")
        assert repr(deep) == f"{name}({field}, body=" * 3000 + "Atom(name='p')" + ")" * 3000


def test_deep_mixed_round_trip():
    # 9000 levels: 4000 prefix operators under 1500 left-nested &, 1500
    # left-nested |, 1000 right-nested -> and 1000 right-nested <->.  The
    # parser and the printer both loop, so no depth is out of their reach.
    prefixes = (fm.Not, fm.Pneg, lambda g: fm.Box("ab", g),
                lambda g: fm.Heart("ba", g), lambda g: fm.Diamond("ab", g),
                lambda g: fm.TBel("a", g), lambda g: fm.TAsm("b", g),
                lambda g: fm.TDia("a", g))
    p, q = fm.Atom("p"), fm.Atom("q")
    f = p
    for i in range(4000):
        f = prefixes[i % len(prefixes)](f)
    for _ in range(1500):
        f = fm.And(f, fm.Not(q))
    for _ in range(1500):
        f = fm.Or(f, fm.And(fm.Ua(), fm.Ub()))
    for _ in range(1000):
        f = fm.Imp(fm.Or(p, q), f)
    for _ in range(1000):
        f = fm.Iff(fm.Imp(p, q), f)
    text = fm.to_text(f)
    assert text.startswith("p -> q <-> p -> q <-> ") and "(" not in text
    # printing back the parsed formula reproduces every level, in place
    assert fm.to_text(fm.parse(text)) == text
