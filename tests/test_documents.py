"""The textual document format: parsing, serialization, validation."""

import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acgw import (
    AcgwError,
    ChainComplex,
    Document,
    FinSetInstance,
    GenConfig,
    HorMor,
    ParseError,
    gen_chain_map,
    gen_hor_mor,
    gen_ses,
    gen_snake_strong,
    gen_snake_weak,
    gen_ver_mor,
    parse,
    serialize,
    validate_document,
    validate_complex,
    validate_snake_strong,
    validate_snake_weak,
    VerMor,
)
from acgw import chains, documents
from acgw.chains import Transition
from acgw.cli import _GEN, main
from acgw.snake import snake_strong, snake_weak, zigzag_is_exact

from conftest import CORPUS_NAMES, INSTANCES, PRIMES, corpus_doc, corpus_text


# ---------------------------------------------------------------------------
# Corpus round trips.
# ---------------------------------------------------------------------------


def test_corpus_parses_and_validates(corpus_name):
    doc = corpus_doc(corpus_name)
    assert validate_document(doc) == []


def test_corpus_round_trip_document_identity(corpus_name):
    doc = parse(corpus_text(corpus_name))
    assert parse(serialize(doc)) == doc


def test_corpus_round_trip_text_fixpoint(corpus_name):
    canonical = serialize(parse(corpus_text(corpus_name)))
    assert serialize(parse(canonical)) == canonical


def test_corpus_covers_every_section_kind():
    kinds = set()
    for name in CORPUS_NAMES:
        doc = corpus_doc(name)
        if doc.complexes:
            kinds.add("complex")
        if doc.hors:
            kinds.add("hor")
        if doc.maps:
            kinds.add("map")
        if doc.seses:
            kinds.add("ses")
        if doc.snakes_weak:
            kinds.add("snake")
        if doc.kind == "linear":
            kinds.add("linear")
    assert kinds == {"complex", "hor", "map", "ses", "snake", "linear"}


# ---------------------------------------------------------------------------
# Parsing: small hand-written documents.
# ---------------------------------------------------------------------------


def test_parse_minimal_set_document():
    doc = parse("instance set\ncomplex X:\n  object 0: b a\n")
    assert doc.kind == "set"
    X = doc.complex_named("X")
    assert X.obj(0) == ("a", "b")
    assert validate_complex(X) == []


def test_parse_empty_object_line():
    doc = parse("instance set\ncomplex X:\n  object 0:\n")
    assert doc.complex_named("X").obj(0) == ()


def test_parse_transition_with_explicit_legs():
    text = (
        "instance set\n"
        "complex X:\n"
        "  object 0: p\n"
        "  object 1: q\n"
        "  transition 1: t\n"
        "    up: t->q\n"
        "    down: t->p\n"
    )
    X = parse(text).complex_named("X")
    assert X.transition(1).obj == ("t",)
    assert X.transition(1).into_upper.data == (("t",), ("q",))
    assert X.transition(1).into_lower.data == (("t",), ("p",))
    assert validate_complex(X) == []


def test_parse_identity_legs_by_default():
    text = (
        "instance set\n"
        "complex X:\n"
        "  object 0: p\n"
        "  object 1: p\n"
        "  transition 1: p\n"
    )
    X = parse(text).complex_named("X")
    assert X.transition(1).into_upper.data == (("p",), ("p",))
    assert X.transition(1).into_lower.data == (("p",), ("p",))


def test_parse_linear_document_defaults():
    text = (
        "instance linear\n"
        "prime 3\n"
        "complex X:\n"
        "  object 0: dim 2\n"
        "  object 1: dim 2\n"
        "  transition 1: dim 0\n"
    )
    doc = parse(text)
    assert doc.prime == 3
    X = doc.complex_named("X")
    assert X.obj(0).dim == 2 and X.transition(1).obj.dim == 0
    assert validate_complex(X) == []


def test_parse_map_and_derived_bars():
    doc = corpus_doc("span_legs")
    m = doc.map_named("F")
    # Bar levels are derived, not written in the file, yet must validate.
    from acgw import validate_chain_map

    assert validate_chain_map(m) == []
    assert "bar" not in corpus_text("span_legs")


def test_named_lookup_errors():
    doc = corpus_doc("inclusion_pair")
    with pytest.raises(AcgwError):
        doc.complex_named("nope")
    with pytest.raises(AcgwError):
        doc.hor_named("nope")
    with pytest.raises(AcgwError):
        doc.ses_named("nope")


def test_snake_sections_build_and_validate():
    weak = corpus_doc("snake_weak_small").snake_weak_named("S")
    assert validate_snake_weak(weak) == []


#: a weak F_p snake section with no morphism lines
LINEAR_SNAKE = """\
instance linear
prime 3

snake weak S:
  top: dim 1 | dim 1 | dim 0
  middle: dim 1 | dim 1 | dim 0
  bottom: dim 1 | dim 1 | dim 0
"""


def test_an_omitted_linear_snake_morphism_is_zero():
    doc = parse(LINEAR_SNAKE)
    inp = doc.snake_weak_named("S")
    assert inp.inst.hor_matrix(inp.top_mono).tolist() == [[0]]
    assert validate_document(doc)[0] == "snake weak S: top_mono: horizontal matrix is not injective"


# ---------------------------------------------------------------------------
# Parse errors carry line numbers.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("instance frobnicate\n", 1, "unknown instance"),
        ("complex X:\n  object 0: a\n", 1, "instance line"),
        ("instance set\ncomplex X:\n  object 0: a\n  frob: 1\n", 4, "unexpected"),
        ("instance set\nhor f: A -> B\n", 2, "unknown complex"),
        ("instance set\ncomplex X:\n  object 0: a\ncomplex X:\n  object 0: b\n", 4, "duplicate"),
        ("instance set\ncomplex X:\n  object 0: a{b\n", 3, "bad id"),
        ("instance set\nprime 2\n", 2, "prime"),
        ("instance set\ncomplex X:\n", 2, "no objects"),
        (
            "instance linear\nprime 2\ncomplex X:\n  object 0: dim 1\n"
            "  object 1: dim 1\n  transition 1: dim 1\n    up: [[oops]]\n",
            7,
            "bad matrix",
        ),
        (LINEAR_SNAKE + "  top_mono: [[1]]\n  top_mono: [[1]]\n", 9, "repeated top_mono line"),
        (LINEAR_SNAKE + "  restrict_to_top: [[1]]\n", 8, "'restrict_to_top:' inside a weak snake"),
        (LINEAR_SNAKE + "  left_up: [[1]]\n  mid_up: [[oops]]\n", 9, "mid_up: bad matrix"),
        (LINEAR_SNAKE + "  mid_down: [[1, 0]]\n", 8, "mid_down: matrix must be 1x1"),
    ],
)
def test_parse_error_lines(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert fragment in str(err.value)


#: integer spellings that ``int`` reads but a document does not: an
#: underscore, a plus sign, an Arabic-Indic and a fullwidth digit
NOT_ASCII_DECIMAL = ("1_0", "+11", "\u0663", "\uff11")
#: numbers next to a space that ``str.strip`` strips but a line does not:
#: a no-break, a thin and an ideographic space after the digits, and a
#: no-break space before them
UNICODE_SPACED = ("1\u00a0", "1\u2009", "1\u3000", "\u00a01")


@pytest.mark.parametrize(
    "token", ("abc", "", "3.0", "-3", "6_5_5_2_1") + NOT_ASCII_DECIMAL + UNICODE_SPACED
)
def test_a_prime_that_is_not_an_integer_is_a_bad_prime(token):
    with pytest.raises(ParseError) as err:
        parse(f"instance linear\nprime {token}\n")
    assert str(err.value) == f"line 2: bad prime {token!r}"


@pytest.mark.parametrize("token", NOT_ASCII_DECIMAL + UNICODE_SPACED + ("--1", "-+1"))
@pytest.mark.parametrize("line", ["object {}: a", "transition {}: a"])
def test_a_degree_is_ascii_digits_after_an_optional_minus(token, line):
    text = "instance set\ncomplex X:\n  object 0: a\n  " + line.format(token) + "\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line 4: bad degree {token!r}"


@pytest.mark.parametrize("token", NOT_ASCII_DECIMAL + UNICODE_SPACED)
def test_a_level_degree_is_ascii_digits(token):
    # map back and front lines read their degrees as level lines do
    text = SWAP_COMPLEX + f"hor f: X -> X\n  level {token}: a->a b->b\n"
    with pytest.raises(ParseError) as err:
        parse("instance set\n" + text)
    assert str(err.value).endswith(f"bad degree {token!r}")


def test_negative_and_zero_padded_degrees_read_as_integers():
    # ASCII spaces and tabs around a degree are stripped
    X = parse("instance set\ncomplex X:\n  object -1 : a\n  object 00\t: b\n").complex_named("X")
    assert (X.lo, X.hi) == (-1, 0)


@pytest.mark.parametrize("token", NOT_ASCII_DECIMAL + ("-1",))
def test_a_dimension_is_ascii_digits(token):
    text = f"instance linear\nprime 3\ncomplex X:\n  object 1: dim {token}\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line 4: object 1: want: dim N, got 'dim {token}'"


@pytest.mark.parametrize(
    ("text", "problem"),
    [
        ("instance linear\nprime {}\n", "line 2: bad prime"),
        ("instance set\ncomplex X:\n  object {}: a\n", "line 3: bad degree"),
        ("instance linear\nprime 3\ncomplex X:\n  object 1: dim {}\n", "want: dim N"),
    ],
    ids=["prime", "degree", "dim"],
)
def test_more_digits_than_int_converts_are_a_parse_error(text, problem):
    # ``int`` raises ValueError past 4,300 digits
    with pytest.raises(ParseError) as err:
        parse(text.format("1" * 5000))
    assert problem in str(err.value)


def test_parse_fills_degree_gaps_with_empty_objects():
    text = "instance set\ncomplex X:\n  object 0: a\n  object 2: b\n"
    X = parse(text).complex_named("X")
    assert [X.obj(i) for i in X.degrees()] == [("a",), (), ("b",)]
    assert validate_complex(X) == []
    # Canonical form spells the filled degree out.
    assert "object 1:" in serialize(parse(text))


# ---------------------------------------------------------------------------
# Serialization specifics.
# ---------------------------------------------------------------------------


def test_serialize_omits_identity_legs_and_empty_levels():
    text = serialize(corpus_doc("inclusion_pair"))
    assert "up:" not in text  # identity legs stay implicit for sets
    assert "level 1:" not in text  # empty levels stay implicit
    assert "level 2: a->a" in text


def test_serialize_linear_always_writes_matrices():
    text = serialize(corpus_doc("linear_small"))
    assert "up: [[1, 0]]" in text
    assert "down: [[0], [1]]" in text


def test_serialize_orders_sections():
    text = serialize(corpus_doc("inclusion_pair"))
    assert text.index("complex X:") < text.index("complex Y:")
    assert text.index("complex Y:") < text.index("hor f:")
    assert text.index("hor f:") < text.index("ses S:")


def test_document_equality_is_structural():
    a = parse(corpus_text("inclusion_pair"))
    b = parse(corpus_text("inclusion_pair"))
    assert a == b and a is not b


def test_documents_over_different_primes_differ():
    text = corpus_text("linear_small")
    a, b = parse(text), parse(text.replace("prime 2", "prime 3"))
    assert (a.kind, a.prime, b.prime) == ("linear", 2, 3)
    assert a != b and a == parse(text)


#: two equal complexes under different names, and a section over the second
EQUAL_COMPLEXES = (
    "instance set\n"
    "\n"
    "complex X:\n"
    "  object 0: a\n"
    "\n"
    "complex Y:\n"
    "  object 0: a\n"
    "\n"
    "hor f: Y -> Y\n"
    "  level 0: a->a\n"
)


def test_round_trip_keeps_the_name_of_an_equal_complex():
    doc = parse(EQUAL_COMPLEXES)
    assert serialize(doc) == EQUAL_COMPLEXES
    assert parse(serialize(doc)) == doc
    assert doc.name_of(doc.hor_named("f").source) == "Y"


@pytest.mark.parametrize("seed", range(20))
def test_generated_snake_inputs_round_trip(seed):
    weak, strong = gen_snake_weak(GenConfig(seed=seed)), gen_snake_strong(GenConfig(seed=seed))
    doc = Document(weak.inst, snakes_weak=(("W", weak),), snakes_strong=(("S", strong),))
    assert parse(serialize(doc)) == doc
    assert validate_document(doc) == []


@pytest.mark.parametrize("prime", (2, 3, 5, 7))
def test_generated_linear_sections_round_trip(prime):
    for seed in range(10):
        cfg = GenConfig(seed=seed, instance="linear", prime=prime)
        f, g, m, ses = gen_hor_mor(cfg), gen_ver_mor(cfg), gen_chain_map(cfg), gen_ses(cfg)
        complexes = (
            ("X", f.source), ("Y", f.target), ("Z", g.source), ("W", g.target),
            ("S", m.source), ("M", m.middle), ("T", m.target),
            ("A", ses.sub.source), ("B", ses.sub.target),
        )
        doc = Document(
            f.source.inst,
            complexes=complexes,
            hors=(("f", f), ("s", ses.sub)),
            vers=(("g", g),),
            maps=(("F", m),),
            seses=(("E", "s"),),
        )
        text = serialize(doc)
        assert parse(text) == doc
        assert serialize(parse(text)) == text
        assert validate_document(doc) == []


@pytest.mark.parametrize("prime", (2, 3, 65521))
@pytest.mark.parametrize("strong", (False, True), ids=("weak", "strong"))
def test_generated_linear_snakes_round_trip_and_are_exact(prime, strong):
    gen, build = (gen_snake_strong, snake_strong) if strong else (gen_snake_weak, snake_weak)
    section = "snakes_strong" if strong else "snakes_weak"
    for seed in range(50):
        inp = gen(GenConfig(seed=seed, instance="linear", prime=prime))
        doc = Document(inp.inst, **{section: (("S", inp),)})
        text = serialize(doc)
        read = parse(text)
        assert read == doc
        assert serialize(read) == text
        assert validate_document(read) == []
        (_, parsed), = getattr(read, section)
        zz = build(parsed)
        assert zigzag_is_exact(zz)
        # F_p[-] keeps sizes: the zigzag of the set snake of the same seed
        twin = build(gen(GenConfig(seed=seed)))
        assert [o.dim for o in zz.objects] == [len(o) for o in twin.objects]


#: the corpus weak snake with its middle row renamed (``p``, ``q`` to
#: ``m``, ``n``): every morphism out of it is written as pairs, and those
#: into it are still literal inclusions, so they are omitted
RENAMED_SNAKE = """\
instance set

snake weak S:
  top: a2 p | a2 c1 p q | c1 q
  middle: m | m n | n
  bottom: p | b1 p q | b1 q
  left_up: m->p
  left_down: m->p
  mid_up: m->p n->q
  mid_down: m->p n->q
  right_up: n->q
  right_down: n->q
"""


def test_a_set_snake_with_renaming_pairs_matches_its_inclusion_twin():
    doc = parse(RENAMED_SNAKE)
    assert serialize(doc) == RENAMED_SNAKE
    assert validate_document(doc) == []
    renamed = snake_weak(doc.snake_weak_named("S"))
    twin = snake_weak(corpus_doc("snake_weak_small").snake_weak_named("S"))
    assert zigzag_is_exact(renamed)
    assert list(map(len, renamed.objects)) == list(map(len, twin.objects))
    assert [len(t.obj) for t in renamed.transitions] == [len(t.obj) for t in twin.transitions]


def _labelled(inp):
    """``inp`` with every morphism running from ``{FIELD.s}`` to ``{FIELD.t}``."""
    fields = {
        name: type(mor)((f"{name}.s",), (f"{name}.t",), ((), ()))
        for name, mor in vars(inp).items()
        if name != "inst"
    }
    return replace(inp, **fields)


def test_serialize_reads_each_snake_row_object_from_a_fixed_field():
    weak = _labelled(gen_snake_weak(GenConfig(seed=0)))
    strong = _labelled(gen_snake_strong(GenConfig(seed=0)))
    doc = Document(weak.inst, snakes_weak=(("W", weak),), snakes_strong=(("S", strong),))
    assert serialize(doc).splitlines() == [
        "instance set",
        "",
        "snake weak W:",
        "  top: top_mono.s | top_mono.t | top_epi.s",
        "  middle: mid_mono.s | mid_mono.t | mid_epi.s",
        "  bottom: bot_mono.s | bot_mono.t | bot_epi.s",
        "",
        "snake strong S:",
        "  top: left_up.t | top_mono.t | top_epi.s",
        "  abar: top_mono.s",
        "  middle: mid_mono.s | mid_mono.t | mid_epi.s",
        "  cbar: extend_to_bot.s",
        "  bottom: bot_mono.s | bot_mono.t | extend_to_bot.t",
    ]


# ---------------------------------------------------------------------------
# Messages of broken documents.  Validation checks each object once and a
# morphism between checked objects by its payload alone; a morphism on
# other objects is checked in full, so every message stays as it was.
# ---------------------------------------------------------------------------


def _with_levels(levels):
    """The ``three_term_ses`` corpus document with ``levels(X, Y)`` as the
    levels of its ``hor`` section."""
    doc = corpus_doc("three_term_ses")
    (name, f), = doc.hors
    return replace(doc, hors=((name, replace(f, levels=levels(f.source, f.target))),))


def _with_transition(transition):
    """A one-transition complex with ``transition(T)`` in place of its
    transition ``T``."""
    doc = parse("instance set\ncomplex X:\n  object 1: a b\n  object 2: a b\n  transition 2: a b\n")
    (name, x), = doc.complexes
    x = replace(x, transitions=(transition(x.transitions[0]),))
    return replace(doc, complexes=((name, x),))


#: a leg on a non-canonical object: the transition object itself, or only
#: the source of the upper leg
UNSORTED = ("b", "a")
UNSORTED_UP = lambda t: VerMor(UNSORTED, t.into_upper.target, (UNSORTED, UNSORTED))

#: the sub-complex {a} of Y, whose transition t runs from a in it to b
#: outside it: the quotient has no transition leg for t
NOT_SPLIT = """instance set
complex X:
  object 0:
  object 1: a
complex Y:
  object 0: b
  object 1: a
  transition 1: t
    up: t->a
    down: t->b
hor f: X -> Y
  level 1: a->a
ses S: f
"""

BROKEN_DOCUMENTS = {
    "level off its objects with a bad payload, level with a bad payload": (
        lambda: _with_levels(
            lambda x, y: (
                HorMor(("c", "e"), y.obj(1), (("c", "e"), ("c", "c"))),
                HorMor(x.obj(2), y.obj(2), (("x",), ("c",))),
            )
        ),
        [
            "hor f: level 1: morphism is not injective",
            "hor f: level 2: morphism is not total on its source: defined on ['x'], source is []",
            "ses S: sub: level 1: morphism is not injective",
            "ses S: sub: level 2: morphism is not total on its source: defined on ['x'], "
            "source is []",
        ],
    ),
    "level with wrong endpoints": (
        lambda: _with_levels(
            lambda x, y: (
                HorMor(("c",), ("c", "d", "e"), (("c",), ("c",))),
                HorMor(x.obj(2), y.obj(2), ((), ())),
            )
        ),
        [
            "hor f: level 1 has wrong endpoints",
            "ses S: sub: level 1 has wrong endpoints",
        ],
    ),
    "transition on a non-canonical object": (
        lambda: _with_transition(
            lambda t: Transition(
                UNSORTED,
                UNSORTED_UP(t),
                HorMor(UNSORTED, t.into_lower.target, (UNSORTED, UNSORTED)),
            )
        ),
        [
            f"complex X: transition 2 {leg} leg: object ids are not sorted and unique: ('b', 'a')"
            for leg in ("upper", "lower")
        ],
    ),
    "leg from a non-canonical object": (
        lambda: _with_transition(lambda t: Transition(t.obj, UNSORTED_UP(t), t.into_lower)),
        ["complex X: transition 2 upper leg: object ids are not sorted and unique: ('b', 'a')"],
    ),
    "quotient that does not split": (
        lambda: parse(NOT_SPLIT),
        [
            "hor f: upper square at degree 1 is not distinguished (COMMUTING)",
            "ses S: sub: upper square at degree 1 is not distinguished (COMMUTING)",
        ],
    ),
}


@pytest.mark.parametrize("case", BROKEN_DOCUMENTS, ids=str)
def test_broken_set_documents_keep_their_messages(case):
    build, expected = BROKEN_DOCUMENTS[case]
    assert validate_document(build()) == expected


# ---------------------------------------------------------------------------
# Bar levels: the reader forces each one with the instance's induced
# morphism between complements (``hor_between_cokers`` or
# ``ver_between_kernels``), before validation.  When one cannot be forced
# over an invalid complex, the section is kept without bar levels and
# reported as not checked; over valid complexes the level is blamed.
# ---------------------------------------------------------------------------


def _set_complex(name, up, down="s->b t->c"):
    return (
        f"complex {name}:\n  object 1: b c\n  object 2: a b\n"
        f"  transition 2: s t\n    up: {up}\n    down: {down}\n"
    )


#: sections over ``X`` and ``Y`` whose levels are identities
IDENTITY_HOR = "hor f: X -> Y\n  level 1: b->b c->c\n  level 2: a->a b->b\n"
IDENTITY_MAP = (
    "map F: Y <- X -> Y\n  back 1: b->b c->c\n  back 2: a->a b->b\n"
    "  front 1: b->b c->c\n  front 2: a->a b->b\n"
)


def _set_doc(up, section):
    """``X``, whose upper leg is ``up``, ``Y``, whose upper leg is total,
    and ``section`` (its header is line 14)."""
    return "instance set\n" + _set_complex("X", up) + _set_complex("Y", "s->a t->b") + section


#: an ``F_3`` complex ``X`` whose upper leg is not surjective, and a
#: ``hor`` section on it with identity levels (its header is line 18)
LINEAR_NOT_SURJECTIVE = """instance linear
prime 3

complex X:
  object 1: dim 1
  object 2: dim 1
  transition 2: dim 1
    up: [[0]]
    down: [[1]]

complex Y:
  object 1: dim 1
  object 2: dim 1
  transition 2: dim 1
    up: [[1]]
    down: [[1]]

hor f: X -> Y
  level 1: [[1]]
  level 2: [[1]]
"""


def test_a_bar_level_along_a_leg_that_is_not_total_leaves_the_complex_to_blame():
    doc = parse(_set_doc("s->a", IDENTITY_HOR))
    assert validate_document(doc) == [
        "complex X: transition 2 upper leg: morphism is not total on its source: "
        "defined on ['s'], source is ['s', 't']",
        "hor f: not checked, complex X is invalid",
    ]


#: a complex ``X`` whose one transition element ``s`` has both legs at ``a``
SWAP_COMPLEX = """complex X:
  object 1: a b
  object 2: a b
  transition 2: s
    up: s->a
    down: s->a
"""


#: the problem of ``X`` in ``_set_doc("s->a t->z", ...)``
OUTSIDE_Z = "complex X: transition 2 upper leg: morphism maps outside its target: ['z']"


@pytest.mark.parametrize(
    "text,expected",
    [
        (
            LINEAR_NOT_SURJECTIVE,
            [
                "complex X: transition 2 upper leg: vertical matrix is not surjective",
                "hor f: not checked, complex X is invalid",
            ],
        ),
        (
            _set_doc("s->a t->z", IDENTITY_HOR),
            [OUTSIDE_Z, "hor f: not checked, complex X is invalid"],
        ),
        (
            _set_doc("s->a t->z", IDENTITY_MAP),
            [OUTSIDE_Z, "map F: not checked, complex X is invalid"],
        ),
    ],
    ids=["linear", "set", "set-map"],
)
def test_a_bar_level_that_cannot_be_forced_over_an_invalid_complex_is_not_checked(
    tmp_path, capsys, text, expected
):
    # the same lines for an F_p and a set document, and the valid complex
    # Y can still be computed on
    doc = parse(text)
    assert validate_document(doc) == expected
    sections = [f for _, f in doc.hors] + [m for _, f in doc.maps for m in (f.back, f.front)]
    assert () in [f.bar_levels for f in sections]
    path = tmp_path / "doc.acgw"
    path.write_text(text)
    assert main(["homology", str(path), "--name", "Y"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "text,message",
    [
        # over valid complexes: the bar level is blamed.  The level sends a,
        # the upper image of s, to b, which no transition element sits above
        (
            "instance set\n" + SWAP_COMPLEX + "hor f: X -> X\n  level 2: a->b b->a\n",
            "line 8: bar level 2: morphism does not descend to complements: "
            "image of s is b, not in the target complement",
        ),
        # level 1 sends a, the lower image of s, to b, which no transition
        # element sits below
        (
            "instance set\n" + SWAP_COMPLEX + "ver g: X -> X\n  level 1: a->b b->a\n",
            "line 8: bar level 2: morphism does not restrict to complements: "
            "image of s is b, not in the target complement",
        ),
        # the target has no transition 2: the induced bar level is zero
        (
            "instance linear\nprime 3\n\ncomplex X:\n  object 1: dim 1\n  object 2: dim 1\n"
            "  transition 2: dim 1\n    up: [[1]]\n    down: [[1]]\n\n"
            "complex Y:\n  object 1: dim 1\n  object 2: dim 1\n\n"
            "hor f: X -> Y\n  level 1: [[1]]\n  level 2: [[1]]\n",
            "line 15: bar level 2: induced complement morphism is not injective",
        ),
    ],
    ids=["set-hor", "set-ver", "linear-hor"],
)
def test_a_bar_level_that_cannot_be_forced_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_parsing_a_valid_document_validates_no_complex(corpus_name, monkeypatch):
    calls = []
    monkeypatch.setattr(
        documents, "validate_complex", lambda cx: calls.append(cx) or validate_complex(cx)
    )
    corpus_doc(corpus_name)
    assert calls == []


# ---------------------------------------------------------------------------
# The reader's mark: each object the reader builds is canonical, so
# validate_complex does not check the objects of a complex it read again.
# ---------------------------------------------------------------------------

#: a few ids, so that a drawn object line repeats some of them
_FEW_IDS = st.sampled_from(("a", "b", "c", "x.1", "-y", "+z", "_", "10", "9"))
_IDS = st.one_of(_FEW_IDS, st.from_regex(r"[A-Za-z0-9_.+-]{1,3}", fullmatch=True))
_GAP = st.text(" \t", min_size=1, max_size=3)


@st.composite
def _ids_line(draw) -> str:
    """Ids in any order, some repeated, between runs of spaces and tabs."""
    ids = draw(st.lists(_IDS, max_size=8))
    gaps = draw(st.lists(_GAP, min_size=len(ids) + 1, max_size=len(ids) + 1))
    return gaps[0] + "".join(x + gap for x, gap in zip(ids, gaps[1:]))


@st.composite
def _set_document(draw) -> str:
    """A set complex whose object and transition lines are drawn by
    :func:`_ids_line`, at some of degrees 0..4; its omitted legs are the
    literal inclusions, valid or not."""
    degrees = sorted(draw(st.sets(st.integers(0, 4), min_size=1)))
    lines = ["instance set", "complex X:"]
    lines += [f"  object {i}: {draw(_ids_line())}" for i in degrees]
    for i in range(degrees[0] + 1, degrees[-1] + 1):
        if draw(st.booleans()):
            lines.append(f"  transition {i}: {draw(_ids_line())}")
    return "\n".join(lines) + "\n"


@st.composite
def _linear_document(draw) -> str:
    """An F_p complex of ``dim N`` lines, with extra whitespace."""
    degrees = sorted(draw(st.sets(st.integers(0, 4), min_size=1)))

    def dim() -> str:
        return f"dim{draw(_GAP)}{draw(st.integers(0, 6))}{draw(st.text(' ', max_size=2))}"

    lines = ["instance linear", f"prime {draw(PRIMES)}", "complex X:"]
    lines += [f"  object {i}: {dim()}" for i in degrees]
    for i in range(degrees[0] + 1, degrees[-1] + 1):
        if draw(st.booleans()):
            lines.append(f"  transition {i}: {dim()}")
    return "\n".join(lines) + "\n"


@st.composite
def _generated_document(draw) -> str:
    kind = draw(st.sampled_from(("complex", "exact", "hor", "ver", "map", "pair", "ses")))
    instance, prime = draw(st.sampled_from(INSTANCES)), draw(PRIMES)
    return serialize(_GEN[kind](GenConfig(draw(st.integers(0, 200)), instance=instance, prime=prime)))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        _set_document(),
        _linear_document(),
        _generated_document(),
        st.sampled_from(CORPUS_NAMES).map(corpus_text),
    )
)
def test_every_object_the_reader_builds_is_valid(text):
    doc = parse(text)
    for _, cx in doc.complexes:
        objects = [cx.obj(i) for i in cx.degrees()] + [t.obj for t in cx.transitions]
        assert all(doc.inst.validate_obj(obj) == [] for obj in objects)
        assert chains._READ in vars(cx)
        # the mark changes the work, never the verdict
        assert validate_complex(cx) == validate_complex(replace(cx))


#: the message of the object ``UNSORTED`` at degree 1
UNSORTED_AT_1 = f"object 1: object ids are not sorted and unique: {UNSORTED!r}"


def _unsorted(cx: ChainComplex) -> ChainComplex:
    """``cx`` with its object at degree 1, its lowest, out of order."""
    return replace(cx, objects=(UNSORTED,) + cx.objects[1:])


def test_an_unsorted_object_built_in_code_is_reported():
    cx = ChainComplex(FinSetInstance(), 1, 1, (UNSORTED,), ())
    assert validate_complex(cx) == [UNSORTED_AT_1]


def test_an_unsorted_object_in_a_replaced_parsed_complex_is_reported():
    cx = parse(corpus_text("three_term_ses")).complex_named("Y")
    assert validate_complex(cx) == []
    assert validate_complex(_unsorted(cx))[0] == UNSORTED_AT_1


def test_an_unsorted_object_in_a_copied_or_unpickled_complex_is_reported():
    cx = parse("instance set\ncomplex X:\n  object 1: a b\n").complex_named("X")
    bad = _unsorted(cx)
    # a mark that lied would hide the object: only the reader may set it
    vars(bad)[chains._READ] = True
    assert validate_complex(bad) == []
    for copied in (copy.copy(bad), copy.deepcopy(bad), pickle.loads(pickle.dumps(bad))):
        assert copied == bad and chains._READ not in vars(copied)
        assert validate_complex(copied) == [UNSORTED_AT_1]
