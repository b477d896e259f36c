"""The textual document format: parsing, serialization, validation."""

from dataclasses import replace

import pytest

from acgw import (
    AcgwError,
    Document,
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
from acgw.chains import Transition

from conftest import CORPUS_NAMES, corpus_doc, corpus_text


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
    ],
)
def test_parse_error_lines(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert fragment in str(err.value)


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


def _labelled(inp):
    """``inp`` with every morphism running from ``{FIELD.s}`` to ``{FIELD.t}``."""
    fields = {
        name: type(mor)((f"{name}.s",), (f"{name}.t",), ())
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
            "ses S: cannot build the quotient (mixed pullback needs a shared target: "
            "{c d} vs {c d e})",
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
            "ses S: cannot build the quotient (no factorization: b lands at a, outside the "
            "image of the given morphism)",
        ],
    ),
}


@pytest.mark.parametrize("case", BROKEN_DOCUMENTS, ids=str)
def test_broken_set_documents_keep_their_messages(case):
    build, expected = BROKEN_DOCUMENTS[case]
    assert validate_document(build()) == expected
