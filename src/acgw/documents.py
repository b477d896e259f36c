"""A line-oriented text format for complexes and their morphisms.

A document holds one instance declaration and any number of named
sections::

    instance set                    # or: instance linear  (+ "prime P")

    complex X:
      object 2: a b                 # linear: object 2: dim 3
      transition 2: t0 t1           # linear: transition 2: dim 1
        up: t0->a t1->b             # optional; identity when omitted
        down: t0->c t1->d           # linear: up/down take JSON matrices

    hor f: X -> Y                   # levelwise morphism, bars derived
      level 2: a->a b->b

    ver g: Z -> Y
      level 2: p->p

    map F: X <- Z -> Y              # span: back levels into X, front into Y
      back 2: p->p
      front 2: p->p

    ses S: f                        # short exact sequence generated by f

    snake weak W:                   # rows of objects, then morphisms
      top: a | a b c | c
      middle:  | a b  | b
      bottom: a | a b | b
      top_mono: a->a                # by field; optional, an inclusion
                                    # when omitted (linear: zero)

``#`` starts a comment.  Indentation is cosmetic; content lines attach to
the most recent section header.  Ids match ``[A-Za-z0-9_.+-]+``.  The
serializer emits a canonical form that parses back to an equal document.

:func:`section_problems` decides whether a section may be computed on;
:func:`validate_document` and the ``acgw`` commands both ask it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter, eq, is_

from .chains import (
    ChainComplex,
    ChainMap,
    ChainSES,
    HorChainMor,
    Transition,
    VerChainMor,
    _READ,
    ses_from_injection,
    validate_chain_map,
    validate_complex,
    validate_hor_chain_mor,
    validate_ver_chain_mor,
)
from .core import AcgwError, AcgwInstance, HorMor, VerMor, parse_decimal
from .finset import FinSetInstance
from .linear import LinearInstance
from .snake import (
    SnakeInputStrong,
    SnakeInputWeak,
    _LAYOUT,
    _ROWS,
    _snake_rows,
    validate_snake_strong,
    validate_snake_weak,
)

__all__ = [
    "ParseError",
    "Document",
    "parse",
    "serialize",
    "section_complexes",
    "section_problems",
    "validate_document",
]

_NAME_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")

#: the instance class of each ``instance KIND`` line
_INSTANCES = {cls.kind: cls for cls in (FinSetInstance, LinearInstance)}

#: the most degrees a complex may span; each one between its ends is built
_MAX_DEGREES = 10_000


class ParseError(AcgwError):
    """A document could not be read; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Document:
    """A parsed document: named complexes, morphisms and snake inputs."""

    inst: AcgwInstance
    complexes: tuple[tuple[str, ChainComplex], ...] = ()
    hors: tuple[tuple[str, HorChainMor], ...] = ()
    vers: tuple[tuple[str, VerChainMor], ...] = ()
    maps: tuple[tuple[str, ChainMap], ...] = ()
    seses: tuple[tuple[str, str], ...] = ()  # ses name -> hor name
    snakes_weak: tuple[tuple[str, SnakeInputWeak], ...] = ()
    snakes_strong: tuple[tuple[str, SnakeInputStrong], ...] = ()

    @property
    def kind(self) -> str:
        return self.inst.kind

    @property
    def prime(self) -> int:
        return self.inst.prime

    def _named(self, pairs, name: str, what: str):
        for n, value in pairs:
            if n == name:
                return value
        raise AcgwError(f"document has no {what} named {name!r}")

    def name_of(self, cx: ChainComplex) -> str | None:
        """The name of ``cx``: the complex that is ``cx`` itself, else the
        first one equal to it; None if there is none."""
        for same in (is_, eq):
            for name, known in self.complexes:
                if same(known, cx):
                    return name
        return None

    def complex_named(self, name: str) -> ChainComplex:
        return self._named(self.complexes, name, "complex")

    def hor_named(self, name: str) -> HorChainMor:
        return self._named(self.hors, name, "horizontal morphism")

    def ver_named(self, name: str) -> VerChainMor:
        return self._named(self.vers, name, "vertical morphism")

    def map_named(self, name: str) -> ChainMap:
        return self._named(self.maps, name, "chain map")

    def sub_named(self, name: str) -> HorChainMor:
        """The sub morphism of the short exact sequence ``name``."""
        return self.hor_named(self._named(self.seses, name, "short exact sequence"))

    def ses_named(self, name: str) -> ChainSES:
        return ses_from_injection(self.sub_named(name))

    def snake_weak_named(self, name: str) -> SnakeInputWeak:
        return self._named(self.snakes_weak, name, "weak snake input")

    def snake_strong_named(self, name: str) -> SnakeInputStrong:
        return self._named(self.snakes_strong, name, "strong snake input")


# ---------------------------------------------------------------------------
# Pass 1: raw line structure.  Payloads stay text, with their line numbers,
# until the instance is known.
# ---------------------------------------------------------------------------


def _parse_int(line: int, token: str, what: str, signed: bool = False) -> int:
    """``token`` as :func:`parse_decimal` reads it, else ``bad <what>``."""
    value = parse_decimal(token, signed)
    if value is None:
        raise ParseError(line, f"bad {what} {token!r}")
    return value


#: the whitespace stripped from a line, its text after the keyword and a
#: degree token: space and tab (``str.splitlines`` cuts at the other
#: ASCII line breaks).  ``str.strip`` alone also strips other spaces,
#: such as a no-break space.
_ASCII_SPACE = " \t"


def _degree(line: int, token: str) -> int:
    """A degree token between ASCII whitespace, else ``bad degree``."""
    return _parse_int(line, token.strip(_ASCII_SPACE), "degree", signed=True)


def _content(line: int, text: str, key: str) -> str:
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(line, f"missing ':' in {key} line")
    return rest.strip(_ASCII_SPACE)


@dataclass
class _RawTransition:
    line: int
    text: str
    up: tuple[int, str] | None = None
    down: tuple[int, str] | None = None


@dataclass
class _RawComplex:
    line: int
    name: str
    objects: dict = field(default_factory=dict)  # degree -> (line, text)
    transitions: dict = field(default_factory=dict)
    last: _RawTransition | None = None


@dataclass
class _RawMor:
    line: int
    name: str
    src: str
    tgt: str
    levels: dict = field(default_factory=dict)  # degree -> (line, text)


@dataclass
class _RawMap:
    line: int
    name: str
    src: str
    mid: str
    tgt: str
    back: dict = field(default_factory=dict)
    front: dict = field(default_factory=dict)


@dataclass
class _RawSnake:
    line: int
    name: str
    strong: bool
    rows: dict = field(default_factory=dict)  # row -> (line, [texts])
    mors: dict = field(default_factory=dict)  # field -> (line, text)


#: per strength (``strong``): the rows of a snake section, each with the
#: objects it names, and the fields of the morphisms it may give
_SNAKE_LINES = {
    strong: (
        dict(row for row in _ROWS if strong or row[0] not in ("abar", "cbar")),
        {f for f, *_ in _LAYOUT[SnakeInputStrong if strong else SnakeInputWeak]},
    )
    for strong in (False, True)
}


def _scan(text: str):
    """First pass: cut the document into raw named sections."""
    cls = None
    prime = None  # (line, value) of the prime line
    complexes: list[_RawComplex] = []
    mors: list[tuple[str, _RawMor]] = []
    maps: list[_RawMap] = []
    seses: list[tuple[int, str, str]] = []
    snakes: list[_RawSnake] = []
    names: set[str] = set()
    current = None  # the section open for content lines

    def new_name(no: int, name: str) -> str:
        if not _NAME_RE.match(name):
            raise ParseError(no, f"bad name {name!r}")
        if name in names:
            raise ParseError(no, f"duplicate name {name!r}")
        names.add(name)
        return name

    def level_line(no: int, store: dict, key: str, rest: str) -> None:
        deg_tok, _, payload = rest.partition(":")
        deg = _degree(no, deg_tok)
        if deg in store:
            raise ParseError(no, f"repeated {key} degree {deg}")
        store[deg] = (no, payload.strip(_ASCII_SPACE))

    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip(_ASCII_SPACE)
        if not stripped:
            continue
        head, _, rest = stripped.partition(" ")
        rest = rest.strip(_ASCII_SPACE)

        if head == "instance":
            if cls is not None:
                raise ParseError(no, "repeated instance line")
            if rest not in _INSTANCES:
                raise ParseError(no, f"unknown instance {rest!r}")
            cls = _INSTANCES[rest]
            continue
        if cls is None:
            raise ParseError(no, "the document must start with an instance line")

        if head == "prime":
            if prime is not None:
                raise ParseError(no, "repeated prime line")
            prime = (no, _parse_int(no, rest, "prime"))
            continue

        if head == "complex":
            m = re.match(r"(\S+):\Z", rest)
            if not m:
                raise ParseError(no, "want: complex NAME:")
            current = _RawComplex(no, new_name(no, m.group(1)))
            complexes.append(current)
            continue
        if head in ("hor", "ver"):
            m = re.match(r"(\S+):\s*(\S+)\s*->\s*(\S+)\Z", rest)
            if not m:
                raise ParseError(no, f"want: {head} NAME: SRC -> TGT")
            current = _RawMor(no, new_name(no, m.group(1)), m.group(2), m.group(3))
            mors.append((head, current))
            continue
        if head == "map":
            m = re.match(r"(\S+):\s*(\S+)\s*<-\s*(\S+)\s*->\s*(\S+)\Z", rest)
            if not m:
                raise ParseError(no, "want: map NAME: SRC <- MID -> TGT")
            current = _RawMap(no, new_name(no, m.group(1)), *m.group(2, 3, 4))
            maps.append(current)
            continue
        if head == "ses":
            m = re.match(r"(\S+):\s*(\S+)\Z", rest)
            if not m:
                raise ParseError(no, "want: ses NAME: HORNAME")
            seses.append((no, new_name(no, m.group(1)), m.group(2)))
            current = None
            continue
        if head == "snake":
            m = re.match(r"(weak|strong)\s+(\S+):\Z", rest)
            if not m:
                raise ParseError(no, "want: snake weak NAME: (or strong)")
            current = _RawSnake(no, new_name(no, m.group(2)), m.group(1) == "strong")
            snakes.append(current)
            continue

        # ---- content lines ------------------------------------------
        if isinstance(current, _RawComplex):
            if head in ("object", "transition"):
                deg_tok, sep, payload = rest.partition(":")
                if not sep:
                    raise ParseError(no, f"missing ':' in {head} line")
                deg = _degree(no, deg_tok)
                store = current.objects if head == "object" else current.transitions
                if deg in store:
                    raise ParseError(no, f"repeated {head} degree {deg}")
                payload = payload.strip(_ASCII_SPACE)
                if head == "object":
                    store[deg] = (no, payload)
                else:
                    store[deg] = current.last = _RawTransition(no, payload)
                continue
            if head in ("up:", "down:", "up", "down"):
                key = head.rstrip(":")
                payload = _content(no, stripped, key)
                if current.last is None:
                    raise ParseError(no, f"{key} line before any transition")
                if getattr(current.last, key) is not None:
                    raise ParseError(no, f"repeated {key} line for one transition")
                setattr(current.last, key, (no, payload))
                continue
            raise ParseError(no, f"unexpected {head!r} inside a complex")
        if isinstance(current, _RawMor):
            if head == "level":
                level_line(no, current.levels, "level", rest)
                continue
            raise ParseError(no, f"unexpected {head!r} inside a morphism")
        if isinstance(current, _RawMap):
            if head in ("back", "front"):
                level_line(no, getattr(current, head), head, rest)
                continue
            raise ParseError(no, f"unexpected {head!r} inside a map")
        if isinstance(current, _RawSnake):
            key = head.rstrip(":")
            rows, fields = _SNAKE_LINES[current.strong]
            if key in rows:
                store = current.rows
                parts = _content(no, stripped, key).split("|")
                value = [part.strip(_ASCII_SPACE) for part in parts]
                if len(value) != len(rows[key]):
                    what = f"{key} row wants {len(rows[key])} object(s) separated by '|'"
                    raise ParseError(no, what)
            elif key in fields:
                store, value = current.mors, _content(no, stripped, key)
            else:
                kind = "strong" if current.strong else "weak"
                raise ParseError(no, f"unexpected {head!r} inside a {kind} snake")
            if key in store:
                raise ParseError(no, f"repeated {key} line")
            store[key] = (no, value)
            continue
        raise ParseError(no, f"unexpected {head!r} outside any section")

    if cls is None:
        raise ParseError(1, "empty document (no instance line)")
    return cls, prime, complexes, mors, maps, seses, snakes


# ---------------------------------------------------------------------------
# Pass 2: build real objects through the instance's hooks.
# ---------------------------------------------------------------------------


def _hook(line: int, what: str, fn, *args):
    """Call an instance hook; an error it raises becomes a
    :class:`ParseError` at ``line``, prefixed by ``what``."""
    try:
        return fn(*args)
    except AcgwError as exc:
        raise ParseError(line, f"{what}: {exc}" if what else str(exc)) from None


def _mor(inst, mor_type, source, target, payload, line: int, what: str, leg: bool = False):
    """The morphism a ``(line, text)`` payload, or its absence, describes."""
    at, text = payload if payload is not None else (line, None)
    return _hook(at, what, inst.mor_from_text, mor_type, source, target, text, leg)


def _build_complex(inst: AcgwInstance, raw: _RawComplex) -> ChainComplex:
    if not raw.objects:
        raise ParseError(raw.line, f"complex {raw.name!r} has no objects")
    lo, hi = min(raw.objects), max(raw.objects)
    if hi - lo + 1 > _MAX_DEGREES:
        what = f"complex {raw.name!r} spans degrees {lo}..{hi}, more than {_MAX_DEGREES:,}"
        raise ParseError(raw.line, what)
    for deg, t in raw.transitions.items():
        if not lo + 1 <= deg <= hi:
            raise ParseError(
                t.line, f"transition degree {deg} outside object range {lo}..{hi}"
            )
    objects = []
    for i in range(lo, hi + 1):
        if i in raw.objects:
            line, text = raw.objects[i]
            objects.append(_hook(line, f"object {i}", inst.obj_from_text, text))
        else:
            objects.append(inst.initial())
    transitions = []
    for i in range(lo + 1, hi + 1):
        t = raw.transitions.get(i)
        upper, lower = objects[i - lo], objects[i - 1 - lo]
        if t is None:
            transitions.append(
                Transition(inst.initial(), inst.zero_ver(upper), inst.zero_hor(lower))
            )
            continue
        obj = _hook(t.line, f"transition {i}", inst.obj_from_text, t.text)
        up = _mor(inst, VerMor, obj, upper, t.up, t.line, "up", leg=True)
        down = _mor(inst, HorMor, obj, lower, t.down, t.line, "down", leg=True)
        transitions.append(Transition(obj, up, down))
    cx = ChainComplex(inst, lo, hi, tuple(objects), tuple(transitions))
    # every object is initial() or what obj_from_text returned, which is
    # canonical or raised, so validation need not check them again
    vars(cx)[_READ] = True
    return cx


#: per flavour: the chain morphism and level classes, and how a bar level
#: at degree ``i`` is forced: the morphism a level induces between legs,
#: how far below ``i`` that level sits, and the transition leg
_FLAVOURS = {
    "hor": (HorChainMor, HorMor, attrgetter("hor_between_cokers"), 0, attrgetter("into_upper")),
    "ver": (VerChainMor, VerMor, attrgetter("ver_between_kernels"), 1, attrgetter("into_lower")),
}


def _chain_mor(
    inst: AcgwInstance,
    line: int,
    key: str,
    levels: dict,
    src: ChainComplex,
    tgt: ChainComplex,
    flavor: str,
):
    """The ``flavor`` chain morphism ``src -> tgt`` (or ``src => tgt``)
    whose levels are the raw ``key`` lines of the section that starts at
    ``line``; its bar levels are forced by the transition legs.  When one
    cannot be and ``src`` or ``tgt`` is invalid, the morphism is kept with
    no bar levels, for :func:`section_problems` to report unchecked."""
    chain, mor_type, between, below, leg = _FLAVOURS[flavor]
    for deg, (at, _) in levels.items():
        if not src.lo <= deg <= src.hi:
            raise ParseError(at, f"{key} degree {deg} outside range")
    mors = tuple(
        _mor(inst, mor_type, src.obj(i), tgt.obj(i), levels.get(i), line, f"{key} {i}")
        for i in src.degrees()
    )
    legs = ((i, leg(src.transition(i)), leg(tgt.transition(i))) for i in src.transition_degrees())
    try:
        bars = tuple(
            _hook(line, f"bar level {i}", between(inst), mors[i - below - src.lo], p, q)
            for i, p, q in legs
        )
    except ParseError:
        if not (validate_complex(src) or validate_complex(tgt)):
            raise
        bars = ()
    return chain(src, tgt, mors, bars)


def _build_snake(inst: AcgwInstance, raw: _RawSnake) -> SnakeInputWeak | SnakeInputStrong:
    """The input of a snake section: the objects of its rows, and each
    morphism read from the line of its field, as a transition leg is."""
    cls = SnakeInputStrong if raw.strong else SnakeInputWeak
    objects = {}
    for row, names in _SNAKE_LINES[raw.strong][0].items():
        if row not in raw.rows:
            raise ParseError(raw.line, f"snake {raw.name!r} is missing its {row} row")
        line, parts = raw.rows[row]
        objects.update(zip(names, (_hook(line, row, inst.obj_from_text, p) for p in parts)))
    mors = {
        f: _mor(inst, mor_type, objects[s], objects[t], raw.mors.get(f), raw.line, f, leg=True)
        for f, mor_type, s, t in _LAYOUT[cls]
    }
    return cls(inst, **mors)


def parse(text: str) -> Document:
    """Parse a document; raises :class:`ParseError` with a line number."""
    cls, prime, raw_cx, raw_mors, raw_maps, raw_seses, raw_snakes = _scan(text)
    prime_line, value = prime if prime is not None else (1, None)
    inst = _hook(prime_line, "", cls.from_header, value)

    complexes: list[tuple[str, ChainComplex]] = []
    for raw in raw_cx:
        complexes.append((raw.name, _build_complex(inst, raw)))

    def lookup(line: int, name: str) -> ChainComplex:
        for n, cx in complexes:
            if n == name:
                return cx
        raise ParseError(line, f"unknown complex {name!r}")

    mors: dict[str, list] = {"hor": [], "ver": []}
    for flavor, raw in raw_mors:
        src, tgt = lookup(raw.line, raw.src), lookup(raw.line, raw.tgt)
        f = _chain_mor(inst, raw.line, "level", raw.levels, src, tgt, flavor)
        mors[flavor].append((raw.name, f))
    hors, vers = mors["hor"], mors["ver"]

    maps: list[tuple[str, ChainMap]] = []
    for raw in raw_maps:
        src = lookup(raw.line, raw.src)
        mid = lookup(raw.line, raw.mid)
        tgt = lookup(raw.line, raw.tgt)
        back = _chain_mor(inst, raw.line, "back", raw.back, mid, src, "ver")
        front = _chain_mor(inst, raw.line, "front", raw.front, mid, tgt, "hor")
        maps.append((raw.name, ChainMap(src, mid, tgt, back, front)))

    seses: list[tuple[str, str]] = []
    known_hors = {n for n, _ in hors}
    for line, name, hor_name in raw_seses:
        if hor_name not in known_hors:
            raise ParseError(line, f"unknown horizontal morphism {hor_name!r}")
        seses.append((name, hor_name))

    weaks: list[tuple[str, SnakeInputWeak]] = []
    strongs: list[tuple[str, SnakeInputStrong]] = []
    for raw in raw_snakes:
        (strongs if raw.strong else weaks).append((raw.name, _build_snake(inst, raw)))

    return Document(
        inst,
        tuple(complexes),
        tuple(hors),
        tuple(vers),
        tuple(maps),
        tuple(seses),
        tuple(weaks),
        tuple(strongs),
    )


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _with_payload(head: str, text: str) -> str:
    return head + (f" {text}" if text else "")


def _name_of(doc: Document, cx: ChainComplex, what: str) -> str:
    name = doc.name_of(cx)
    if name is None:
        raise AcgwError(f"{what} refers to a complex that is not in the document")
    return name


def _emit_complex(doc: Document, name: str, cx: ChainComplex, out: list[str]) -> None:
    inst = doc.inst
    out.append(f"complex {name}:")
    for i in cx.degrees():
        out.append(_with_payload(f"  object {i}:", inst.obj_text(cx.obj(i))))
    for i in cx.transition_degrees():
        t = cx.transition(i)
        out.append(_with_payload(f"  transition {i}:", inst.obj_text(t.obj)))
        for key, leg in (("up", t.into_upper), ("down", t.into_lower)):
            text = inst.mor_text(leg, leg=True)
            if text is not None:
                out.append(f"    {key}: {text}")
    out.append("")


def _emit_levels(
    doc: Document, key: str, levels, lo: int, out: list[str]
) -> None:
    for offset, mor in enumerate(levels):
        text = doc.inst.mor_text(mor)
        if text is not None:
            out.append(f"  {key} {lo + offset}: {text}")


def _emit_row(doc: Document, key: str, parts: tuple, out: list[str]) -> None:
    texts = (doc.inst.obj_text(part) for part in parts)
    out.append((f"  {key}: " + " | ".join(texts)).rstrip())


def serialize(doc: Document) -> str:
    """Canonical text form; ``parse(serialize(doc)) == doc``."""
    out: list[str] = [f"instance {doc.kind}", *doc.inst.header(), ""]
    for name, cx in doc.complexes:
        _emit_complex(doc, name, cx, out)
    for head, mors in (("hor", doc.hors), ("ver", doc.vers)):
        for name, f in mors:
            src = _name_of(doc, f.source, f"{head} {name}")
            tgt = _name_of(doc, f.target, f"{head} {name}")
            out.append(f"{head} {name}: {src} -> {tgt}")
            _emit_levels(doc, "level", f.levels, f.source.lo, out)
            out.append("")
    for name, f in doc.maps:
        src = _name_of(doc, f.source, f"map {name}")
        mid = _name_of(doc, f.middle, f"map {name}")
        tgt = _name_of(doc, f.target, f"map {name}")
        out.append(f"map {name}: {src} <- {mid} -> {tgt}")
        _emit_levels(doc, "back", f.back.levels, f.middle.lo, out)
        _emit_levels(doc, "front", f.front.levels, f.middle.lo, out)
        out.append("")
    for name, hor_name in doc.seses:
        out.append(f"ses {name}: {hor_name}")
        out.append("")
    for head, snakes in (("weak", doc.snakes_weak), ("strong", doc.snakes_strong)):
        for name, s in snakes:
            out.append(f"snake {head} {name}:")
            for key, parts in _snake_rows(s).items():
                _emit_row(doc, key, parts, out)
            for f, *_ in _LAYOUT[type(s)]:
                text = doc.inst.mor_text(getattr(s, f), leg=True)
                if text is not None:
                    out.append(f"  {f}: {text}")
            out.append("")
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def _sub_problems(f: HorChainMor) -> list[str]:
    """The problems of an ``ses`` section on ``f``: those of ``f``, as
    ``sub:`` lines.  The quotient of a valid sub morphism is valid, so it
    is not built here; of the ``acgw`` commands, only ``les`` builds it."""
    return [f"sub: {p}" for p in validate_hor_chain_mor(f)]


def _section(doc: Document, head: str, name: str):
    """The section ``head name`` of ``doc``, the complexes it lies over
    (its ``source``, ``middle`` and ``target``; a snake input has none)
    and the check of its problems over valid complexes.  An ``ses``
    section is its sub morphism."""
    named, check = {
        "hor": (doc.hor_named, validate_hor_chain_mor),
        "ver": (doc.ver_named, validate_ver_chain_mor),
        "map": (doc.map_named, validate_chain_map),
        "ses": (doc.sub_named, _sub_problems),
        "snake weak": (doc.snake_weak_named, validate_snake_weak),
        "snake strong": (doc.snake_strong_named, validate_snake_strong),
    }[head]
    section = named(name)
    ends = ("source", "middle", "target")
    return section, tuple(getattr(section, a) for a in ends if hasattr(section, a)), check


def section_complexes(doc: Document, head: str, name: str) -> tuple[ChainComplex, ...]:
    """The complexes that the section ``head name`` of ``doc`` lies over."""
    return _section(doc, head, name)[1]


def section_problems(doc: Document, head: str, name: str) -> list[str]:
    """The lines ``validate`` prints for the section ``head name`` of
    ``doc`` (``head`` is ``hor``, ``ver``, ``map``, ``ses``, ``snake weak``
    or ``snake strong``); an unknown name raises :class:`AcgwError`.  A
    section over an invalid complex is not checked or computed on: it gets
    one line naming the first such complex.  The problems are kept on the
    complexes and chain morphisms, so asking again checks nothing."""
    section, over, check = _section(doc, head, name)
    for cx in over:
        if validate_complex(cx):
            return [f"{head} {name}: not checked, complex {doc.name_of(cx)} is invalid"]
    return [f"{head} {name}: {p}" for p in check(section)]


def validate_document(doc: Document) -> list[str]:
    """Every structural problem of a document: those of each complex,
    then :func:`section_problems` of each section, taken by head in the
    order below."""
    problems = [f"complex {n}: {p}" for n, cx in doc.complexes for p in validate_complex(cx)]
    heads = ("hor", "ver", "map", "ses", "snake weak", "snake strong")
    fields = (doc.hors, doc.vers, doc.maps, doc.seses, doc.snakes_weak, doc.snakes_strong)
    for head, sections in zip(heads, fields):
        problems += [p for name, _ in sections for p in section_problems(doc, head, name)]
    return problems
