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

    snake weak W:                   # finite sets only, literal subsets
      top: a | a b c | c
      middle:  | a b  | b
      bottom: a | a b | b

``#`` starts a comment.  Indentation is cosmetic; content lines attach to
the most recent section header.  Ids match ``[A-Za-z0-9_.+-]+``.  The
serializer emits a canonical form that parses back to an equal document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter

from .chains import (
    ChainComplex,
    ChainMap,
    ChainSES,
    HorChainMor,
    Transition,
    VerChainMor,
    _ses_problems,
    ses_from_injection,
    validate_chain_map,
    validate_complex,
    validate_hor_chain_mor,
    validate_ver_chain_mor,
)
from .core import AcgwError, AcgwInstance, HorMor, VerMor
from .finset import FinSetInstance
from .linear import LinearInstance
from .snake import (
    SnakeInputStrong,
    SnakeInputWeak,
    validate_snake_strong,
    validate_snake_weak,
)

__all__ = [
    "ParseError",
    "Document",
    "parse",
    "serialize",
    "validate_document",
]

_NAME_RE = re.compile(r"[A-Za-z0-9_.+-]+\Z")

#: the instance class of each ``instance KIND`` line
_INSTANCES = {cls.kind: cls for cls in (FinSetInstance, LinearInstance)}


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

    def complex_named(self, name: str) -> ChainComplex:
        return self._named(self.complexes, name, "complex")

    def hor_named(self, name: str) -> HorChainMor:
        return self._named(self.hors, name, "horizontal morphism")

    def ver_named(self, name: str) -> VerChainMor:
        return self._named(self.vers, name, "vertical morphism")

    def map_named(self, name: str) -> ChainMap:
        return self._named(self.maps, name, "chain map")

    def ses_named(self, name: str) -> ChainSES:
        hor = self._named(self.seses, name, "short exact sequence")
        return ses_from_injection(self.hor_named(hor))

    def snake_weak_named(self, name: str) -> SnakeInputWeak:
        return self._named(self.snakes_weak, name, "weak snake input")

    def snake_strong_named(self, name: str) -> SnakeInputStrong:
        return self._named(self.snakes_strong, name, "strong snake input")


# ---------------------------------------------------------------------------
# Pass 1: raw line structure.  Payloads stay text, with their line numbers,
# until the instance is known.
# ---------------------------------------------------------------------------


def _parse_degree(line: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line, f"bad degree {token!r}") from None


def _content(line: int, text: str, key: str) -> str:
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(line, f"missing ':' in {key} line")
    return rest.strip()


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
    rows: dict = field(default_factory=dict)  # key -> (line, [texts])


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
        deg = _parse_degree(no, deg_tok.strip())
        if deg in store:
            raise ParseError(no, f"repeated {key} degree {deg}")
        store[deg] = (no, payload.strip())

    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        head, _, rest = stripped.partition(" ")
        rest = rest.strip()

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
            prime = (no, _parse_degree(no, rest))
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
            if not cls.has_canonical_subobjects:
                raise ParseError(
                    no, "snake sections need an instance with literal subobjects"
                )
            current = _RawSnake(no, new_name(no, m.group(2)), m.group(1) == "strong")
            snakes.append(current)
            continue

        # ---- content lines ------------------------------------------
        if isinstance(current, _RawComplex):
            if head in ("object", "transition"):
                deg_tok, sep, payload = rest.partition(":")
                if not sep:
                    raise ParseError(no, f"missing ':' in {head} line")
                deg = _parse_degree(no, deg_tok.strip())
                store = current.objects if head == "object" else current.transitions
                if deg in store:
                    raise ParseError(no, f"repeated {head} degree {deg}")
                if head == "object":
                    store[deg] = (no, payload.strip())
                else:
                    store[deg] = current.last = _RawTransition(no, payload.strip())
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
            if key in ("top", "middle", "bottom"):
                parts = _content(no, stripped, key).split("|")
                if len(parts) != 3:
                    raise ParseError(no, f"{key} row wants three id lists separated by '|'")
                if key in current.rows:
                    raise ParseError(no, f"repeated {key} row")
                current.rows[key] = (no, parts)
                continue
            if key in ("abar", "cbar"):
                if not current.strong:
                    raise ParseError(no, f"{key} is only meaningful for strong snakes")
                if key in current.rows:
                    raise ParseError(no, f"repeated {key} row")
                current.rows[key] = (no, [_content(no, stripped, key)])
                continue
            raise ParseError(no, f"unexpected {head!r} inside a snake")
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
    return ChainComplex(inst, lo, hi, tuple(objects), tuple(transitions))


#: per flavour: the chain morphism and level classes, and how a bar level
#: at degree ``i`` is forced: the instance's lift hook, how far below ``i``
#: the level it lifts along sits, and the transition leg it lifts
_FLAVOURS = {
    "hor": (HorChainMor, HorMor, attrgetter("lift_hor_bar"), 0, attrgetter("into_upper")),
    "ver": (VerChainMor, VerMor, attrgetter("lift_ver_bar"), 1, attrgetter("into_lower")),
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
    ``line``; its bar levels are forced by the transition legs."""
    chain, mor_type, lift, below, leg = _FLAVOURS[flavor]
    for deg, (at, _) in levels.items():
        if not src.lo <= deg <= src.hi:
            raise ParseError(at, f"{key} degree {deg} outside range")
    mors = tuple(
        _mor(inst, mor_type, src.obj(i), tgt.obj(i), levels.get(i), line, f"{key} {i}")
        for i in src.degrees()
    )
    bars = tuple(
        _hook(
            line,
            f"degree {i}",
            lift(inst),
            mors[i - below - src.lo],
            leg(src.transition(i)),
            leg(tgt.transition(i)),
        )
        for i in src.transition_degrees()
    )
    return chain(src, tgt, mors, bars)


def _snake_rows(inst: AcgwInstance, raw: _RawSnake) -> dict:
    """Every row of a snake section as objects, keyed by row name."""
    wanted = ("top", "middle", "bottom") + (("abar", "cbar") if raw.strong else ())
    out = {}
    for key in wanted:
        if key not in raw.rows:
            raise ParseError(raw.line, f"snake {raw.name!r} is missing its {key} row")
        line, parts = raw.rows[key]
        out[key] = [_hook(line, key, inst.obj_from_text, part) for part in parts]
    return out


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
    hor, ver = inst.inclusion_hor, inst.inclusion_ver
    for raw in raw_snakes:
        rows = _snake_rows(inst, raw)
        a, b, c = rows["top"]
        x, y, z = rows["middle"]
        a2, b2, c2 = rows["bottom"]
        if not raw.strong:
            weaks.append(
                (
                    raw.name,
                    SnakeInputWeak(
                        inst,
                        top_mono=hor(a, b),
                        top_epi=ver(c, b),
                        mid_mono=hor(x, y),
                        mid_epi=ver(z, y),
                        bot_mono=hor(a2, b2),
                        bot_epi=ver(c2, b2),
                        left_up=ver(x, a),
                        left_down=hor(x, a2),
                        mid_up=ver(y, b),
                        mid_down=hor(y, b2),
                        right_up=ver(z, c),
                        right_down=hor(z, c2),
                    ),
                )
            )
        else:
            (abar,), (cbar2,) = rows["abar"], rows["cbar"]
            strongs.append(
                (
                    raw.name,
                    SnakeInputStrong(
                        inst,
                        left_up=ver(x, a),
                        restrict_to_top=ver(abar, a),
                        top_mono=hor(abar, b),
                        left_up_restricted=ver(x, abar),
                        mid_up=ver(y, b),
                        top_epi=ver(c, b),
                        right_up=ver(z, c),
                        mid_mono=hor(x, y),
                        mid_epi=ver(z, y),
                        bot_mono=hor(a2, b2),
                        left_down=hor(x, a2),
                        mid_down=hor(y, b2),
                        bot_epi_restricted=ver(cbar2, b2),
                        right_down_restricted=hor(z, cbar2),
                        extend_to_bot=hor(cbar2, c2),
                    ),
                )
            )

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
    for name, known in doc.complexes:
        if known == cx:
            return name
    raise AcgwError(f"{what} refers to a complex that is not in the document")


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
    for name, s in doc.snakes_weak:
        out.append(f"snake weak {name}:")
        for key, mono, epi in (
            ("top", s.top_mono, s.top_epi),
            ("middle", s.mid_mono, s.mid_epi),
            ("bottom", s.bot_mono, s.bot_epi),
        ):
            _emit_row(doc, key, (mono.source, mono.target, epi.source), out)
        out.append("")
    for name, s in doc.snakes_strong:
        out.append(f"snake strong {name}:")
        for key, parts in (
            ("top", (s.left_up.target, s.top_mono.target, s.top_epi.source)),
            ("abar", (s.top_mono.source,)),
            ("middle", (s.mid_mono.source, s.mid_mono.target, s.mid_epi.source)),
            ("cbar", (s.extend_to_bot.source,)),
            ("bottom", (s.bot_mono.source, s.bot_mono.target, s.extend_to_bot.target)),
        ):
            _emit_row(doc, key, parts, out)
        out.append("")
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def validate_document(doc: Document) -> list[str]:
    """Collect all structural problems of every section of a document.

    A ``hor``, ``ver``, ``map`` or ``ses`` section over a complex with
    problems is not checked or computed on (its checks take valid
    complexes); it gets one line naming the first such complex.
    """
    problems: list[str] = []
    invalid: list[tuple[str, ChainComplex]] = []
    for name, cx in doc.complexes:
        found = validate_complex(cx)
        problems += [f"complex {name}: {p}" for p in found]
        if found:
            invalid.append((name, cx))

    def unchecked(section: str, *complexes: ChainComplex) -> bool:
        """Whether ``section`` is over an invalid complex; if so, say so."""
        for cx in complexes:
            names = [n for n, c in invalid if c is cx] or [n for n, c in invalid if c == cx]
            if names:
                problems.append(f"{section}: not checked, complex {names[0]} is invalid")
                return True
        return False

    hor_problems = {}
    for name, f in doc.hors:
        if not unchecked(f"hor {name}", f.source, f.target):
            hor_problems[name] = validate_hor_chain_mor(f)
            problems += [f"hor {name}: {p}" for p in hor_problems[name]]
    for name, g in doc.vers:
        if not unchecked(f"ver {name}", g.source, g.target):
            problems += [f"ver {name}: {p}" for p in validate_ver_chain_mor(g)]
    for name, f in doc.maps:
        if not unchecked(f"map {name}", f.source, f.middle, f.target):
            problems += [f"map {name}: {p}" for p in validate_chain_map(f)]
    hors = dict(doc.hors)
    for name, hor_name in doc.seses:
        sub = hors.get(hor_name)
        if sub is not None and unchecked(f"ses {name}", sub.source, sub.target):
            continue
        try:
            ses = doc.ses_named(name)
        except AcgwError as exc:
            problems.append(f"ses {name}: cannot build the quotient ({exc})")
            continue
        # The sub morphism is the hor section checked above: reuse its problems.
        problems += [f"ses {name}: {p}" for p in _ses_problems(ses, hor_problems[hor_name])]
    for name, s in doc.snakes_weak:
        problems += [f"snake weak {name}: {p}" for p in validate_snake_weak(s)]
    for name, s in doc.snakes_strong:
        problems += [f"snake strong {name}: {p}" for p in validate_snake_strong(s)]
    return problems
