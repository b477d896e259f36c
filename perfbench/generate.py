"""Seeded document generators whose answers are known by construction.

Every generator draws from a ``random.Random`` it is given and returns
document text in exactly the canonical form that ``acgw.serialize``
emits, together with the answers its construction guarantees (homology
sizes per degree, verdicts, zigzag shapes).  Arithmetic is exact Python
int arithmetic and nothing here imports ``acgw``, so changes to the
library cannot change the inputs or the expected answers.

Finite-set complexes are described by objects (sets of ids per degree)
and transitions ``{tid: (up_id, down_id)}``: each transition element
hits one id of ``X_i`` through its upper leg and one id of ``X_{i-1}``
through its lower leg.  Because no id is hit twice within a degree the
chain condition holds and ``|H_i| = |X_i| - |T_i| - |T_{i+1}|``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

#: primes whose products and dot products stay inside int64 at the sizes
#: used here, and one (2**31 - 1) whose dot products overflow int64
SAFE_PRIMES = (2, 7, 65521, 33554393)
OVERFLOW_PRIME = 2**31 - 1


class Ids:
    """Fresh ids for one document.

    The first five hex digits scramble a counter by a fixed odd
    multiplier, so they are unique and put the ids of every seed in the
    same sorted order relative to the structure: inputs of one shape then
    cost the same whatever the seed.  The last five digits come from the
    seed."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._count = 0

    def fresh(self) -> str:
        self._count += 1
        scrambled = (self._count * 0x9E3779B1) % (1 << 20)
        return f"{scrambled:05x}{self._rng.getrandbits(20):05x}"


@dataclass
class SetComplex:
    """A finite-set complex: ``objects[i]`` for ``lo..hi`` and
    ``transitions[i] = {tid: (up_id, down_id)}`` for ``lo+1..hi``."""

    lo: int
    hi: int
    objects: dict[int, set[str]]
    transitions: dict[int, dict[str, tuple[str, str]]] = field(default_factory=dict)

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def trans(self, i: int) -> dict[str, tuple[str, str]]:
        return self.transitions.get(i, {})

    def homology_sizes(self) -> dict[int, int]:
        return {
            i: len(self.objects[i]) - len(self.trans(i)) - len(self.trans(i + 1))
            for i in self.degrees()
        }

    def restrict(self, objects: dict[int, set[str]], tids: dict[int, set[str]]) -> "SetComplex":
        return SetComplex(
            self.lo,
            self.hi,
            objects,
            {i: {t: self.transitions[i][t] for t in tids[i]} for i in self.transitions},
        )


# ---------------------------------------------------------------------------
# Canonical text.
# ---------------------------------------------------------------------------


def _ids_line(head: str, ids) -> str:
    body = " ".join(sorted(ids))
    return head + (f" {body}" if body else "")


def set_complex_lines(name: str, cx: SetComplex) -> list[str]:
    out = [f"complex {name}:"]
    for i in cx.degrees():
        out.append(_ids_line(f"  object {i}:", cx.objects[i]))
    for i in range(cx.lo + 1, cx.hi + 1):
        tr = cx.trans(i)
        tids = sorted(tr)
        out.append(_ids_line(f"  transition {i}:", tids))
        if any(t != tr[t][0] for t in tids):
            out.append("    up: " + " ".join(f"{t}->{tr[t][0]}" for t in tids))
        if any(t != tr[t][1] for t in tids):
            out.append("    down: " + " ".join(f"{t}->{tr[t][1]}" for t in tids))
    out.append("")
    return out


def inclusion_lines(key: str, sub: SetComplex) -> list[str]:
    """Levelwise literal inclusions ``x->x``; empty levels are omitted."""
    return [
        f"  {key} {i}: " + " ".join(f"{x}->{x}" for x in sorted(sub.objects[i]))
        for i in sub.degrees()
        if sub.objects[i]
    ]


def document(header: list[str], sections: list[list[str]]) -> str:
    out = header + [""]
    for sec in sections:
        out += sec
        if out[-1] != "":
            out.append("")
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Finite-set complexes and chain morphisms.
# ---------------------------------------------------------------------------


#: transition sizes as shares of the degree width, cycled over the degrees
TRANSITION_SHARES = (0.30, 0.40, 0.35, 0.325, 0.375)


def transition_sizes(lo: int, hi: int, width: int) -> dict[int, int]:
    """``|T_i|`` for ``lo+1..hi`` and 0 at the ends; a fixed pattern, so
    that inputs of one width cost the same whatever the seed."""
    t = {i: round(width * TRANSITION_SHARES[(i - lo - 1) % 5]) for i in range(lo + 1, hi + 1)}
    t[lo] = t[hi + 1] = 0
    return t


def set_complex(
    rng: random.Random, ids: Ids, lo: int, hi: int, width: int, relabel: bool = True
) -> SetComplex:
    """``width`` ids per degree.  With ``relabel`` every second transition
    uses fresh transition ids with explicit legs; the others use identity
    legs (an id shared by two consecutive degrees)."""
    t = transition_sizes(lo, hi, width)
    objects: dict[int, set[str]] = {i: set() for i in range(lo, hi + 1)}
    transitions: dict[int, dict[str, tuple[str, str]]] = {}
    for i in range(lo + 1, hi + 1):
        tr: dict[str, tuple[str, str]] = {}
        for _ in range(t[i]):
            if relabel and (i - lo) % 2 == 0:
                tid, up, down = ids.fresh(), ids.fresh(), ids.fresh()
            else:
                tid = up = down = ids.fresh()
            tr[tid] = (up, down)
            objects[i].add(up)
            objects[i - 1].add(down)
        transitions[i] = tr
    for i in objects:
        objects[i].update(ids.fresh() for _ in range(width - len(objects[i])))
    return SetComplex(lo, hi, objects, transitions)


def hor_sub(rng: random.Random, y: SetComplex) -> SetComplex:
    """A random sub-complex whose literal inclusion is a horizontal chain
    morphism: working downward, a transition element belongs to the
    sub-complex exactly when its upper image does, and its lower image is
    then forced into the degree below."""
    chosen: dict[int, set[str]] = {}
    tids: dict[int, set[str]] = {}
    forced: set[str] = set()
    for i in range(y.hi, y.lo - 1, -1):
        chosen[i] = forced | {a for a in sorted(y.objects[i] - forced) if rng.random() < 0.4}
        forced = set()
        if i > y.lo:
            tids[i] = {t for t, (up, _) in y.transitions[i].items() if up in chosen[i]}
            forced = {y.transitions[i][t][1] for t in tids[i]}
    return y.restrict(chosen, tids)


def ver_sub(rng: random.Random, y: SetComplex) -> SetComplex:
    """Mirror of :func:`hor_sub` for a vertical inclusion: working upward,
    a transition element belongs exactly when its lower image does."""
    chosen: dict[int, set[str]] = {}
    tids: dict[int, set[str]] = {}
    forced: set[str] = set()
    for i in range(y.lo, y.hi + 1):
        chosen[i] = forced | {a for a in sorted(y.objects[i] - forced) if rng.random() < 0.4}
        forced = set()
        if i < y.hi:
            tids[i + 1] = {
                t for t, (_, down) in y.transitions[i + 1].items() if down in chosen[i]
            }
            forced = {y.transitions[i + 1][t][0] for t in tids[i + 1]}
    return y.restrict(chosen, tids)


def exact_complement_sub(rng: random.Random, y: SetComplex) -> SetComplex:
    """The sub-complex left after removing whole cancelling pairs; its
    complement is exact, so its inclusion is a quasi-isomorphism."""
    dropped = {
        i: set(rng.sample(sorted(tr), round(0.2 * len(tr))))
        for i, tr in y.transitions.items()
    }
    objects = {i: set(y.objects[i]) for i in y.degrees()}
    for i, ts in dropped.items():
        for t in ts:
            up, down = y.transitions[i][t]
            objects[i].discard(up)
            objects[i - 1].discard(down)
    return y.restrict(objects, {i: set(tr) - dropped[i] for i, tr in y.transitions.items()})


def quotient(y: SetComplex, x: SetComplex) -> SetComplex:
    """The complement ``Y \\ X`` of a horizontal sub-complex: the
    transition elements whose lower image leaves ``X``."""
    objects = {i: y.objects[i] - x.objects[i] for i in y.degrees()}
    tids = {
        i: {t for t, (_, down) in tr.items() if down not in x.objects[i - 1]}
        for i, tr in y.transitions.items()
    }
    return y.restrict(objects, tids)


def extend(rng: random.Random, ids: Ids, z: SetComplex, pairs: int, singles: int) -> SetComplex:
    """``z`` plus fresh cancelling pairs and fresh loose ids; the literal
    inclusion of ``z`` is both a horizontal and a vertical chain morphism."""
    objects = {i: set(z.objects[i]) for i in z.degrees()}
    transitions = {i: dict(tr) for i, tr in z.transitions.items()}
    for _ in range(pairs):
        i = rng.randint(z.lo + 1, z.hi)
        q = ids.fresh()
        transitions[i][q] = (q, q)
        objects[i].add(q)
        objects[i - 1].add(q)
    for _ in range(singles):
        objects[rng.randint(z.lo, z.hi)].add(ids.fresh())
    return SetComplex(z.lo, z.hi, objects, transitions)


@dataclass(frozen=True)
class Generated:
    """Document text plus the answers known by construction."""

    text: str
    answers: dict


def les_length(lo: int, hi: int) -> int:
    return 3 * (hi + 2 - lo) + 3


def set_ses_doc(rng: random.Random, width: int, qiso: bool, degrees: int = 6) -> Generated:
    """``X ⊂ Y`` with ``hor f`` and ``ses S``.  With ``qiso`` the complement
    is exact (whole cancelling pairs removed); otherwise ``X`` is a random
    horizontal sub-complex."""
    ids = Ids(rng)
    y = set_complex(rng, ids, 0, degrees - 1, width)
    x = exact_complement_sub(rng, y) if qiso else hor_sub(rng, y)
    z = quotient(y, x)
    hz = z.homology_sizes()
    complement_exact = not any(hz.values())
    text = document(
        ["instance set"],
        [
            set_complex_lines("X", x),
            set_complex_lines("Y", y),
            ["hor f: X -> Y"] + inclusion_lines("level", x),
            ["ses S: f"],
        ],
    )
    return Generated(
        text,
        {
            "homology": {"X": x.homology_sizes(), "Y": y.homology_sizes()},
            "quotient": hz,
            "qiso": (complement_exact, complement_exact),
            "les_length": les_length(y.lo, y.hi),
            "lo": y.lo,
            "hi": y.hi,
        },
    )


def set_complex_doc(rng: random.Random, width: int, degrees: int = 6) -> Generated:
    ids = Ids(rng)
    x = set_complex(rng, ids, 0, degrees - 1, width)
    text = document(["instance set"], [set_complex_lines("X", x)])
    return Generated(text, {"homology": {"X": x.homology_sizes()}})


def set_ver_doc(rng: random.Random, width: int, degrees: int = 3) -> Generated:
    """``Z ⊂ Y`` with a vertical inclusion ``ver g``."""
    ids = Ids(rng)
    y = set_complex(rng, ids, 1, degrees, width)
    z = ver_sub(rng, y)
    text = document(
        ["instance set"],
        [
            set_complex_lines("Z", z),
            set_complex_lines("Y", y),
            ["ver g: Z -> Y"] + inclusion_lines("level", z),
        ],
    )
    return Generated(text, {"homology": {"Z": z.homology_sizes(), "Y": y.homology_sizes()}})


def set_map_doc(rng: random.Random, width: int, qiso: bool, degrees: int = 3) -> Generated:
    """A span ``X <= Z -> Y`` of literal inclusions, where ``X`` and ``Y``
    extend ``Z`` by fresh cancelling pairs and, unless ``qiso``, one fresh
    loose id each; the span is a quasi-isomorphism exactly when no loose
    id was added."""
    ids = Ids(rng)
    z = set_complex(rng, ids, 1, degrees, width)
    singles = 0 if qiso else 1
    x = extend(rng, ids, z, pairs=2, singles=singles)
    y = extend(rng, ids, z, pairs=2, singles=singles)
    text = document(
        ["instance set"],
        [
            set_complex_lines("X", x),
            set_complex_lines("Z", z),
            set_complex_lines("Y", y),
            ["map F: X <- Z -> Y"] + inclusion_lines("back", z) + inclusion_lines("front", z),
        ],
    )
    return Generated(
        text,
        {
            "homology": {n: c.homology_sizes() for n, c in (("X", x), ("Z", z), ("Y", y))},
            "qiso": qiso,
        },
    )


# ---------------------------------------------------------------------------
# Snake inputs (single finite sets, all literal inclusions).
# ---------------------------------------------------------------------------


def _half(rng: random.Random, pool) -> set[str]:
    return {a for a in sorted(pool) if rng.random() < 0.5}


def _row(key: str, parts) -> str:
    return (f"  {key}: " + " | ".join(" ".join(sorted(p)) for p in parts)).rstrip()


def snake_doc(rng: random.Random, size: int, strong: bool) -> Generated:
    """A valid weak or strong snake input; the six zigzag objects are the
    column complements, so their sizes are known."""
    ids = Ids(rng)
    y = {ids.fresh() for _ in range(size)}
    x = _half(rng, y)
    z = _half(rng, y - x)
    top_fresh = {ids.fresh() for _ in range(rng.randint(1, 3))}
    b = y | top_fresh
    abar = x | _half(rng, top_fresh)
    c = b - abar
    bot_fresh = {ids.fresh() for _ in range(rng.randint(1, 3))}
    b2 = y | bot_fresh
    cbar2 = z | _half(rng, bot_fresh)
    a2 = b2 - cbar2
    a = abar | ({ids.fresh() for _ in range(rng.randint(1, 2))} if strong else set())
    c2 = cbar2 | ({ids.fresh() for _ in range(rng.randint(1, 2))} if strong else set())
    if strong:
        lines = [
            "snake strong S:",
            _row("top", (a, b, c)),
            _row("abar", (abar,)),
            _row("middle", (x, y, z)),
            _row("cbar", (cbar2,)),
            _row("bottom", (a2, b2, c2)),
        ]
    else:
        lines = [
            "snake weak S:",
            _row("top", (abar, b, c)),
            _row("middle", (x, y, z)),
            _row("bottom", (a2, b2, cbar2)),
        ]
    sizes = [
        len(a) - len(x),
        len(b) - len(y),
        len(c) - len(z),
        len(a2) - len(x),
        len(b2) - len(y),
        len(c2) - len(z),
    ]
    return Generated(document(["instance set"], [lines]), {"zigzag_sizes": sizes})


# ---------------------------------------------------------------------------
# F_p complexes.
# ---------------------------------------------------------------------------


def stride_permutation(n: int) -> list[int]:
    """``c -> c*s mod n`` for the first stride ``s >= 0.618 n`` coprime to
    ``n``.  It spreads the identity blocks of :func:`degree_legs` evenly
    over the coordinates; being fixed, it makes the elimination work of
    inputs of one size independent of the seed."""
    s = max(int(0.618 * n), 1)
    while math.gcd(s, n) != 1:
        s += 1
    return [c * s % n for c in range(n)]


def degree_legs(rng: random.Random, n: int, t_up: int, t_down: int, p: int):
    """Upper leg of ``T_i`` (``t_up x n``) and lower leg of ``T_{i+1}``
    (``n x t_down``) at one degree of dimension ``n``, with product zero.

    Before a fixed permutation of coordinates the lower leg is
    ``L = [I; A]`` with ``A`` random, and the upper leg is ``M [-A | I]``
    for ``M = [I | R]`` with ``R`` random: ``L`` has full column rank,
    the upper leg full row rank, and their product is ``M (-A + A) = 0``.
    """
    a = [[rng.randrange(p) for _ in range(t_down)] for _ in range(n - t_down)]
    r = [[rng.randrange(p) for _ in range(n - t_up - t_down)] for _ in range(t_up)]
    u0 = []
    for k in range(t_up):
        acc = a[k]
        for rkj, arow in zip(r[k], a[t_up:]):
            acc = [x + rkj * y for x, y in zip(acc, arow)]
        u0.append([-x % p for x in acc] + [int(j == k) for j in range(t_up)] + r[k])
    l0 = [[int(j == k) for j in range(t_down)] for k in range(t_down)] + a
    perm = stride_permutation(n)
    up = [[row[c] for c in perm] for row in u0]
    down = [l0[c] for c in perm]
    return up, down


def linear_complex_doc(rng: random.Random, dim: int, p: int, degrees: int = 6) -> Generated:
    """An ``F_p`` complex with ``dim`` per degree and known homology:
    consecutive legs into ``X_i`` come from :func:`degree_legs`, so the
    chain condition holds and ``dim H_i = dim - t_i - t_{i+1}``."""
    lo, hi = 0, degrees - 1
    t = transition_sizes(lo, hi, dim)
    up: dict[int, list[list[int]]] = {}
    down: dict[int, list[list[int]]] = {}
    for i in range(lo, hi + 1):
        up[i], down[i + 1] = degree_legs(rng, dim, t[i], t[i + 1], p)
    lines = ["complex X:"] + [f"  object {i}: dim {dim}" for i in range(lo, hi + 1)]
    for i in range(lo + 1, hi + 1):
        lines += [
            f"  transition {i}: dim {t[i]}",
            f"    up: {json.dumps(up[i])}",
            f"    down: {json.dumps(down[i])}",
        ]
    text = document(["instance linear", f"prime {p}"], [lines])
    h = {i: dim - t[i] - t[i + 1] for i in range(lo, hi + 1)}
    return Generated(text, {"homology": {"X": h}, "prime": p})
