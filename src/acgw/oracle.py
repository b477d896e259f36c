"""Independent homology oracle and seeded random input generators.

The oracle flattens a complex to plain boundary matrices and computes
homology dimensions by Gaussian elimination, without touching complement
or pullback machinery, so it can cross-check the structural computations.
The generators produce random — but reproducible — complexes, chain
morphisms, chain maps, short exact sequences and snake inputs whose
expected invariants are known by construction.  Each draws a diagram of
finite sets; over ``F_p`` it returns the linearization of that diagram,
with the same sizes, in a random basis per object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .chains import (
    ChainComplex,
    ChainMap,
    ChainSES,
    HorChainMor,
    Transition,
    VerChainMor,
    _levelwise,
    ses_from_injection,
)
from .core import AcgwError, AcgwInstance, HorMor, ValidationError, VerMor
from .finset import FinSetInstance, finset_obj, mapping_of
from .linear import LinearInstance, mat_rank, matmul_mod, solve
from .snake import SnakeInputStrong, SnakeInputWeak, _LAYOUT

__all__ = [
    "free_complex",
    "rank_homology_dims",
    "GenConfig",
    "rand_gl",
    "gen_complex",
    "gen_exact_complex",
    "gen_hor_mor",
    "gen_ver_mor",
    "gen_chain_map",
    "gen_composable_chain_maps",
    "gen_ses",
    "gen_snake_weak",
    "gen_snake_strong",
]

_ATTEMPTS = 1000

#: the most loose ids a generated degree holds, cancelling pairs a
#: transition holds, and ids the middle row of a snake input holds: a
#: ``max_size`` above ``_MAX_SIZE`` changes no generated diagram, and one
#: above 6 changes no exact complex or snake input
_SINGLES_MAX, _PAIRS_MAX, _SNAKE_MAX = 2, 3, 6
_MAX_SIZE = _SINGLES_MAX + 2 * _PAIRS_MAX


# ---------------------------------------------------------------------------
# Rank-based oracle.
# ---------------------------------------------------------------------------


def free_complex(cx: ChainComplex) -> dict[int, np.ndarray]:
    """Plain boundary matrices ``d_i: X_i -> X_{i-1}`` of a complex.

    Each transition is flattened by the instance
    (:meth:`AcgwInstance.boundary_matrix`): finite sets over the
    two-element field with one basis vector per id, linear complexes by
    composing the two legs.  A leg that cannot be read raises
    :class:`ValidationError` naming the transition; a nonzero squared
    boundary raises :class:`AcgwError`.
    """
    inst = cx.inst
    diffs: dict[int, np.ndarray] = {}
    for i in range(cx.lo, cx.hi + 2):
        t = cx.transition(i)
        try:
            diffs[i] = inst.boundary_matrix(t.into_upper, t.into_lower)
        except ValidationError as exc:
            raise ValidationError(f"transition {i}: {p}" for p in exc.problems) from None
    for i in range(cx.lo, cx.hi + 1):
        if matmul_mod(diffs[i], diffs[i + 1], inst.prime).any():
            raise AcgwError(f"boundary squared is nonzero at degree {i}")
    return diffs


def rank_homology_dims(cx: ChainComplex) -> dict[int, int]:
    """Homology dimensions of the flattened complex, by matrix rank; each
    boundary matrix is ranked once."""
    p = cx.inst.prime
    ranks = {i: mat_rank(d, p) for i, d in free_complex(cx).items()}
    return {i: cx.inst.obj_size(cx.obj(i)) - ranks[i] - ranks[i + 1] for i in cx.degrees()}


# ---------------------------------------------------------------------------
# Generator configuration.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Reproducible generator parameters.

    Attributes:
        seed: RNG seed; equal configs generate equal outputs.
        max_size: upper bound on the number of ids (or the dimension)
            of any generated object.  It is capped: any size above 8
            generates what 8 does, and for exact complexes and snake
            inputs any size above 6 what 6 does.
        max_support: upper bound on the number of degrees in a complex.
        instance: ``"set"`` for a finite-set diagram, or ``"linear"`` for
            its linearization, drawn after it from the same seed.
        prime: field characteristic of the linearization.
    """

    seed: int
    max_size: int = 8
    max_support: int = 6
    instance: str = "set"
    prime: int = 2


def _generate(cfg: GenConfig, build):
    """The set diagram ``build(rng)`` on an RNG seeded by ``cfg``, or its
    linearization, which draws from the same RNG after it."""
    if cfg.instance not in ("set", "linear"):
        raise ValidationError([f"instance must be 'set' or 'linear', got {cfg.instance!r}"])
    rng = random.Random(cfg.seed)
    diagram = build(rng)
    return diagram if cfg.instance == "set" else _linearize(diagram, cfg.prime, rng)


def _span(rng: random.Random, cfg: GenConfig) -> tuple[int, int]:
    lo = rng.randint(-2, 2)
    return lo, lo + rng.randint(1, cfg.max_support) - 1


# ---------------------------------------------------------------------------
# Finite-set complexes with prescribed homology.
# ---------------------------------------------------------------------------


def _pool_complex(
    rng: random.Random, cfg: GenConfig, exact: bool
) -> tuple[ChainComplex, dict[int, int]]:
    """A complex built from loose ids plus cancelling id pairs.

    Each pair lives at two consecutive degrees and becomes one transition
    element; loose ids survive to homology.  With probability ~0.3 a
    transition object is relabelled onto fresh ids so that not every
    complex uses literal-inclusion legs.
    """
    inst = FinSetInstance()
    lo, hi = _span(rng, cfg)
    single_max = 0 if exact else min(_SINGLES_MAX, cfg.max_size)
    pair_max = min(_PAIRS_MAX, max(cfg.max_size - single_max, 0) // 2)
    singles = {i: [f"s{i}x{k}" for k in range(rng.randint(0, single_max))] for i in range(lo, hi + 1)}
    pairs = {i: [f"t{i}x{k}" for k in range(rng.randint(0, pair_max))] for i in range(lo + 1, hi + 1)}
    pairs[lo] = []
    pairs[hi + 1] = []

    objects = tuple(
        finset_obj(singles[i] + pairs[i] + pairs[i + 1]) for i in range(lo, hi + 1)
    )
    transitions = []
    for i in range(lo + 1, hi + 1):
        if pairs[i] and rng.random() < 0.3:
            fresh = {q: f"u{i}x{k}" for k, q in enumerate(pairs[i])}
            obj = finset_obj(fresh.values())
            legs = {fresh[q]: q for q in pairs[i]}
        else:
            obj = finset_obj(pairs[i])
            legs = {q: q for q in pairs[i]}
        transitions.append(
            Transition(
                obj,
                inst.ver(obj, objects[i - lo], legs),
                inst.hor(obj, objects[i - 1 - lo], legs),
            )
        )
    cx = ChainComplex(inst, lo, hi, objects, tuple(transitions))
    return cx, {i: len(singles[i]) for i in range(lo, hi + 1)}


def _pool(rng: random.Random, cfg: GenConfig) -> ChainComplex:
    return _pool_complex(rng, cfg, exact=False)[0]


def gen_complex(cfg: GenConfig) -> tuple[ChainComplex, dict[int, int]]:
    """A random complex and its homology sizes by degree."""
    return _generate(cfg, lambda rng: _pool_complex(rng, cfg, exact=False))


def gen_exact_complex(cfg: GenConfig) -> ChainComplex:
    """A random complex that is exact at every degree."""
    return _generate(cfg, lambda rng: _pool_complex(rng, cfg, exact=True)[0])


# ---------------------------------------------------------------------------
# Sub-complexes and extensions (all literal inclusions).
# ---------------------------------------------------------------------------


def _sub(rng: random.Random, y: ChainComplex, chain: type) -> HorChainMor | VerChainMor:
    """A random sub-complex of ``y``, with the legs of ``y`` restricted to
    it, and its inclusion into ``y``, of class ``chain``.

    A horizontal inclusion is drawn downward: each chosen degree pulls in
    the transition elements above it and forces their lower images into
    the next degree, which is exactly the distinguished-square condition
    for the inclusion.  A vertical one is the mirror image: drawn upward,
    it pulls in the transition elements below.
    """
    inst, hor = y.inst, chain is HorChainMor
    chosen: dict[int, set[str]] = {}
    bar_ids: dict[int, set[str]] = {}
    forced: set[str] = set()
    for i in range(y.hi, y.lo - 1, -1) if hor else range(y.lo, y.hi + 1):
        chosen[i] = forced | {a for a in y.obj(i) if a not in forced and rng.random() < 0.4}
        # the transition away from degree i in the walk's direction
        j, forced = (i if hor else i + 1), set()
        if y.lo < j <= y.hi:
            t = y.transition(j)
            up, low = mapping_of(t.into_upper), mapping_of(t.into_lower)
            near, far = (up, low) if hor else (low, up)
            bar_ids[j] = {tid for tid in t.obj if near[tid] in chosen[i]}
            forced = {far[tid] for tid in bar_ids[j]}

    objects = tuple(finset_obj(chosen[i]) for i in y.degrees())
    transitions = []
    for i in y.transition_degrees():
        t, obj = y.transition(i), finset_obj(bar_ids[i])
        up, low = mapping_of(t.into_upper), mapping_of(t.into_lower)
        upper, lower = objects[i - y.lo], objects[i - 1 - y.lo]
        transitions.append(
            Transition(
                obj,
                inst.ver(obj, upper, {b: up[b] for b in obj}),
                inst.hor(obj, lower, {b: low[b] for b in obj}),
            )
        )
    sub = ChainComplex(inst, y.lo, y.hi, objects, tuple(transitions))
    return _levelwise(chain, inst.inclusion_hor if hor else inst.inclusion_ver, sub, y)


def _extend(
    rng: random.Random, cx: ChainComplex, tag: str
) -> tuple[ChainComplex, HorChainMor, VerChainMor]:
    """Embed a complex into a larger one by adding fresh loose ids and
    fresh cancelling pairs.  Freshness makes the inclusion simultaneously
    a valid horizontal and a valid vertical chain morphism."""
    inst = cx.inst
    lo, hi = cx.lo, cx.hi
    singles = {i: [f"e{tag}{i}x{k}" for k in range(rng.randint(0, 2))] for i in range(lo, hi + 1)}
    pairs = {i: [f"r{tag}{i}x{k}" for k in range(rng.randint(0, 2))] for i in range(lo + 1, hi + 1)}
    pairs[lo] = []
    pairs[hi + 1] = []

    objects = tuple(
        finset_obj(tuple(cx.obj(i)) + tuple(singles[i] + pairs[i] + pairs[i + 1]))
        for i in range(lo, hi + 1)
    )
    transitions = []
    for i in range(lo + 1, hi + 1):
        t = cx.transition(i)
        legs_up = dict(mapping_of(t.into_upper))
        legs_low = dict(mapping_of(t.into_lower))
        for q in pairs[i]:
            legs_up[q] = q
            legs_low[q] = q
        obj = finset_obj(tuple(t.obj) + tuple(pairs[i]))
        transitions.append(
            Transition(
                obj,
                inst.ver(obj, objects[i - lo], legs_up),
                inst.hor(obj, objects[i - 1 - lo], legs_low),
            )
        )
    big = ChainComplex(inst, lo, hi, objects, tuple(transitions))
    return (
        big,
        _levelwise(HorChainMor, inst.inclusion_hor, cx, big),
        _levelwise(VerChainMor, inst.inclusion_ver, cx, big),
    )


def gen_hor_mor(cfg: GenConfig) -> HorChainMor:
    """A random horizontal chain morphism (an inclusion of complexes)."""
    return _generate(cfg, lambda rng: _sub(rng, _pool(rng, cfg), HorChainMor))


def gen_ver_mor(cfg: GenConfig) -> VerChainMor:
    """A random vertical chain morphism (an inclusion of complexes)."""
    return _generate(cfg, lambda rng: _sub(rng, _pool(rng, cfg), VerChainMor))


def _chain_map(rng: random.Random, cfg: GenConfig) -> ChainMap:
    y = _pool(rng, cfg)
    front = _sub(rng, y, HorChainMor)
    x, _, back = _extend(rng, front.source, "a")
    return ChainMap(x, front.source, y, back, front)


def gen_chain_map(cfg: GenConfig) -> ChainMap:
    """A random chain map: a sub-complex of the target, extended away
    from it to form the source."""
    return _generate(cfg, lambda rng: _chain_map(rng, cfg))


def _composable(rng: random.Random, cfg: GenConfig) -> tuple[ChainMap, ChainMap]:
    first = _chain_map(rng, cfg)
    back2 = _sub(rng, first.target, VerChainMor)
    w, front2, _ = _extend(rng, back2.source, "b")
    return first, ChainMap(first.target, back2.source, w, back2, front2)


def gen_composable_chain_maps(cfg: GenConfig) -> tuple[ChainMap, ChainMap]:
    """Two chain maps sharing the middle complex ``Y`` as target/source."""
    return _generate(cfg, lambda rng: _composable(rng, cfg))


def gen_ses(cfg: GenConfig) -> ChainSES:
    """A random short exact sequence of complexes."""
    return _generate(cfg, lambda rng: ses_from_injection(_sub(rng, _pool(rng, cfg), HorChainMor)))


# ---------------------------------------------------------------------------
# Snake inputs (single finite sets, all inclusions).
# ---------------------------------------------------------------------------


def _ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{k}" for k in range(n)]


def _sample(rng: random.Random, pool: list[str]) -> set[str]:
    return {a for a in pool if rng.random() < 0.5}


def gen_snake_weak(cfg: GenConfig) -> SnakeInputWeak:
    """A random valid weak snake input.

    On sets everything is a literal subset: the middle row is a
    complement-style pair inside ``Y``, the top row extends ``Y`` by fresh
    ids split between the two sides, and the bottom row likewise.
    """
    return _generate(cfg, lambda rng: _snake(rng, cfg, strong=False))


def gen_snake_strong(cfg: GenConfig) -> SnakeInputStrong:
    """A random valid strong snake input.

    Like the weak case, but the top-left object gains ids outside the
    whole top row and the bottom-right object gains ids outside the whole
    bottom row, so only restricted versions of the outer morphisms exist.
    """
    return _generate(cfg, lambda rng: _snake(rng, cfg, strong=True))


def _snake(
    rng: random.Random, cfg: GenConfig, strong: bool
) -> SnakeInputWeak | SnakeInputStrong:
    """The weak snake input, or with ``strong`` the strong one: its top-left
    and bottom-right objects grow past ``abar`` and ``cbar``."""
    inst = FinSetInstance()
    n = max(2, min(cfg.max_size, _SNAKE_MAX))
    y = set(_sample(rng, _ids("y", n)))
    x = _sample(rng, sorted(y))
    z = _sample(rng, sorted(y - x))
    top_fresh = _ids("b", rng.randint(0, 3))
    b = y | set(top_fresh)
    abar = x | _sample(rng, top_fresh)
    c = b - abar
    a = abar | set(_ids("a", rng.randint(0, 2))) if strong else abar
    bot_fresh = _ids("p", rng.randint(0, 3))
    b2 = y | set(bot_fresh)
    cbar2 = z | _sample(rng, bot_fresh)
    a2 = b2 - cbar2
    c2 = cbar2 | set(_ids("q", rng.randint(0, 2))) if strong else cbar2

    ends = dict(a=a, abar=abar, b=b, c=c, x=x, y=y, z=z, a2=a2, b2=b2, cbar2=cbar2, c2=c2)
    objects = {name: finset_obj(ids) for name, ids in ends.items()}
    include = {HorMor: inst.inclusion_hor, VerMor: inst.inclusion_ver}
    cls = SnakeInputStrong if strong else SnakeInputWeak
    return cls(inst, **{f: include[mor](objects[s], objects[t]) for f, mor, s, t in _LAYOUT[cls]})


# ---------------------------------------------------------------------------
# Linearization: F_p diagrams from the set ones.
# ---------------------------------------------------------------------------


def rand_gl(rng: random.Random, n: int, p: int) -> np.ndarray:
    """A uniform-ish random invertible matrix over the prime field."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    for _ in range(_ATTEMPTS):
        g = np.array(
            [[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64
        )
        if mat_rank(g, p) == n:
            return g
    raise RuntimeError(f"could not sample an invertible {n}x{n} matrix mod {p}")


def _inv_mod(g: np.ndarray, p: int) -> np.ndarray:
    """The inverse of an invertible matrix over the prime field."""
    return solve(g, np.eye(len(g), dtype=np.int64), p)


def _linearize(diagram, p: int, rng: random.Random):
    """The image of a finite-set ``diagram`` under ``F_p[-]``.

    A set ``S`` becomes ``F_p^|S|`` in a basis drawn from ``rng``, and its
    ids are indexed, when ``S`` is first met.  A horizontal injection
    becomes its 0/1 matrix and a vertical one the transpose, the
    coordinate projection, conjugated by the bases of its ends, so every
    relation between set morphisms holds between their images.  Equal complexes map to one complex.
    Dataclasses and tuples are rebuilt around their images; other values
    are kept."""
    inst = LinearInstance(p)
    bases: dict = {}
    complexes: dict = {}

    def obj(s):
        if s not in bases:
            g = rand_gl(rng, len(s), p)
            bases[s] = g, _inv_mod(g, p), {x: k for k, x in enumerate(s)}
        return inst.obj(len(s))

    def conj(out, m, into):  # ``m`` from the basis of ``into`` to that of ``out``
        return matmul_mod(matmul_mod(bases[out][0], m, p), bases[into][1], p)

    def mor(f):
        source, target = obj(f.source), obj(f.target)
        e = np.zeros((target.dim, source.dim), dtype=np.int64)
        col, row = bases[f.source][2], bases[f.target][2]
        for a, b in mapping_of(f).items():
            e[row[b], col[a]] = 1
        if isinstance(f, HorMor):
            return inst.hor(source, target, conj(f.target, e, f.source))
        return inst.ver(source, target, conj(f.source, e.T, f.target))

    def walk(x):
        if isinstance(x, (HorMor, VerMor)):
            return mor(x)
        if isinstance(x, AcgwInstance):
            return inst
        if isinstance(x, ChainComplex):
            if x not in complexes:
                objects, transitions = tuple(map(obj, x.objects)), walk(x.transitions)
                complexes[x] = ChainComplex(inst, x.lo, x.hi, objects, transitions)
            return complexes[x]
        if isinstance(x, Transition):
            return Transition(obj(x.obj), walk(x.into_upper), walk(x.into_lower))
        if isinstance(x, tuple):
            return tuple(map(walk, x))
        if is_dataclass(x):
            return replace(x, **{f.name: walk(getattr(x, f.name)) for f in fields(x)})
        return x

    return walk(diagram)
