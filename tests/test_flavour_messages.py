"""The error texts of the hor/ver primitive pairs, in both instances.

Each pair is one function under two names, but the errors name the
flavour of the argument: ``m``/``e``, ``descend``/``restrict``,
``injective``/``surjective``.  Every such text is pinned here for both
flavours of both instances.
"""

import pytest

from acgw import (
    CompositionError,
    FactorizationError,
    FinSetInstance,
    HorMor,
    LinearInstance,
    VerMor,
    finset_obj,
)

S = FinSetInstance()
A, AB, T = finset_obj("a"), finset_obj("ab"), finset_obj("t")

L = LinearInstance(p=3)
V0, V1, V2 = L.obj(0), L.obj(1), L.obj(2)

#: (call, error class, exact message) per flavour-specific fault
FINSET_ERRORS = {
    "factor_hor targets": (
        lambda: S.factor_hor(S.inclusion_hor(A, AB), S.inclusion_hor(A, A)),
        FactorizationError,
        "factorization targets differ: {a b} vs {a}",
    ),
    "factor_ver targets": (
        lambda: S.factor_ver(S.inclusion_ver(A, AB), S.inclusion_ver(A, A)),
        FactorizationError,
        "factorization targets differ: {a b} vs {a}",
    ),
    "factor_hor image": (
        lambda: S.factor_hor(S.id_hor(AB), S.inclusion_hor(A, AB)),
        FactorizationError,
        "no factorization: b lands at b, outside the image of the given morphism",
    ),
    "factor_ver image": (
        lambda: S.factor_ver(S.id_ver(AB), S.inclusion_ver(A, AB)),
        FactorizationError,
        "no factorization: b lands at b, outside the image of the given morphism",
    ),
    "hor_between_cokers match": (
        lambda: S.hor_between_cokers(S.id_hor(AB), S.id_ver(A), S.id_ver(AB)),
        FactorizationError,
        "complement presentations do not match m",
    ),
    "ver_between_kernels match": (
        lambda: S.ver_between_kernels(S.id_ver(AB), S.id_hor(A), S.id_hor(AB)),
        FactorizationError,
        "complement presentations do not match e",
    ),
    "hor_between_cokers descend": (
        lambda: S.hor_between_cokers(
            S.id_hor(AB), S.id_ver(AB), S.inclusion_ver(A, AB)
        ),
        FactorizationError,
        "morphism does not descend to complements: image of b is b, "
        "not in the target complement",
    ),
    "ver_between_kernels restrict": (
        lambda: S.ver_between_kernels(
            S.id_ver(AB), S.id_hor(AB), S.inclusion_hor(A, AB)
        ),
        FactorizationError,
        "morphism does not restrict to complements: image of b is b, "
        "not in the target complement",
    ),
    "hor_between_cokers undefined": (
        lambda: S.hor_between_cokers(
            HorMor(A, A, ((), ())), S.ver(T, A, {"t": "a"}), S.id_ver(A)
        ),
        FactorizationError,
        "morphism does not descend to complements: it is undefined at a, the image of t",
    ),
    "ver_between_kernels undefined": (
        lambda: S.ver_between_kernels(
            VerMor(A, A, ((), ())), S.hor(T, A, {"t": "a"}), S.id_hor(A)
        ),
        FactorizationError,
        "morphism does not restrict to complements: it is undefined at a, the image of t",
    ),
    "compose_hor": (
        lambda: S.compose_hor(S.inclusion_hor(A, AB), S.id_hor(A)),
        CompositionError,
        "cannot compose: {a b} != {a}",
    ),
    "compose_ver": (
        lambda: S.compose_ver(S.inclusion_ver(A, AB), S.id_ver(A)),
        CompositionError,
        "cannot compose: {a b} != {a}",
    ),
}

LINEAR_ERRORS = {
    "compose_hor": (
        lambda: L.compose_hor(L.zero_hor(V1), L.zero_hor(V2)),
        CompositionError,
        "horizontal composition mismatch",
    ),
    "compose_ver": (
        lambda: L.compose_ver(L.zero_ver(V1), L.zero_ver(V2)),
        CompositionError,
        "vertical composition mismatch",
    ),
    "factor_hor targets": (
        lambda: L.factor_hor(L.id_hor(V1), L.zero_hor(V2)),
        FactorizationError,
        "factorization targets differ",
    ),
    "factor_ver targets": (
        lambda: L.factor_ver(L.id_ver(V1), L.zero_ver(V2)),
        FactorizationError,
        "factorization targets differ",
    ),
    "factor_hor image": (
        lambda: L.factor_hor(L.hor(V1, V2, [[1], [0]]), L.hor(V1, V2, [[0], [1]])),
        FactorizationError,
        "image does not lie inside the given horizontal morphism",
    ),
    "factor_ver kernels": (
        lambda: L.factor_ver(L.ver(V1, V2, [[1, 0]]), L.ver(V1, V2, [[0, 1]])),
        FactorizationError,
        "vertical morphism does not factor: kernels are incompatible",
    ),
    "hor_between_cokers match": (
        lambda: L.hor_between_cokers(L.id_hor(V2), L.id_ver(V1), L.id_ver(V2)),
        FactorizationError,
        "complement presentations do not match m",
    ),
    "ver_between_kernels match": (
        lambda: L.ver_between_kernels(L.id_ver(V2), L.id_hor(V1), L.id_hor(V2)),
        FactorizationError,
        "complement presentations do not match e",
    ),
    "hor_between_cokers descend": (
        lambda: L.hor_between_cokers(
            L.id_hor(V2), L.ver(V1, V2, [[1, 0]]), L.id_ver(V2)
        ),
        FactorizationError,
        "morphism does not descend to complements",
    ),
    "ver_between_kernels restrict": (
        lambda: L.ver_between_kernels(
            L.id_ver(V2), L.hor(V1, V2, [[1], [0]]), L.id_hor(V2)
        ),
        FactorizationError,
        "morphism does not restrict to complements",
    ),
    "hor_between_cokers injective": (
        lambda: L.hor_between_cokers(L.id_hor(V1), L.id_ver(V1), L.zero_ver(V1)),
        FactorizationError,
        "induced complement morphism is not injective",
    ),
    "ver_between_kernels surjective": (
        lambda: L.ver_between_kernels(L.id_ver(V1), L.id_hor(V1), L.zero_hor(V1)),
        FactorizationError,
        "induced complement morphism is not surjective",
    ),
}


@pytest.mark.parametrize(
    "case",
    [pytest.param(v, id=f"set-{k}") for k, v in FINSET_ERRORS.items()]
    + [pytest.param(v, id=f"linear-{k}") for k, v in LINEAR_ERRORS.items()],
)
def test_flavour_specific_error_text(case):
    call, error, message = case
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


#: per flavour: a morphism ``F3^1 -> F3^2`` whose stored matrix has the
#: wrong number of rows, and one whose stored matrix has rank 1
LINEAR_VALIDATION = {
    "hor": (
        L.hor(V1, V2, [[1]]),
        "matrix must have 2 rows, got ((1,),)",
        L.hor(V2, V2, [[1, 1], [1, 1]]),
        "horizontal matrix is not injective",
    ),
    "ver": (
        L.ver(V1, V2, [[1], [0]]),
        "matrix must have 1 rows, got ((1,), (0,))",
        L.ver(V2, V2, [[1, 1], [1, 1]]),
        "vertical matrix is not surjective",
    ),
}


@pytest.mark.parametrize("flavour", sorted(LINEAR_VALIDATION))
def test_linear_validation_names_the_stored_layout_and_the_flavour(flavour):
    bad_shape, shape_problem, deficient, rank_problem = LINEAR_VALIDATION[flavour]
    validate = getattr(L, f"validate_{flavour}")
    assert validate(bad_shape) == [shape_problem]
    assert validate(deficient) == [rank_problem]
    assert validate(L.zero_hor(V0) if flavour == "hor" else L.zero_ver(V0)) == []


@pytest.mark.parametrize("mor_type", [HorMor, VerMor], ids=["hor", "ver"])
def test_linear_validation_checks_the_objects_before_their_dimensions(mor_type):
    validate = L.validate_hor if mor_type is HorMor else L.validate_ver
    assert validate(mor_type("x", V1, ())) == ["object is not a vector space: 'x'"]
    assert validate(mor_type(V1, "y", ())) == ["object is not a vector space: 'y'"]
    assert validate(mor_type("x", "y", ())) == [
        "object is not a vector space: 'x'",
        "object is not a vector space: 'y'",
    ]
