from fractions import Fraction

import pytest

from syzlab.cyclo import Cyclotomic
from syzlab.errors import InvalidInput, LimitExceeded
from syzlab.groups import (
    BUILTIN_NAMES,
    IrrepCatalog,
    Representation,
    builtin_group,
    character_inner_product,
    character_of,
    generate_group,
    regular_representation,
    validate_irrep_catalog,
)
from syzlab.invariants import molien_series
from syzlab.limits import Budget
from syzlab.linalg import Matrix, rank

from oracles import reynolds_matrix, sym_power_action


def test_generate_group_single_transposition():
    g = generate_group([(1, 0)])
    assert g.order == 2
    assert g.exponent() == 2


def test_generate_group_s3():
    g = generate_group([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    assert g.class_count == 3
    assert g.exponent() == 6
    assert sorted(g.class_sizes) == [1, 2, 3]


def test_generate_group_matrix_order_two():
    g = generate_group([Matrix.from_rows([[Fraction(-1)]])])
    assert g.order == 2


def test_generate_group_rejects_bad_generators():
    with pytest.raises(InvalidInput):
        generate_group([(0, 0)])
    with pytest.raises(InvalidInput):
        generate_group([Matrix.from_rows([[Fraction(0)]])])


def test_order_limit():
    with pytest.raises(LimitExceeded):
        generate_group([(1, 2, 3, 4, 0)], budget=Budget("tiny", group_order_limit=3))


def test_exponents():
    assert builtin_group("builtin:klein:4")[0].exponent() == 2
    assert builtin_group("builtin:cyclic:4")[0].exponent() == 4
    assert builtin_group("builtin:sym:3")[0].exponent() == 6


def test_character_of_sign_rep():
    group, _ = builtin_group("builtin:cyclic:2")
    sign = Representation.from_generator_images(group, [Matrix.from_rows([[Fraction(-1)]])])
    chi = character_of(sign)
    assert chi == (Fraction(1), Fraction(-1))


def test_character_of_regular_rep_z3():
    group, _ = builtin_group("builtin:cyclic:3")
    reg = regular_representation(group)
    chi = character_of(reg)
    assert chi == (Fraction(3), Fraction(0), Fraction(0))


def test_character_of_standard_s3():
    group, catalog = builtin_group("builtin:sym:3")
    std = catalog.irreps[2]
    chi = character_of(std)
    # classes ordered by representative discovery: e, transpositions, 3-cycles
    assert chi == (Fraction(2), Fraction(0), Fraction(-1))


def test_all_builtin_catalogs_validate():
    for name in BUILTIN_NAMES:
        group, catalog = builtin_group(name)
        assert validate_irrep_catalog(catalog) == [], name
        assert sum(d * d for d in catalog.degrees) == group.order
        assert len(catalog.irreps) == group.class_count


def _follows_convention(x) -> bool:
    """An int when integral, a Fraction for another rational, a Cyclotomic
    (whose coefficients follow the same rule) when irrational: never a
    float, which integer `/` or a negative integer power would give."""
    if type(x) is int:
        return True
    if type(x) is Fraction:
        return x.denominator != 1
    if type(x) is Cyclotomic:
        return any(x.coeffs[1:]) and all(_follows_convention(c) for c in x.coeffs)
    return False


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_catalogs_hold_no_float(name):
    group, catalog = builtin_group(name)
    reps = list(catalog.irreps) + [regular_representation(group)]
    for rep in reps:
        assert all(_follows_convention(x) for m in rep.images for row in m.data for x in row)
        assert all(type(v) is int for v in molien_series(rep, 6))
    for chi in catalog.characters:
        assert all(_follows_convention(v) for v in chi)
    for chi in catalog.characters:
        for psi in catalog.characters:
            assert type(character_inner_product(group, chi, psi)) is int


def test_validate_catalog_flags_missing_irrep():
    """A catalog missing an irreducible is refused when it is built, with
    every failure on one line."""
    group, catalog = builtin_group("builtin:sym:3")
    with pytest.raises(InvalidInput) as exc:
        IrrepCatalog(group, catalog.irreps[:2])
    assert str(exc.value) == (
        "expected 3 irreducibles (one per class), got 2; "
        "sum of squared degrees is 2, group order is 6"
    )


def decompose(rep, catalog):
    """Multiplicity of each irreducible in rep, by character inner products."""
    chi = character_of(rep)
    return tuple(character_inner_product(rep.group, chi, psi) for psi in catalog.characters)


def test_decompose_regular_rep_s3():
    group, catalog = builtin_group("builtin:sym:3")
    reg = regular_representation(group)
    assert decompose(reg, catalog) == (1, 1, 2)


def test_decompose_natural_permutation_s3():
    group, catalog = builtin_group("builtin:sym:3")
    # the defining permutation action on 3 points
    perm_rep = _permutation_rep_s3(group)
    assert decompose(perm_rep, catalog) == (1, 0, 1)


def _permutation_rep_s3(group):
    t = Matrix.from_rows(
        [[Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1)]]
    )
    c = Matrix.from_rows(
        [[Fraction(0), Fraction(0), Fraction(1)],
         [Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(1), Fraction(0)]]
    )
    return Representation.from_generator_images(group, [t, c])


def test_decompose_zero_dimensional():
    group, catalog = builtin_group("builtin:sym:3")
    zero = Representation(group, [Matrix(0, 0, [])] * group.order)
    assert decompose(zero, catalog) == (0, 0, 0)


def test_multiplicities_reconstruct_character():
    group, catalog = builtin_group("builtin:sym:3")
    rep = _permutation_rep_s3(group)
    mults = decompose(rep, catalog)
    chi = character_of(rep)
    for k in range(group.class_count):
        total = sum(
            (m * c[k] for m, c in zip(mults, catalog.characters)), Fraction(0)
        )
        assert total == chi[k]


def images(rep):
    return [m.data for m in rep.images]


def test_reynolds_trivial_group():
    p = reynolds_matrix([Matrix.identity(3).data])
    assert Matrix.from_rows(p) == Matrix.identity(3)


def test_reynolds_sign_action_degree_one():
    group, _ = builtin_group("builtin:cyclic:2")
    sign = Representation.from_generator_images(group, [Matrix.from_rows([[Fraction(-1)]])])
    p = reynolds_matrix(sym_power_action(images(sign), 1))
    assert p == [[0]]


def test_reynolds_antipodal_even_degree():
    group, _ = builtin_group("builtin:cyclic:2")
    anti = Representation.from_generator_images(
        group, [Matrix.from_rows([[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]])]
    )
    p = Matrix.from_rows(reynolds_matrix(sym_power_action(images(anti), 2)))
    assert p == Matrix.identity(3)
    assert rank(p) == 3


def test_reynolds_idempotent_and_rank_matches_fixed_space():
    group, catalog = builtin_group("builtin:sym:3")
    rep = catalog.irreps[2]
    action = sym_power_action(images(rep), 4)
    p = Matrix.from_rows(reynolds_matrix(action))
    assert p @ p == p
    # the fixed space is the null space of every (A - I), stacked
    n = p.rows
    stacked = [
        [a[i][j] - (1 if i == j else 0) for j in range(n)] for a in action for i in range(n)
    ]
    assert rank(p) == n - rank(Matrix.from_rows(stacked))


def test_sym_power_degree_zero_and_one():
    group, catalog = builtin_group("builtin:sym:3")
    rep = catalog.irreps[2]
    act0 = sym_power_action(images(rep), 0)
    assert all(m == [[1]] for m in act0)
    act1 = sym_power_action(images(rep), 1)
    assert [Matrix.from_rows(m) for m in act1] == list(rep.images)


def test_sym_power_antipodal_cubes():
    group, _ = builtin_group("builtin:cyclic:2")
    anti = Representation.from_generator_images(
        group, [Matrix.from_rows([[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]])]
    )
    act = [Matrix.from_rows(m) for m in sym_power_action(images(anti), 3)]
    assert act[0] == Matrix.identity(4)
    assert act[1] == Matrix.identity(4).scale(Fraction(-1))


def test_sym_power_respects_products():
    group, catalog = builtin_group("builtin:sym:3")
    rep = catalog.irreps[2]
    a2 = [Matrix.from_rows(m) for m in sym_power_action(images(rep), 2)]
    a3 = [Matrix.from_rows(m) for m in sym_power_action(images(rep), 3)]
    for g_idx in range(group.order):
        h_idx = group.mul(g_idx, 1)
        prod = a2[g_idx] @ a2[1]
        assert prod == a2[group.mul(g_idx, 1)]
        assert a3[g_idx] @ a3[h_idx] == a3[group.mul(g_idx, h_idx)]


def test_regular_representation_small():
    group, _ = builtin_group("builtin:cyclic:2")
    reg = regular_representation(group)
    swap = Matrix.from_rows([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert reg.images[1] == swap
    group3, _ = builtin_group("builtin:cyclic:3")
    reg3 = regular_representation(group3)
    chi = character_of(reg3)
    assert chi[0] == 3
    assert all(v == 0 for v in chi[1:])


def test_quaternion_catalog_degrees():
    group, catalog = builtin_group("builtin:quaternion:8")
    assert group.order == 8
    assert group.class_count == 5
    assert sorted(catalog.degrees) == [1, 1, 1, 1, 2]
    assert catalog.m == 6


def test_homomorphism_validation_catches_bad_images():
    group, _ = builtin_group("builtin:cyclic:3")
    bad = Matrix.from_rows([[Fraction(2)]])  # 2 has infinite multiplicative order
    with pytest.raises(InvalidInput):
        Representation.from_generator_images(group, [bad])
