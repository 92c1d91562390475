"""Catalog descriptors, validation, and the descriptor file format."""

import ast
import copy
import itertools
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import (
    CATALOG_NAMES,
    CatalogError,
    WonderfulVariety,
    build_case,
    build_root_system,
    flag_variety,
    group_compactification,
    load_variety,
    validate,
    variety_from_dict,
)
from wondercoh import exactalg, varieties
from wondercoh.cli import main
from wondercoh.cohomology import cohomology_table, serre_dual_weight
from wondercoh.oracles import brion_h0
from wondercoh.regions import region_plot
from wondercoh.serialize import table_to_json
from wondercoh.varieties import pic_box

from test_helpers import NAMES, count_calls

#: wondercoh.__all__, sorted
PUBLIC_API = (
    "CATALOG_NAMES", "CatalogError", "CohomologyTable", "Contribution", "DivisibilityRule",
    "InvariantError", "RootSystem", "Weight", "WonderfulVariety", "allowed_degrees",
    "brion_h0", "build_case", "build_root_system", "bwb_direct", "catalog",
    "check_table_against_rule", "cohomology_table", "contributions", "enumerate_candidates",
    "flag_variety", "group_compactification", "load_variety", "omega_signature", "parse_type",
    "projective_space_cohomology", "quadric_cohomology", "region_plot", "rule_for",
    "serre_dual_weight", "serre_involution_check", "validate", "vanishing_profile",
    "variety_from_dict", "weyl_group_bruteforce",
)


def test_public_api_is_pinned():
    import wondercoh

    assert PUBLIC_API == tuple(sorted(PUBLIC_API))
    assert tuple(wondercoh.__all__) == PUBLIC_API
    namespace: dict = {}
    exec("from wondercoh import *", namespace)
    assert all(name in namespace for name in PUBLIC_API)


def test_catalog_builds_and_validates():
    for name in CATALOG_NAMES:
        X = build_case(name)
        assert validate(X).passed, name


def test_flag_variety_examples():
    f = flag_variety(build_root_system([("A", 1)]))
    assert f.rank == 0 and f.dimension_N == 1 and f.pic_basis == ((1,),)
    f = flag_variety(build_root_system([("A", 2)]))
    assert f.dimension_N == 3 and f.spherical_roots == ()
    f = flag_variety(build_root_system([("A", 2)]), q_simple_roots=(1,))
    assert f.dimension_N == 2
    assert f.pic_basis == ((1, 0),)


def test_group_compactification_a1():
    X = build_case("group:A1")
    assert X.rank == 1 and X.dimension_N == 3
    # with the standard positive system on both factors the spherical root
    # of the A1 group case is (alpha, alpha), i.e. [2, 2]
    assert X.spherical_roots == ((2, 2),)
    assert X.pic_basis == ((1, 1),)
    assert validate(X).passed


def test_group_compactification_a2():
    X = build_case("group:A2")
    assert X.rank == 2 and X.dimension_N == 8
    assert X.lambda_zero_coords() == (-2, -2)
    # spherical roots pair each simple root with its diagram dual
    assert X.spherical_roots[0] == (2, -1, -1, 2)
    assert X.spherical_roots[1] == (-1, 2, 2, -1)


def classical_diagram_involution(family, rank):
    """-w_0 on the simple roots (Bourbaki labels, 0-based): A_n reverses the
    chain, D_n with n odd swaps its two end nodes, E6 swaps 1 <-> 6 and
    3 <-> 5; every other simple type has w_0 = -1."""
    if family == "A":
        return [rank - 1 - i for i in range(rank)]
    swap = {}
    if family == "D" and rank % 2:
        swap = {rank - 2: rank - 1, rank - 1: rank - 2}
    if family == "E" and rank == 6:
        swap = {0: 5, 5: 0, 2: 4, 4: 2}
    return [swap.get(i, i) for i in range(rank)]


@pytest.mark.parametrize("family, rank", [
    *(("A", n) for n in range(1, 7)),
    *((f, n) for f in "BC" for n in range(2, 5)),
    *(("D", n) for n in range(2, 7)),
    ("E", 6), ("E", 7), ("F", 4), ("G", 2),
])
def test_group_compactification_pairs_by_the_diagram_involution(family, rank):
    X = group_compactification(family, rank)
    single = build_root_system([(family, rank)])
    inv = classical_diagram_involution(family, rank)
    alpha = [tuple(row[i] for row in single.cartan) for i in range(rank)]
    unit = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    # gamma_i = alpha_i in the first factor plus alpha_inv(i) in the second
    assert X.spherical_roots == tuple(alpha[i] + alpha[inv[i]] for i in range(rank))
    # and the Picard basis omega_i + omega_inv(i) likewise
    assert X.pic_basis == tuple(unit[i] + unit[inv[i]] for i in range(rank))


def test_p3_descriptor():
    X = build_case("PSO/PSO(2)")
    assert X.group.describe() == "D2"
    assert X.spherical_roots == ((2, 2),)
    assert X.pic_basis == ((1, 1),)
    assert X.q_simple_roots == frozenset()
    assert X.dimension_N == 3
    assert X.lambda_zero_coords() == (-2,)


def test_n_fixtures():
    assert build_case("PSO/PSO(3)").dimension_N == 5
    assert build_case("PSO/PSO(4)").dimension_N == 7
    assert build_case("SO7/G2").dimension_N == 7
    assert build_case("PGL/PSp(2)").dimension_N == 5
    assert build_case("PGL/PSp(3)").dimension_N == 14
    assert build_case("E6/F4").dimension_N == 26
    assert build_case("group:A2").dimension_N == 8


def test_lambda_zero_fixtures():
    assert build_case("PSO/PSO(2)").lambda_zero_coords() == (-2,)
    assert build_case("PSO/PSO(3)").lambda_zero_coords() == (-3,)
    assert build_case("PSO/PSO(4)").lambda_zero_coords() == (-4,)
    assert build_case("SO7/G2").lambda_zero_coords() == (-4,)
    assert build_case("PGL/PSp(3)").lambda_zero_coords() == (-3, -3)
    assert build_case("E6/F4").lambda_zero_coords() == (-5, -5)


def rebased(name, pic):
    """`name` with another pic basis, unvalidated."""
    X = build_case(name)
    return WonderfulVariety(f"{name}'", X.group, X.spherical_roots, pic, X.q_simple_roots)


def test_lambda_zero_refuses_non_diagonal_pairing():
    p0, p1 = build_case("group:A2").pic_basis
    # (p0 + p1, gamma_1) = (p1, gamma_1) > 0
    X = rebased("group:A2", [tuple(a + b for a, b in zip(p0, p1)), p1])
    with pytest.raises(ValueError, match="pairing matrix is not diagonal") as exc:
        X.lambda_zero_coords()
    # the descriptor is valid; it only defines no lambda_0
    assert not isinstance(exc.value, CatalogError)


#: the rank-2 catalog entries; on each, the unimodular change of pic basis
#: (p1, p2) -> (p1, p1 + p2) makes the pic/spherical pairing non-diagonal
RANK_TWO = ("E6/F4", "group:A2", "group:B2", "group:G2", "PGL/PSp(3)")


def unimodular(name):
    """`name` with pic basis (p1, p1 + p2), unvalidated."""
    X = build_case(name)
    p1, p2 = X.pic_basis
    return WonderfulVariety(f"{name}'", X.group, X.spherical_roots,
                            [p1, tuple(a + b for a, b in zip(p1, p2))], X.q_simple_roots,
                            sgamma_data=X.sgamma_data)


@pytest.mark.parametrize("name", RANK_TWO)
def test_a_unimodular_change_of_pic_basis_validates(name):
    # the new basis spans the same pic(X); it only has no lambda_0
    X, Y = build_case(name), unimodular(name)
    report = validate(Y)
    assert report.passed, str(report)
    assert not any("lambda" in c.name for c in report.checks)
    assert not any(line.startswith("lambda_0") for line in Y.describe_lines())
    for coords in itertools.product(range(-4, 2), repeat=2):
        lam = X.weight_from_pic_coords(coords)
        assert cohomology_table(Y, tuple(lam)) == cohomology_table(X, lam), coords


@pytest.mark.parametrize("name", RANK_TWO)
def test_default_omega_plot_without_lambda_zero_is_a_value_error(name):
    # a valid descriptor: the error is a usage error, not a CatalogError
    Y = unimodular(name)
    with pytest.raises(ValueError) as exc:
        region_plot(Y, "Omega", -1, 1)
    assert str(exc.value) == f"no lambda_0: {name}': pic/spherical pairing matrix is not diagonal"
    assert not isinstance(exc.value, CatalogError)
    assert len(region_plot(Y, "Omega", -1, 1, Y.weight_from_pic_coords((-2, 0))).points) == 9


@pytest.mark.parametrize("name", ["flag:A2", "group:A3", "PGL/PSp(4)"])
def test_lambda_zero_needs_rank_one_or_two(name):
    X = build_case(name)
    errors = []
    for ask in (X.lambda_zero, X.lambda_zero_coords):
        with pytest.raises(ValueError) as exc:
            ask()
        assert str(exc.value) == f"no lambda_0: {name}: lambda_zero needs rank 1 or 2"
        assert not isinstance(exc.value, CatalogError)
        errors.append(exc.value)
    # each raise is a fresh error, so the descriptor's slot keeps no traceback
    assert errors[0] is not errors[1] and X._lambda_zero.__traceback__ is None


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if build_case(n).rank in (1, 2)])
def test_lambda_zero_is_solved_once_and_carries_its_coordinates(monkeypatch, name):
    X = build_case(name)
    solves = count_calls(monkeypatch, [varieties], "lattice_coords")
    lam = X.lambda_zero()
    assert lam is X.lambda_zero()
    assert X.pic_contains(lam) == X.lambda_zero_coords() and solves == []
    assert lam == X.weight_from_pic_coords(X.lambda_zero_coords())


def row_products_calls(monkeypatch):
    """One counter on `row_products` in every module namespace of the package."""
    holders = [m for n, m in sorted(sys.modules.items())
               if n.startswith("wondercoh.") and hasattr(m, "row_products")]
    assert exactalg in holders and len(holders) > 1
    return count_calls(monkeypatch, holders, "row_products")


@pytest.mark.parametrize("name", ["group:A1", "PSO/PSO(3)", "group:A2", "E6/F4"])
def test_default_omega_plot_takes_one_row_product(monkeypatch, name):
    # the base's pairings; lambda_0 and the step rows are taken at build
    X = build_case(name)
    calls = row_products_calls(monkeypatch)
    region_plot(X, "Omega", -8, 8)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["group:A2", "E6/F4", "group:A3", "PGL/PSp(4)"])
def test_brion_h0_takes_one_row_product(monkeypatch, name):
    # lam in simple-root coordinates; the spherical roots' are taken at build
    X = build_case(name)
    lam = X.weight_from_pic_coords((3,) * len(X.pic_basis))
    calls = row_products_calls(monkeypatch)
    assert brion_h0(X, lam)
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["PSO/PSO(2)", "E6/F4"])
def test_lambda_zero_refuses_non_positive_pairing(name):
    pic = build_case(name).pic_basis
    X = rebased(name, [tuple(-x for x in pic[0]), *pic[1:]])
    with pytest.raises(CatalogError, match=r"\(pic_i, gamma_i\) must be positive"):
        X.lambda_zero_coords()


@pytest.mark.parametrize(
    "name, index, scale, ratio",
    [("SO7/G2", 0, 2, "3/2"), ("group:A2", 1, 2, "1/2"), ("E6/F4", 0, 3, "4/3")],
)
def test_lambda_zero_refuses_fractional_coefficient(name, index, scale, ratio):
    # scaling pic_i divides (rho, gamma_i) / (pic_i, gamma_i) by the same factor
    pic = list(build_case(name).pic_basis)
    pic[index] = tuple(scale * x for x in pic[index])
    X = rebased(name, pic)
    with pytest.raises(CatalogError, match=f"lambda_zero coefficient {ratio} is not integral"):
        X.lambda_zero_coords()


def test_e6_f4_data():
    X = build_case("E6/F4")
    assert X.rank == 2
    assert X.q_simple_roots == frozenset({1, 2, 3, 4})
    # gamma_i in pic coordinates form the A2 Cartan pattern
    assert X.pic_contains(X.spherical_roots[0]) == (2, -1)
    assert X.pic_contains(X.spherical_roots[1]) == (-1, 2)


def test_pic_contains_examples():
    X = build_case("PSO/PSO(2)")
    assert X.pic_contains((2, 2)) == (2,)
    assert X.pic_contains((1, 0)) is None
    assert X.pic_contains((0, 0)) == (0,)


def test_bad_parameters_rejected():
    with pytest.raises(CatalogError):
        build_case("PSO/PSO(1)")
    with pytest.raises(CatalogError):
        build_case("PGL/PSp(1)")
    with pytest.raises(CatalogError):
        build_case("nosuch")


def test_build_case_builds_once_per_stripped_name():
    X = build_case("group:A2")
    assert build_case(" group:A2") is X and build_case("group:A2\n") is X
    # the unmemoised builder still builds afresh, from a padded name too
    fresh = build_case.__wrapped__(" group:A2")
    assert fresh is not X and fresh.name == X.name
    assert build_case("group:A2") is X
    # a refusal still names the variety as it was given
    with pytest.raises(CatalogError, match="^unknown variety ' nosuch '$"):
        build_case(" nosuch ")


def test_corrupted_gamma_fails_validation():
    good = build_case("PSO/PSO(2)")
    bad = WonderfulVariety(
        "corrupt",
        good.group,
        [tuple(3 * x for x in good.spherical_roots[0])],
        good.pic_basis,
        q_simple_roots=good.q_simple_roots,
        sgamma_data=good.sgamma_data,
        expected=good.expected,
    )
    report = validate(bad)
    assert not report.passed
    assert any("multiple of gamma" in c.name for c in report.failures())


def test_descriptor_file_roundtrip(tmp_path):
    doc = {
        "name": "P3-from-file",
        "group": [["D", 2]],
        "spherical_roots": [[2, 2]],
        "pic_basis": [[1, 1]],
        "q_simple_roots": [],
        "sgamma": [[[1, 0], [0, 1]]],
    }
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(doc))
    from wondercoh import load_variety

    X = load_variety(str(path))
    assert X.name == "P3-from-file"
    assert X.dimension_N == 3
    assert X.two_rho_X == (2, 2)


def test_descriptor_rejects_negative_spherical_root():
    # spherical roots are nonnegative combinations of simple roots; the
    # degree-zero oracle bound depends on it
    from wondercoh import variety_from_dict

    with pytest.raises(CatalogError):
        variety_from_dict(
            {"group": [["A", 2]], "spherical_roots": [[1, -2]], "pic_basis": [[1, -2]]}
        )


def test_descriptor_file_rejects_bad_data(tmp_path):
    doc = {
        "group": [["D", 2]],
        "spherical_roots": [[2, 0]],  # a root: forbidden for minimal rank
        "pic_basis": [[1, 0]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    from wondercoh import load_variety

    with pytest.raises(CatalogError):
        load_variety(str(path))


@pytest.mark.parametrize("name", [["x"], 7, None])
def test_descriptor_refuses_a_name_that_is_not_a_string(name):
    # the JSON output writes the name as "variety": str
    doc = {"name": name, "group": [["A", 1]], "pic_basis": [[1]]}
    with pytest.raises(CatalogError, match="malformed variety descriptor: name"):
        variety_from_dict(doc)


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "tab\there", "\x1b[31mred"])
def test_descriptor_refuses_a_name_that_is_not_printable(tmp_path, name):
    # text output writes the name into one header line
    doc = {"name": name, "group": [["A", 1]], "pic_basis": [[1]]}
    with pytest.raises(CatalogError, match="malformed variety descriptor: name"):
        variety_from_dict(doc)
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match="malformed variety descriptor: name"):
        load_variety(str(path))


def test_describe_refuses_a_name_that_is_not_a_string(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"name": ["x"], "group": [["A", 1]], "pic_basis": [[1]]}))
    assert main(["describe", "--variety-file", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "malformed variety descriptor: name" in out.err


def test_two_rho_x_values():
    assert build_case("PSO/PSO(2)").two_rho_X == (2, 2)
    assert build_case("flag:A1").two_rho_X == (2,)
    e6 = build_case("E6/F4")
    assert e6.pic_contains(e6.two_rho_X) == (8, 8)


def test_group_compactification_rejects_products():
    with pytest.raises(CatalogError):
        build_case("group:A1xA1")


def catalog_doc(X):
    """The descriptor document of a built variety, in the file format."""
    return {
        "name": X.name,
        "group": [[f, n] for f, n in X.group.components],
        "spherical_roots": [list(v) for v in X.spherical_roots],
        "pic_basis": [list(v) for v in X.pic_basis],
        "q_simple_roots": [i + 1 for i in sorted(X.q_simple_roots)],
        "sgamma": [[list(a), list(b)] for a, b in X.sgamma_data or ()],
    }


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_doc_roundtrip(name):
    X = build_case(name)
    Y = variety_from_dict(catalog_doc(X))
    assert (Y.spherical_roots, Y.pic_basis) == (X.spherical_roots, X.pic_basis)
    assert (Y.dimension_N, Y.two_rho_X) == (X.dimension_N, X.two_rho_X)


JUNK = st.sampled_from([None, "x", 7, 1.5, [], {}, [[]], [["A"]], [[1, 2, 3]]])


def slots(obj):
    """(list, index) for every entry of every list nested in obj."""
    if isinstance(obj, list):
        for i, x in enumerate(obj):
            yield obj, i
            yield from slots(x)


def mutate(data, doc):
    key = data.draw(st.sampled_from(sorted(doc)))
    kind = data.draw(st.sampled_from(["drop", "junk", "extra", "fewer", "nudge"]))
    lists = [x[i] for x, i in slots([doc[key]]) if isinstance(x[i], list) and x[i]]
    if kind == "drop":
        del doc[key]
    elif kind == "junk" or not lists:
        doc[key] = data.draw(JUNK)
    elif kind == "extra":  # a repeated vector, pair, component or coordinate
        target = data.draw(st.sampled_from(lists))
        target.append(copy.deepcopy(data.draw(st.sampled_from(target))))
    elif kind == "fewer":
        target = data.draw(st.sampled_from(lists))
        target.pop(data.draw(st.integers(0, len(target) - 1)))
    else:  # shift one integer: a coordinate, a 1-based index or a Dynkin rank
        ints = [(x, i) for x, i in slots(doc[key]) if type(x[i]) is int]
        if ints:
            x, i = data.draw(st.sampled_from(ints))
            x[i] += data.draw(st.sampled_from([-2, -1, 1, 2]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_malformed_descriptor_raises_only_catalog_error(data):
    doc = catalog_doc(build_case(data.draw(st.sampled_from(CATALOG_NAMES))))
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, doc)
    try:
        variety_from_dict(doc)
    except CatalogError:
        pass


@pytest.mark.parametrize(
    "doc",
    [
        {"group": [["D", 2]], "spherical_roots": [[2, 2]], "pic_basis": [[1.9, 1.2]]},
        {"group": [["D", 2]], "spherical_roots": [[2, 2.5]], "pic_basis": [[1, 1]]},
        {"group": [["D", 2.5]], "spherical_roots": [[2, 2]], "pic_basis": [[1, 1]]},
        {"group": [["A", 3]], "spherical_roots": [], "pic_basis": [[0, 1, 0]],
         "q_simple_roots": [1.5, 3]},
        {"group": [["D", 2]], "spherical_roots": [[2, 2]], "pic_basis": [[1, 1]],
         "sgamma": [[[1.5, 0], [0, 1]]]},
        {"group": [["D", 2]], "spherical_roots": [[2, 2]], "pic_basis": [["1", 1]]},
        # JSON true and false are not integers, though int() takes them
        {"group": [["A", True]], "pic_basis": [[1]]},
        {"group": [["A", 1]], "pic_basis": [[True]]},
        {"group": [["A", 3]], "spherical_roots": [], "pic_basis": [[0, 1, 0]],
         "q_simple_roots": [True, 3]},
        {"group": [["A", 2]], "pic_basis": [[1, False]], "q_simple_roots": [2]},
        {"group": [["D", 2]], "spherical_roots": [[2, 2]], "pic_basis": [[1, 1]],
         "sgamma": [[[True, 0], [0, 1]]]},
    ],
)
def test_descriptor_refuses_non_integers(doc):
    with pytest.raises(CatalogError):
        variety_from_dict(doc)


def test_descriptor_accepts_integral_floats():
    doc = {"group": [["D", 2.0]], "spherical_roots": [[2.0, 2]], "pic_basis": [[1.0, 1]]}
    X = variety_from_dict(doc)
    assert (X.spherical_roots, X.pic_basis) == (((2, 2),), ((1, 1),))


@pytest.mark.parametrize(
    "v, coords",
    [((1.9, 1.2), (1.9,)), ((2, 2.5), (2.5,)), (("2", 2), ("2",)), ((True, 2), (True,))],
)
def test_weights_refuse_non_integers(v, coords):
    X = build_case("PSO/PSO(2)")
    for call, arg in [(X.group.check_weight, v), (X.pic_contains, v), (X.weight_from_pic_coords, coords)]:
        with pytest.raises(ValueError):
            call(arg)


def test_weights_accept_integral_floats():
    X = build_case("PSO/PSO(2)")
    assert X.group.check_weight((2.0, 2)) == (2, 2)
    assert X.pic_contains((2.0, 2.0)) == X.pic_contains((2, 2))
    assert X.weight_from_pic_coords((3.0,)) == X.weight_from_pic_coords((3,))


@pytest.mark.parametrize("rank", [2.5, "2", True])
def test_root_system_refuses_non_integer_rank(rank):
    with pytest.raises(ValueError):
        build_root_system([("A", rank)])


def test_constructor_refuses_non_integers_with_catalog_error():
    g = build_root_system([("A", 2)])
    cases = [
        ((), [(1, 0)], (1.5,)),
        ([(2, -1.5)], [(1, 0)], ()),
        ((), [(1, 0.5)], ()),
        ([(2,)], [(1, 0)], ()),  # wrong length
    ]
    for sigma, pic, q in cases:
        with pytest.raises(CatalogError):
            WonderfulVariety("custom", g, sigma, pic, q_simple_roots=q)


def test_flag_variety_refuses_non_integer_q():
    g = build_root_system([("A", 2)])
    with pytest.raises(ValueError):
        flag_variety(g, (1.7,))
    assert flag_variety(g, (1.0,)).q_simple_roots == frozenset({1})


@pytest.mark.parametrize(
    "sigma, pic, q",
    [
        ([(2, 2)], [(1, 1)], (None,)),  # q index that is not a number
        ([None], [(1, 1)], ()),  # spherical root that is not a vector
        ([(2, 2)], [([1], 1)], ()),  # list inside a Picard entry
    ],
)
def test_constructor_refuses_non_numbers_with_catalog_error(sigma, pic, q):
    g = build_root_system([("D", 2)])
    with pytest.raises(CatalogError):
        WonderfulVariety("x", g, sigma, pic, q_simple_roots=q)


CARRYING_NAMES = NAMES + ("group:A4", "group:D4", "PGL/PSp(5)")


@pytest.mark.parametrize("name", CARRYING_NAMES)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_carried_coordinates_equal_the_solve(name, data):
    # a weight made from pic coordinates carries them; its plain tuple is
    # solved, and both give the same table, bytes and Serre dual
    X = build_case(name)
    coords, lam = data.draw(st.sampled_from(list(pic_box(X, 2))))
    plain = tuple(lam)
    assert type(plain) is tuple and plain == lam and hash(plain) == hash(lam)
    assert X.pic_contains(lam) == X.pic_contains(plain) == coords
    tables = [cohomology_table(X, v) for v in (lam, plain)]
    assert tables[0] == tables[1]
    assert table_to_json(X, tables[0], coords) == table_to_json(X, tables[1], coords)
    duals = [serre_dual_weight(X, v) for v in (lam, plain)]
    assert duals[0] == duals[1]
    assert X.pic_contains(duals[0]) == X.pic_contains(duals[1]) is not None


def test_weight_of_another_variety_is_solved(monkeypatch):
    X = build_case("group:A2")
    lam = X.weight_from_pic_coords((2, -1))
    solves = count_calls(monkeypatch, [varieties], "lattice_coords")
    assert X.pic_contains(lam) == (2, -1) and solves == []
    # the same data, rebuilt: an equal variety, but not the one lam carries
    Y = variety_from_dict(catalog_doc(X))
    del solves[:]
    assert Y.pic_contains(lam) == (2, -1) and len(solves) == 1
    assert cohomology_table(Y, lam) == cohomology_table(X, lam)
    # a Serre twist that carries nothing is solved too
    monkeypatch.setattr(X, "serre_twist", lambda: tuple(X._serre_twist))
    del solves[:]
    assert serre_dual_weight(X, lam) == (-5, -2, -2, -5) and len(solves) == 1


@pytest.mark.parametrize("coords, solved", [((1, 1), (1,)), ((3, 1), None)])
def test_coordinates_of_another_variety_are_not_trusted(coords, solved):
    # flag:A1xA1 and PSO/PSO(2) share the group A1 x A1 but not the lattice
    flag, X = build_case("flag:A1xA1"), build_case("PSO/PSO(2)")
    lam = flag.weight_from_pic_coords(coords)
    assert flag.pic_contains(lam) == coords
    assert X.pic_contains(lam) == X.pic_contains(tuple(lam)) == solved
    if solved is None:
        errors = []
        for v in (lam, tuple(lam)):
            with pytest.raises(ValueError) as exc:
                cohomology_table(X, v)
            errors.append(str(exc.value))
        assert errors == [f"{list(lam)} is not in pic(PSO/PSO(2))"] * 2


@pytest.mark.parametrize("lam, message", [
    ((1, 0), "[1, 0] is not in pic(PSO/PSO(2))"),
    ([3, 1], "[3, 1] is not in pic(PSO/PSO(2))"),
    ((1, 0, 0), "weight has length 3, expected rank 2"),
])
def test_serre_dual_of_a_weight_off_pic_blames_the_weight(lam, message):
    # a weight off pic(X) is a usage error, not bad catalog data
    X = build_case("PSO/PSO(2)")
    for dual in (X.serre_dual, lambda v: serre_dual_weight(X, v)):
        with pytest.raises(ValueError) as exc:
            dual(lam)
        assert type(exc.value) is ValueError and str(exc.value) == message


@pytest.mark.parametrize("mu", [(), (0,), (0, 0, 0), (0, 0, 0, 0, 5, 5)])
def test_sign_pairings_refuses_a_weight_of_the_wrong_length(mu):
    X = build_case("group:A2")
    with pytest.raises(ValueError, match=f"^weight has length {len(mu)}, expected rank 4$"):
        X.sign_pairings(mu)
    assert len(X.sign_pairings((0, 0, 0, 0))) == X.rank


def _imported_from_cohomology(tree) -> list[str]:
    """The names a module imports from the package's cohomology module."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "cohomology":
                names += [a.name for a in node.names]
            elif node.level and not module:  # from . import cohomology
                names += [a.name for a in node.names if a.name == "cohomology"]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.endswith("cohomology")]
    return names


def test_the_picard_lattice_has_one_owner():
    # the weight that carries its pic coordinates is named in varieties
    # alone, in code, imports and docstrings alike; regions asks the
    # descriptor, and oracles imports no private lattice helper
    src = pathlib.Path(varieties.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in src.glob("*.py")}
    naming = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "_PicWeight")
        or (isinstance(node, ast.Attribute) and node.attr == "_PicWeight")
        or (isinstance(node, ast.alias) and node.name == "_PicWeight")
        or (isinstance(node, ast.Constant) and "_PicWeight" in str(node.value))
    }
    assert naming == {"varieties.py"}
    assert _imported_from_cohomology(trees["regions.py"]) == []
    private = [n for n in _imported_from_cohomology(trees["oracles.py"]) if n.startswith("_")]
    assert private == ["_ball_bound", "_ball_lines"]

