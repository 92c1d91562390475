"""Catalog descriptors, validation, and the descriptor file format."""

import copy
import json

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
    validate,
    variety_from_dict,
)


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


def test_sgamma_shifted_matches_table_multiple():
    # s_gamma(rho) - rho = (1-n) gamma for the projective cases, (2-2n) for quadrics
    for name, mult in [("PSO/PSO(3)", -2), ("Q(3)", -4), ("SO7/G2", -3), ("Q7", -6)]:
        X = build_case(name)
        rho = X.group.rho()
        zero = tuple(0 for _ in rho)
        moved = X.sgamma_shifted(0, zero)  # s_gamma * 0 = s_gamma(rho) - rho
        gamma = X.spherical_roots[0]
        assert moved == tuple(mult * x for x in gamma), name


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
