"""The pruned, state-carrying walk of `_sign_runs` against the walk it
replaced, its work counts, and the cycles it leaves.

`_sign_runs` descends the witness ball carrying (s, coroot pairings, mu)
by row additions, and narrows each c_i, c_0 included, by the sign rows
that c_i decides.  The reference below is the unpruned walk: every line of
the witness ball, filtered point by point, its state rebuilt by
`translate`.
"""

import gc
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import (
    CatalogError, WonderfulVariety, build_case, build_root_system, cohomology, exactalg, oracles,
    roots, varieties,
)
from wondercoh.cohomology import (
    _ball_lines,
    _class_pairings,
    _sign_runs,
    _walk,
    cohomology_table,
    enumerate_candidates,
    omega_signature,
)
from wondercoh.exactalg import translate
from wondercoh.regions import region_plot
from wondercoh.serialize import table_to_json
from wondercoh.varieties import validate

from test_helpers import NAMES, PRODUCT, count_calls, draw_weight, product_variety, variety


def unpruned_sign_runs(X, lam, base_pair):
    """`_sign_runs` before the pruned walk: every line of the witness ball,
    filtered point by point by the sign pattern, with its sign pairings,
    coroot pairings and mu rebuilt by `translate`."""
    if not X.rank:
        yield (), 1, [], base_pair, lam
        return
    rows = _walk(X)[0]
    gram = [row[:X.rank] for row in rows]
    coroot = [row[X.rank:X.rank + len(base_pair)] for row in rows]
    sig_base = X.sign_pairings(lam)
    for (lo, *rest), n, _ in _ball_lines(X, sig_base, 1):
        kept = []
        for c0 in range(lo, lo + n):
            c = (c0, *rest)
            sig = translate(sig_base, c, gram)
            if all((s < 0) == (ci > 0) for s, ci in zip(sig, c)):
                kept.append(c0)
        if not kept:
            continue
        # each sign condition keeps an interval of c_0, so their meet is one run
        assert kept == list(range(kept[0], kept[-1] + 1))
        c = (kept[0], *rest)
        yield (
            c,
            len(kept),
            list(translate(sig_base, c, gram)),
            translate(base_pair, c, coroot),
            translate(lam, c, X.spherical_roots),
        )


@pytest.mark.parametrize(
    "name", NAMES + ("group:D4", "group:F4", "group:E6", PRODUCT)
)
def test_each_sign_row_is_decided_at_one_level(name):
    # row j is decided at level i when s_j moves with no c_k, k < i, and,
    # above level 0, with c_i; level 0 holds the rows that move with c_0
    X = variety(name)
    all_rows, decided = _walk(X)[:2]
    G = [row[:X.rank] for row in all_rows]
    for i, rows in enumerate(decided):
        for j in rows:
            assert not any(G[j][:i])
            assert i == 0 or G[j][i]
    assert sorted(j for rows in decided for j in rows) == list(range(X.rank))


@pytest.mark.parametrize("name", ["flag:A2", "PSO/PSO(2)", "E6/F4", PRODUCT])
def test_walk_slot_fills_on_the_first_evaluation(name):
    def fresh():
        # a fresh, validated descriptor, not the build_case memo
        if name == PRODUCT:
            return product_variety(*name.split(" x "))
        return build_case.__wrapped__(name)

    X = fresh()
    coords = (-3,) * len(X.pic_basis)
    # nothing that reads the descriptor alone builds the walk or its quadric
    validate(X)
    X.describe_lines()
    omega_signature(X, X.weight_from_pic_coords(coords))
    if X.rank in (1, 2):
        region_plot(X, "Omega", -2, 2)
    assert X._walk is None
    cohomology_table(X, X.weight_from_pic_coords(coords))
    walk = X._walk
    assert walk is not None and _walk(X) is walk
    cohomology_table(X, X.weight_from_pic_coords((1,) * len(X.pic_basis)))
    assert X._walk is walk
    if X.rank:  # the candidate ball reads the quadric; rank 0 has none to read
        for count in (
            enumerate_candidates,
            lambda Y, lam: oracles.capped_candidate_count(Y, coords, lam),
        ):
            Y = fresh()
            count(Y, Y.weight_from_pic_coords(coords))
            assert Y._walk is not None and Y._walk.form is not None


def test_walk_builds_on_a_gram_that_is_not_positive_definite():
    # drawn and unvalidated: gamma_1 = 2 gamma_0, so G = a [[1, 2], [2, 4]]
    X = WonderfulVariety("drawn", build_root_system([("A", 2)]), [(1, 1), (2, 2)], [(1, 0)])
    assert not X._sigma_pos_def
    walk = _walk(X)
    a = walk.rows[0][0]
    assert a > 0 and [row[:2] for row in walk.rows] == [(a, 2 * a), (2 * a, 4 * a)]
    # the pic weight (1, 0) parts alpha_1 from alpha_2, so each coroot is a
    # class: <gamma_i, alpha^vee> over alpha_1, alpha_2, alpha_1 + alpha_2,
    # then gamma_i
    assert walk.classes == ((0,), (1,), (2,)) and walk.inert == 1
    assert [row[2:] for row in walk.rows] == [(1, 1, 2, 1, 1), (2, 2, 4, 2, 2)]
    assert walk.decided == ((0, 1), ())
    assert walk.step == ((1, 1), (1, 1, 2)) and walk.moving == (0, 1, 2) and walk.fixed == ()
    assert walk.chambers == {} and walk.form is None


@pytest.mark.parametrize("evaluate", [cohomology_table, enumerate_candidates])
def test_an_unvalidated_singular_descriptor_is_a_catalog_error(evaluate):
    # drawn and unvalidated: gamma_1 = 2 gamma_0, so the ball has no quadric,
    # and the error names the check that validation fails
    A2 = build_root_system([("A", 2)])
    X = WonderfulVariety("singular", A2, [(2, -1), (4, -2)], [(1, 0), (0, 1)])
    check = "spherical root Gram matrix is positive definite"
    assert check in [c.name for c in validate(X).failures()]
    with pytest.raises(CatalogError) as exc:
        evaluate(X, (0, 0))
    assert str(exc.value) == f"descriptor singular fails validation: {check}"
    assert X._walk.form is None


@pytest.mark.parametrize("name", ["flag:A2", "PSO/PSO(3)", "group:A2", "E6/F4", "group:A3"])
def test_the_first_walk_inverts_nothing(monkeypatch, name):
    # the descriptor solved the sign Gram matrix's inverse at build
    X = build_case.__wrapped__(name)
    holders = [m for m in (exactalg, roots, varieties, cohomology) if hasattr(m, "int_inverse")]
    calls = count_calls(monkeypatch, holders, "int_inverse")
    assert _walk(X).form is not None
    assert calls == []


@pytest.mark.parametrize("evaluate", [cohomology_table, enumerate_candidates])
def test_a_singular_descriptor_never_factors_its_gram_matrix(monkeypatch, evaluate):
    # the descriptor of the test above: the walk knows G is singular from
    # the build and never runs LDL^T on it
    A2 = build_root_system([("A", 2)])
    X = WonderfulVariety("singular", A2, [(2, -1), (4, -2)], [(1, 0), (0, 1)])
    calls = count_calls(monkeypatch, [cohomology], "ldl")
    with pytest.raises(CatalogError):
        evaluate(X, (0, 0))
    assert calls == []


#: Picard coordinates drawn per rank: the reference walks the whole witness
#: ball, whose lines grow with |lam + rho|^(rank - 1)
RANGE = {0: (-8, 4), 1: (-40, 8), 2: (-30, 8), 3: (-12, 6), 4: (-4, 2)}


@pytest.mark.parametrize("name", NAMES + ("group:D4", "group:F4", PRODUCT))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_pruned_walk_equals_unpruned_reference(name, data):
    X = variety(name)
    _, lam = draw_weight(data, X, *RANGE[X.rank])
    base_pair = _class_pairings(X, lam)
    assert list(_sign_runs(X, lam)) == list(unpruned_sign_runs(X, lam, base_pair))


@pytest.mark.parametrize(
    "name, coords, lines, runs",
    [
        # the unpruned walk cut 137, 104, 31, 2,945 and 236,517 lines
        ("group:A3", (-8, -8, -8), 78, 45),
        ("PGL/PSp(4)", (-8, -8, -8), 57, 31),
        ("E6/F4", (-30, -30), 31, 25),
        ("group:F4", (1, 1, 1, 1), 778, 234),
        ("group:E6", (1, 1, 1, 1, 1, 1), 11003, 2096),
    ],
)
def test_lines_cut_and_runs_are_pinned(monkeypatch, name, coords, lines, runs):
    # machine-independent work counts: one level-0 `_descend` call per line
    # walked, whether or not the sign rows of c_0 leave it a run
    X = build_case(name)
    lam = X.weight_from_pic_coords(coords)
    calls = count_calls(monkeypatch, [cohomology], "_descend")
    found = list(_sign_runs(X, lam))
    assert (sum(args[1] == 0 for args in calls), len(found)) == (lines, runs)


def test_sign_runs_build_the_walk_state_at_its_widths():
    # the state was once started from pairings the caller passed in, and
    # full-width coroot pairings ran into mu with nothing raised
    X = build_case("group:A3")
    lam = X.weight_from_pic_coords((-8, -8, -8))
    width = len(_walk(X).classes)
    runs = list(_sign_runs(X, lam))
    assert len(runs) == 45 and width == 6
    for c, _, sig, pair, mu in runs:
        assert (len(sig), len(pair), len(mu)) == (X.rank, width, X.group.rank)
        assert mu == translate(lam, c, X.spherical_roots)
        assert pair == _class_pairings(X, mu)


def test_group_e6_table_is_pinned():
    # out of reach of the unpruned walk in tier-1 time; its table and bytes
    # were recorded with it
    X = build_case("group:E6")
    coords = (1,) * 6
    table = cohomology_table(X, X.weight_from_pic_coords(coords))
    assert table.dimensions_by_degree() == {0: 9709927298494999652197}
    assert sum(c.multiplicity for g in table.groups for c in g.constituents) == 226
    digest = hashlib.sha256(table_to_json(X, table, coords).encode()).hexdigest()
    assert digest == "3a80fdb5a6d8180c60a769b46ddee8b1e48db8869c237545c7b23d8396af8ce3"


@pytest.mark.parametrize(
    "evaluate",
    [
        cohomology_table,
        enumerate_candidates,
        lambda X, lam: oracles.capped_candidate_count(X, (-8, -8, -8), lam),
    ],
    ids=["cohomology_table", "enumerate_candidates", "capped_candidate_count"],
)
def test_walk_leaves_no_cycles(evaluate):
    # a cycle outlives the call until the cyclic collector finds it; a
    # recursive closure that names itself leaves one per walk
    X = build_case("group:A3")
    lam = X.weight_from_pic_coords((-8, -8, -8))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        evaluate(X, lam)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
