"""Per-witness work in `contributions` and the JSON writer.

The chamber walk runs once per inversion set of mu + rho and variety, the
variety's chamber table keeps only certified walks, the constituent
dimension comes from the coroot pairings of mu + rho, and `table_to_json`
writes the bytes of `json.dumps(table_to_dict(...), indent=2)` from
templates.  Each is checked against the reference it replaces.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import CATALOG_NAMES, build_case
from wondercoh.cli import main
from wondercoh.cohomology import (
    Contribution,
    cohomology_table,
    contributions,
    serre_dual_weight,
    tabulate,
)
from wondercoh.roots import InvariantError, RootSystem
from wondercoh.serialize import table_to_json

from test_helpers import NAMES, cold_chambers, draw_weight, table_to_dict


def deep_weight(data, X):
    # deep enough for witnesses with J nonempty, small enough for rank 3
    return draw_weight(data, X, {0: -12, 1: -14, 2: -10}.get(X.rank, -6), 4)


def inversion_set(X, mu):
    return tuple(p < 0 for p in X.group.shifted_pairings(mu))


def count_walks(monkeypatch):
    calls = []
    walk = RootSystem.make_dominant_shifted

    def counted(self, lam):
        calls.append(lam)
        return walk(self, lam)

    monkeypatch.setattr(RootSystem, "make_dominant_shifted", counted)
    return calls


@pytest.mark.parametrize(
    "name, coords, witnesses, walks",
    [
        ("group:A3", (-8, -8, -8), 158, 1),
        ("PGL/PSp(4)", (-8, -8, -8), 49, 1),
        ("E6/F4", (-30, -30), 242, 1),
        ("group:A2", (-8, 4), 4, 2),
        ("group:B2", (-8, 2), 3, 2),
        ("group:G2", (-8, 4), 2, 2),
    ],
)
def test_one_walk_per_inversion_set(monkeypatch, name, coords, witnesses, walks):
    X = build_case(name)
    lam = X.weight_from_pic_coords(coords)
    cold_chambers(monkeypatch, X)
    calls = count_walks(monkeypatch)
    conts = contributions(X, lam)
    assert len(conts) == witnesses
    assert len(calls) == walks
    assert {inversion_set(X, mu) for mu in calls} == {inversion_set(X, t.mu) for t in conts}


@pytest.mark.parametrize(
    "name, coords", [("group:A3", (-8, -8, -8)), ("E6/F4", (-30, -30)), ("group:A2", (-8, 4))]
)
def test_second_evaluation_walks_no_chamber(monkeypatch, name, coords):
    X = build_case(name)
    lam = X.weight_from_pic_coords(coords)
    table = cold_chambers(monkeypatch, X)
    calls = count_walks(monkeypatch)
    first = contributions(X, lam)
    assert len(calls) == len(table) > 0
    walked = len(calls)
    assert contributions(X, lam) == first
    assert len(calls) == walked


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_chamber_table_does_not_depend_on_order(name, data):
    X = build_case(name)
    weights = [deep_weight(data, X)[1] for _ in range(3)]
    weights += [serre_dual_weight(X, lam) for lam in weights]
    tables, outputs = [], []
    for order in (weights, weights[::-1]):
        with pytest.MonkeyPatch.context() as mp:
            tables.append(cold_chambers(mp, X))
            outputs.append([contributions(X, lam) for lam in order])
    assert tables[0] == tables[1]
    assert outputs[0] == outputs[1][::-1]


def test_failed_walk_leaves_no_entry(monkeypatch):
    # group:A2 at (-8, 4) meets two inversion sets; the second walk is cut
    # short, so its first stretch fails dominance and only the first is kept
    walk = RootSystem.make_dominant_shifted
    calls = []

    def second_short(self, lam):
        made = walk(self, lam)
        calls.append(lam)
        return made if len(calls) == 1 else (made[0], made[1], made[2][:-1])

    X = build_case("group:A2")
    lam = X.weight_from_pic_coords((-8, 4))
    table = cold_chambers(monkeypatch, X)
    monkeypatch.setattr(RootSystem, "make_dominant_shifted", second_short)
    with pytest.raises(InvariantError, match="not dominant"):
        contributions(X, lam)
    assert len(calls) == 2
    (key,) = table
    assert key == inversion_set(X, calls[0])
    kept = table[key]
    monkeypatch.setattr(RootSystem, "make_dominant_shifted", walk)
    assert len(contributions(X, lam)) == 4
    assert len(table) == 2 and table[key] == kept


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_pair_product_dimension_is_weyl_dimension(name, data):
    X = build_case(name)
    g = X.group
    _, lam = deep_weight(data, X)
    # the Serre dual of a shallow weight is deep, with J nonempty
    conts = contributions(X, lam) + contributions(X, serre_dual_weight(X, lam))
    for t in conts:
        mu_plus, length, _ = g.make_dominant_shifted(t.mu)
        assert (t.mu_plus, t.length) == (mu_plus, length)
        assert t.dimension == g.weyl_dimension(t.mu_plus)


def reference_json(X, table, coords, with_witnesses):
    doc = table_to_dict(X, table, coords, with_witnesses)
    return json.dumps(doc, indent=2, separators=(",", ": ")) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_json_writer_equals_json_dumps(data):
    X = build_case(data.draw(st.sampled_from(CATALOG_NAMES)))
    coords, lam = deep_weight(data, X)
    table = cohomology_table(X, lam)
    degree = data.draw(st.none() | st.integers(0, X.dimension_N))
    if degree is not None:  # what `cohomology --degree` prints
        table = type(table)(table.lam, tuple(g for g in table.groups if g.degree == degree))
    for with_witnesses in (True, False):
        assert table_to_json(X, table, coords, with_witnesses) == reference_json(
            X, table, coords, with_witnesses
        )


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_json_writer_on_origin_and_empty_table(name):
    X = build_case(name)
    coords = (0,) * len(X.pic_basis)
    table = cohomology_table(X, X.weight_from_pic_coords(coords))
    for t in (table, type(table)(table.lam, ())):
        for with_witnesses in (True, False):
            assert table_to_json(X, t, coords, with_witnesses) == reference_json(
                X, t, coords, with_witnesses
            )


def test_short_word_breaks_dominance(capsys, monkeypatch):
    # right length, wrong Weyl element: caught per witness, not by an assert
    walk = RootSystem.make_dominant_shifted

    def short_word(self, lam):
        made = walk(self, lam)
        return made and (made[0], made[1], made[2][:-1])

    monkeypatch.setattr(RootSystem, "make_dominant_shifted", short_word)
    X = build_case("PSO/PSO(2)")
    cold_chambers(monkeypatch, X)
    with pytest.raises(InvariantError, match="not dominant"):
        contributions(X, X.weight_from_pic_coords((-6,)))
    assert main(["cohomology", "PSO/PSO(2)", "--lambda", "-6"]) == 3
    assert "not dominant" in capsys.readouterr().err


def test_indivisible_pair_product_raises(monkeypatch):
    X = build_case("group:A2")
    # a prime above every pairing product at this weight
    monkeypatch.setattr(X.group, "_weyl_den", 2**61 - 1)
    with pytest.raises(InvariantError, match="Weyl dimension numerator"):
        contributions(X, X.weight_from_pic_coords((-4, 2)))


def test_tabulate_orders_shared_witnesses_and_empty_J():
    # no small catalog weight gives multiplicity > 1, so the contributions
    # are built by hand: two share (degree, mu_plus) and one has J = ()
    X = build_case("group:A2")
    lam = X.weight_from_pic_coords((-6, 4))
    hw, other = (1, 0, 0, 1), (0, 2, 0, 0)
    first = Contribution((0,), (5, -9, -3, 1), 3, hw, 4, 9)  # j_bitmask 1
    second = Contribution((1,), (-7, 2, 4, -8), 3, hw, 4, 9)  # j_bitmask 2
    empty = Contribution((), (0, 2, -4, 0), 4, other, 4, 36)
    for conts in itertools.permutations([second, empty, first]):
        table = tabulate(X, lam, list(conts))
        (group,) = table.groups
        assert group.degree == 4 and group.dimension == 2 * 9 + 36
        single, shared = group.constituents  # by highest weight
        assert (shared.highest_weight, shared.multiplicity, shared.dimension) == (hw, 2, 9)
        assert shared.witnesses == (first, second)  # by J bitmask before mu
        assert (single.highest_weight, single.multiplicity, single.witnesses) == (other, 1, (empty,))
    for with_witnesses in (True, False):
        assert table_to_json(X, table, (-6, 4), with_witnesses) == reference_json(
            X, table, (-6, 4), with_witnesses
        )
