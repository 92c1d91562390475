"""The last cohomology table: `cohomology_table` keeps the table it built,
the checks on one weight read it instead of walking again, and only a
complete table from an unpatched walk is ever handed out.  The module
runs in about 1 s.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import build_case, cohomology, degrees, group_compactification, oracles
from wondercoh.cohomology import cohomology_table, contributions, enumerate_candidates
from wondercoh.roots import InvariantError
from wondercoh.serialize import table_to_json

from test_helpers import NAMES, count_calls, draw_weight


def walks(monkeypatch):
    return count_calls(monkeypatch, [cohomology], "_witnesses_by_degree")


@pytest.mark.parametrize(
    "name, coords", [("group:A2", (-6, -4)), ("group:A2", (2, 1)), ("E6/F4", (-10, -10))]
)
def test_checks_on_one_weight_share_one_walk(monkeypatch, name, coords):
    # the public checks in the order the CLI's scan runs them per weight:
    # vanishing, serre, h0, divisibility.  Only the weight and its Serre
    # dual are walked
    X = build_case(name)
    lam = X.weight_from_pic_coords(coords)
    assert X.serre_dual(lam) != lam
    rule = degrees.rule_for(X)
    calls = walks(monkeypatch)
    enumerate_candidates(X, lam)
    assert cohomology_table(X, lam).nonzero_degrees()
    assert oracles.serre_involution_check(X, lam)
    h0 = cohomology_table(X, lam).constituents(0)
    assert sorted(c.highest_weight for c in h0) == oracles.brion_h0(X, lam)
    assert degrees.check_lengths(X, lam, rule) == (True, "")
    assert degrees.check_table_against_rule(cohomology_table(X, lam), rule) == (True, "")
    assert [args[1] for args in calls] == [lam, X.serre_dual(lam)]


def test_hit_is_the_same_table_with_the_same_bytes():
    X = build_case("group:A2")
    coords = (-6, -4)
    lam = X.weight_from_pic_coords(coords)
    table = cohomology_table(X, lam)
    assert cohomology_table(X, lam) is table
    assert cohomology_table(X, list(lam)) is table
    cohomology.clear_last_table()
    fresh = cohomology_table(X, lam)
    assert fresh is not table
    assert table_to_json(X, table, coords) == table_to_json(X, fresh, coords)


def test_clearing_the_slot_lets_go_of_the_table(monkeypatch):
    X = build_case("group:A2")
    lam = X.weight_from_pic_coords((-6, -4))
    table = cohomology_table(X, lam)
    assert cohomology._last == (X, table)
    cohomology.clear_last_table()
    assert cohomology._last is None
    calls = walks(monkeypatch)
    assert cohomology_table(X, lam) == table
    assert len(calls) == 1


def test_a_walk_that_raises_leaves_the_slot_empty(monkeypatch):
    X = build_case("group:A2")
    lam = X.weight_from_pic_coords((-4, 2))
    cohomology_table(X, X.weight_from_pic_coords((1, 1)))
    with monkeypatch.context() as patched:
        patched.setattr(X.group, "_weyl_den", 2**61 - 1)
        with pytest.raises(InvariantError, match="Weyl dimension numerator"):
            cohomology_table(X, lam)
        assert cohomology._last is None
    calls = walks(monkeypatch)
    table = cohomology_table(X, lam)
    assert len(calls) == 1
    assert cohomology._last == (X, table)


def test_contributions_reads_the_slot_but_never_writes_it(monkeypatch):
    X = build_case("E6/F4")
    lam = X.weight_from_pic_coords((-10, -10))
    table = cohomology_table(X, lam)
    last = cohomology._last
    calls = walks(monkeypatch)
    other = contributions(X, X.serre_dual(lam))
    assert cohomology._last is last
    assert contributions(X, lam) == table.witnesses()
    assert len(calls) == 1
    assert len(other) == len(table.witnesses()) > 0


def test_the_slot_is_empty_while_the_witnesses_are_walked(monkeypatch):
    # the old table is freed before the next walk, not kept through it
    X = build_case("group:A2")
    cohomology_table(X, X.weight_from_pic_coords((-3, 1)))
    seen = []
    walk = cohomology._witnesses_by_degree

    def watched(X, lam):
        seen.append(cohomology._last)
        return walk(X, lam)

    monkeypatch.setattr(cohomology, "_witnesses_by_degree", watched)
    cohomology_table(X, X.weight_from_pic_coords((-4, 2)))
    assert seen == [None]


def test_the_same_weight_on_another_variety_misses(monkeypatch):
    X = build_case("group:A2")
    Y = group_compactification("A", 2)
    assert Y is not X and Y.pic_basis == X.pic_basis
    lam = X.weight_from_pic_coords((-6, -4))
    table = cohomology_table(X, lam)
    calls = walks(monkeypatch)
    other = cohomology_table(Y, lam)
    assert len(calls) == 1
    assert other is not table and other == table and table.groups
    assert cohomology._last == (Y, other)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_contributions_from_the_slot_equal_a_fresh_walk(name, data):
    # and so do the public checks that read the slot: each is run once on a
    # slot hit and once on a walk of its own after the slot is emptied
    X = build_case(name)
    rule = degrees.rule_for(X)
    r = 6 if X.rank < 3 else 3
    _, lam = draw_weight(data, X, -r, r)

    def checks(weight, clear):
        if clear:
            cohomology.clear_last_table()
        found = [oracles.serre_involution_check(X, weight)]
        if rule is not None:
            if clear:
                cohomology.clear_last_table()
            found.append(degrees.check_lengths(X, weight, rule))
        return found

    for weight in (lam, X.serre_dual(lam)):
        cohomology.clear_last_table()
        fresh = contributions(X, weight)
        table = cohomology_table(X, weight)
        assert cohomology._last == (X, table)
        assert contributions(X, weight) == fresh
        from_slot = checks(weight, clear=False)
        assert cohomology._last[1] is table
        assert checks(weight, clear=True) == from_slot
