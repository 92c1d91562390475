"""Chamber stretches, the tuple records they fill and the writers that read
them.

`contributions` takes the witnesses of each run as stretches: maximal
blocks of consecutive witnesses with one inversion key, each ended in
closed form and checked at its two ends.  The stretches are checked
against the per-point keys of `test_line_cut.keys_along_runs` and the
records against the per-point filter.  Every result record of the package
is an immutable named tuple, and a constituent with one witness is written
from one JSON template.
"""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import build_case
from wondercoh import cohomology
from wondercoh.cli import main
from wondercoh.cohomology import (
    CohomologyTable,
    Constituent,
    Contribution,
    DegreeGroup,
    _sign_runs,
    cohomology_table,
    contributions,
)
from wondercoh.degrees import DivisibilityRule
from wondercoh.oracles import SerreCheck
from wondercoh.regions import RegionPlot
from wondercoh.serialize import table_to_json
from wondercoh.varieties import Check, ValidationReport, validate

from test_helpers import NAMES, draw_weight, inline_translate, reference_json
from test_line_cut import DEPTH, keys_along_runs, per_point_contributions


def count_stretches(monkeypatch):
    """Wrap `cohomology._stretches`; the list gets each stretch it yields."""
    seen = []
    stretches = cohomology._stretches

    def counted(X, lam):
        for stretch in stretches(X, lam):
            seen.append(stretch)
            yield stretch

    monkeypatch.setattr(cohomology, "_stretches", counted)
    return seen


def key_blocks(X, lam):
    """The number of maximal blocks of consecutive regular points with one
    inversion key, over all runs."""
    return sum(
        key is not None
        for keys in keys_along_runs(X, lam)
        for key, _ in itertools.groupby(keys)
    )


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_stretch_per_key_block(name, data):
    X = build_case(name)
    _, lam = draw_weight(data, X, DEPTH.get(X.rank, -8), 4)
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = count_stretches(monkeypatch)
        conts = contributions(X, lam)
    assert len(seen) == (key_blocks(X, lam) if X.rank else len(conts))
    assert sum(stretch[-1] for stretch in seen) == len(conts)
    assert conts == per_point_contributions(X, lam)


def test_key_changes_between_regular_witnesses(monkeypatch):
    # <gamma_0, alpha_k^vee> = 2 for two coroots here, and their pairings
    # step from -1 to 1: the key changes with no singular point between
    X = build_case("group:B2")
    lam = X.weight_from_pic_coords((3, -8))
    jumps = [
        (before, after)
        for keys in keys_along_runs(X, lam)
        for before, after in zip(keys, keys[1:])
        if None not in (before, after) and before != after
    ]
    assert jumps
    seen = count_stretches(monkeypatch)
    conts = contributions(X, lam)
    assert len(seen) == key_blocks(X, lam) and all(stretch[-1] == 1 for stretch in seen)
    assert conts == per_point_contributions(X, lam)


def per_point_run_witnesses(X, lam):
    """(J, mu) at every regular point of every run, each point's coroot
    pairings rebuilt from the run's start: the loop whose singular points
    `_stretches` skips in closed form."""
    mu_step, pair_step = cohomology._walk(X)[2]
    out = []
    for c, n, _, pair, mu in _sign_runs(X, lam):
        J = tuple(i for i, ci in enumerate(c) if ci > 0)
        for s in range(n):
            if 0 not in inline_translate(pair, (s,), (pair_step,)):
                out.append((J, inline_translate(mu, (s,), (mu_step,))))
    return out


def stretch_witnesses(X, lam):
    """(J, mu) of every witness of the stretches, in their order."""
    mu_step = cohomology._walk(X)[2][0]
    return [
        (J, inline_translate(mu, (s,), (mu_step,)))
        for J, _, _, mu, _, _, _, m in cohomology._stretches(X, lam)
        for s in range(m)
    ]


def fixed_zero_runs(X, lam):
    """(first point's pairings, n) of each run where a coroot that does
    not move along gamma_0 pairs to 0 at its start."""
    fixed = cohomology._walk(X)[4]
    return [
        (pair, n)
        for _, n, _, pair, _ in _sign_runs(X, lam)
        if 0 in [pair[k] for k in fixed]
    ]


@pytest.mark.parametrize("name", NAMES + ("group:D4",))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_dropped_runs_equal_per_point_loop(name, data):
    X = build_case(name)
    _, lam = draw_weight(data, X, DEPTH.get(X.rank, -8), 4)
    assert stretch_witnesses(X, lam) == per_point_run_witnesses(X, lam)


def test_run_with_a_fixed_zero_pairing_is_all_singular():
    # PGL/PSp(4) at (-8, -8, -8): 18 of its 45 singular points lie in runs
    # that a coroot with <gamma_0, alpha_k^vee> = 0 keeps singular throughout
    X = build_case("PGL/PSp(4)")
    lam = X.weight_from_pic_coords((-8, -8, -8))
    dropped = fixed_zero_runs(X, lam)
    assert sum(n for _, n in dropped) == 18
    step = cohomology._walk(X)[2][1]
    for pair, n in dropped:
        assert all(0 in inline_translate(pair, (s,), (step,)) for s in range(n))
    assert stretch_witnesses(X, lam) == per_point_run_witnesses(X, lam)


def test_records_are_named_tuples():
    t = Contribution((0,), (5, -9, -3, 1), 3, (1, 0, 0, 1), 4, 9)
    c = Constituent((1, 0, 0, 1), 1, 9, (t,))
    assert Contribution._fields == ("J", "mu", "length", "mu_plus", "degree", "dimension")
    assert Constituent._fields == ("highest_weight", "multiplicity", "dimension", "witnesses")
    for record in (t, c):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    assert t == ((0,), (5, -9, -3, 1), 3, (1, 0, 0, 1), 4, 9)
    assert repr(t) == (
        "Contribution(J=(0,), mu=(5, -9, -3, 1), length=3, mu_plus=(1, 0, 0, 1),"
        " degree=4, dimension=9)"
    )
    assert t.j_bitmask() == 1

    ok, bad = Check("a", True), Check("b", False, "why")
    report = ValidationReport("v", (ok, bad))
    group = DegreeGroup(4, (c,), 9)
    records = {
        ok: ("a", True, ""),
        bad: ("b", False, "why"),
        report: ("v", (ok, bad)),
        group: (4, (c,), 9),
        CohomologyTable((5, -9, -3, 1), (group,)): ((5, -9, -3, 1), (group,)),
        SerreCheck(False, "x"): (False, "x"),
        RegionPlot("v", "R", (0,), (-1, 1), (((0,), 1),)): ("v", "R", (0,), (-1, 1), (((0,), 1),)),
        DivisibilityRule("v", 2, 1, 1, 3): ("v", 2, 1, 1, 3),
    }
    for record, fields in records.items():
        assert isinstance(record, tuple) and len(record._fields) == len(fields)
        assert record == fields
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    assert repr(bad) == "Check(name='b', passed=False, detail='why')"
    assert bool(SerreCheck(False, "x")) is False and bool(SerreCheck(True)) is True
    assert not report.passed and report.failures() == (bad,)
    assert str(report) == "validation of v:\n  [pass] a\n  [FAIL] b (why)"
    X = build_case("flag:A1")
    assert validate(X).passed
    assert str(validate(X)) == "\n".join([
        "validation of flag:A1:",
        "  [pass] spherical root Gram matrix is positive definite",
        "  [pass] pic basis is linearly independent",
        "  [pass] spherical roots are pairwise distinct",
        "  [pass] no root lies in the rational span of the spherical roots",
        "  [pass] spherical roots lie in the pic lattice",
        "  [pass] spherical roots are nonnegative combinations of simple roots",
        "  [pass] pic basis weights are characters of Q",
        "  [pass] two_rho_X vanishes on the Levi of Q",
    ])


def test_json_writer_on_mixed_witness_counts():
    # each constituent of a catalog table has one witness, so one with two
    # (of different |J|) is added by hand to each degree
    X = build_case("group:A2")
    coords = (-8, 4)
    table = cohomology_table(X, X.weight_from_pic_coords(coords))
    assert [len(g.constituents) for g in table.groups] == [1, 3]
    groups = []
    for g in table.groups:
        single = g.constituents[0].witnesses[0]
        shared = Constituent((0,) * len(single.mu_plus), 2, 1, (single, single._replace(J=())))
        groups.append(DegreeGroup(g.degree, (shared, *g.constituents), g.dimension + 2))
    mixed = CohomologyTable(table.lam, tuple(groups))
    for with_witnesses in (True, False):
        assert table_to_json(X, mixed, coords, with_witnesses) == reference_json(
            X, mixed, coords, with_witnesses
        )


def test_json_writer_on_negative_and_long_fields():
    # the writer's `%s` fields against json.dumps beyond small catalog ints:
    # negative and 40-digit entries, |J| = 0 in and out of a multi-witness
    # constituent, on a table built by hand
    X = build_case("group:A2")
    big = 10**39 + 7
    assert len(str(big)) == 40
    hw, far, near = (big, -big, 0, -1), (-3, 2 * big, -big, 5), (0, 0, 0, 0)
    empty = Contribution((), (-big, big, -2, 0), big, hw, 5, big)
    deep = Contribution((0, 1), (big, -9, -big, 3), 4, hw, 5, big)
    lone = Contribution((), (-1, -big, 0, big), 7, far, 5, 1)
    wide = Contribution((1,), (-big, -big, -big, -big), 2, near, 8, 1)
    groups = (
        DegreeGroup(
            5, (Constituent(hw, 2, big, (empty, deep)), Constituent(far, 1, 1, (lone,))), 2 * big + 1
        ),
        DegreeGroup(8, (Constituent(near, 1, 1, (wide,)),), 1),
    )
    table = CohomologyTable((-big, big, 0, 0), groups)
    coords = (-big, big)
    for with_witnesses in (True, False):
        assert table_to_json(X, table, coords, with_witnesses) == reference_json(
            X, table, coords, with_witnesses
        )


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_no_witness_drops_only_witnesses(capsys, fmt):
    argv = ["cohomology", "group:A2", "--lambda", "-4", "-4", "--format", fmt]
    assert main(argv) == 0
    full = capsys.readouterr().out
    assert main([*argv, "--no-witness"]) == 0
    bare = capsys.readouterr().out
    if fmt == "text":
        assert "    witness: " in full
        kept = [line for line in full.splitlines(True) if not line.startswith("    witness: ")]
        assert bare == "".join(kept)
    elif fmt == "json":
        doc = json.loads(full)
        for g in doc["groups"]:
            for c in g["constituents"]:
                c["witnesses"] = []
        assert json.loads(bare) == doc
    else:
        assert bare == full
