"""Per-witness work in `contributions`, `cohomology_table` and the writers.

The chamber walk runs once per inversion set of mu + rho and variety, the
variety's chamber table keeps only certified walks, the constituent
dimension comes from the coroot pairings of mu + rho, `cohomology_table`
builds in one pass the table that `test_helpers.tabulate` groups from the
contributions with plain dicts, and `table_to_json` writes the bytes of
`json.dumps(table_to_dict(...), indent=2)` from templates.  Each is
checked against the reference it replaces, and the bytes of all three
writers are pinned on five weights.
"""

import hashlib
import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wondercoh
from wondercoh import CATALOG_NAMES, build_case, cohomology
from wondercoh.cli import main
from wondercoh.cohomology import (
    CohomologyTable,
    Constituent,
    Contribution,
    DegreeGroup,
    cohomology_table,
    contributions,
    enumerate_candidates,
    serre_dual_weight,
)
from wondercoh.roots import InvariantError, RootSystem
from wondercoh.serialize import table_to_csv, table_to_json, table_to_text
from wondercoh.varieties import pic_box

from test_helpers import (
    NAMES,
    cold_chambers,
    draw_weight,
    expand_stretches,
    naive_contribution_scan,
    reference_json,
    sigma_lattice_coords,
    tabulate,
)


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
    assert key == tuple(p < 0 for p in cohomology._class_pairings(X, calls[0]))
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


def test_json_writer_on_one_group_of_every_J_size():
    # one template with J as JSON text serves every |J|: a degree group of
    # one-witness constituents with |J| = 0, 1 and 2 and a shared one with
    # two sizes, built by hand, as no catalog weight searched has one
    X = build_case("group:A2")
    none = Contribution((), (-1, 3, -2, 0), 4, (0, 0, 1, 1), 4, 9)
    one = Contribution((1,), (2, -7, 0, 4), 3, (0, 1, 0, 2), 4, 15)
    two = Contribution((0, 1), (-8, 1, 3, -6), 2, (1, 1, 0, 0), 4, 8)
    left = Contribution((0,), (5, -9, -3, 1), 3, (2, 0, 0, 1), 4, 18)
    right = Contribution((0, 1), (-7, 2, 4, -8), 2, (2, 0, 0, 1), 4, 18)
    constituents = tuple(
        Constituent(wits[0].mu_plus, len(wits), wits[0].dimension, wits)
        for wits in ((none,), (one,), (two,), (left, right))
    )
    table = CohomologyTable((-6, 4, 0, 0), (DegreeGroup(4, constituents, 9 + 15 + 8 + 36),))
    for with_witnesses in (True, False):
        assert table_to_json(X, table, (-6, 4), with_witnesses) == reference_json(
            X, table, (-6, 4), with_witnesses
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


def test_indivisible_pair_product_raises_in_table(monkeypatch):
    X = build_case("group:A2")
    monkeypatch.setattr(X.group, "_weyl_den", 2**61 - 1)
    with pytest.raises(InvariantError, match="Weyl dimension numerator"):
        cohomology_table(X, X.weight_from_pic_coords((-4, 2)))


def _stretch_lengths(monkeypatch):
    """The length m of every stretch `_stretches` yields, as they are read."""
    lengths = []
    stretches = cohomology._stretches

    def counted(X, lam):
        for stretch in stretches(X, lam):
            lengths.append(stretch[-1])
            yield stretch

    monkeypatch.setattr(cohomology, "_stretches", counted)
    return lengths


def test_indivisible_pair_product_raises_on_the_c_path(monkeypatch):
    # the first stretch of group:A2 at (-30, -30) reaches the crossover, and
    # its batch check raises before a second stretch is read
    X = build_case("group:A2")
    monkeypatch.setattr(X.group, "_weyl_den", 2**61 - 1)
    lengths = _stretch_lengths(monkeypatch)
    with pytest.raises(InvariantError, match="Weyl dimension numerator"):
        cohomology_table(X, X.weight_from_pic_coords((-30, -30)))
    assert len(lengths) == 1 and lengths[0] >= cohomology._C_STRETCH


def test_indivisible_pair_product_raises_on_the_c_path_under_optimize():
    # `assert` statements vanish under -O; the batch check must not
    # (the counter is inlined: importing this module there takes 1 s)
    script = "\n".join([
        "import sys",
        "from wondercoh import build_case, cohomology",
        "from wondercoh.roots import InvariantError",
        "X = build_case('group:A2')",
        "X.group._weyl_den = 2**61 - 1",
        "lengths, stretches = [], cohomology._stretches",
        "def counted(X, lam):",
        "    for stretch in stretches(X, lam):",
        "        lengths.append(stretch[-1])",
        "        yield stretch",
        "cohomology._stretches = counted",
        "try:",
        "    cohomology.cohomology_table(X, X.weight_from_pic_coords((-30, -30)))",
        "except InvariantError as e:",
        "    print(sys.flags.optimize, len(lengths), lengths[0] >= cohomology._C_STRETCH, e)",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(wondercoh.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 1 True pairing product is not a Weyl dimension numerator\n"


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_both_expansions_equal_the_per_step_reference(name, data):
    X = build_case(name)
    _, lam = deep_weight(data, X)
    for weight in (lam, serre_dual_weight(X, lam)):
        assert cohomology._witnesses_by_degree(X, weight) == expand_stretches(X, weight)


def test_long_stretches_equal_the_per_step_reference(monkeypatch):
    # stretches on both sides of the crossover, up to m = 21; in records and
    # in order, per degree
    lengths = _stretch_lengths(monkeypatch)
    for name in ("E6/F4", "group:A2"):
        X = build_case(name)
        lam = X.weight_from_pic_coords((-30, -30))
        expected = expand_stretches(X, lam)
        del lengths[:]
        assert cohomology._witnesses_by_degree(X, lam) == expected
        assert min(lengths) < cohomology._C_STRETCH <= max(lengths)


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


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_table_in_one_pass_equals_tabulated_contributions(name, data):
    X = build_case(name)
    _, lam = deep_weight(data, X)
    for weight in (lam, serre_dual_weight(X, lam)):
        conts = contributions(X, weight)
        table = tabulate(X, weight, conts)
        assert cohomology_table(X, weight) == table
        assert tabulate(X, weight, data.draw(st.permutations(conts))) == table


@pytest.mark.parametrize("name", ["group:A2", "PGL/PSp(3)", "E6/F4", "group:B2", "PSO/PSO(3)"])
def test_contributions_are_the_sorted_naive_scan(name):
    X = build_case(name)
    for _, lam in pic_box(X, 2):
        box = 0
        for mu in enumerate_candidates(X, lam):
            diff = tuple(a - b for a, b in zip(mu, lam))
            box = max([box, *map(abs, sigma_lattice_coords(X, diff))])
        scan = naive_contribution_scan(X, lam, box)
        assert contributions(X, lam) == sorted(scan, key=lambda t: (t.degree, t.mu))


def test_table_groups_stretches_that_share_a_highest_weight(monkeypatch):
    # two stretches of H^4 end in the same mu_plus; the second one yielded
    # has the smaller J bitmask, so it is the first witness.  The pairings
    # are group:A2's three classes, two coroots each, at mu_plus + rho
    X = build_case("group:A2")
    lam = X.weight_from_pic_coords((-6, 4))
    assert [len(ks) for ks in cohomology._walk(X).classes] == [2, 2, 2]
    hw, other = (1, 0, 0, 1), (0, 2, 2, 0)
    pair, other_pair = (2, 1, 3), (1, 3, 4)  # dims 6^2/4, 12^2/4
    step = (0, 0, 0, 0)
    stretches = [
        ((1,), 3, 4, (-7, 2, 4, -8), hw, list(pair), step, 1),
        ((), 4, 4, (0, 2, -4, 0), other, list(other_pair), step, 1),
        ((0,), 3, 4, (5, -9, -3, 1), hw, list(pair), step, 1),
    ]
    monkeypatch.setattr(cohomology, "_stretches", lambda X, lam: iter(stretches))
    first = Contribution((0,), (5, -9, -3, 1), 3, hw, 4, 9)
    second = Contribution((1,), (-7, 2, 4, -8), 3, hw, 4, 9)
    empty = Contribution((), (0, 2, -4, 0), 4, other, 4, 36)
    assert contributions(X, lam) == [second, empty, first]  # by mu
    table = cohomology_table(X, lam)
    assert table == tabulate(X, lam, contributions(X, lam))
    (group,) = table.groups
    assert group.degree == 4 and group.dimension == 2 * 9 + 36
    single, shared = group.constituents
    assert (single.highest_weight, single.multiplicity, single.witnesses) == (other, 1, (empty,))
    assert (shared.highest_weight, shared.multiplicity, shared.dimension) == (hw, 2, 9)
    assert shared.witnesses == (first, second)


def test_group_a3_shares_a_trivial_constituent():
    # H^5 at (3, -6, 3) holds the trivial module twice, with one J and two mu
    X = build_case("group:A3")
    lam = X.weight_from_pic_coords((3, -6, 3))
    table = cohomology_table(X, lam)
    shared = [(g.degree, c) for g in table.groups for c in g.constituents if c.multiplicity > 1]
    assert [(d, c.highest_weight, c.multiplicity, c.dimension) for d, c in shared] == [
        (5, (0,) * 6, 2, 1)
    ]
    ((_, c),) = shared
    assert [(t.J, t.mu) for t in c.witnesses] == [
        ((1,), (0, -3, 2, 2, -3, 0)),
        ((1,), (2, -3, 0, 0, -3, 2)),
    ]
    assert tabulate(X, lam, contributions(X, lam)[::-1]) == table

# sha256 of each writer's output: json and text with and without witnesses,
# then csv
WRITER_PINS = {
    ("group:A3", (-8, -8, -8)): (
        "ed519c9a30ecf66d67a9906549dcf4739c63d4e1ae9467226aa406b0c3d738a7",
        "2424451ae62dfc2b96d43e4ec801b149b69d645b77a900f4b207f721568c307f",
        "3305be7074cb930b26ecb482cb417cdb9d96270daf13f9236406dc17891fae2b",
        "3d7f4d2b7e8e09fdc513979e84d3bbf6879bdc0e8515224bba0bfb56562d874b",
        "c68af617815398b77c7b56f9c4bc9663c56e47e366cc28d7e09322ecbcebc7a5",
    ),
    ("PGL/PSp(4)", (-8, -8, -8)): (
        "1267d55cd17c39e7b743dd4a9e75ed69e61d30e50d6c19a6a4d2530b23d91bb2",
        "354c33ae1dab4444faf5045afa3818efea803b15663b0eb8ccaa67d2ca36dc87",
        "06484c097d6eac9a34cc145079f4bfadb8b2ff21c5c9f32b851112cbdfc6d440",
        "00d0629545ecdd4d086ab749c22d76cb056c489abdec08bdf6aea7e2098c1b89",
        "772cd52c84e1714e96ff25fd742e891cdc438606365eb4142777ec39c6e3b848",
    ),
    ("E6/F4", (-30, -30)): (
        "20b5c5d94f7c1aa13a2c5683071e3188df8daebaf823ea6a13ea74071ec0911b",
        "94ef03cd189dd2ee35683797192d0b88f9f641e093acee956622582b906e3c18",
        "993db353d3ba4b24ae67f1e306417b32b7eb15be2ef36fbfc9ddbd4bc7973e44",
        "41ed1884fe3aea1596cf622954e1b7b3169db908ce1e4c563150df364c48c42b",
        "7839df54bbef777c6ccb4810f9acf668bbf615bc5ee18192b186a5136f6f7709",
    ),
    ("group:A2", (-60, -60)): (
        "982f05395ce24da5bbd93a34d3f74eb022b8370a39bc709ee83322a11f97428d",
        "b4a0331b5db1e35f0afa0517147dfa91fd0de2ab576811bef21f835d954cb9a2",
        "15b03ede054adcb3cf849aff0ead77f999afe4226d69836dc2a698b3f6f3f384",
        "597343a3a92d3bdad73d6c3d3f5aa4c9f3cdfbe9e4674e0aadc7e6c57859a0d4",
        "da86168d92da46715f0130cad797c804a1a25248e479fa5f2a4efe3b2d38a83e",
    ),
    # L(0) twice in H^5: the multi-witness JSON path on a real table
    ("group:A3", (3, -6, 3)): (
        "dd68818b31c11604eef0c50e6fa57988ab8230857d6d080d61ab799179b375d4",
        "42ce8518af7f507418ca343d89f546b5adf4617836a00a016aefd2802c037fb9",
        "1633aa3364b877080d2b46780c7e09ba61cecae124af11dcc7a115331ddb61e6",
        "295539bcf03094df3676128e01b5dbb087f749e43fcf4469a8ba3042f51209d6",
        "74da9617128b10814d4ea71295ead1b6b39e68df3d449a55f6ecd9008d7c0269",
    ),
}


@pytest.mark.parametrize("name, coords", list(WRITER_PINS))
def test_writer_bytes_are_pinned(name, coords):
    X = build_case(name)
    table = cohomology_table(X, X.weight_from_pic_coords(coords))
    outputs = (
        table_to_json(X, table, coords),
        table_to_json(X, table, coords, False),
        table_to_text(X, table, coords),
        table_to_text(X, table, coords, False),
        table_to_csv(X, table, coords),
    )
    digests = tuple(hashlib.sha256(out.encode()).hexdigest() for out in outputs)
    assert digests == WRITER_PINS[name, coords]
