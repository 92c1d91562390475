"""`wondercoh scan`: its reports pinned byte for byte, the evaluations it
makes per box weight, and the candidate count behind the vanishing cap."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import WonderfulVariety, build_case, cli, cohomology, degrees, oracles, varieties
from wondercoh.varieties import pic_box
from test_helpers import NAMES, PRODUCT, count_calls, draw_weight, variety

ALL = "vanishing,serre,h0,divisibility"
SERRE = ("serre", True, "witness bijection and dimension pairing hold on the box")
H0 = ("h0", True, "degree zero matches the independent scan on the box")


def lengths(modulus):
    return ("divisibility", True, f"all witness lengths divisible by {modulus}")


def vanishing(passed, realized, allowed):
    return ("vanishing", passed, f"realized degrees {realized}, allowed {allowed}")


def report(variety, box, *checks):
    """The stdout of a scan whose checks end as (name, passed, detail)."""
    doc = {
        "variety": variety,
        "box": box,
        "checks": {name: {"passed": ok, "detail": detail} for name, ok, detail in checks},
        "passed": all(ok for _, ok, _ in checks),
    }
    return json.dumps(doc, indent=2) + "\n"


GROUP_A2_BOX_3 = """\
{
  "variety": "group:A2",
  "box": 3,
  "checks": {
    "vanishing": {
      "passed": true,
      "detail": "realized degrees [0, 8], allowed [0, 3, 5, 8]"
    },
    "serre": {
      "passed": true,
      "detail": "witness bijection and dimension pairing hold on the box"
    },
    "h0": {
      "passed": true,
      "detail": "degree zero matches the independent scan on the box"
    },
    "divisibility": {
      "passed": true,
      "detail": "all witness lengths divisible by 2"
    }
  },
  "passed": true
}
"""

# (variety, box, checks, exit code, stdout, stderr), recorded from the
# per-check scan that evaluated every weight once per check
CASES = [
    ("group:A2", 3, ALL, 0, GROUP_A2_BOX_3, ""),
    ("PGL/PSp(3)", 2, ALL, 0, report(
        "PGL/PSp(3)", 2, vanishing(True, [0], [0, 5, 9, 14]), SERRE, H0, lengths(4)
    ), ""),
    ("E6/F4", 3, ALL, 0, report(
        "E6/F4", 3, vanishing(True, [0], [0, 9, 17, 26]), SERRE, H0, lengths(8)
    ), ""),
    ("Q(2)", 5, "h0,serre", 0, report("Q(2)", 5, H0, SERRE), ""),
    ("group:A1", 6, "divisibility,vanishing", 0, report(
        "group:A1", 6, lengths(2), vanishing(True, [0, 3], [0, 3])
    ), ""),
    ("flag:A2", 1, "serre,h0", 0, report("flag:A2", 1, SERRE, H0), ""),
    ("group:A1", 1, "h0,,serre,h0", 0, report("group:A1", 1, H0, SERRE), ""),
    ("flag:A2", 1, "serre,vanishing", 2, "",
     "error: flag:A2 carries no degree rule for the vanishing check\n"),
    ("flag:A2", 1, "h0,divisibility,vanishing", 2, "",
     "error: flag:A2 carries no divisibility rule\n"),
    ("group:A1", 1, "", 2, "", "error: no checks given\n"),
    ("group:A1", 1, ",,", 2, "", "error: no checks given\n"),
]


def scan(capsys, variety, box, checks):
    code = cli.main(["scan", variety, "--box", str(box), "--checks", checks])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "variety, box, checks, code, out, err", CASES, ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in CASES]
)
def test_scan_report_bytes(capsys, variety, box, checks, code, out, err):
    assert scan(capsys, variety, box, checks) == (code, out, err)


def test_report_helper_writes_the_literal_bytes():
    assert report(
        "group:A2", 3, vanishing(True, [0, 8], [0, 3, 5, 8]), SERRE, H0, lengths(2)
    ) == GROUP_A2_BOX_3


def test_failing_degree_rule_report_bytes(capsys, monkeypatch):
    # a smaller allowed set fails vanishing over the box and divisibility at
    # its first weight with cohomology in degree 8 (group:A2) or 3 (group:A1)
    monkeypatch.setattr(degrees.DivisibilityRule, "allowed", lambda self: frozenset({0}))
    assert scan(capsys, "group:A2", 3, ALL) == (3, report(
        "group:A2", 3, vanishing(False, [0, 8], [0]), SERRE, H0,
        ("divisibility", False,
         "lambda=[-3, -3]: degree 8 carries cohomology but the group:A2 rule allows only [0]"),
    ), "")
    assert scan(capsys, "group:A1", 6, "divisibility,vanishing") == (3, report(
        "group:A1", 6,
        ("divisibility", False,
         "lambda=[-6]: degree 3 carries cohomology but the group:A1 rule allows only [0]"),
        vanishing(False, [0, 3], [0]),
    ), "")


def test_failing_h0_report_bytes(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "brion_h0", lambda X, lam: [tuple(lam)])
    assert scan(capsys, "group:A2", 2, ALL) == (3, report(
        "group:A2", 2, vanishing(True, [0], [0, 3, 5, 8]), SERRE,
        ("h0", False, "lambda=[-2, -2]: H^0 is [], oracle says [(-2, -2, -2, -2)]"),
        lengths(2),
    ), "")


def test_failing_length_report_bytes(capsys, monkeypatch):
    # modulus 4 on group:A2: the length 6 witness fails, and the detail names
    # the weight itself, not its pic coordinates
    def rule_for(X):
        return degrees.DivisibilityRule(X.name, 4, X.divisibility[1], X.rank, X.dimension_N)

    monkeypatch.setattr(degrees, "rule_for", rule_for)
    failure = ("divisibility", False,
               "lambda=[-3, -3, -3, -3]: witness mu=[-2, -2, -2, -2] has length 6, "
               "not a multiple of 4")
    assert scan(capsys, "group:A2", 3, ALL) == (3, report(
        "group:A2", 3, vanishing(False, [0, 8], [0, 5, 9, 14]), SERRE, H0, failure
    ), "")
    assert scan(capsys, "group:A2", 3, "divisibility") == (
        3, report("group:A2", 3, failure), ""
    )


def test_failing_length_report_names_the_least_witness(capsys, monkeypatch):
    # at (-6, -6) the table orders the witnesses of degree 8 by mu_plus, and
    # mu=[-2, -2, -2, -2] comes first; table.witnesses() lists them by
    # (degree, mu), the order of `contributions`, so the least is named
    def rule_for(X):
        return degrees.DivisibilityRule(X.name, 4, X.divisibility[1], X.rank, X.dimension_N)

    monkeypatch.setattr(degrees, "rule_for", rule_for)
    assert scan(capsys, "group:A2", 6, "divisibility") == (3, report(
        "group:A2", 6,
        ("divisibility", False,
         "lambda=[-6, -6, -6, -6]: witness mu=[-6, -3, -3, -6] has length 6, "
         "not a multiple of 4"),
    ), "")


@pytest.mark.parametrize(
    "broken, detail",
    [
        ((-5, -2, -2, -5), "witness (J=(0, 1), mu=[-5, -2, -2, -5]) has no dual partner"),
        (None, "witness (J=(0, 1), mu=[-6, -3, -3, -6]) has no dual partner"),
    ],
    ids=["one-witness", "every-witness"],
)
def test_failing_serre_report_bytes(capsys, monkeypatch, broken, detail):
    # the partner keeps J instead of J* for the witness at mu=`broken`, or
    # for every witness; the first weight of the box, (-6, -6), fails, and
    # of its failing witnesses the first in (degree, mu) order is named
    partner = oracles.serre_partner

    def flipped(X, t):
        jstar, mustar = partner(X, t)
        return (t.J if broken in (None, t.mu) else jstar), mustar

    monkeypatch.setattr(oracles, "serre_partner", flipped)
    assert scan(capsys, "group:A2", 6, "serre") == (
        3, report("group:A2", 6, ("serre", False, f"lambda=[-6, -6]: {detail}")), ""
    )


@pytest.mark.parametrize(
    "name, checks, walks, tables, capped",
    [
        # group:A2 and flag:B2 have 25 box weights, Q7 has 5; a group:A2 id
        # reads checks-walks per weight-capped counts per weight
        pytest.param("group:A2", ALL, 50, 50, 25, id=f"{ALL}-2-1"),
        pytest.param("group:A2", "vanishing,h0,divisibility", 25, 25, 25,
                     id="vanishing,h0,divisibility-1-1"),
        pytest.param("group:A2", "serre,h0", 50, 50, 0, id="serre,h0-2-0"),
        # flag:B2's weight at pic coordinates (-1, -1) is its own Serre dual,
        # and the dual's evaluation reads the weight's table from the slot
        pytest.param("flag:B2", "serre,h0", 49, 50, 0, id="flag:B2-serre,h0"),
        pytest.param("Q7", ALL, 10, 10, 5, id=f"Q7-{ALL}"),
    ],
)
def test_scan_evaluates_each_weight_once(monkeypatch, capsys, name, checks, walks, tables, capped):
    # every evaluation, the table's and the Serre dual's, walks the witnesses
    # by _witnesses_by_degree, so every module holding it shares one counter;
    # serre evaluates the Serre dual weight on top of the box weight.  The
    # scan builds each box weight's table, and the Serre check asks for it
    # again and reads it from the last-table slot
    holders = [m for m in (cohomology, oracles, degrees, cli) if hasattr(m, "_witnesses_by_degree")]
    calls = count_calls(monkeypatch, holders, "_witnesses_by_degree")
    holders = [m for m in (cohomology, oracles, degrees, cli) if hasattr(m, "cohomology_table")]
    built = count_calls(monkeypatch, holders, "cohomology_table")
    listed = count_calls(monkeypatch, [cohomology], "enumerate_candidates")
    counted = count_calls(monkeypatch, [oracles], "capped_candidate_count")
    X = build_case(name)
    assert scan(capsys, name, 2, checks)[0] == 0
    assert (len(calls), len(built), len(counted)) == (walks, tables, capped)
    oracles.vanishing_profile(X, 2)
    assert listed == []


def test_scan_checks_membership_six_times_per_weight(monkeypatch, capsys):
    # the scan's table, the Serre check's table, the length check's
    # contributions and the H^0 scan check lam; the Serre dual weight is
    # checked once for the catalog and once by its evaluation; the variety
    # is built before counting
    X = build_case("group:A3")
    weights = len(list(pic_box(X, 2)))
    calls = count_calls(monkeypatch, [WonderfulVariety], "pic_contains")
    assert scan(capsys, "group:A3", 2, ALL)[0] == 0
    assert len(calls) == 6 * weights


def test_scan_solves_no_lattice_membership(monkeypatch, capsys):
    # every box weight carries its pic coordinates, and so does its Serre
    # dual: the membership checks above read them and solve nothing
    X = build_case("group:A2")
    weights = len(list(pic_box(X, 2)))
    checked = count_calls(monkeypatch, [WonderfulVariety], "pic_contains")
    solves = count_calls(monkeypatch, [varieties], "lattice_coords")
    assert scan(capsys, "group:A2", 2, ALL)[0] == 0
    assert len(checked) == 6 * weights
    assert len(solves) / weights == 0


@pytest.mark.parametrize(
    "name, box, checks, message",
    [
        ("group:A2", 1, ["bogus"], "unknown checks: bogus"),
        ("group:A2", 1, ["serre", "bogus", "h0", "nope"], "unknown checks: bogus, nope"),
        ("flag:A2", 1, ["divisibility"], "flag:A2 carries no divisibility rule"),
        ("flag:A2", 1, ["vanishing", "divisibility"], "flag:A2 carries no divisibility rule"),
        ("group:A2", -1, ["serre"], "box must be >= 0"),
        ("flag:A2", -1, ["bogus", "divisibility"], "box must be >= 0"),
    ],
)
def test_library_scan_refuses_what_it_cannot_run(monkeypatch, name, box, checks, message):
    # the CLI's texts, raised before any weight is evaluated
    X = build_case(name)
    holders = [m for m in (cohomology, oracles) if hasattr(m, "cohomology_table")]
    tables = count_calls(monkeypatch, holders, "cohomology_table")
    with pytest.raises(ValueError) as exc:
        oracles.scan(X, box, checks)
    assert str(exc.value) == message
    assert tables == []


def test_library_scan_runs_vanishing_without_a_rule():
    # only collects the realized degrees: vanishing_profile of a flag variety
    X = build_case("flag:A2")
    result = oracles.scan(X, 1, ["vanishing", "serre"])
    assert result.checks["vanishing"] == (True, "")
    assert result.realized == oracles.vanishing_profile(X, 1)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_capped_count_is_the_candidate_list_length(name, data):
    X = build_case(name)
    coords, lam = draw_weight(data, X, -4, 4)
    n = len(cohomology.enumerate_candidates(X, lam))
    assert oracles.capped_candidate_count(X, coords, lam, n) == n
    message = f"{X.name}, lambda={list(coords)}: {n} candidates exceed the cap {n - 1}"
    with pytest.raises(oracles.OracleBudgetError) as exc:
        oracles.capped_candidate_count(X, coords, lam, n - 1)
    assert str(exc.value) == message


@pytest.mark.parametrize("name", NAMES + ("group:A4", "group:D4", "PGL/PSp(5)", PRODUCT))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_capped_count_lies_between_the_count_and_the_cap(name, data):
    # the guard accepts a weight by the ball's product bound and counts the
    # ball's lines only above the cap, so whatever the cap it returns a value
    # from the exact count up to the cap, and refuses exactly the weights
    # whose count is over the cap, with the exact count in the message
    X = variety(name)
    coords, lam = draw_weight(data, X, -4, 4)
    sig = X.sign_pairings(lam)
    n = sum(points for _, points, _ in cohomology._ball_lines(X, sig, 2))
    bound = cohomology._ball_bound(X, sig, 2)
    assert bound >= n
    for cap in (n - 1, n, data.draw(st.integers(0, bound + 1)), bound):
        if n > cap:
            with pytest.raises(oracles.OracleBudgetError) as exc:
                oracles.capped_candidate_count(X, coords, lam, cap)
            message = f"{X.name}, lambda={list(coords)}: {n} candidates exceed the cap {cap}"
            assert str(exc.value) == message
        else:
            assert n <= oracles.capped_candidate_count(X, coords, lam, cap) <= cap


@pytest.mark.parametrize("box", [1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_cli_scan_writes_the_library_scan(capsys, name, box):
    # the CLI only validates and writes: its report is `oracles.scan`'s
    # results, and the realized degrees it reports are `vanishing_profile`;
    # a variety with no degree rule runs the two checks that need none
    X = build_case(name)
    rule = degrees.rule_for(X)
    checks = ALL if rule is not None else "serre,h0"
    result = oracles.scan(X, box, checks.split(","))
    written = report(X.name, box, *((c, ok, detail) for c, (ok, detail) in result.checks.items()))
    code, out, err = scan(capsys, name, box, checks)
    assert (code, out, err) == (0, written, "")
    if rule is not None:
        detail = json.loads(out)["checks"]["vanishing"]["detail"]
        realized = detail.removeprefix("realized degrees ").split(", allowed ")[0]
        assert json.loads(realized) == sorted(oracles.vanishing_profile(X, box))
