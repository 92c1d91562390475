"""CLI contract: commands, formats, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import wondercoh
from wondercoh.cli import main
from wondercoh.roots import RootSystem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "E6/F4" in out and "flag:A1" in out


def test_describe_e6f4(capsys):
    code, out, _ = run(capsys, "describe", "E6/F4")
    assert code == 0
    assert "N = 26" in out
    assert "pass" in out and "FAIL" not in out


def test_describe_p3(capsys):
    code, out, _ = run(capsys, "describe", "PSO/PSO(2)")
    assert code == 0
    assert "N = 3" in out


def test_describe_unknown(capsys):
    code, _, err = run(capsys, "describe", "nosuch")
    assert code == 2
    assert "nosuch" in err


def test_cohomology_json_p3(capsys):
    code, out, _ = run(
        capsys, "cohomology", "PSO/PSO(2)", "--lambda", "-6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["variety"] == "PSO/PSO(2)" and doc["N"] == 3
    assert doc["lambda"] == [-6]
    assert [g["degree"] for g in doc["groups"]] == [3]
    assert doc["groups"][0]["dimension"] == "10"
    wits = doc["groups"][0]["constituents"][0]["witnesses"]
    assert wits and set(wits[0]) == {"J", "mu", "length"}


def test_cohomology_flag_text(capsys):
    code, out, _ = run(capsys, "cohomology", "flag:A1", "--lambda", "3")
    assert code == 0
    assert "H^0: dimension 4" in out


def test_cohomology_singular_ok(capsys):
    code, out, _ = run(capsys, "cohomology", "flag:A1", "--lambda", "-1")
    assert code == 0
    assert "vanish" in out


def test_cohomology_bad_coords(capsys):
    code, _, err = run(capsys, "cohomology", "E6/F4", "--lambda", "1")
    assert code == 2


def test_cohomology_relative_lambda0(capsys):
    code, out, _ = run(
        capsys, "cohomology", "PSO/PSO(2)", "--lambda", "0", "--format", "json",
        "--relative-lambda0",
    )
    assert code == 0
    assert json.loads(out)["lambda"] == [-2]


@pytest.mark.parametrize("name, pic_rank", [("flag:A2", 2), ("group:A3", 3), ("PGL/PSp(4)", 3)])
def test_relative_lambda0_needs_rank_1_or_2(capsys, name, pic_rank):
    code, out, err = run(
        capsys, "cohomology", name, "--lambda", *["0"] * pic_rank, "--relative-lambda0"
    )
    assert code == 2
    assert out == "" and "rank 1 or 2" in err


def test_cohomology_no_witness_and_csv(capsys):
    code, out, _ = run(
        capsys, "cohomology", "PSO/PSO(2)", "--lambda", "2", "--format", "json",
        "--no-witness",
    )
    doc = json.loads(out)
    assert doc["groups"][0]["constituents"][0]["witnesses"] == []
    code, out, _ = run(
        capsys, "cohomology", "PSO/PSO(2)", "--lambda", "2", "--format", "csv"
    )
    assert out.splitlines()[0] == "degree,highest_weight,multiplicity,dimension"
    assert "0,2 2,1,9" in out


def test_cohomology_degree_filter(capsys):
    code, out, _ = run(
        capsys, "cohomology", "PSO/PSO(2)", "--lambda", "-6", "--format", "json",
        "--degree", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert [g["degree"] for g in doc["groups"]] == [3]
    code, out, _ = run(
        capsys, "cohomology", "PSO/PSO(2)", "--lambda", "-6", "--format", "json",
        "--degree", "1",
    )
    assert json.loads(out)["groups"] == []


def test_cohomology_byte_stable(capsys):
    args = ("cohomology", "E6/F4", "--lambda", "-10", "-10", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_scan_group_a1_vanishing(capsys):
    code, out, _ = run(
        capsys, "scan", "group:A1", "--box", "6", "--checks", "vanishing"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["checks"]["vanishing"]["passed"]


def test_scan_pglpsp3_divisibility(capsys):
    code, out, _ = run(
        capsys, "scan", "PGL/PSp(3)", "--box", "4", "--checks", "divisibility"
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_scan_p3_serre(capsys):
    code, out, _ = run(
        capsys, "scan", "PSO/PSO(2)", "--box", "10", "--checks", "serre"
    )
    assert code == 0
    assert json.loads(out)["passed"]


def test_scan_h0(capsys):
    code, out, _ = run(capsys, "scan", "Q(2)", "--box", "5", "--checks", "h0")
    assert code == 0


def test_scan_unknown_check(capsys):
    code, _, err = run(capsys, "scan", "group:A1", "--box", "2", "--checks", "bogus")
    assert code == 2


def test_region_plot_files(tmp_path, capsys):
    out = tmp_path / "omega.svg"
    code, _, _ = run(
        capsys, "region-plot", "group:A2", "--kind", "Omega",
        "--range", "-3", "3", "--out", str(out),
    )
    assert code == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    sidecar = tmp_path / "omega.cls"
    lines = sidecar.read_text().strip().split("\n")
    assert len(lines) == 49
    for line in lines:
        *coords, mask = (int(x) for x in line.split())
        assert int(mask) == sum(1 << i for i, n in enumerate(coords) if n <= 0)


def test_variety_file(tmp_path, capsys):
    doc = {
        "name": "myP3",
        "group": [["D", 2]],
        "spherical_roots": [[2, 2]],
        "pic_basis": [[1, 1]],
    }
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "describe", "--variety-file", str(path))
    assert code == 0 and "N = 3" in out

    bad = {"group": [["D", 2]], "spherical_roots": [[2, 0]], "pic_basis": [[1, 0]]}
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "describe", "--variety-file", str(path))
    assert code == 3


def test_variety_file_extra_sgamma_exits_3(tmp_path, capsys):
    pair = [[1, 0], [0, 1]]
    doc = {
        "group": [["D", 2]],
        "spherical_roots": [[2, 2]],
        "pic_basis": [[1, 1]],
        "sgamma": [pair, pair],  # two pairs for one spherical root
    }
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "describe", "--variety-file", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "sgamma" in err and "Traceback" not in err


def _off_by_one_walk(walk):
    """A chamber walk whose length disagrees with the inversion count."""

    def patched(self, lam):
        made = walk(self, lam)
        return made and (made[0], made[1] + 1, made[2])

    return patched


def test_invariant_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        RootSystem, "make_dominant_shifted",
        _off_by_one_walk(RootSystem.make_dominant_shifted),
    )
    code, out, err = run(capsys, "cohomology", "PSO/PSO(2)", "--lambda", "-6")
    assert code == 3
    assert out == "" and "length mismatch" in err


def test_invariant_fires_under_optimize():
    # `assert` statements vanish under -O; the engine invariants must not
    script = "\n".join([
        "import sys",
        "from wondercoh.cli import main",
        "from wondercoh.roots import RootSystem",
        "from tests.test_cli import _off_by_one_walk",
        "print(sys.flags.optimize)",
        "RootSystem.make_dominant_shifted = "
        "_off_by_one_walk(RootSystem.make_dominant_shifted)",
        "sys.exit(main(['cohomology', 'PSO/PSO(2)', '--lambda', '-6']))",
    ])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(wondercoh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
    )
    assert proc.stdout == "1\n"
    assert proc.returncode == 3, proc.stderr
    assert "length mismatch" in proc.stderr


def test_scan_over_budget_exits_2(capsys, monkeypatch):
    from wondercoh import oracles

    def over_budget(X, box):
        raise oracles.OracleBudgetError(
            f"{X.name}: 571352 candidates exceed the cap 200000"
        )

    monkeypatch.setattr(oracles, "vanishing_profile", over_budget)
    code, out, err = run(
        capsys, "scan", "group:A3", "--box", "30", "--checks", "vanishing"
    )
    assert code == 2
    assert out == ""
    assert err == "error: group:A3: 571352 candidates exceed the cap 200000\n"


def test_bad_serre_twist_exits_3(capsys, monkeypatch):
    from wondercoh import build_case

    X = build_case("PSO/PSO(2)")
    # (1, 0) is not a multiple of the pic generator (1, 1)
    monkeypatch.setattr(X, "serre_twist", lambda: (1, 0))
    code, out, err = run(
        capsys, "scan", "PSO/PSO(2)", "--box", "0", "--checks", "serre"
    )
    assert code == 3
    assert out == "" and "left pic; bad catalog data" in err
