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


@pytest.mark.parametrize(
    "name, message",
    [
        ("flag:A2:q=", "bad flag specifier 'flag:A2:q='"),
        ("flag:A2:q=1,", "bad flag specifier 'flag:A2:q=1,'"),
        ("flag:A2:q=x", "bad flag specifier 'flag:A2:q=x'"),
        ("flag:A2:q=1:q=2", "bad flag specifier 'flag:A2:q=1:q=2'"),
        ("flag:A2:q=1:", "bad flag specifier 'flag:A2:q=1:'"),
        ("group:Ab", "cannot parse Dynkin type 'Ab'"),
        # int() or str.isdecimal takes each of these, and each named a
        # second descriptor of a case its plain spelling already builds
        ("Q(0_3)", "bad parameter in 'Q(0_3)'"),
        ("PSO/PSO( 3)", "bad parameter in 'PSO/PSO( 3)'"),
        ("PGL/PSp(+2)", "bad parameter in 'PGL/PSp(+2)'"),
        ("group:A\u0663", "cannot parse Dynkin type 'A\u0663'"),
        ("flag:A2:q=\u0661", "bad flag specifier 'flag:A2:q=\u0661'"),
    ],
)
def test_describe_malformed_name(capsys, name, message):
    assert run(capsys, "describe", name) == (2, "", f"error: {message}\n")


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
    assert err == "error: E6/F4 needs 2 pic coordinates, got 1\n"
    code, _, err = run(capsys, "cohomology", "E6/F4", "--lambda")
    assert code == 2
    assert err == "error: E6/F4 needs 2 pic coordinates, got 0\n"


def test_cohomology_zero_pic_coordinates(capsys):
    # every simple root is in the Levi, so pic(X) = 0 and --lambda takes
    # no coordinates: H^0 = L(0)
    code, out, _ = run(capsys, "cohomology", "flag:A1:q=1", "--lambda", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == [] and doc["N"] == 0
    assert [(g["degree"], g["dimension"]) for g in doc["groups"]] == [(0, "1")]
    assert doc["groups"][0]["constituents"][0]["highest_weight"] == [0]


def test_cohomology_lambda_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "flag:A1:q=1"])
    assert exc.value.code == 2
    assert "--lambda" in capsys.readouterr().err


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


def test_degree_filter_text_names_only_its_group(capsys):
    argv = ("cohomology", "group:A1", "--lambda", "2")
    _, full, _ = run(capsys, *argv)
    assert full.splitlines()[1] == "H^0: dimension 10"
    code, out, _ = run(capsys, *argv, "--degree", "1")
    assert code == 0
    assert out.splitlines() == [full.splitlines()[0], "H^1: dimension 0"]
    assert run(capsys, *argv, "--degree", "0")[1] == full
    _, csv_out, _ = run(capsys, *argv, "--degree", "1", "--format", "csv")
    assert csv_out == "degree,highest_weight,multiplicity,dimension\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("cohomology", "group:A1", "--lambda", "2"),
        ("scan", "group:A1", "--box", "1"),
        ("region-plot", "group:A1", "--kind", "Omega", "--range", "-2", "2"),
    ],
)
def test_unwritable_out_is_one_error_line(tmp_path, capsys, argv):
    # an empty path is no file either: it must not fall back to stdout
    for target in (str(tmp_path / "missing" / "out.svg"), ""):
        code, out, err = run(capsys, *argv, "--out", target)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


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


def test_region_plot_over_the_cap_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "omega.svg"
    code, printed, err = run(
        capsys, "region-plot", "group:A2", "--kind", "Omega",
        "--range", "-100000", "100000", "--out", str(out),
    )
    assert (code, printed) == (2, "")
    assert err == "error: a grid of 40000400001 points exceeds the region plot limit of 250000\n"
    assert not any(tmp_path.iterdir())


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
    # imported here: the -O subprocess below imports this module without
    # the tests directory on its path
    from test_helpers import cold_chambers

    cold_chambers(monkeypatch, wondercoh.build_case("PSO/PSO(2)"))
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


def test_scan_over_budget_exits_2(capsys):
    # the real cap: the first box weight already has 571352 candidates
    code, out, err = run(
        capsys, "scan", "group:A3", "--box", "30", "--checks", "vanishing"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: group:A3, lambda=[-30, -30, -30]: "
        "571352 candidates exceed the cap 200000\n"
    )


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


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ("cohomology", "group:A2", "--lambda", "-60", "-60", "--format", "json"),
        ("list",),
        ("describe", "E6/F4"),
    ],
)
def test_closed_stdout_is_one_error_line(argv, unbuffered):
    # the read end is closed before the child starts, so every write to
    # stdout fails, buffered (at the final flush) or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(wondercoh.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wondercoh.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: cannot write output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("describe", "group:A9"), ("list",)])
def test_closed_pipe_shared_with_stderr_exits_2(argv, unbuffered):
    # `wondercoh describe group:A9 2>&1 | head -1`: stderr is the same
    # closed pipe, so the error line cannot be written either, and the exit
    # code is still the usage error's
    src = os.path.dirname(os.path.dirname(os.path.abspath(wondercoh.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wondercoh.cli", *argv],
            stdout=write_end, stderr=write_end, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2


def test_region_plot_refuses_an_svg_named_like_its_sidecar(tmp_path, capsys):
    # the sidecar of p.cls is p.cls itself, so it would overwrite the SVG
    out = tmp_path / "p.cls"
    code, stdout, err = run(
        capsys, "region-plot", "group:A2", "--kind", "Omega",
        "--range", "-1", "1", "--out", str(out),
    )
    assert (code, stdout) == (2, "")
    assert err == f"error: --out {out} is the sidecar's own path; give the SVG another name\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [("describe",), ("cohomology", "--lambda", "-3", "--format", "text")])
def test_variety_file_name_with_a_line_break_exits_3(tmp_path, capsys, command):
    # a name is written raw into the one-line text headers
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"name": "a\nb", "group": [["A", 1]], "pic_basis": [[1]]}))
    code, out, err = run(capsys, command[0], "--variety-file", str(path), *command[1:])
    assert (code, out) == (3, "")
    assert err == (
        "error: malformed variety descriptor: name must be a printable string, got 'a\\nb'\n"
    )


def rebased_doc(name):
    """The descriptor file of `name` with its pic basis (p1, p2) changed to
    (p1, p1 + p2): valid, but with no lambda_0."""
    X = wondercoh.build_case(name)
    p1, p2 = X.pic_basis
    return {
        "name": f"{name}'",
        "group": [list(c) for c in X.group.components],
        "spherical_roots": [list(g) for g in X.spherical_roots],
        "pic_basis": [list(p1), [a + b for a, b in zip(p1, p2)]],
        "q_simple_roots": [i + 1 for i in sorted(X.q_simple_roots)],
        "sgamma": [[list(a), list(b)] for a, b in X.sgamma_data],
    }


@pytest.mark.parametrize("name", ["group:A2", "E6/F4"])
@pytest.mark.parametrize(
    "command",
    [
        ("cohomology", "--lambda", "0", "0", "--relative-lambda0"),
        ("region-plot", "--kind", "Omega", "--range", "-1", "1", "--out", "p.svg"),
    ],
)
def test_lambda_zero_of_a_descriptor_that_defines_none_exits_2(tmp_path, capsys, name, command):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(rebased_doc(name)))
    args = [str(tmp_path / a) if a == "p.svg" else a for a in command]
    code, out, err = run(capsys, args[0], "--variety-file", str(path), *args[1:])
    assert (code, out) == (2, "")
    assert err == f"error: no lambda_0: {name}': pic/spherical pairing matrix is not diagonal\n"
    assert not (tmp_path / "p.svg").exists()


def test_a_descriptor_without_lambda_zero_still_runs(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(rebased_doc("group:A2")))
    code, out, _ = run(capsys, "describe", "--variety-file", str(path))
    assert code == 0 and "FAIL" not in out and "lambda" not in out
    # (a, b) in the new basis is (a + b, b) in the catalog's
    code, out, _ = run(capsys, "cohomology", "--variety-file", str(path), "--lambda", "-3", "1",
                       "--format", "json")
    _, catalog_out, _ = run(capsys, "cohomology", "group:A2", "--lambda", "-2", "1",
                            "--format", "json")
    assert code == 0 and json.loads(out)["groups"] == json.loads(catalog_out)["groups"]
    svg = tmp_path / "p.svg"
    for kind, base in (("Omega", ["--base", "-2", "0"]), ("R", [])):
        code, _, _ = run(capsys, "region-plot", "--variety-file", str(path), "--kind", kind,
                         "--range", "-1", "1", "--out", str(svg), *base)
        assert code == 0 and svg.exists()
