"""CLI subcommands and the README's library example: outputs, exit codes, JSON round-trips, reproducibility."""

import json
from pathlib import Path

import pytest

from ex37 import EX37_DELTA1, EX37_F, EX37_L
from trigonal.cli import main


@pytest.fixture()
def curve_file(tmp_path):
    path = tmp_path / "h37.json"
    path.write_text(json.dumps({"p": "37", "f": [str(c) for c in EX37_F]}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expectation_command(capsys):
    code, out, _ = run_cli(capsys, "expectation")
    assert code == 0
    assert out.strip().endswith("0.1857")
    code, out, _ = run_cli(capsys, "expectation", "--success-prob", "1/2")
    assert out.strip().endswith("0.3113")
    code, out, _ = run_cli(capsys, "expectation", "--success-prob", "0")
    assert out.strip().endswith("0.0000")


def test_analyze_ex37_curve(capsys, curve_file):
    code, out, _ = run_cli(capsys, "analyze", "--curve", curve_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["pattern"] == "6-1-1"
    assert doc["num_tractable"] == 1
    sub = doc["subgroups"][0]
    assert sub["trigonal_rational"] is True and sub["isogeny_rational"] is True
    quads = sub["quadratics"]
    assert {"v2": "20", "uv": "1", "u2": "0", "p": "37", "k": 1} in quads


def test_isogeny_report_roundtrip(capsys, curve_file):
    code, out, _ = run_cli(capsys, "isogeny", "--curve", curve_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["trigonal_map"] == {"n1": "16", "n0": "22", "d1": "32", "d0": "18"}
    assert [int(c) for c in doc["deltas"]["delta1"]["coeffs"]] == list(EX37_DELTA1)
    assert doc["flags"]["isogeny_rational"] is True
    assert list(doc["verification"]) == ["zeta_h"]
    assert [int(c) for c in doc["verification"]["zeta_h"]] == EX37_L
    # lossless: the curve it names rebuilds the construction, which re-serializes identically
    from trigonal import serialize
    from trigonal.construction import build_correspondence, build_fibration
    from trigonal.curves import HCurve
    from trigonal.fields import prime_field
    from trigonal.subgroups import enumerate_tractable
    from trigonal.trigmaps import trigonal_map_for

    H = serialize.parse_curve(doc["curve"])
    assert H == HCurve.from_coeffs(prime_field(37), EX37_F)
    S = enumerate_tractable(H)[doc["subgroup_index"]]
    g = trigonal_map_for(S, H)
    fib = build_fibration(g, H)
    sign = +1 if doc["sign"] == "+" else -1
    R = build_correspondence(fib, sign)
    doc2 = serialize.isogeny_report(H, S, doc["subgroup_index"], g, fib, R.plane, R.X, sign, doc["verification"])
    assert doc2 == doc


def test_map_command_reproducible(capsys, curve_file):
    div = '{"points_plus": [["10","28"]], "points_minus": [["14","6"]]}'
    code, out1, _ = run_cli(capsys, "map", "--curve", curve_file, "--divisor", div, "--seed", "5")
    assert code == 0
    doc = json.loads(out1)
    assert doc["degree"] == 0
    assert len(doc["points"]) == 12  # 2 fiber points per point of both triples
    code, out2, _ = run_cli(capsys, "map", "--curve", curve_file, "--divisor", div, "--seed", "5")
    assert out1 == out2
    code, out3, _ = run_cli(capsys, "map", "--curve", curve_file, "--divisor", div, "--seed", "6")
    assert json.loads(out3)["degree"] == 0


def test_map_divisor_from_file(capsys, curve_file, tmp_path):
    dpath = tmp_path / "d.json"
    dpath.write_text('{"points_plus": [["10","28"]], "points_minus": [["14","6"]]}')
    code, out, _ = run_cli(capsys, "map", "--curve", curve_file, "--divisor", f"@{dpath}")
    assert code == 0


def test_verify_command(capsys, curve_file):
    code, out, _ = run_cli(capsys, "verify", "--curve", curve_file, "--trials", "3", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert [int(c) for c in doc["zeta_h"]] == EX37_L
    assert doc["roundtrip"]["consensus"] in ("+2", "-2")
    assert doc["fiber_checks"]["agreed"] == doc["fiber_checks"]["tested"] > 0
    assert doc["ok"] is True


def test_survey_command(capsys, tmp_path):
    csv_path = tmp_path / "s.csv"
    code, out, _ = run_cli(
        capsys, "survey", "--prime-bits", "24", "--samples", "50", "--seed", "3",
        "--depth", "trigonal", "--csv", str(csv_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 50
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,pattern,num_tractable,num_trig_rational,num_isog_rational,success"
    assert len(lines) == 51


def test_exit_codes(capsys, tmp_path, curve_file):
    # parse error: exit 2 with a structured diagnostic
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": "37"}')
    code, _, err = run_cli(capsys, "analyze", "--curve", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "bad_input"
    # mathematical failure: exit 1 (curve with no tractable subgroup)
    none = tmp_path / "none.json"
    # x^8 + x + 12 is irreducible? use a (7,1)-pattern curve instead: s(T) = 0
    from trigonal.fields import prime_field
    from conftest import curve_with_pattern
    import random as _r

    H = curve_with_pattern(prime_field(37), (7, 1), _r.Random(1))
    none.write_text(json.dumps({"p": "37", "f": [str(c) for c in H.form.c]}))
    code, _, err = run_cli(capsys, "isogeny", "--curve", str(none))
    assert code == 1
    assert json.loads(err)["error"] == "not_rational"
    # bad subcommand usage: exit 2
    code, _, _ = run_cli(capsys, "survey", "--samples", "5")
    assert code == 2


def test_subgroup_index_out_of_range(capsys, curve_file):
    code, _, err = run_cli(capsys, "isogeny", "--curve", curve_file, "--subgroup", "7")
    assert code == 1
    assert json.loads(err)["error"] == "not_rational"


def test_sign_selects_sheet(capsys, curve_file):
    code, out_p, _ = run_cli(capsys, "isogeny", "--curve", curve_file, "--sign", "+")
    code, out_m, _ = run_cli(capsys, "isogeny", "--curve", curve_file, "--sign", "-")
    assert json.loads(out_p)["sign"] == "+"
    assert json.loads(out_m)["sign"] == "-"


def test_isogeny_builds_each_pencil_once(capsys, curve_file, monkeypatch):
    # _pick_subgroup hands its pencil to trigonal_map_for, so build_M runs
    # once per subgroup it looks at, and both index paths print the recorded report
    import hashlib

    from trigonal import construction, trigmaps

    calls = {}
    real = trigmaps.build_M

    def counting(S, H):
        calls[S.key()] = calls.get(S.key(), 0) + 1
        return real(S, H)

    monkeypatch.setattr(construction, "build_M", counting)
    monkeypatch.setattr(trigmaps, "build_M", counting)
    recorded = "d67265879cdd2f841a6eea8513b887cee9886419aa61d9c73b85840b4c11d0c9"
    # without an index the pick computes the pencil; with one, trigonal_map_for does
    for extra in ((), ("--subgroup", "0")):
        calls.clear()
        code, out, _ = run_cli(capsys, "isogeny", "--curve", curve_file, *extra)
        assert code == 0
        assert list(calls.values()) == [1]
        assert hashlib.sha256(out.encode()).hexdigest() == recorded


def _write_curve(tmp_path, p, coeffs):
    path = tmp_path / f"h{p}.json"
    path.write_text(json.dumps({"p": str(p), "f": [str(c) for c in coeffs]}))
    return str(path)


@pytest.mark.parametrize(
    "p, coeffs, picked",
    [
        # subgroup 0 has a chord matrix of rank 3
        (7, [4, 4, 1, 5, 5, 3, 0, 4, 1], 2),
        # subgroup 0 has a square discriminant but every map built from it degenerates
        (5, [1, 1, 1, 0, 0, 0, 1, 4, 0], 1),
    ],
)
def test_isogeny_skips_degenerate_subgroups(capsys, tmp_path, p, coeffs, picked):
    path = _write_curve(tmp_path, p, coeffs)
    code, out, err = run_cli(capsys, "isogeny", "--curve", path)
    assert code == 0, err
    assert json.loads(out)["subgroup_index"] == picked
    # asked for by index, the degenerate subgroup reports why it failed
    code, _, err = run_cli(capsys, "isogeny", "--curve", path, "--subgroup", "0")
    assert code == 1
    assert json.loads(err)["error"] == "degenerate_configuration"


def test_analyze_flags_a_map_failure_after_a_square_discriminant(capsys, tmp_path):
    path = _write_curve(tmp_path, 5, [0, 3, 0, 2, 4, 1, 4, 4, 0])
    code, out, _ = run_cli(capsys, "analyze", "--curve", path)
    assert code == 0
    flags = [(s["trigonal_rational"], s["isogeny_rational"]) for s in json.loads(out)["subgroups"]]
    # subgroup 5: a square discriminant (the survey counts it trig-rational), then a degenerate map
    assert flags == [
        (True, True), (True, False), (False, None), (False, None), (True, False), (True, None), (False, None),
    ]
    code, _, err = run_cli(capsys, "isogeny", "--curve", path, "--subgroup", "5")
    assert code == 1 and json.loads(err)["error"] == "degenerate_configuration"
    code, _, err = run_cli(capsys, "isogeny", "--curve", path, "--subgroup", "2")
    assert code == 1 and json.loads(err)["error"] == "not_rational"


def test_the_readme_library_example_runs():
    # the documented API: every name it imports is exported, and every call it makes runs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


# a degree-8 curve over F_37 with a rational Weierstrass point and an isogeny-rational subgroup
_OCTIC37 = [9, 2, 20, 29, 36, 5, 31, 11, 9]


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze",),
        ("isogeny",),
        ("map", "--divisor", '{"points_plus": [["0","3"]], "points_minus": [["1","2"]]}'),
        ("verify", "--trials", "2"),
    ],
)
def test_each_command_factors_the_curve_once(capsys, tmp_path, monkeypatch, argv):
    # the command's curve keeps its distinct-degree split: enumeration, the
    # odd model and every random class reuse it, and roots() never runs on F
    from trigonal import curves, polyring
    from trigonal.curves import HCurve
    from trigonal.fields import prime_field

    F = HCurve.from_coeffs(prime_field(37), _OCTIC37).F
    steps = {"distinct_degree": 0, "roots": 0}

    def counting(name, real):
        def wrapped(poly, *args):
            steps[name] += poly.field is F.field and poly.monic()[0] == F.monic()[0]
            return real(poly, *args)

        return wrapped

    monkeypatch.setattr(curves, "_distinct_degree", counting("distinct_degree", curves._distinct_degree))
    monkeypatch.setattr(polyring, "_distinct_degree", counting("distinct_degree", polyring._distinct_degree))
    monkeypatch.setattr(curves, "roots", counting("roots", curves.roots))
    path = _write_curve(tmp_path, 37, _OCTIC37)
    code, out, err = run_cli(capsys, argv[0], "--curve", path, *argv[1:])
    assert code == 0, err
    assert steps == {"distinct_degree": 1, "roots": 0}
