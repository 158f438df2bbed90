import json

import pytest

from qgroth.cli import _parse_iso, _parse_monomial, main
from qgroth.cartan import cartan_datum
from qgroth.hall import IsoClass
from qgroth.torus import Monomial


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_monomial_parser():
    assert _parse_monomial("Y[1,0]Y[2,1]^2") == Monomial({(1, 0): 1, (2, 1): 2})
    assert _parse_monomial("Y[1,-2]^-1 Y[1,-2]") == Monomial({})
    with pytest.raises(ValueError):
        _parse_monomial("Z[1,0]")


def test_iso_parser():
    cd = cartan_datum("A3")
    assert _parse_iso("1-2*2,3", cd) == IsoClass({(1, 1, 0): 2, (0, 0, 1): 1})
    assert _parse_iso("0", cd) == IsoClass({})


def test_qcartan_text_matches_series(capsys):
    code, out = run(capsys, "qcartan", "--type", "A4", "--mmax", "20")
    assert code == 0
    assert "C~[1,1](z) = z^1 - z^9 + z^11 - z^19" in out
    assert "C~[2,3](z) = z^2 + z^4 - z^6 - z^8 + z^12 + z^14 - z^16 - z^18" in out


def test_qcartan_json_roundtrip(capsys):
    code, out = run(capsys, "qcartan", "--type", "A2", "--mmax", "8", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["series"]["1,2"] == [0, 1, 0, -1, 0, 0, 0, 1]
    assert json.loads(json.dumps(obj)) == obj


def test_phi_command(capsys):
    code, out = run(
        capsys, "phi", "--type", "D4", "--xi", "0,0,1,2", "--window=-4..3"
    )
    assert code == 0
    assert "phi(3,-1) = (a1+a2+2a3+a4, 0)" in out
    assert "phi(4,-4) = (a4, -1)" in out


def test_qchar_commands(capsys):
    code, out = run(capsys, "qchar", "fundamental", "--type", "A1", "--i", "1", "--p", "0")
    assert code == 0 and "Y[1,0] + Y[1,2]^-1" in out
    code, out = run(
        capsys, "qchar", "kr", "--type", "A3", "--xi", "2,3,2", "--i", "2", "--s", "1", "--p", "1"
    )
    assert code == 0 and "Y[2,1] + Y[1,2] Y[3,2] Y[2,3]^-1" in out
    code, out = run(
        capsys, "qchar", "simple", "--type", "A1", "-m", "Y[1,0]Y[1,2]", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["terms"]) == 3
    # refused lift falls back to the classical character with a diagnostic
    code, out = run(capsys, "qchar", "fundamental", "--type", "D4", "--i", "3", "--p", "0")
    assert code == 0 and "t-lift refused" in out


def test_tsystem_command(capsys):
    code, out = run(capsys, "tsystem", "--type", "A3", "--i", "1", "--k", "1")
    assert code == 0
    assert "alpha(1,1) = -1/2" in out and "gamma(1,1) = 1/2" in out


def test_dominant_pairs_command(capsys):
    code, out = run(capsys, "dominant-pairs", "--type", "D4", "--xi", "4,4,5,4", "--d", "1,1,1,1")
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    assert "(a1+a2+a3+a4)  <->  Y[3,1]" in out


def test_canonical_command(capsys):
    code, out = run(
        capsys, "canonical", "--type", "A2", "--xi", "2,1", "--degree-bound", "2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] and len(obj["rows"]) > 1


def test_hall_commands(capsys):
    code, out = run(
        capsys, "hall", "gamma", "--type", "A2", "--q", "3",
        "--x", "1", "--y", "2", "--t", "2", "--w", "1",
    )
    assert code == 0 and "gamma = 1" in out
    code, out = run(
        capsys, "hall", "number", "--type", "A2", "--xi", "1,0", "--q", "2",
        "--x", "2", "--y", "1", "--w", "1-2",
    )
    assert code == 0 and "= 1" in out
    code, out = run(capsys, "hall", "relations", "--type", "A2", "--q", "2", "--mmax", "2")
    assert code == 0 and "constant identity: ok" in out


def test_verify_commands(capsys):
    code, out = run(capsys, "verify", "presentation", "--type", "A2", "--m-range", "0..2")
    assert code == 0 and "failures: 0" in out
    code, out = run(capsys, "verify", "all", "--type", "A2", "--desk")
    assert code == 0
    assert "FAIL" not in out


def test_exit_codes(capsys):
    # usage error
    assert main(["qcartan"]) == 1
    assert main(["qchar", "standard", "--type", "A2", "-m", "Z[1]"]) == 1
    # resource cap
    code = main(
        ["hall", "number", "--type", "A2", "--q", "2", "--x", "1*3", "--y", "2*3", "--w", "1*3,2*3"]
    )
    assert code == 3


def test_exit_code_verification_failure(capsys, monkeypatch):
    import qgroth.cli as cli

    monkeypatch.setattr(cli, "check_h_relations", lambda dh, rng: [("H1", 0, 1, 2)])
    code, _ = run(capsys, "hall", "relations", "--type", "A2", "--q", "2")
    assert code == 2


def test_text_output_deterministic(capsys):
    _, out1 = run(capsys, "dominant-pairs", "--type", "A3", "--xi", "2,3,2", "--d", "1,1,1")
    _, out2 = run(capsys, "dominant-pairs", "--type", "A3", "--xi", "2,3,2", "--d", "1,1,1")
    assert out1 == out2


def test_config_and_cache(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text('{"type": "A3", "i": 1, "k": 1}')
    code, out = run(capsys, "tsystem", "--config", str(conf))
    assert code == 0 and "alpha(1,1) = -1/2" in out
    # explicit flags win over the config file
    code, out = run(capsys, "tsystem", "--config", str(conf), "--k", "2")
    assert code == 0 and "alpha(1,2)" in out
    cache = tmp_path / "cache"
    code, _ = run(capsys, "qcartan", "--type", "A2", "--mmax", "6", "--cache-dir", str(cache))
    assert code == 0 and (cache / "inverse-tables.v1.json").exists()
    # corrupted cache entries are rejected, not trusted
    import json as _json

    data = _json.loads((cache / "inverse-tables.v1.json").read_text())
    from qgroth.qcartan import load_tables_json

    rows = data["tables"]["A2"]
    rows[0][3] += 1
    assert load_tables_json({"version": 1, "tables": {"A2": rows}}) == 0


def test_out_of_range_vertex_exits_without_hanging():
    # a vertex outside the diagram once sent the parity search into an endless
    # loop; run it in a child process so that a regression fails, not hangs
    import os
    import subprocess
    import sys

    import qgroth

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qgroth.__file__)))
    argv = ["qchar", "fundamental", "--type", "A3", "--i", "9", "--p", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "qgroth.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == "usage error: vertex 9 out of range for A3\n"


def test_refused_t_lift_exits_3(capsys):
    for what in ("standard", "simple"):
        assert main(["qchar", what, "--type", "D4", "-m", "Y[3,0]"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "not computable: fundamental at (3,0) is not multiplicity-free; t-lift refused"
        ]


def test_enumeration_cap_exits_3(capsys):
    code = main(["qchar", "simple", "--type", "A4", "-m", "Y[4,0]Y[1,1]Y[3,1]Y[4,6]"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "resource cap exceeded: dominant-monomial enumeration exceeded its cap"
    ]


def test_empty_checks_are_usage_errors(capsys):
    # a range or bound that selects nothing must not report "ok"
    assert main(["verify", "presentation", "--type", "A3", "--m-range", "3..0"]) == 1
    assert main(["canonical", "--type", "A3", "--degree-bound", "-1"]) == 1
    assert main(["verify", "mainth", "--type", "A3", "--degree-bound", "-1"]) == 1
    assert main(["hall", "iota", "--type", "A2", "--q", "2", "--max-len", "0", "--mmax", "0"]) == 1
    assert main(["hall", "relations", "--type", "A2", "--q", "2", "--mmax", "-1"]) == 1
    assert capsys.readouterr().out == ""


def test_dimension_vector_of_wrong_rank_is_a_usage_error(capsys):
    for d in ("1,1", "1,1,1,1"):
        assert main(["dominant-pairs", "--type", "A3", "--d", d]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"usage error: dimension vector has {len(d.split(','))} entries")


def test_qchar_names_the_missing_flag(capsys):
    cases = [
        (["fundamental", "--i", "1"], "qchar fundamental requires --p"),
        (["fundamental"], "qchar fundamental requires --i and --p"),
        (["kr", "--xi", "2,3,2", "--p", "1"], "qchar kr requires --i"),
        (["simple"], "qchar simple requires -m/--monomial"),
        (["truncate", "--xi", "2,3,2"], "qchar truncate requires -m/--monomial"),
    ]
    for argv, message in cases:
        assert main(["qchar", argv[0], "--type", "A3", *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"


def test_failed_internal_check_exits_2(capsys, monkeypatch):
    import qgroth.hall as hall

    def broken(rep, q):
        raise RuntimeError("fingerprint did not resolve to a Krull-Schmidt multiset")

    monkeypatch.setattr(hall, "iso_class", broken)
    argv = ["hall", "number", "--type", "A2", "--xi", "1,0", "--q", "2", "--x", "2", "--y", "1", "--w", "1-2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal check failed: fingerprint did not resolve to a Krull-Schmidt multiset\n"
