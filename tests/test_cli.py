import hashlib
import json
import shlex
import time

import pytest

from qgroth import torus
from qgroth.cli import _parse_iso, _parse_monomial, main
from qgroth.cartan import CartanDatum, cartan_datum
from qgroth.laurent import HalfLaurent
from qgroth.quiver import AdaptedWord, QuiverContext, QuiverDatum
from qgroth.torus import monomial_items

from conftest import all_orientations, avecs_up_to, doubled_off_label, iso


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_monomial_parser():
    # an exponent map in (p, i) order, with no zero entry
    assert list(_parse_monomial("Y[2,1]^2Y[1,0]").items()) == [((1, 0), 1), ((2, 1), 2)]
    assert _parse_monomial("Y[1,-2]^-1 Y[1,-2]") == {}
    assert _parse_monomial("Y[1,0]Y[1,-2]^-1Y[1,-2]") == {(1, 0): 1}
    with pytest.raises(ValueError):
        _parse_monomial("Z[1,0]")


def test_iso_parser():
    for quiver in all_orientations("A3"):
        word = AdaptedWord.build(quiver)
        assert _parse_iso("1-2*2,3", "--x", word) == iso(quiver, {(1, 1, 0): 2, (0, 0, 1): 1})
        assert _parse_iso("0", "--x", word) == iso(quiver)


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


def test_a_far_phi_window_is_a_near_one_shifted_by_whole_periods(capsys):
    # two shifts [1] move column i up by 2h = 60 on E8 and the copy index
    # by 2; the far window is read off level 0 like the near one
    start = time.perf_counter()
    code, far = run(capsys, "phi", "--type", "E8", "--window=1000000..1000100", "--format", "json")
    assert code == 0
    assert time.perf_counter() - start < 1
    k = 16666
    window = f"--window={1000000 - 60 * k}..{1000100 - 60 * k}"
    code, near = run(capsys, "phi", "--type", "E8", window, "--format", "json")
    assert code == 0
    near_rows = json.loads(near)["phi"]
    assert len(near_rows) == 8 * 101 // 2
    assert json.loads(far)["phi"] == [dict(row, p=row["p"] + 60 * k, m=row["m"] + 2 * k) for row in near_rows]


def test_an_adapted_word_that_cannot_stay_reduced_is_an_internal_failure(monkeypatch, capsys):
    # no root counts as positive, so no source can be reflected at step 1
    monkeypatch.setattr(CartanDatum, "is_positive_root", lambda self, w: False)
    assert main(["phi", "--type", "A2", "--window=0..0"]) == 2
    assert capsys.readouterr().err == (
        "internal check failed: adapted word: no source keeps the word reduced at step 1\n"
    )


CANONICAL_A3 = ["canonical", "--type", "A3", "--arrows", "1-2,3-2", "--degree-bound", "3"]


def test_an_ordered_product_with_the_pairing_shift_reversed_fails_its_label_check(monkeypatch, capsys):
    # the normalized ordered product is the only caller of mul_shift: with its
    # shift negated, a standard class with two non-commuting factors carries
    # a power of t at its label
    mul_shift = torus.TorusElement.mul_shift
    monkeypatch.setattr(torus.TorusElement, "mul_shift", lambda x, y, exp2: mul_shift(x, y, -exp2))
    assert main(CANONICAL_A3) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal check failed: the ordered product at ")
    assert err.endswith(" does not carry coefficient 1 at its label\n")


def test_a_dual_pbw_generator_rescaled_by_one_more_half_power_fails(monkeypatch, capsys):
    # E~(e_k) = v^(N(beta_k)/2) E*(k) with N(beta_k) = 1 - deg beta_k; moved to
    # 2 - deg beta_k, the generator would carry t^(1/2) at its label, and the
    # sigma check of the generators refuses it first, at k = 1
    from qgroth.qgroup import QGroupSide

    init = QGroupSide.__init__

    def shifted(self, cat):
        init(self, cat)
        self._n = [n + 1 for n in self._n]

    monkeypatch.setattr(QGroupSide, "__init__", shifted)
    assert main(CANONICAL_A3) == 2
    assert capsys.readouterr().err == "internal check failed: conj(E*(1)) is not v^N(beta_1) E*(1), N(beta_1) = 1\n"


def _standard_rows_fail_exactly_with_factor(capsys, k):
    # every row is reported: standard_ok fails exactly where a_k > 0, a weight
    # space holding such a row is not solved, so all its rows fail simple_ok,
    # and dual_canonical is written only for a row that passed
    from qgroth.characters import CategoryQ

    code, out = run(capsys, *CANONICAL_A3, "--format", "json")
    report = json.loads(out)
    assert code == 2 and report["ok"] is False
    rows = report["rows"]
    cat = CategoryQ(QuiverContext(QuiverDatum.from_arrows(cartan_datum("A3"), [(1, 2), (3, 2)])))
    assert [r["avec"] for r in rows] == [list(a) for a in avecs_up_to(cat, 3)]
    assert [r["standard_ok"] for r in rows] == [r["avec"][k - 1] == 0 for r in rows]
    failing = {cat.root_of(r["avec"]) for r in rows if r["avec"][k - 1]}
    assert [r["simple_ok"] for r in rows] == [cat.root_of(r["avec"]) not in failing for r in rows]
    assert [r["dual_canonical"] is None for r in rows] == [not r["simple_ok"] for r in rows]


# the generators of A3 1-2,3-2 with more than one term: generators 1-3 are
# single monomials, which `doubled_off_label` leaves as they are
MOVABLE_A3 = [4, 5, 6]


@pytest.mark.parametrize("k", MOVABLE_A3)
def test_a_truncated_fundamental_moved_off_its_label_fails_its_standard_rows(monkeypatch, capsys, k):
    # every ordered product still carries 1 at its label, so only the
    # comparison of the r generators sees the moved factor: the standard
    # classes with a_k > 0 are not the dual PBW vectors
    from qgroth.characters import CategoryQ

    real = CategoryQ.truncated_fundamental

    def moved(self, i, p):
        x = real(self, i, p)
        return doubled_off_label(x, self.labels[k - 1]) if (i, p) == self.positions[k - 1] else x

    monkeypatch.setattr(CategoryQ, "truncated_fundamental", moved)
    _standard_rows_fail_exactly_with_factor(capsys, k)


@pytest.mark.parametrize("k", MOVABLE_A3)
def test_a_dual_pbw_generator_moved_off_its_label_fails_its_standard_rows(monkeypatch, capsys, k):
    from qgroth.qgroup import QGroupSide

    real = QGroupSide.e_star

    def moved(self, j):
        x = real(self, j)
        return doubled_off_label(x, self.cat.labels[k - 1]) if j == k else x

    monkeypatch.setattr(QGroupSide, "e_star", moved)
    _standard_rows_fail_exactly_with_factor(capsys, k)


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
    # the trivalent node of D4: a classical multiplicity 2 is t + t^-1
    code, out = run(capsys, "qchar", "fundamental", "--type", "D4", "--i", "3", "--p", "0")
    assert code == 0 and " + (t + t^-1) Y[3,2] Y[3,4]^-1 + " in out


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
    code, out = run(capsys, "verify", "all")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS  series route agrees with the table (D4)" in out
    assert "PASS  truncated fundamentals equal the T-system classes (A3)" in out
    assert "PASS  truncated fundamentals equal the T-system classes (D4)" in out
    # verify all is always the desk battery; --desk is not a flag
    assert main(["verify", "all", "--desk"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --desk" in captured.err


def test_exit_codes(capsys):
    # usage error
    assert main(["qcartan"]) == 1
    assert main(["qchar", "standard", "--type", "A2", "-m", "Z[1]"]) == 1
    # a malformed range or type name is named in the message
    for argv, message in [
        (["phi", "--type", "A2", "--window", "3"], "--window must be lo..hi with integer ends, got '3'"),
        (
            ["verify", "presentation", "--type", "A2", "--m-range", "0..x"],
            "--m-range must be lo..hi with integer ends, got '0..x'",
        ),
        (["qcartan", "--type", "A"], "unsupported type A"),
        (["qcartan", "--type", ""], "unsupported type "),
    ]:
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"
    # resource cap: 4^16 extensions of S1^4 by S2^4, times 8^3
    code = main(["hall", "number", "--type", "A2", "--xi", "1,0", "--q", "4", "--x", "2*4", "--y", "1*4", "--w", "1-2*4"])
    assert code == 3
    assert capsys.readouterr().err == (
        "resource cap exceeded: Hall number: work 2199023255552 (extensions x dimension^3) above cap 10000000\n"
    )
    # split pairs build no extension: [6 choose 3]_4 and [4 choose 2]_2
    assert run(capsys, "hall", "number", "--type", "A2", "--q", "4", "--x", "1*3", "--y", "1*3", "--w", "1*6") == (
        0, "g^W_(X,Y) = 376805\n"
    )
    assert run(capsys, "hall", "number", "--type", "A3", "--q", "2", "--x", "1-3*2", "--y", "1-3*2", "--w", "1-3*4") == (
        0, "g^W_(X,Y) = 35\n"
    )
    # one extension line in total dimension 122: its middle term is classified
    # without eliminating the hom equations of the whole pair, and the count
    # is the [61 choose 31]_2 [31 choose 1]_2 flags of S2 + P12^30 in P12^61
    start = time.perf_counter()
    code, out = run(capsys, "hall", "number", "--type", "A2", "--xi", "1,0", "--q", "2", "--x", "2,1-2*30",
                    "--y", "1,1-2*30", "--w", "1-2*61")
    assert time.perf_counter() - start < 2
    flags = 1
    for i in range(31):
        flags = flags * (2 ** (61 - i) - 1) // (2 ** (i + 1) - 1)
    assert (code, out) == (0, f"g^W_(X,Y) = {flags * (2**31 - 1)}\n")
    # no extension, but total dimension 4000
    code = main(["hall", "number", "--type", "A2", "--q", "2", "--x", "0", "--y", "1-2*2000", "--w", "1-2*2000"])
    assert code == 3
    capsys.readouterr()
    # 62 196 images of dimension (70, 70, 70): the gamma work sum stops at the
    # first image that crosses the cap, before the rest are enumerated
    start = time.perf_counter()
    code = main(["hall", "gamma", "--type", "A3", "--q", "2", "--x", "1-3*70", "--y", "1-3*71", "--t", "1-3", "--w", "0"])
    assert time.perf_counter() - start < 0.3
    assert code == 3
    assert capsys.readouterr().err.startswith("resource cap exceeded: gamma: work ")
    # a verify presentation range is priced from its levels and the rank,
    # before its window is built: 1000001 levels, and one level past the cap
    for hi, n in ((1000000, 4000004), (105, 424)):
        start = time.perf_counter()
        assert main(["verify", "presentation", "--type", "A2", f"--m-range=0..{hi}"]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"resource cap exceeded: verify presentation: --m-range 0..{hi} of A2 has n = {n} "
            "(levels x rank^2) above cap 420\n"
        )
    # a dominant-pairs table is priced row by row as the decompositions are
    # enumerated, and refused before any row is built
    start = time.perf_counter()
    code = main(["dominant-pairs", "--type", "E8", "--d", "3,3,3,3,3,3,3,3"])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert capsys.readouterr().err == "resource cap exceeded: dominant-pairs: table of more than 400000 integers\n"
    # a hall iota word length is refused before any product: A3 at 8 would
    # take seconds, and A1 at 140 an |Aut M| past Python's int-to-text limit
    for name, n in (("A3", 8), ("A1", 140)):
        start = time.perf_counter()
        assert main(["hall", "iota", "--type", name, "--q", "2", "--max-len", str(n), "--mmax", "1"]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"resource cap exceeded: hall iota: --max-len {n} above cap 6\n"


def test_exit_code_verification_failure(capsys, monkeypatch):
    import qgroth.cli as cli

    monkeypatch.setattr(cli, "check_h_relations", lambda dh, rng: [("H1", 0, 1, 2)])
    code, _ = run(capsys, "hall", "relations", "--type", "A2", "--q", "2")
    assert code == 2


def test_text_output_deterministic(capsys):
    _, out1 = run(capsys, "dominant-pairs", "--type", "A3", "--xi", "2,3,2", "--d", "1,1,1")
    _, out2 = run(capsys, "dominant-pairs", "--type", "A3", "--xi", "2,3,2", "--d", "1,1,1")
    assert out1 == out2


def test_consecutive_requests_share_no_flag_values(capsys):
    # the parser is built once per process: no flag value, default filled in
    # by a subcommand or output format may carry over to the next request
    import qgroth.cli as cli

    kr = ["qchar", "kr", "--type", "A3", "--xi", "2,3,2", "--i", "2", "--s", "2", "--p", "1", "--format", "json"]
    fundamental = ["qchar", "fundamental", "--type", "A1", "--i", "1", "--p", "0"]
    presentation = ["verify", "presentation", "--type", "A2", "--m-range", "0..1", "--format", "json"]
    fresh = vars(cli.PARSER.parse_args(fundamental))
    outs = [run(capsys, *argv) for argv in (kr, fundamental, presentation, fundamental, kr, presentation)]
    assert outs[1] == outs[3] == (0, "Y[1,0] + Y[1,2]^-1\n")
    assert outs[0] == outs[4] and outs[0][0] == 0 and json.loads(outs[0][1])["kind"] == "kr"
    assert outs[2] == outs[5] == (0, '{"failures": [], "ok": true}\n')
    assert vars(cli.PARSER.parse_args(fundamental)) == fresh
    assert vars(cli.PARSER.parse_args(["verify", "presentation", "--type", "A2"]))["m_range"] == "0..3"


def test_config_and_cache(tmp_path, capsys):
    # --config merges defaults; --cache-dir is not a flag: tables are built, never read from disk
    conf = tmp_path / "conf.json"
    conf.write_text('{"type": "A3", "i": 1, "k": 1}')
    code, out = run(capsys, "tsystem", "--config", str(conf))
    assert code == 0 and "alpha(1,1) = -1/2" in out
    # explicit flags win over the config file
    code, out = run(capsys, "tsystem", "--config", str(conf), "--k", "2")
    assert code == 0 and "alpha(1,2)" in out
    cache = tmp_path / "cache"
    assert main(["qcartan", "--type", "A2", "--mmax", "6", "--cache-dir", str(cache)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --cache-dir" in captured.err
    assert not cache.exists()


@pytest.mark.parametrize("content", ["[1, 2]", "3", "null"])
def test_config_must_hold_an_object(tmp_path, capsys, content):
    # a JSON list once ended in an AttributeError traceback
    conf = tmp_path / "conf.json"
    conf.write_text(content)
    assert main(["tsystem", "--config", str(conf)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --config FILE must hold a JSON object\n"


def test_config_without_a_file_names_the_flag(capsys):
    # once "usage error: list index out of range"
    assert main(["tsystem", "--type", "A2", "--config"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --config requires a FILE\n"


def test_config_in_the_equals_form_is_read(tmp_path, capsys):
    # --config=FILE was once silently ignored
    conf = tmp_path / "conf.json"
    conf.write_text('{"type": "A3", "i": 1, "k": 1}')
    code, out = run(capsys, "tsystem", f"--config={conf}")
    assert code == 0 and out == "alpha(1,1) = -1/2\ngamma(1,1) = 1/2\n"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("type_flag", [["--type", "A3"], ["--type=A3"]])
@pytest.mark.parametrize("config_flag", ["--config", "--config="])
def test_explicit_flags_win_over_the_config_in_both_forms(tmp_path, capsys, type_flag, config_flag):
    conf = tmp_path / "conf.json"
    conf.write_text('{"type": "A2", "mmax": 2}')
    config = [f"--config={conf}"] if config_flag.endswith("=") else ["--config", str(conf)]
    code, out = run(capsys, "qcartan", *type_flag, *config)
    assert code == 0
    assert out.splitlines() == [
        f"C~[{i},{j}](z) = {'z^1' if i == j else 'z^2' if abs(i - j) == 1 else '0'}"
        for i in (1, 2, 3)
        for j in (1, 2, 3)
    ]


@pytest.mark.parametrize("monomial_flag", [["-m", "Y[1,0]"], ["-mY[1,0]"], ["--monomial=Y[1,0]"], ["--mono", "Y[1,0]"]])
def test_the_short_alias_wins_over_the_config(tmp_path, capsys, monomial_flag):
    # -m once lost to a config "monomial": the class of Y[1,0]Y[1,2] was printed
    conf = tmp_path / "mono.json"
    conf.write_text('{"monomial": "Y[1,0]Y[1,2]"}')
    code = main(["qchar", "simple", "--type", "A1", *monomial_flag, "--config", str(conf)])
    captured = capsys.readouterr()
    if monomial_flag[0] == "--mono":
        # a flag is read by its full name only: a prefix of one is refused
        assert (code, captured.out) == (1, "")
        assert captured.err.endswith("qgroth: error: unrecognized arguments: --mono Y[1,0]\n")
    else:
        assert (code, captured.out, captured.err) == (0, "Y[1,0] + Y[1,2]^-1\n", "")


@pytest.mark.parametrize(
    "cmd,key", [("canonical", "d"), ("canonical", "degree"), ("dominant-pairs", "degree_bound"), ("tsystem", "config")]
)
def test_a_config_key_that_is_not_an_option_is_named(tmp_path, capsys, cmd, key):
    # {"d": "1,1"} on canonical was once expanded by argparse into --degree-bound,
    # and a "config" key was silently ignored
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"type": "A2", key: "1,1"}))
    assert main([cmd, "--config", str(conf)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: config key {key!r} is not an option of {cmd}\n"


@pytest.mark.parametrize("d", ["-1,1", "0,-2"])
def test_negative_dimension_vectors_are_a_usage_error(capsys, d):
    # "-1,1" once exited 0 with {"rows": []}
    assert main(["dominant-pairs", "--type", "A2", f"--d={d}", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: dimension vector {d} has a negative entry\n"


@pytest.mark.parametrize("arrows,vertex", [("0-1", 0), ("1-9", 9), ("1-2,2-3", 3)])
def test_arrows_outside_the_diagram_name_the_vertex(capsys, arrows, vertex):
    # "0-1" once ended in "usage error: 2", a KeyError from the height function
    assert main(["canonical", "--type", "A2", f"--arrows={arrows}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: vertex {vertex} out of range for A2\n"


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


def test_qcartan_long_series_finish():
    # every coefficient once cost a fresh binomial sum: A2 to 10^5 did not
    # finish in a minute, so run it in a child process that fails, not hangs
    import os
    import subprocess
    import sys

    import qgroth

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qgroth.__file__)))
    argv = ["qcartan", "--type", "A2", "--mmax", "100000", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "qgroth.cli", *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    series = json.loads(proc.stdout)["series"]
    assert series["1,1"] == ([1, 0, 0, 0, -1, 0] * 16667)[:100000]
    assert main(["qcartan", "--type", "E8", "--mmax", "200", "--format", "json"]) == 0


@pytest.mark.parametrize("mmax", ["0", "-3"])
def test_qcartan_rejects_mmax_below_1(capsys, mmax):
    assert main(["qcartan", "--type", "A2", "--mmax", mmax]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: --mmax must be >= 1, got {mmax}\n"


@pytest.mark.parametrize("i", ["5", "0", "-1"])
def test_tsystem_names_the_out_of_range_vertex(capsys, i):
    assert main(["tsystem", "--type", "A2", "--i", i, "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: vertex {i} out of range for A2\n"


def test_d4_trivalent_standard_and_simple_exit_0(capsys):
    outs = []
    for what in ("standard", "simple"):
        assert main(["qchar", what, "--type", "D4", "-m", "Y[3,0]"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    # the fundamental is simple, so both classes are its t-character
    assert outs[0] == outs[1] and "(t + t^-1) Y[3,2] Y[3,4]^-1" in outs[0]


def test_torus_product_cap_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(torus, "MAX_PRODUCT_PAIRS", 35)
    assert main(["qchar", "simple", "--type", "A3", "-m", "Y[2,0]Y[2,2]"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "resource cap exceeded: torus product of 6 by 6 terms passes 35 pairs"
    ]


def test_e6_presentation_ends_at_the_product_cap():
    # without the cap the products of this request grow until the process
    # runs out of memory; run it in a child process that fails, not hangs
    import os
    import re
    import subprocess
    import sys

    import qgroth

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qgroth.__file__)))
    argv = ["verify", "presentation", "--type", "E6", "--m-range", "0..0"]
    proc = subprocess.run(
        [sys.executable, "-m", "qgroth.cli", *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert re.fullmatch(
        r"resource cap exceeded: torus product of \d+ by \d+ terms passes 1000000 pairs\n", proc.stderr
    ), proc.stderr


def test_a4_simple_class_of_four_factors(capsys):
    text = "Y[4,0]Y[1,1]Y[3,1]Y[4,6]"
    assert main(["qchar", "simple", "--type", "A4", "-m", text, "--format", "json"]) == 0
    terms = json.loads(capsys.readouterr().out)["terms"]
    coeffs = {monomial_items({(i, p): e for i, p, e in m}): HalfLaurent(dict(c)) for m, c in terms}
    assert len(coeffs) == len(terms) == 835
    # bar-invariant and positive, with the labelling monomial at coefficient 1
    assert all(c.is_symmetric() and c.is_nonnegative() for c in coeffs.values())
    assert coeffs[monomial_items(_parse_monomial(text))] == HalfLaurent.one()


def test_a_simple_window_past_the_pair_cap_is_refused_before_it_is_built(capsys):
    # the parity lines of the factors carry 1206 points of E6 between p = 0
    # and p = 400, so the window of `qchar simple` would pass the pair cap;
    # the text names the monomial as it renders, factors in (p, i) order
    argv = ["qchar", "simple", "--type", "E6", "-m", "Y[1,400]Y[1,0]Y[2,3]^2"]
    for text in (argv[-1], "Y[1,0]Y[2,3]^2Y[1,400]"):
        assert main([*argv[:-1], text]) == 3
        assert capsys.readouterr() == (
            "",
            "resource cap exceeded: the window of Y[1,0] Y[2,3]^2 Y[1,400] on 1206 points passes 1000000 pairs\n",
        )


def test_only_the_chosen_format_is_built(capsys, monkeypatch):
    def refuse(self, *args):
        raise AssertionError("built output that is not printed")

    monkeypatch.setattr(torus.TorusElement, "to_json", refuse)
    assert main(["qchar", "fundamental", "--type", "A3", "--i", "1", "--p", "0"]) == 0
    assert main(["canonical", "--type", "A2", "--degree-bound", "1"]) == 0
    monkeypatch.undo()
    monkeypatch.setattr(torus.TorusElement, "render", refuse)
    assert main(["qchar", "fundamental", "--type", "A3", "--i", "1", "--p", "0", "--format", "json"]) == 0
    assert capsys.readouterr().out


def test_empty_checks_are_usage_errors(capsys):
    # a range or bound that selects nothing must not report "ok"
    assert main(["verify", "presentation", "--type", "A3", "--m-range", "3..0"]) == 1
    assert main(["canonical", "--type", "A3", "--degree-bound", "-1"]) == 1
    assert main(["verify", "mainth", "--type", "A3", "--degree-bound", "-1"]) == 1
    assert main(["hall", "iota", "--type", "A2", "--q", "2", "--max-len", "0", "--mmax", "0"]) == 1
    assert main(["hall", "relations", "--type", "A2", "--q", "2", "--mmax", "-1"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["hall", "relations", "--type", "A1", "--q", "2", "--mmax", "0"],
    ["verify", "presentation", "--type", "A1", "--m-range=0..0", "--format", "json"],
    ["hall", "iota", "--type", "A1", "--q", "2", "--mmax", "0"],
])
def test_one_level_of_rank_1_selects_no_relation(capsys, argv):
    # within a level the table relates x_i to x_j for i != j only: rank 1 on
    # one level checks nothing, so it cannot report success
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "usage error: one level of rank 1: no relation to check\n")


@pytest.mark.parametrize("i,p", [("99", "1000"), ("1", "1000")])
def test_kr_of_level_0_checks_its_point(capsys, i, p):
    argv = ["qchar", "kr", "--type", "A3", "--xi", "2,3,2", "--i", i, "--p", p, "--s", "0"]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: ({i},{p}) is outside the subtorus index set\n")


def test_kr_of_level_0_at_a_point_of_the_index_set_is_1(capsys):
    assert main(["qchar", "kr", "--type", "A3", "--xi", "2,3,2", "--i", "1", "--p", "2", "--s", "0"]) == 0
    assert capsys.readouterr() == ("1\n", "")


@pytest.mark.parametrize("flag,token,shown", [
    ("--x", "1-2-3", "'1-2-3'"),
    ("--x", "1*", "'1*'"),
    ("--x", ",", "''"),
    ("--y", "1**2", "'1**2'"),
    ("--w", "2,a", "'a'"),
])
def test_a_malformed_iso_token_is_named_with_its_flag(capsys, flag, token, shown):
    flags = {"--x": "1", "--y": "1", "--w": "1", flag: token}
    argv = ["hall", "number", "--type", "A2", "--q", "2"] + [x for f, v in flags.items() for x in (f, v)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {flag} token {shown} is not of the form a, a-b, a*m or a-b*m\n")


def test_dimension_vector_of_wrong_rank_is_a_usage_error(capsys):
    for d in ("1,1", "1,1,1,1"):
        assert main(["dominant-pairs", "--type", "A3", "--d", d]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"usage error: dimension vector has {len(d.split(','))} entries")


def _is_refusal(capsys, message):
    """Whether the request just run was refused by argparse as `message`
    states: "<cmd> <kind> requires F and G" names the missing flags, and
    "<cmd> <kind> does not read F or G" flags the kind does not take."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    if captured.out or not lines[0].startswith("usage: qgroth"):
        return False
    leaf, requires, flags = message.partition(" requires ")
    if requires:
        missing = ", ".join(flags.split(" and "))
        return lines[-1] == f"qgroth {leaf}: error: the following arguments are required: {missing}"
    flags = message.partition(" does not read ")[2].split(" or ")
    unread = lines[-1].partition("qgroth: error: unrecognized arguments: ")[2].split()
    return all(flag in unread for flag in flags)


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
        assert _is_refusal(capsys, message), argv


@pytest.mark.parametrize("what,flags", [
    ("fundamental", ["--i", "1", "--p", "0"]),
    ("standard", ["-m", "Y[1,0]"]),
    ("simple", ["-m", "Y[1,0]"]),
])
@pytest.mark.parametrize("orientation", [["--xi", "0,1"], ["--arrows", "1-2"]])
def test_qchar_rejects_an_orientation_it_does_not_read(capsys, what, flags, orientation):
    # these subcommands compute full characters, which have no orientation
    assert main(["qchar", what, "--type", "A2", *flags, *orientation]) == 1
    assert _is_refusal(capsys, f"qchar {what} does not read {orientation[0]}")


@pytest.mark.parametrize("argv,message", [
    (
        'qchar fundamental --type A2 --i 1 --p 0 -m "Y[9,9]" --s 5',
        "qchar fundamental does not read --s or -m",
    ),
    (
        'qchar simple --type A2 -m "Y[1,0]" --i 7 --p 3 --s 9',
        "qchar simple does not read --i or --p or --s",
    ),
    ('qchar standard --type A2 -m "Y[1,0]" --s 2', "qchar standard does not read --s"),
    ("qchar kr --type A2 --xi 2,1 --i 1 --p 0 -m Y[1,0]", "qchar kr does not read -m"),
    ('qchar truncate --type A2 --xi 2,1 -m "Y[1,0]" --p 0', "qchar truncate does not read --p"),
])
def test_qchar_rejects_flags_it_does_not_read(capsys, argv, message):
    assert main(shlex.split(argv)) == 1
    assert _is_refusal(capsys, message)


@pytest.mark.parametrize("argv,message", [
    (
        "verify all --type E8 --xi 0,1,0,1,0,1,0,1 --degree-bound 9 --m-range 5..9",
        "verify all does not read --type or --xi or --m-range or --degree-bound",
    ),
    ("verify all --type A2 --arrows 1-2", "verify all does not read --type or --arrows"),
    ("verify all --arrows 1-2", "verify all does not read --arrows"),
    # verify all takes no --type, and the other kinds require it
    ("verify presentation --m-range 0..1", "verify presentation requires --type"),
    ("verify mainth --arrows 1-2", "verify mainth requires --type"),
    (
        "verify presentation --type A2 --degree-bound 2",
        "verify presentation does not read --degree-bound",
    ),
    ("verify mainth --type A2 --m-range 0..1", "verify mainth does not read --m-range"),
    (
        "hall relations --type A2 --q 2 --max-len 2 --x 1 --w 2",
        "hall relations does not read --x or --w or --max-len",
    ),
    ("hall iota --type A2 --q 2 --t 1", "hall iota does not read --t"),
    ("hall number --type A2 --q 2 --x 1 --y 2 --w 1-2 --mmax 1", "hall number does not read --mmax"),
    (
        "hall gamma --type A2 --q 2 --x 1 --y 2 --t 2 --w 1 --max-len 1",
        "hall gamma does not read --max-len",
    ),
])
def test_verify_and_hall_reject_flags_they_do_not_read(capsys, argv, message):
    assert main(argv.split()) == 1
    assert _is_refusal(capsys, message)


def test_hall_relations_window_is_the_level_range(capsys, monkeypatch):
    # --mmax M checks the relations among levels 0..M and none above: at
    # --mmax 0 that is the quantum Serre rows alone
    import qgroth.hall as hall

    seen = []
    real = hall.relation_failures

    def spy(quiver, levels, *rest):
        seen.append(list(levels))
        return real(quiver, levels, *rest)

    monkeypatch.setattr(hall, "relation_failures", spy)
    for mmax in ("0", "2"):
        assert main(["hall", "relations", "--type", "A2", "--q", "2", "--mmax", mmax]) == 0
    assert main(["hall", "iota", "--type", "A2", "--q", "2", "--max-len", "1", "--mmax", "1"]) == 0
    assert main(["hall", "relations", "--type", "A2", "--q", "2"]) == 0
    assert seen == [[0], [0, 1, 2], [0, 1], [0, 1, 2, 3]]


def test_failed_internal_check_exits_2(capsys, monkeypatch):
    import qgroth.hall as hall

    def broken(dh, rep):
        raise RuntimeError("fingerprint did not resolve to a Krull-Schmidt multiset")

    monkeypatch.setattr(hall, "iso_class", broken)
    argv = ["hall", "number", "--type", "A2", "--xi", "1,0", "--q", "2", "--x", "2", "--y", "1", "--w", "1-2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal check failed: fingerprint did not resolve to a Krull-Schmidt multiset\n"


def _identity_rows(rows):
    return {a: {a: HalfLaurent.one()} for a in rows}


def _rows_times_t(rows):
    return {a: {b: p.shift(2) for b, p in row.items()} for a, row in rows.items()}


def _rows_plus_bar(rows):
    return {a: {b: p if b == a else p + p.conj() for b, p in row.items()} for a, row in rows.items()}


@pytest.mark.parametrize("mutate", [_identity_rows, _rows_times_t, _rows_plus_bar])
def test_a_corrupted_solve_fails_canonical(capsys, monkeypatch, mutate):
    # the dual canonical rows are checked by their characterization, not by a
    # second run of the same solve: no correction at all fails bar-invariance,
    # a shifted row fails P_aa = 1, and symmetric off-diagonal entries fail
    # the negative exponents
    import qgroth.qgroup as qgroup

    real = qgroup.bar_invariant_correction
    monkeypatch.setattr(qgroup, "bar_invariant_correction", lambda basis, depth: mutate(real(basis, depth)))
    code, out = run(capsys, "canonical", "--type", "A3", "--degree-bound", "3", "--format", "json")
    report = json.loads(out)
    assert code == 2 and report["ok"] is False
    assert not all(r["simple_ok"] for r in report["rows"]) and all(r["standard_ok"] for r in report["rows"])


@pytest.mark.parametrize("mutate", [_identity_rows, _rows_times_t, _rows_plus_bar])
def test_b_tilde_refuses_a_row_that_fails_its_characterization(capsys, monkeypatch, mutate):
    # b_tilde reads the one checked solve of its weight space: under a
    # corrupted solve it raises where a row fails and memoises no vector
    # there, and asked before verify_mainth it leaves the report unchanged
    import qgroth.qgroup as qgroup
    from qgroth.characters import CategoryQ, CharacterError

    real = qgroup.bar_invariant_correction
    monkeypatch.setattr(qgroup, "bar_invariant_correction", lambda basis, depth: mutate(real(basis, depth)))
    ctx = QuiverContext(QuiverDatum.bipartite(cartan_datum("A3")))
    alone = qgroup.QGroupSide(CategoryQ(ctx)).verify_mainth(3)
    assert not all(r["simple_matches_dual_canonical"] for r in alone)
    qg = qgroup.QGroupSide(CategoryQ(ctx))
    for r in alone:
        if r["simple_matches_dual_canonical"]:
            assert qg.b_tilde(r["avec"]) is not None
        else:
            with pytest.raises(CharacterError, match="fails its characterization"):
                qg.b_tilde(r["avec"])
            assert qg._btilde[qg.xt.key(r["avec"])] is None
    assert qg.verify_mainth(3) == alone
    # a report that claimed every row passed still ends in exit 2, not in
    # writing an unchecked vector as dual_canonical
    report = qgroup.QGroupSide.verify_mainth

    def claimed(self, bound):
        return [dict(r, simple_matches_dual_canonical=True) for r in report(self, bound)]

    monkeypatch.setattr(qgroup.QGroupSide, "verify_mainth", claimed)
    assert main(["canonical", "--type", "A3", "--degree-bound", "3", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("internal check failed: the dual canonical row at ")


# stdout digests of argv that run canonical's walk over the weight spaces,
# its json dual canonical vectors, iota's specialization at t = sqrt(q), the
# Hall side's relations, and the README's gamma and Hall number.  A refactor
# of those paths keeps their output byte for byte, so the digests are not
# regenerated to follow a change.
PINNED_STDOUT = [
    ("canonical --type D4 --degree-bound 3 --format json",
     "6a6803d95f109f3d9a926f6e10b04d534cc2f5970a5f72d7176cae1dc21d7009"),
    ("canonical --type A3 --arrows 1-2,3-2 --degree-bound 4 --format json",
     "2325c27c54fe8ef529968e8236dfd4e9ec7ae83269bd10adcd56182962b878eb"),
    ("hall iota --type A3 --arrows 1-2,3-2 --q 3 --format json",
     "e84a72c7dfd2ebc85c9c4b6dc18c6f3219a96e649fe5bf47a3e77be3478e4119"),
    ("hall iota --type A3 --q 3 --format json",
     "33346936094206d4aa798dc8353fedd025418aade963f49d371e33b940949dda"),
    ("hall relations --type A3 --q 3",
     "0bd535e448238c7dfedd89d45bec6c0fc15e1d640ab428a218bad29d064fadea"),
    ("hall iota --type A3 --q 2 --format json",
     "2d87b78b435fb209f2874549ab57d53e90dd71429c18b3ab2977da1150df6a7f"),
    ("hall iota --type A3 --q 4 --format json",
     "301b3c945d5db61606a132f81d930405142106ab5146edf5342946cd40f53fcf"),
    ("hall relations --type A3 --q 2",
     "0bd535e448238c7dfedd89d45bec6c0fc15e1d640ab428a218bad29d064fadea"),
    ("hall relations --type A3 --q 4",
     "0bd535e448238c7dfedd89d45bec6c0fc15e1d640ab428a218bad29d064fadea"),
    ("hall gamma --type A2 --q 2 --x 1 --y 2 --t 2 --w 1",
     "e62245ed5230cf0ff1874aecb9039a8b9a79a427b2b97f2ae9f226730b2dbcc7"),
    ("hall number --type A2 --xi 1,0 --q 2 --x 2 --y 1 --w 1-2",
     "d238fcc75b9433a86adf11906aadf686056179205f1421c29ee8a7e63f446fc4"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT, ids=[a for a, _ in PINNED_STDOUT])
def test_pinned_stdout_is_byte_identical(capsys, argv, digest):
    code, out = run(capsys, *argv.split())
    if argv.startswith("hall iota"):
        # the digests predate the relation verdicts in hall iota's JSON: the
        # verdicts are pinned here, and the rest of the object by its digest
        report = json.loads(out)
        assert (report.pop("constant_identity"), report.pop("failures")) == (True, [])
        out = json.dumps(report, sort_keys=True) + "\n"
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_hall_names_the_missing_flag(capsys):
    # a missing isoclass flag used to end in an AttributeError traceback
    cases = [
        ([], "gamma", "hall gamma requires --x and --y and --t and --w"),
        (["--x", "1", "--y", "2", "--w", "1"], "gamma", "hall gamma requires --t"),
        (["--x", "1"], "number", "hall number requires --y and --w"),
        (["--x", "1", "--y", "2"], "number", "hall number requires --w"),
    ]
    for flags, what, message in cases:
        assert main(["hall", what, "--type", "A2", "--q", "2", *flags]) == 1
        assert _is_refusal(capsys, message), flags


def test_iso_parser_rejects_intervals_outside_the_quiver_and_empty_multiplicities(capsys):
    word = AdaptedWord.build(QuiverDatum.bipartite(cartan_datum("A2")))
    for text in ("9", "0-1", "2-1", "1-3", "1,0", "1*0", "1-2*-1"):
        with pytest.raises(ValueError):
            _parse_iso(text, "--x", word)
    for w in ("9", "1*0,2"):
        argv = ["hall", "number", "--type", "A2", "--q", "2", "--x", "1", "--y", "2", "--w", w]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ")
    assert main(["hall", "number", "--type", "A2", "--q", "2", "--x", "1*0", "--y", "2", "--w", "2"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("q,code,message", [
    ("1", 1, "usage error: unsupported field size 1\n"),
    ("0", 1, "usage error: unsupported field size 0\n"),
    ("5", 3, "resource cap exceeded: field size 5 above cap 4\n"),
])
def test_hall_field_size_is_checked_on_every_subcommand(capsys, q, code, message):
    argvs = [
        ["iota"],
        ["relations"],
        ["number", "--x", "1", "--y", "2", "--w", "1,2"],
        # dimension vectors that do not add up are checked after the field
        ["number", "--x", "1", "--y", "1", "--w", "1-2"],
        ["gamma", "--x", "1", "--y", "2", "--t", "2", "--w", "1"],
    ]
    for argv in argvs:
        assert main(["hall", argv[0], "--type", "A2", "--q", q, *argv[1:]]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


def test_gamma_prices_every_hall_number_it_reads(capsys):
    # the gamma work sum counts each Hall number it reads: g^{S2^4}_{0,S2^4}
    # at 4^3, then g^{P12^4}_{S2^4,S1^4} of 4^16 extensions at 8^3
    argv = ["hall", "gamma", "--type", "A2", "--xi", "1,0", "--q", "4", "--x", "1-2*4", "--y", "2*4", "--t", "0",
            "--w", "1*4"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource cap exceeded: gamma: work 2199023255616 (extensions x dimension^3) above cap 10000000\n"
    )
    # once past the cap, now 6^3 for each of 10 images and 12^3 for a split pair
    argv = ["hall", "gamma", "--type", "A3", "--q", "2", "--x", "1-3*4", "--y", "1-3*2", "--t", "0", "--w", "1-3*2"]
    assert run(capsys, *argv) == (0, "gamma = 1/96\n")


def test_qcartan_and_phi_tables_are_capped(capsys):
    # both once ran in time linear in the value given
    cases = [
        (["qcartan", "--type", "A2", "--mmax", "1000000000"], "qcartan: table of 4000000000 integers"),
        (["phi", "--type", "A2", "--window=-1000000000..1000000000"], "phi: table of 10000000010 integers"),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", f"resource cap exceeded: {message} above cap 400000\n")


def test_hall_level_windows_are_priced_as_presentation_ranges(capsys):
    # hall relations|iota --mmax M checks the M + 1 levels 0..M, priced in
    # levels x rank^2 by the rule of verify presentation before any generator
    # is built; both once ran in time linear in M
    for argv, n in [
        (["hall", "relations", "--type", "A3", "--q", "3", "--mmax", "1000000000"], 9000000009),
        (["hall", "relations", "--type", "A3", "--q", "3", "--mmax", "46"], 423),
        (["hall", "iota", "--type", "A2", "--q", "2", "--mmax", "105"], 424),
    ]:
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", (
            f"resource cap exceeded: hall {argv[1]}: --mmax {argv[-1]} of {argv[3]} has n = {n} "
            "(levels x rank^2) above cap 420\n"
        ))
    # the widest windows admitted answer
    for name, mmax in (("A3", 45), ("A2", 104), ("A1", 419)):
        assert main(["hall", "relations", "--type", name, "--q", "3", "--mmax", str(mmax)]) == 0
        assert capsys.readouterr() == ("constant identity: ok\nrelation failures: 0\n", "")


@pytest.mark.parametrize("exc,code,line", [
    (KeyError(0), 2, "internal check failed: KeyError: 0"),
    (TypeError("unhashable type: 'list'"), 2, "internal check failed: TypeError: unhashable type: 'list'"),
    (IndexError("tuple index out of range"), 2, "internal check failed: IndexError: tuple index out of range"),
    (MemoryError(), 3, "resource cap exceeded: out of memory"),
    (ZeroDivisionError("element is not invertible"), 2, "internal check failed: element is not invertible"),
    (ValueError("vertex 9 outside 1..2"), 1, "usage error: vertex 9 outside 1..2"),
])
def test_an_exception_inside_the_library_exits_by_its_kind(capsys, monkeypatch, exc, code, line):
    # a library bug is not a usage error: only a ValueError or an OSError is
    # one, and any exception the library does not name exits 2 with its type
    from qgroth import qgroup

    def broken(*args):
        raise exc

    monkeypatch.setattr(qgroup, "bar_invariant_correction", broken)
    assert main(["canonical", "--type", "A2", "--degree-bound", "2"]) == code
    assert capsys.readouterr() == ("", f"{line}\n")


def test_a_key_error_inside_the_hall_side_exits_2(capsys, monkeypatch):
    import qgroth.hall as hall

    def broken(dh, rep):
        raise KeyError((1, 0))

    monkeypatch.setattr(hall, "iso_class", broken)
    argv = ["hall", "number", "--type", "A2", "--xi", "1,0", "--q", "2", "--x", "2", "--y", "1", "--w", "1-2"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "internal check failed: KeyError: (1, 0)\n")
