"""Seeded argv near the edges of `canonical`, `dominant-pairs`, `--config`,
`verify presentation|all|mainth`, `hall relations|iota|number|gamma`,
`qcartan`, `tsystem`, `phi` and `qchar simple|truncate|kr|fundamental|standard`.

Every drawn argv ends with exit 0, 1, 2 or 3, no exception escapes `main`, and
on exit 0 stdout is one JSON document.  E-type `canonical` is left out: its
running time is not bounded yet.
"""

import argparse
import contextlib
import io
import itertools
import json
import pathlib
import tempfile
from datetime import timedelta

import pytest
from hypothesis import given, seed, settings, strategies as st

from qgroth.cartan import cartan_datum
from qgroth.cli import PARSER, main
from qgroth.quiver import QuiverContext, QuiverDatum

TYPES = ["A1", "A2", "A3", "A4", "D4"]
MALFORMED_TYPES = ["", "A", "A0", "A9", "B3", "D3", "E5", "Z1", "4A", "A3x", "A-1", "a2"]
MALFORMED_ARROWS = [
    "", "1", "1-", "-1", "1-2-3", "x-y", "1-9", "0-1", "1-1", "2-1,1-2", "2-1,2-1", "1-2,",
    "1->2", " 1-2", "1-3,2-3,3-4", "1-2,2-3,3-4,4-5",
]
ORIENTATIONS = {
    "A2": ["1-2", "2-1"],
    "A3": ["1-2,2-3", "2-1,2-3", "1-2,3-2", "2-1,3-2"],
    "A4": ["1-2,2-3,3-4", "2-1,3-2,3-4", "1-2,3-2,4-3"],
    "D4": ["1-3,2-3,3-4", "3-1,3-2,4-3", "1-3,3-2,3-4"],
}
WELL_FORMED_ARROWS = [a for values in ORIENTATIONS.values() for a in values]

# well-formed values are drawn more often, so that a fair share of argv get to run
types = st.sampled_from(TYPES * 4 + MALFORMED_TYPES)
degree_bounds = st.none() | st.integers(min_value=-1, max_value=2)
dimension_vectors = st.lists(st.integers(min_value=-1, max_value=2), max_size=5).map(
    lambda d: ",".join(map(str, d))
) | st.sampled_from(["", ",", "1,,1", "x", "1.5", "1;1"])
config_objects = st.fixed_dictionaries(
    {},
    optional={
        "type": types,
        "degree_bound": st.integers(min_value=-1, max_value=2),
        "arrows": st.sampled_from(WELL_FORMED_ARROWS + MALFORMED_ARROWS),
        "d": dimension_vectors,
        "format": st.sampled_from(["text", "json"]),
    },
)
# an object, a list, a scalar or nothing at all
config_texts = (
    config_objects.map(json.dumps)
    | config_objects.map(json.dumps)
    | st.lists(st.integers(), max_size=3).map(json.dumps)
    | st.sampled_from(["3", '"A2"', "null", "true", ""])
)


def _flag(name, value, equals):
    return [f"{name}={value}"] if equals else [name, value]


@st.composite
def argvs(draw):
    cmd = draw(st.sampled_from(["canonical", "dominant-pairs"]))
    argv = [cmd]
    name = draw(types)
    if draw(st.integers(min_value=0, max_value=5)):
        argv += _flag("--type", name, draw(st.booleans()))
    if draw(st.booleans()):
        value = draw(st.sampled_from(ORIENTATIONS.get(name, []) * 4 + MALFORMED_ARROWS))
        # the equals form lets a value that starts with "-" through
        argv += _flag("--arrows", value, True)
    if cmd == "canonical":
        bound = draw(degree_bounds)
        if bound is not None:
            argv += _flag("--degree-bound", str(bound), draw(st.booleans()))
    elif draw(st.integers(min_value=0, max_value=5)):
        rank = int(name[1:]) if name in TYPES else 3
        entries = st.integers(min_value=-1, max_value=2)
        d = st.lists(entries, min_size=rank, max_size=rank).map(lambda d: ",".join(map(str, d)))
        argv += _flag("--d", draw(d | d | dimension_vectors), True)
    argv += ["--format", "json"]
    config = draw(config_texts) if draw(st.booleans()) else None
    where = draw(st.sampled_from(["space", "equals"] * 3 + ["last"]))
    return argv, config, where


EDGES = {
    "A1": [],
    "A2": [(1, 2)],
    "A3": [(1, 2), (2, 3)],
    "A4": [(1, 2), (2, 3), (3, 4)],
    "D4": [(1, 3), (2, 3), (3, 4)],
}
MALFORMED_RANGES = [
    "", "..", "0..", "..2", "0...2", "a..b", "1.5..2", "0-2", "0..2..3", "0..x", "0:2", "--1..0",
]


def all_orientations(name):
    """Every orientation of the diagram, as --arrows values."""
    return [
        ",".join(f"{a}-{b}" if keep else f"{b}-{a}" for (a, b), keep in zip(EDGES[name], flips))
        for flips in itertools.product([True, False], repeat=len(EDGES[name]))
    ]


@st.composite
def presentation_argvs(draw):
    argv = ["verify", "presentation"]
    name = draw(st.sampled_from(list(EDGES) * 6 + MALFORMED_TYPES))
    argv += _flag("--type", name, draw(st.booleans()))
    if name in EDGES and EDGES[name] and draw(st.integers(min_value=0, max_value=3)):
        argv += _flag("--arrows", draw(st.sampled_from(all_orientations(name))), True)
    elif draw(st.integers(min_value=0, max_value=5)) == 0:
        argv += _flag("--arrows", draw(st.sampled_from(MALFORMED_ARROWS)), True)
    lo = draw(st.integers(min_value=-20, max_value=20))
    width = draw(st.integers(min_value=0, max_value=2))
    kind = draw(st.sampled_from(["range"] * 6 + ["reversed", "malformed", "default"]))
    if kind == "range":
        argv += _flag("--m-range", f"{lo}..{lo + width}", True)
    elif kind == "reversed":
        argv += _flag("--m-range", f"{lo + width + 1}..{lo}", True)
    elif kind == "malformed":
        argv += _flag("--m-range", draw(st.sampled_from(MALFORMED_RANGES)), True)
    return argv + ["--format", "json"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_documented_exit(code, out, err, context):
    assert code in (0, 1, 2, 3), context
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert err, context


@seed(20261018)
@given(argvs())
@settings(max_examples=300, deadline=timedelta(seconds=20))
def test_canonical_dominant_pairs_and_config_edges_end_in_a_documented_exit(case):
    argv, config, where = case
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = pathlib.Path(tmp) / "conf.json"
            path.write_text(config)
            if where == "last":
                argv = argv + ["--config"]
            else:
                argv = argv + _flag("--config", str(path), where == "equals")
        code, out, err = _run(argv)
    _assert_documented_exit(code, out, err, (argv, config))


@seed(20261018)
@given(presentation_argvs())
@settings(max_examples=150, deadline=timedelta(seconds=20))
def test_verify_presentation_edges_end_in_a_documented_exit(argv):
    # A1-A4 and D4 pass in every orientation, at every level range; reversed
    # and malformed level ranges, types and orientations are usage errors
    code, out, err = _run(argv)
    _assert_documented_exit(code, out, err, argv)
    assert code in (0, 1), (argv, err)
    if code == 0:
        assert json.loads(out) == {"failures": [], "ok": True}


MALFORMED_MONOMIALS = [
    "1", "Y", "Y[1]", "Y[1,]", "Y[,0]", "Y[a,b]", "X[1,0]", "Y[1,0]^", "Y[1,0]^x", "Y[1,0]Y",
    "Y[1,0]*Y[2,1]", "Y(1,0)", "Y[1,0,0]", "Y[1.5,0]", "y[1,0]",
]


def _positions(name, arrows):
    """The positions of the index set of the orientation (the default one
    when arrows is None): the variables a truncated class may carry."""
    cd = cartan_datum(name)
    if arrows is None:
        return QuiverContext(QuiverDatum.bipartite(cd)).positions
    pairs = [tuple(int(v) for v in tok.split("-")) for tok in arrows.split(",")]
    return QuiverContext(QuiverDatum.from_arrows(cd, pairs)).positions


def _monomial_text(factors):
    return "".join(f"Y[{i},{p}]" + (f"^{e}" if e != 1 else "") for i, p, e in factors)


# the valued flags each qchar subcommand reads besides --type; the others
# are drawn now and then, and must be refused
QCHAR_READS = {
    "simple": {"--monomial"},
    "truncate": {"--arrows", "--monomial"},
    "kr": {"--arrows", "--i", "--p", "--s"},
    "fundamental": {"--i", "--p"},
    "standard": {"--monomial"},
}


def _qchar_unread_flags_are_named(argv, code, err):
    flags = {tok.partition("=")[0] for tok in argv if tok.startswith("--")}
    if "--type" in flags:
        unread = flags - QCHAR_READS[argv[1]] - {"--type", "--format"}
        _unread_flags_are_named(argv, code, err, unread)


@st.composite
def qchar_argvs(draw):
    what = draw(st.sampled_from(["simple", "truncate"]))
    name = draw(st.sampled_from(TYPES * 4 + MALFORMED_TYPES))
    argv = ["qchar", what]
    argv += _flag("--type", name, draw(st.booleans()))
    arrows = None
    if name in EDGES and EDGES[name] and draw(st.booleans()) and _maybe(draw, what == "truncate"):
        arrows = draw(st.sampled_from(all_orientations(name)))
        argv += _flag("--arrows", arrows, True)
    rank = int(name[1:]) if name in TYPES else 3
    # in-category variables, any variable near the window (vertices 0 and
    # rank + 1 are out of range), and non-dominant or zero exponents
    anywhere = st.tuples(st.integers(min_value=-1, max_value=rank + 1), st.integers(min_value=-4, max_value=8))
    inside = st.sampled_from(_positions(name, arrows)) if name in TYPES else anywhere
    factor = st.tuples(inside | anywhere, st.sampled_from([1, 1, 1, 2, -1, 0])).map(
        lambda f: (f[0][0], f[0][1], f[1])
    )
    monomial = st.lists(factor, max_size=3).map(_monomial_text) | st.sampled_from(MALFORMED_MONOMIALS)
    if draw(st.integers(min_value=0, max_value=7)):
        text = draw(monomial)
        argv += ["-m", text] if draw(st.booleans()) else [f"--monomial={text}"]
    for flag in ("--i", "--p", "--s"):
        if _maybe(draw, False):
            argv += _flag(flag, str(draw(st.integers(min_value=-1, max_value=3))), True)
    return argv + ["--format", "json"]


@seed(20261018)
@given(qchar_argvs())
@settings(max_examples=150, deadline=timedelta(seconds=20))
def test_qchar_simple_and_truncate_edges_end_in_a_documented_exit(argv):
    # vertices out of range, variables off the index set, negative exponents,
    # malformed monomials and unread flags are usage errors; a heavy
    # enumeration is capped
    code, out, err = _run(argv)
    _assert_documented_exit(code, out, err, argv)
    _qchar_unread_flags_are_named(argv, code, err)



# -- hall, verify all|mainth, qcartan, tsystem, phi, qchar kr|fundamental|standard

ISOCLASSES = [
    "0", "1", "2", "3", "1-2", "2-3", "1-3", "1*2", "1,2", "2,3", "1-2,3", "1-3,2-3", "1-2*2",
    "1*6", "1-2*3", "1*3",
]
MALFORMED_ISOCLASSES = [
    "", "x", "1-", "-1", "2-1", "1-4", "0-1", "1*0", "1*-1", "1*x", "1-2-3", "1,,2", "1*2*3", "4",
    "1.5", "1 2",
]
# the valued flags each hall subcommand reads besides --type and --q; the
# others are drawn now and then, and must be refused
HALL_READS = {
    "relations": {"--arrows", "--mmax"},
    "iota": {"--arrows", "--mmax", "--max-len"},
    "number": {"--arrows", "--x", "--y", "--w"},
    "gamma": {"--arrows", "--x", "--y", "--t", "--w"},
}
HALL_VALUES = {
    "--mmax": st.integers(min_value=-1, max_value=3).map(str),
    "--max-len": st.integers(min_value=0, max_value=3).map(str),
    **{
        flag: st.sampled_from(ISOCLASSES * 12 + MALFORMED_ISOCLASSES)
        for flag in ("--x", "--y", "--t", "--w")
    },
}
VERIFY_READS = {
    "all": set(),
    "mainth": {"--type", "--arrows", "--degree-bound"},
    "presentation": {"--type", "--arrows", "--m-range"},
}


def _maybe(draw, read):
    """Whether to pass a flag: mostly when the subcommand reads it, rarely
    when it does not."""
    return draw(st.sampled_from([read] * 15 + [not read]))


def _type(draw, names):
    """A diagram type: one of names, or now and then a malformed one."""
    return draw(st.sampled_from(MALFORMED_TYPES if _maybe(draw, False) else names))


def _arrows(draw, name):
    return draw(st.sampled_from(all_orientations(name) if name in EDGES else MALFORMED_ARROWS))


@st.composite
def hall_argvs(draw):
    what = draw(st.sampled_from(list(HALL_READS)))
    # A4 and D4 are past the Hall cap (exit 3)
    name = _type(draw, ["A1", "A2", "A3"] * 4 + ["A4", "D4"])
    argv = ["hall", what] + _flag("--type", name, draw(st.booleans()))
    if draw(st.sampled_from([False, False, True])):
        argv += _flag("--arrows", _arrows(draw, name), True)
    if _maybe(draw, True):
        argv += _flag("--q", str(draw(st.sampled_from([2, 3, 4] * 3 + [1, 5]))), True)
    for flag, values in HALL_VALUES.items():
        if _maybe(draw, flag in HALL_READS[what]):
            argv += _flag(flag, draw(values), True)
    return argv + ["--format", "json"]


def _unread_flags_are_named(argv, code, err, unread):
    # argparse names a missing required flag before any unread one
    if unread:
        assert code == 1, (argv, err)
        last = err.splitlines()[-1]
        refused = {tok.partition("=")[0] for tok in last.partition("error: unrecognized arguments: ")[2].split()}
        missing = last.partition("error: the following arguments are required: ")[2]
        given = {tok.partition("=")[0] for tok in argv}
        named = missing and all(flag.split("/")[-1] not in given for flag in missing.split(", "))
        assert unread <= refused or named, (argv, err)


@seed(20261018)
@given(hall_argvs())
@settings(max_examples=400, deadline=timedelta(seconds=20))
def test_hall_edges_end_in_a_documented_exit(argv):
    # fields outside 2..4, types past A3, malformed isoclasses, --mmax -1,
    # --max-len 0 and unread flags end in 1 or 3; every run that gets through
    # passes its checks
    code, out, err = _run(argv)
    _assert_documented_exit(code, out, err, argv)
    assert code != 2, (argv, err)
    flags = {tok.partition("=")[0] for tok in argv if tok.startswith("--")}
    if "--q" in flags:
        unread = flags - HALL_READS[argv[1]] - {"--type", "--q", "--format"}
        _unread_flags_are_named(argv, code, err, unread)


@st.composite
def other_argvs(draw):
    cmd = draw(st.sampled_from([
        "verify all", "verify mainth", "qcartan", "tsystem", "phi",
        "qchar kr", "qchar fundamental", "qchar standard",
    ]))
    argv = cmd.split()
    if cmd == "qchar fundamental":  # bounded on D and E by the monomial cap
        names = TYPES + ["D5", "D6", "E6"]
    else:
        names = TYPES if cmd.startswith(("qchar", "verify")) else TYPES + ["D5", "E6", "E7", "E8"]
    name = _type(draw, names)
    argv += _flag("--type", name, draw(st.booleans()))
    rank = int(name[1:]) if name in TYPES or (cmd == "qchar fundamental" and name in names) else 3
    small = st.integers(min_value=-1, max_value=3).map(str)
    orientable = cmd in ("verify mainth", "phi", "qchar kr")
    if cmd not in ("qcartan", "tsystem") and _maybe(draw, orientable) and draw(st.booleans()):
        argv += _flag("--arrows", _arrows(draw, name), True)
    if cmd.startswith("verify"):
        if _maybe(draw, cmd == "verify mainth"):
            bound = draw(st.integers(min_value=-1, max_value=2))
            argv += _flag("--degree-bound", str(bound), True)
        if _maybe(draw, False):
            levels = st.sampled_from(["0..1", "2..1"] + MALFORMED_RANGES)
            argv += _flag("--m-range", draw(levels), True)
    elif cmd == "qcartan":
        if _maybe(draw, True):
            argv += _flag("--mmax", draw(small | st.just("1000000000")), True)
    elif cmd == "phi":
        if draw(st.booleans()):
            windows = ["-6..6", "0..0", "3..-3", "-20..20", "99990..100010", "-1000000000..1000000000"]
            window = st.sampled_from(windows + MALFORMED_RANGES)
            argv += _flag("--window", draw(window), True)
    else:
        reads = QCHAR_READS.get(cmd.partition(" ")[2], {"--i", "--k"})
        if cmd.startswith("qchar") and _maybe(draw, "--monomial" in reads):
            vertex = st.integers(min_value=0, max_value=rank + 1)
            level = st.integers(min_value=-2, max_value=4)
            factor = st.tuples(vertex, level, st.sampled_from([1, 1, 2, -1]))
            monomial = st.lists(factor, max_size=2).map(_monomial_text)
            text = draw(monomial | st.sampled_from(MALFORMED_MONOMIALS))
            argv += [f"--monomial={text}"]
        vertex = st.integers(min_value=-1, max_value=rank + 1).map(str)
        flags = [("--i", vertex), ("--k" if cmd == "tsystem" else "--p", small)]
        if cmd.startswith("qchar"):
            flags.append(("--s", small))
        for flag, values in flags:
            if _maybe(draw, flag in reads):
                argv += _flag(flag, draw(values), True)
    return argv + ["--format", "json"]


@seed(20261018)
@given(other_argvs())
@settings(max_examples=400, deadline=timedelta(seconds=20))
def test_remaining_subcommand_edges_end_in_a_documented_exit(argv):
    # verify all reads no --type, --arrows, --degree-bound or --m-range,
    # verify mainth no --m-range; out-of-range vertices and levels, an --mmax
    # below 1 and reversed or malformed ranges are usage errors; D and E
    # fundamentals are t-characters (exit 0) below the monomial cap
    code, out, err = _run(argv)
    _assert_documented_exit(code, out, err, argv)
    assert code != 2, (argv, err)
    if argv[0] == "verify":
        flags = {tok.partition("=")[0] for tok in argv if tok.startswith("--")}
        unread = flags - VERIFY_READS[argv[1]] - {"--format"}
        _unread_flags_are_named(argv, code, err, unread)
    if argv[0] == "qchar":
        _qchar_unread_flags_are_named(argv, code, err)


def test_short_height_functions_and_bad_quiver_tokens_are_usage_errors():
    # a height function is checked for its rank before it is read, and a
    # malformed --arrows, --xi or --d token or -m monomial is named with its
    # flag
    for argv, message in [
        (["canonical", "--type", "A3", "--xi", "0,1"], "height function of rank 2 on a diagram of rank 3"),
        (
            ["hall", "iota", "--type", "A3", "--q", "2", "--xi", "0"],
            "height function of rank 1 on a diagram of rank 3",
        ),
        (["canonical", "--type", "A3", "--arrows", "1-2-3"], "--arrows token '1-2-3' is not of the form i-j"),
        (["canonical", "--type", "A3", "--xi", "1,a"], "--xi token 'a' is not an integer"),
        # an empty value is a token too, not a missing orientation
        (["canonical", "--type", "A2", "--xi", ""], "--xi token '' is not an integer"),
        (["canonical", "--type", "A2", "--arrows="], "--arrows token '' is not of the form i-j"),
        (["hall", "relations", "--type", "A2", "--q", "2", "--xi="], "--xi token '' is not an integer"),
        (["dominant-pairs", "--type", "A2", "--d", "a,1"], "--d token 'a' is not an integer"),
        (["qchar", "simple", "--type", "A2", "-m", "Y[1,a]"], "cannot parse -m/--monomial near: 'Y[1,a]'"),
    ]:
        assert _run(argv) == (1, "", f"usage error: {message}\n"), argv


def test_xi_and_arrows_are_not_both_given(tmp_path):
    # the pair is refused, from the command line or from a config file, even
    # where the two agree; each alone answers
    argv = ["phi", "--type", "A2", "--window", "0..1"]
    conf = tmp_path / "conf.json"
    conf.write_text('{"xi": "0,1"}')
    for pair in (
        ["--xi", "0,1", "--arrows", "1-2"],
        ["--arrows", "2-1", "--xi", "0,1"],
        ["--config", str(conf), "--arrows", "1-2"],
    ):
        code, out, err = _run(argv + pair)
        assert (code, out) == (1, ""), pair
        last = err.splitlines()[-1]
        assert last.startswith("qgroth phi: error: argument --"), pair
        assert "not allowed with argument --" in last and "--xi" in last and "--arrows" in last, pair
    for one in (["--xi", "0,1"], ["--arrows", "1-2"], ["--config", str(conf)]):
        code, out, err = _run(argv + one)
        assert (code, err) == (0, "") and out, one


def test_empty_ranges_are_usage_errors_that_name_their_flag():
    # phi and verify presentation follow one rule: a range lo..hi with
    # hi < lo selects nothing
    for argv, message in [
        (["phi", "--type", "A2", "--window=5..-5"], "--window 5..-5 is an empty range"),
        (["phi", "--type", "D4", "--window", "1..0", "--format", "json"], "--window 1..0 is an empty range"),
        (["verify", "presentation", "--type", "A2", "--m-range=5..-5"], "--m-range 5..-5 is an empty range"),
    ]:
        assert _run(argv) == (1, "", f"usage error: {message}\n"), argv


def _kinds(parser):
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


@pytest.mark.parametrize("cmd,reads", [("qchar", QCHAR_READS), ("hall", HALL_READS), ("verify", VERIFY_READS)])
def test_each_kind_takes_exactly_the_flags_the_fuzz_draws_as_read(cmd, reads):
    # the parser of each kind is the one list of the flags it reads: besides
    # those of the table above, --format, --config and help, the --type and
    # --q every qchar and hall kind needs, the --xi of an orientation and the
    # -m of --monomial
    kinds = _kinds(_kinds(PARSER)[cmd])
    assert set(kinds) == set(reads)
    for what, leaf in kinds.items():
        expected = reads[what] | {"-h", "--help", "--format", "--config"}
        expected |= {"qchar": {"--type"}, "hall": {"--type", "--q"}, "verify": set()}[cmd]
        expected |= {"--xi"} if "--arrows" in reads[what] else set()
        expected |= {"-m"} if "--monomial" in reads[what] else set()
        assert {s for a in leaf._actions for s in a.option_strings} == expected, what
        code, out, err = _run([cmd, what, "--help"])
        assert (code, err) == (0, "") and out.startswith(f"usage: qgroth {cmd} {what} "), what


@pytest.mark.parametrize("argv,flag", [
    # --x is a hall flag: canonical once read it as --xi and answered on
    # the orientation xi = (1, 0)
    (["canonical", "--type", "A2", "--x", "1,0", "--degree-bound", "1"], "--x"),
    # verify all once read --t as --type, and refused it as such
    (["verify", "all", "--t", "A2"], "--t"),
    (["phi", "--type", "A2", "--win", "0..1"], "--win"),
    (["hall", "iota", "--type", "A2", "--q", "2", "--max", "1"], "--max"),
])
def test_a_prefix_of_a_flag_is_not_read_as_the_flag(argv, flag):
    code, out, err = _run(argv)
    assert (code, out) == (1, "")
    assert flag in err.splitlines()[-1].partition("qgroth: error: unrecognized arguments: ")[2].split()


def test_flags_follow_the_kind():
    # the parser of qchar, hall and verify takes only the kind
    for argv in (["qchar", "--type", "A1", "simple", "-m", "Y[1,0]"], ["hall", "--q", "2", "iota", "--type", "A2"]):
        code, out, err = _run(argv)
        assert (code, out) == (1, "") and err.startswith(f"usage: qgroth {argv[0]} "), argv
