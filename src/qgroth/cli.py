"""Command-line front end.

Exit codes: 0 success, 1 usage error (a ValueError or an OSError), 2
verification failure or a failed internal check (a RuntimeError, an
ArithmeticError or any other exception the library raises), 3 resource cap (a
ResourceCap or a MemoryError).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import accumulate

from .cartan import CartanDatum, ResourceCap, cartan_datum, iter_kostant_partitions
from .characters import (
    CategoryQ,
    fundamental_tchar,
    fundamental_window,
    simple_tchar,
    simple_window,
    standard_tchar,
    tsystem_exponents,
)
from .hall import (
    _check_quiver,
    check_h_relations,
    constant_identity_holds,
    derived_hall,
    hall_number,
    iota_check,
    toen_gamma,
)
from .presentation import Presentation
from .qcartan import quantum_cartan
from .qgroup import quantum_group_side
from .quiver import AdaptedWord, QuiverContext, QuiverDatum
from .torus import monomial_items, render_monomial


def _parse_quiver(args, cartan: CartanDatum) -> QuiverDatum:
    if args.xi is not None:
        xi = [_parse_int(tok, "--xi", "an integer") for tok in args.xi.split(",")]
        return QuiverDatum.from_xi(cartan, xi)
    if args.arrows is not None:
        arrows = [_parse_int(tok, "--arrows", "of the form i-j", "-") for tok in args.arrows.split(",")]
        return QuiverDatum.from_arrows(cartan, arrows)
    return QuiverDatum.bipartite(cartan)


def _parse_int(tok: str, flag: str, form: str, sep: str | None = None):
    """The integer tok, or with sep the pair of integers it separates."""
    try:
        if sep is None:
            return int(tok)
        a, b = map(int, tok.split(sep))
        return a, b
    except ValueError:
        raise ValueError(f"{flag} token {tok!r} is not {form}") from None


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    """A nonempty integer range written lo..hi."""
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"{flag} must be lo..hi with integer ends, got {text!r}") from None
    if hi < lo:
        raise ValueError(f"{flag} {text} is an empty range")
    return lo, hi


def _parse_monomial(text: str) -> dict[tuple[int, int], int]:
    """The exponent map {(i, p): e} of a product of Y[i,p]^e: no zero entry, in (p, i) order."""
    exps: dict[tuple[int, int], int] = {}
    pos = 0
    pat = re.compile(r"\s*Y\[(-?\d+),(-?\d+)\](?:\^(-?\d+))?\s*")
    while pos < len(text):
        m = pat.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse -m/--monomial near: {text[pos:]!r}")
        i, p = int(m.group(1)), int(m.group(2))
        e = int(m.group(3)) if m.group(3) else 1
        exps[(i, p)] = exps.get((i, p), 0) + e
        pos = m.end()
    return dict(monomial_items(exps))


def _parse_iso(text: str, flag: str, word: AdaptedWord) -> tuple[int, ...]:
    """Interval multiset syntax for type A, given by `flag`: '1-2*2,3' for two
    copies of the interval [1,2] plus the simple at 3; '0' is the zero class.
    Returns the multiplicities on the roots of the adapted word."""
    roots, n = word.roots, word.quiver.cartan.n
    out = [0] * len(roots)
    text = text.strip()
    if text in ("0", ""):
        return tuple(out)
    for tok in text.split(","):
        tok = tok.strip()
        head, star, ms = tok.partition("*")
        a, dash, b = head.partition("-")
        try:
            mult = int(ms) if star else 1
            a = int(a)
            b = int(b) if dash else a
        except ValueError:
            raise ValueError(f"{flag} token {tok!r} is not of the form a, a-b, a*m or a-b*m") from None
        if not 1 <= a <= b <= n:
            raise ValueError(f"interval {a}-{b} is not inside 1..{n}")
        if mult < 1:
            raise ValueError(f"multiplicity {mult} of interval {a}-{b} is below 1")
        root = tuple(1 if a <= v <= b else 0 for v in range(1, n + 1))
        if root not in roots:
            _check_quiver(word.quiver)  # every interval is a root in type A
        out[roots.index(root)] += mult
    return tuple(out)


def _root_name(root) -> str:
    return "+".join((f"{c}a{i+1}" if c != 1 else f"a{i+1}") for i, c in enumerate(root) if c)


def _emit(args, text, obj) -> None:
    """Print the chosen format, built only then: `text` returns the lines,
    `obj` the JSON object, a fresh acyclic tree, so the encoder skips its
    cycle check."""
    if args.format == "json":
        print(json.dumps(obj(), sort_keys=True, check_circular=False))
    else:
        for line in text():
            print(line)


# The most integers `qcartan`, `phi` or `dominant-pairs` may print: n^2 series of
# --mmax coefficients, the rows (i, p, root, m) of the window, or the decompositions.
MAX_TABLE = 400_000


# The widest level window of `verify presentation` and `hall relations|iota`, in
# levels x rank^2: the relation table pairs the levels x rank generators, whose
# characters grow with the rank.  At the cap on a 2-vCPU host A1 0..419, A2 0..104, A5
# 0..15 and D4 0..25 answer in under 0.1 s, A7 0..7 and D5 0..15 in 0.2 s, A8 0..5 in
# 0.6 s, D6 0..10 in 1.2 s at 82 MB (E6 0..1 and D7 0..2 reach the product cap in 2 s),
# and `hall relations` on A3 at --mmax 45, A2 at 104 and A1 at 419 in under 0.05 s.
MAX_PRESENTATION_WIDTH = 420


# The longest word of `hall iota`, which multiplies rank^L words of each length L up
# to it: A3 at 6 answers in under 1 s on a 2-vCPU host at every field, at 7 in 3.5 s,
# and A1 at 140 prints an |Aut M| of more than 4300 digits.
MAX_WORD_LENGTH = 6


def _check_width(args, window: str, levels: int, cd: CartanDatum) -> None:
    """Refuse a level window whose levels x rank^2 pass the cap, before any
    generator is built; `window` names the flag and its value."""
    n = levels * cd.n**2
    if n > MAX_PRESENTATION_WIDTH:
        raise ResourceCap(
            f"{args.cmd} {args.what}: {window} of {args.type} has n = {n} "
            f"(levels x rank^2) above cap {MAX_PRESENTATION_WIDTH}"
        )


def _check_table(entries: int, what: str) -> None:
    if entries > MAX_TABLE:
        raise ResourceCap(f"{what}: table of {entries} integers above cap {MAX_TABLE}")


def _series_text(coeffs: list[int]) -> str:
    bits = []
    for m, c in enumerate(coeffs, start=1):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        bits.append((sign, f"{mag}z^{m}"))
    if not bits:
        return "0"
    out = ("-" if bits[0][0] == "-" else "") + bits[0][1]
    for s, b in bits[1:]:
        out += f" {s} {b}"
    return out


def cmd_qcartan(args) -> int:
    if args.mmax < 1:
        raise ValueError(f"--mmax must be >= 1, got {args.mmax}")
    cd = cartan_datum(args.type)
    _check_table(cd.n * cd.n * args.mmax, "qcartan")
    qc = quantum_cartan(cd)
    series = {(i, j): qc.series(i, j, args.mmax) for i in cd.vertices for j in cd.vertices}
    _emit(
        args,
        lambda: [f"C~[{i},{j}](z) = {_series_text(c)}" for (i, j), c in series.items()],
        lambda: {
            "type": args.type,
            "mmax": args.mmax,
            "series": {f"{i},{j}": c for (i, j), c in series.items()},
        },
    )
    return 0


def cmd_phi(args) -> int:
    cd = cartan_datum(args.type)
    quiver = _parse_quiver(args, cd)
    lo, hi = _parse_range(args.window, "--window")
    _check_table((cd.n + 3) * cd.n * (hi - lo + 2) // 2, "phi")
    ctx = QuiverContext(quiver)
    table = [
        (i, p, *ctx.phi.phi(i, p)) for i in cd.vertices for p in range(lo, hi + 1) if quiver.in_ihat(i, p)
    ]
    # each root is named once per request, not once per row
    names = {beta: _root_name(beta) for beta in cd.positive_roots()}
    _emit(
        args,
        lambda: [f"phi({i},{p}) = ({names[beta]}, {m})" for i, p, beta, m in table],
        lambda: {
            "type": args.type,
            "quiver": quiver.to_json(),
            "phi": [{"i": i, "p": p, "root": list(beta), "m": m} for i, p, beta, m in table],
        },
    )
    return 0


def cmd_qchar(args) -> int:
    cd = cartan_datum(args.type)
    qc = quantum_cartan(cd)
    kind = args.what
    if args.what == "fundamental":
        x = fundamental_tchar(fundamental_window(qc, [(args.i, args.p)]), args.i, args.p)
    elif args.what in ("kr", "truncate"):
        cat = CategoryQ(QuiverContext(_parse_quiver(args, cd)))
        if args.what == "kr":
            x = cat.kr(args.i, args.s, args.p)
        else:
            kind = "truncated-simple"
            x = cat.truncated_simple(cat.avec_of(_parse_monomial(args.monomial)))
        # written on the Y-monomials at the positions, for output
        x = cat.yt.element((cat.monomial_of_avec(cat.xt.exponents(k)), c) for k, c in x.terms.items())
    elif args.what == "standard":
        m = _parse_monomial(args.monomial)
        x = standard_tchar(fundamental_window(qc, m), m)
    else:
        m = _parse_monomial(args.monomial)
        x = simple_tchar(simple_window(qc, m), m)
    _emit(args, lambda: [x.render()], lambda: {"kind": kind, "terms": x.to_json()})
    return 0


def cmd_tsystem(args) -> int:
    cd = cartan_datum(args.type)
    a, g = tsystem_exponents(quantum_cartan(cd), args.i, args.k)
    _emit(
        args,
        lambda: [f"alpha({args.i},{args.k}) = {a}", f"gamma({args.i},{args.k}) = {g}"],
        lambda: {"alpha": [a.numerator, a.denominator], "gamma": [g.numerator, g.denominator]},
    )
    return 0


def cmd_dominant_pairs(args) -> int:
    cd = cartan_datum(args.type)
    quiver = _parse_quiver(args, cd)
    cat = CategoryQ(QuiverContext(quiver))
    d = cat.dimension_vector(_parse_int(tok, "--d", "an integer") for tok in args.d.split(","))
    # a row holds its r exponents and, in text, each root once per copy: the
    # table is refused at the first row past the cap, before any row is built
    sizes = accumulate(cat.xt.r + sum(a) for a in iter_kostant_partitions(cat.roots, d))
    if any(size > MAX_TABLE for size in sizes):
        raise ResourceCap(f"dominant-pairs: table of more than {MAX_TABLE} integers")
    rows = cat.dominant_pairs(d)

    def line(row) -> str:
        parts = []
        for k, c in enumerate(row["avec"]):
            if c:
                parts.extend(["(" + _root_name(cat.roots[k]) + ")"] * c)
        acol = "".join(
            f"A[{i},{s}]" + (f"^{c}" if c > 1 else "")
            for (i, s), c in sorted(row["a_column"].items(), key=lambda t: (t[0][1], t[0][0]))
        )
        return f"{'+'.join(parts) or '()'}  <->  {render_monomial(row['monomial'])}  <->  {acol or '1'}"

    _emit(
        args,
        lambda: [line(row) for row in rows],
        lambda: {
            "rows": [
                {
                    "avec": list(row["avec"]),
                    "monomial": [[i, p, e] for (i, p), e in monomial_items(row["monomial"])],
                    "a_column": [[i, s, c] for (i, s), c in sorted(row["a_column"].items())],
                }
                for row in rows
            ]
        },
    )
    return 0


def cmd_canonical(args) -> int:
    cd = cartan_datum(args.type)
    quiver = _parse_quiver(args, cd)
    with quantum_group_side(quiver) as qg:
        report = qg.verify_mainth(args.degree_bound)
        ok = all(r["simple_matches_dual_canonical"] and r["standard_matches_dual_pbw"] for r in report)
        if args.format == "json":
            # what `_emit` prints for {"ok", "rows"}, each row the text its side encoded once
            print(f'{{"ok": {json.dumps(ok)}, "rows": [{", ".join(map(qg.row_json, report))}]}}')
            return 0 if ok else 2
    # the side's positions, moved in p to the heights of the request
    shift = quiver.xi[0] - qg.cat.quiver.xi[0]
    positions = [(i, p + shift) for i, p in qg.cat.positions]
    for r in report:
        print(
            f"a={','.join(map(str, r['avec']))} m={render_monomial(dict(zip(positions, r['avec'])))} "
            f"simple->dual-canonical: {'ok' if r['simple_matches_dual_canonical'] else 'FAIL'} "
            f"standard->dual-PBW: {'ok' if r['standard_matches_dual_pbw'] else 'FAIL'}"
        )
    return 0 if ok else 2


def cmd_hall(args) -> int:
    cd = cartan_datum(args.type)
    quiver = _parse_quiver(args, cd)
    if args.what in ("gamma", "number"):
        word = AdaptedWord.build(quiver)
        # number takes no --t
        iso = {f: _parse_iso(getattr(args, f), f"--{f}", word) for f in "xytw" if hasattr(args, f)}
    else:
        _check_width(args, f"--mmax {args.mmax}", args.mmax + 1, cd)
    if args.what == "iota" and args.max_len > MAX_WORD_LENGTH:
        raise ResourceCap(f"hall iota: --max-len {args.max_len} above cap {MAX_WORD_LENGTH}")
    if args.what == "iota" and args.max_len < 1:
        raise ValueError(f"maximum word length {args.max_len} selects no product to compare")
    if args.what == "gamma":
        g = toen_gamma(derived_hall(word, args.q), iso["x"], iso["y"], iso["t"], iso["w"])
        _emit(args, lambda: [f"gamma = {g}"], lambda: {"gamma": [g.numerator, g.denominator]})
        return 0
    if args.what == "number":
        g = hall_number(iso["x"], iso["y"], iso["w"], word, args.q)
        _emit(args, lambda: [f"g^W_(X,Y) = {g}"], lambda: {"hall_number": g})
        return 0
    if args.what == "relations":
        fails = check_h_relations(derived_hall(AdaptedWord.build(quiver), args.q), range(args.mmax + 1))
        const = constant_identity_holds(args.q)
        ok = const and not fails
        _emit(
            args,
            lambda: [f"constant identity: {'ok' if const else 'FAIL'}", f"relation failures: {len(fails)}"],
            lambda: {"constant_identity": const, "failures": [list(map(str, f)) for f in fails]},
        )
        return 0 if ok else 2
    with quantum_group_side(quiver) as qg:
        rep = iota_check(qg.cat, args.q, max_len=args.max_len, m_offsets=range(args.mmax + 1))
    witnesses = [(",".join(map(str, w)), ",".join(map(str, a)), why) for w, a, why in rep["witnesses"]]
    _emit(
        args,
        lambda: [
            f"constant identity: {'ok' if rep['constant_identity'] else 'FAIL'}",
            f"relation failures: {len(rep['relation_failures'])}",
            f"scalar table consistent: {rep['consistent']}",
        ]
        + [f"  a={','.join(map(str, a))}: {s}" for a, s in sorted(rep["scalars"].items())]
        + [f"witness: word {w} at a={a}: {why}" for w, a, why in witnesses],
        lambda: {
            "ok": rep["ok"],
            "scalars": {",".join(map(str, a)): repr(s) for a, s in rep["scalars"].items()},
        }
        | ({"witnesses": [{"word": w, "a": a, "reason": why} for w, a, why in witnesses]} if witnesses else {}),
    )
    return 0 if rep["ok"] else 2


def cmd_presentation(args) -> int:
    cd = cartan_datum(args.type)
    quiver = _parse_quiver(args, cd)
    lo, hi = _parse_range(args.m_range, "--m-range")
    _check_width(args, f"--m-range {lo}..{hi}", hi - lo + 1, cd)
    pres = Presentation(QuiverContext(quiver))
    fails = pres.verify_relations(lo, hi)
    _emit(
        args,
        lambda: [f"presentation relation failures: {len(fails)}"],
        lambda: {"ok": not fails, "failures": [str(f) for f in fails]},
    )
    return 0 if not fails else 2


def _verify_all(args) -> int:
    """Desk-scale end-to-end verification battery."""
    checks: list[tuple[str, bool]] = []

    qc4 = quantum_cartan(cartan_datum("A4"))
    a4 = {
        (1, 1): {1: 1, 9: -1, 11: 1, 19: -1},
        (1, 2): {2: 1, 8: -1, 12: 1, 18: -1},
        (1, 3): {3: 1, 7: -1, 13: 1, 17: -1},
        (1, 4): {4: 1, 6: -1, 14: 1, 16: -1},
        (2, 2): {1: 1, 3: 1, 7: -1, 9: -1, 11: 1, 13: 1, 17: -1, 19: -1},
        (2, 3): {2: 1, 4: 1, 6: -1, 8: -1, 12: 1, 14: 1, 16: -1, 18: -1},
        (2, 4): {3: 1, 7: -1, 13: 1, 17: -1},
    }
    ok = all(
        qc4.series(i, j, 19) == [a4[(i, j)].get(m, 0) for m in range(1, 20)]
        for (i, j) in a4
    ) and qc4.series(2, 1, 19) == qc4.series(1, 2, 19)
    checks.append(("quantum Cartan inverse series (rank 4)", ok))

    for name in ("A4", "D4"):
        qc = quantum_cartan(cartan_datum(name))
        ok = all(
            qc.ctilde(i, j, m) == qc.series_coeff(i, j, m)
            for i in qc.cartan.vertices
            for j in qc.cartan.vertices
            for m in range(1, 2 * qc.h + 1)
        )
        checks.append((f"series route agrees with the table ({name})", ok))

    for name in ("A2", "A3", "D4"):
        cd = cartan_datum(name)
        qc = quantum_cartan(cd)
        q = QuiverDatum.bipartite(cd)
        h = cd.coxeter_number()
        ok = all(
            qc.ctilde(i, j, m) == qc.ar_value(i, j, m, q)
            for i in cd.vertices
            for j in cd.vertices
            for m in range(1, 2 * h + 1)
        )
        checks.append((f"two-route inverse agreement ({name})", ok))

    with quantum_group_side(QuiverDatum.from_xi(cartan_datum("A3"), (2, 3, 2))) as qg:
        rep = qg.verify_mainth(2)
        ok = all(r["simple_matches_dual_canonical"] and r["standard_matches_dual_pbw"] for r in rep)
        checks.append(("rank-3 simples match the dual canonical basis (degree 2)", ok))
        checks.append(("rank-3 quantum Serre relations", not qg.serre_check()))
        cats = (("A3", qg.cat), ("D4", CategoryQ(QuiverContext(QuiverDatum.bipartite(cartan_datum("D4"))))))
        for name, c in cats:
            ok = all(c.truncated_fundamental(i, p) == c.kr(i, 1, p) for i, p in c.positions)
            checks.append((f"truncated fundamentals equal the T-system classes ({name})", ok))

    pres = Presentation(QuiverContext(QuiverDatum.from_xi(cartan_datum("A2"), (0, 1))))
    checks.append(("rank-2 presentation relations", not pres.verify_relations(0, 2)))

    with quantum_group_side(QuiverDatum.from_xi(cartan_datum("A2"), (2, 1))) as qg:
        rep = iota_check(qg.cat, 2, max_len=2, m_offsets=range(2))
    checks.append(("rank-2 Hall specialization (q=2)", rep["ok"]))

    _emit(
        args,
        lambda: [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks],
        lambda: {"checks": [{"name": n, "ok": o} for n, o in checks]},
    )
    return 0 if all(ok for _, ok in checks) else 2


def build_parser() -> argparse.ArgumentParser:
    """One parser per subcommand, and per kind of `qchar`, `hall` and
    `verify`: each takes exactly the flags it reads, each required or with
    its default, so argparse refuses any other.  No parser reads a flag by a
    prefix of its name."""
    ap = argparse.ArgumentParser(prog="qgroth", allow_abbrev=False)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def leaf(parent, name, fn, help=None, diagram=True, quiver=True):
        """The parser of name under parent, run by fn: --format, --config,
        --type if diagram, and --xi or --arrows, not both, if quiver."""
        p = parent.add_parser(name, help=help, allow_abbrev=False)
        if diagram:
            p.add_argument("--type", required=True, help="diagram type, e.g. A4, D5, E6")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--config", help="JSON file of default flag values (flags win)")
        if quiver:
            orientation = p.add_mutually_exclusive_group()
            orientation.add_argument("--xi", help="height function, comma-separated")
            orientation.add_argument("--arrows", help="orientation, e.g. 2-1,2-3 for arrows 2->1, 2->3")
        p.set_defaults(fn=fn)
        return p

    def kinds(name, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        return p.add_subparsers(dest="what", required=True)

    p = leaf(sub, "qcartan", cmd_qcartan, "inverse quantum Cartan matrix series", quiver=False)
    p.add_argument("--mmax", type=int, default=20)

    p = leaf(sub, "phi", cmd_phi, "repetition-quiver labelling table")
    p.add_argument("--window", default="-6..6", help="p-range lo..hi")

    qchar = kinds("qchar", "characters")
    for what in ("fundamental", "kr"):
        p = leaf(qchar, what, cmd_qchar, quiver=what == "kr")
        p.add_argument("--i", type=int, required=True)
        p.add_argument("--p", type=int, required=True)
        if what == "kr":
            p.add_argument("--s", type=int, default=1)
    for what in ("standard", "simple", "truncate"):
        p = leaf(qchar, what, cmd_qchar, quiver=what == "truncate")
        p.add_argument("-m", "--monomial", required=True, help='dominant monomial, e.g. "Y[1,0]Y[2,1]^2"')

    p = leaf(sub, "tsystem", cmd_tsystem, "deformed T-system exponents", quiver=False)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = leaf(sub, "dominant-pairs", cmd_dominant_pairs, "root decompositions vs dominant monomials")
    p.add_argument("--d", required=True, help="dimension vector, comma-separated")

    p = leaf(sub, "canonical", cmd_canonical, "dual canonical basis and the main comparison")
    p.add_argument("--degree-bound", type=int, default=3)

    hall = kinds("hall", "Hall numbers and derived Hall relations")
    for what, isoclasses in (("gamma", "xytw"), ("number", "xyw"), ("relations", ""), ("iota", "")):
        p = leaf(hall, what, cmd_hall)
        p.add_argument("--q", type=int, required=True)
        for f in isoclasses:
            p.add_argument(f"--{f}", required=True)
        if not isoclasses:
            p.add_argument("--mmax", type=int, default=3, help="levels 0..mmax")
        if what == "iota":
            p.add_argument("--max-len", type=int, default=3, help="longest word")

    verify = kinds("verify", "verification batteries")
    p = leaf(verify, "presentation", cmd_presentation)
    p.add_argument("--m-range", default="0..3", help="levels lo..hi")
    p = leaf(verify, "mainth", cmd_canonical)
    p.add_argument("--degree-bound", type=int, default=3)
    leaf(verify, "all", _verify_all, diagram=False, quiver=False)

    return ap


# One parser per process: parse_args fills a fresh namespace on every call.
PARSER = build_parser()


def _apply_config(argv: list[str], ap: argparse.ArgumentParser) -> list[str]:
    """Merge an optional JSON config file (--config FILE or --config=FILE) into
    the argument list.  Each key must name a valued option of the subcommand
    and kind; its entry goes in front of the explicit flags, so any spelling of
    a flag given on the command line (-m, --monomial=...) wins."""
    idx = next((k for k, tok in enumerate(argv) if tok.partition("=")[0] == "--config"), None)
    if idx is None:
        return argv
    _, eq, path = argv[idx].partition("=")
    if not eq:
        if idx + 1 == len(argv):
            raise ValueError("--config requires a FILE")
        path = argv[idx + 1]
    argv = argv[:idx] + argv[idx + (1 if eq else 2) :]
    with open(path) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError("--config FILE must hold a JSON object")
    # down to the leaf: a parser with subcommands has no valued options, so
    # its next word is the subcommand
    at, words = -1, []
    while subs := next((a.choices for a in ap._actions if isinstance(a, argparse._SubParsersAction)), None):
        at = next((k for k in range(at + 1, len(argv)) if not argv[k].startswith("-")), None)
        if at is None or argv[at] not in subs:
            return argv  # argparse names the missing or unknown subcommand
        ap = subs[argv[at]]
        words.append(argv[at])
    # a config file cannot name another one
    valued = {s for a in ap._actions if a.nargs != 0 for s in a.option_strings} - {"--config"}
    entries = []
    for key, value in conf.items():
        flag = "--" + key.replace("_", "-")
        if flag not in valued:
            raise ValueError(f"config key {key!r} is not an option of {' '.join(words)}")
        entries.append(f"{flag}={value}")
    return argv[: at + 1] + entries + argv[at + 1 :]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = PARSER.parse_args(_apply_config(list(argv), PARSER))
        return args.fn(args)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    except ResourceCap as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource cap exceeded: out of memory", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a library bug, not a user's mistake: named by its type, no traceback
        print(f"internal check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
