"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 verification failure or a failed
internal check, 3 resource cap or a refused t-lift.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .cartan import CartanDatum, ResourceCap, cartan_datum
from .characters import (
    CategoryQ,
    NonMultiplicityFree,
    fundamental_tchar,
    simple_tchar,
    standard_tchar,
    tsystem_exponents,
)
from .hall import (
    DerivedHall,
    IsoClass,
    check_h_relations,
    constant_identity_holds,
    hall_number,
    iota_check,
    toen_gamma,
)
from .presentation import Presentation
from .qcartan import quantum_cartan
from .qgroup import QGroupSide
from .quiver import QuiverContext, QuiverDatum
from .torus import Monomial, TorusElement, YTorus


class VerificationFailure(RuntimeError):
    pass


def _parse_quiver(args, cartan: CartanDatum) -> QuiverDatum:
    if getattr(args, "xi", None):
        xi = tuple(int(x) for x in args.xi.split(","))
        return QuiverDatum.from_xi(cartan, xi)
    if getattr(args, "arrows", None):
        arrows = []
        for tok in args.arrows.split(","):
            a, b = tok.split("-")
            arrows.append((int(a), int(b)))
        return QuiverDatum.from_arrows(cartan, arrows)
    return QuiverDatum.bipartite(cartan)


def _parse_monomial(text: str) -> Monomial:
    exps: dict[tuple[int, int], int] = {}
    pos = 0
    pat = re.compile(r"\s*Y\[(-?\d+),(-?\d+)\](?:\^(-?\d+))?\s*")
    while pos < len(text):
        m = pat.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse monomial near: {text[pos:]!r}")
        i, p = int(m.group(1)), int(m.group(2))
        e = int(m.group(3)) if m.group(3) else 1
        exps[(i, p)] = exps.get((i, p), 0) + e
        pos = m.end()
    return Monomial(exps)


def _parse_iso(text: str, cartan: CartanDatum) -> IsoClass:
    """Interval multiset syntax for type A: '1-2*2,3' for two copies of the
    interval [1,2] plus the simple at 3; '0' is the zero class."""
    text = text.strip()
    if text in ("0", ""):
        return IsoClass({})
    mults: dict[tuple[int, ...], int] = {}
    for tok in text.split(","):
        tok = tok.strip()
        mult = 1
        if "*" in tok:
            tok, ms = tok.split("*")
            mult = int(ms)
        if "-" in tok:
            a, b = (int(x) for x in tok.split("-"))
        else:
            a = b = int(tok)
        root = tuple(1 if a <= v <= b else 0 for v in range(1, cartan.n + 1))
        mults[root] = mults.get(root, 0) + mult
    return IsoClass(mults)


def _root_name(cartan: CartanDatum, w) -> str:
    rc = cartan.root_coords(w)
    return "+".join(
        (f"{c}a{i+1}" if c != 1 else f"a{i+1}") for i, c in enumerate(rc) if c
    )


def _emit(args, text_lines, json_obj) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


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
    cd = cartan_datum(args.type)
    qc = quantum_cartan(cd)
    lines = []
    obj = {"type": args.type, "mmax": args.mmax, "series": {}}
    for i in cd.vertices:
        for j in cd.vertices:
            coeffs = qc.series(i, j, args.mmax)
            lines.append(f"C~[{i},{j}](z) = {_series_text(coeffs)}")
            obj["series"][f"{i},{j}"] = coeffs
    _emit(args, lines, obj)
    return 0


def cmd_phi(args) -> int:
    cd = cartan_datum(args.type)
    quiver = _parse_quiver(args, cd)
    ctx = QuiverContext(quiver)
    lo, hi = (int(x) for x in args.window.split(".."))
    lines = []
    rows = []
    for i in cd.vertices:
        for p in range(lo, hi + 1):
            if quiver.in_ihat(i, p):
                beta, m = ctx.phi.phi(i, p)
                lines.append(f"phi({i},{p}) = ({_root_name(cd, beta)}, {m})")
                rows.append({"i": i, "p": p, "root": list(cd.root_coords(beta)), "m": m})
    _emit(args, lines, {"type": args.type, "quiver": quiver.to_json(), "phi": rows})
    return 0


def _element_lines(x, var="t"):
    return [x.render(var)]


def _y_keyed(cat: CategoryQ, x: TorusElement) -> TorusElement:
    """A rank-r torus element written on Y-monomials, for output."""
    return TorusElement(cat.yt, {cat.monomial_of_avec(a): c for a, c in x.terms.items()})


# The flags each qchar subcommand needs; argparse cannot require them per choice.
_QCHAR_FLAGS = {
    "fundamental": (("i", "--i"), ("p", "--p")),
    "kr": (("i", "--i"), ("p", "--p")),
    "standard": (("monomial", "-m/--monomial"),),
    "simple": (("monomial", "-m/--monomial"),),
    "truncate": (("monomial", "-m/--monomial"),),
}


def cmd_qchar(args) -> int:
    missing = [flag for dest, flag in _QCHAR_FLAGS[args.what] if getattr(args, dest) is None]
    if missing:
        raise ValueError(f"qchar {args.what} requires {' and '.join(missing)}")
    cd = cartan_datum(args.type)
    yt = YTorus(quantum_cartan(cd))
    if args.what == "fundamental":
        try:
            x = fundamental_tchar(yt, args.i, args.p)
        except NonMultiplicityFree as exc:
            lines = [
                "t-lift refused: classical character has monomial multiplicities > 1",
                "classical character:",
            ] + [
                f"  {c} {m.render()}" for m, c in sorted(exc.classical.items(), key=lambda t: t[0].sort_key())
            ]
            _emit(
                args,
                lines,
                {
                    "kind": "classical-only",
                    "terms": [[m.to_json(), c] for m, c in sorted(exc.classical.items(), key=lambda t: t[0].sort_key())],
                },
            )
            return 0
        _emit(args, _element_lines(x), {"kind": "fundamental", "terms": x.to_json()})
        return 0
    if args.what in ("kr", "truncate"):
        quiver = _parse_quiver(args, cd)
        cat = CategoryQ(QuiverContext(quiver))
        if args.what == "kr":
            x = _y_keyed(cat, cat.kr(args.i, args.s, args.p))
            _emit(args, _element_lines(x), {"kind": "kr", "terms": x.to_json()})
        else:
            a = cat.avec_of(_parse_monomial(args.monomial))
            x = _y_keyed(cat, cat.truncated_simple(a))
            _emit(args, _element_lines(x), {"kind": "truncated-simple", "terms": x.to_json()})
        return 0
    m = _parse_monomial(args.monomial)
    x = standard_tchar(yt, m) if args.what == "standard" else simple_tchar(yt, m)
    _emit(args, _element_lines(x), {"kind": args.what, "terms": x.to_json()})
    return 0


def cmd_tsystem(args) -> int:
    cd = cartan_datum(args.type)
    a, g = tsystem_exponents(quantum_cartan(cd), args.i, args.k)
    _emit(
        args,
        [f"alpha({args.i},{args.k}) = {a}", f"gamma({args.i},{args.k}) = {g}"],
        {"alpha": [a.numerator, a.denominator], "gamma": [g.numerator, g.denominator]},
    )
    return 0


def cmd_dominant_pairs(args) -> int:
    cd = cartan_datum(args.type)
    quiver = _parse_quiver(args, cd)
    cat = CategoryQ(QuiverContext(quiver))
    d = tuple(int(x) for x in args.d.split(","))
    rows = cat.dominant_pairs(d)
    lines = []
    out = []
    for row in rows:
        avec = row["avec"]
        parts = []
        for k, c in enumerate(avec):
            if c:
                name = "(" + _root_name(cd, cat.qctx.word.betas[k]) + ")"
                parts.extend([name] * c)
        acol = "".join(
            f"A[{i},{s}]" + (f"^{c}" if c > 1 else "")
            for (i, s), c in sorted(row["a_column"].items(), key=lambda t: (t[0][1], t[0][0]))
        )
        lines.append(f"{'+'.join(parts) or '()'}  <->  {row['monomial'].render() or '1'}  <->  {acol or '1'}")
        out.append(
            {
                "avec": list(avec),
                "monomial": row["monomial"].to_json(),
                "a_column": [[i, s, c] for (i, s), c in sorted(row["a_column"].items())],
            }
        )
    _emit(args, lines, {"rows": out})
    return 0


def cmd_canonical(args) -> int:
    cd = cartan_datum(args.type)
    quiver = _parse_quiver(args, cd)
    cat = CategoryQ(QuiverContext(quiver))
    qg = QGroupSide(cat)
    report = qg.verify_mainth(args.degree_bound)
    lines = []
    rows = []
    ok = True
    for r in report:
        good = r["simple_matches_dual_canonical"] and r["standard_matches_dual_pbw"]
        ok = ok and good
        lines.append(
            f"a={','.join(map(str, r['avec']))} m={cat.monomial_of_avec(r['avec']).render()} "
            f"simple->dual-canonical: {'ok' if r['simple_matches_dual_canonical'] else 'FAIL'} "
            f"standard->dual-PBW: {'ok' if r['standard_matches_dual_pbw'] else 'FAIL'}"
        )
        rows.append(
            {
                "avec": list(r["avec"]),
                "dual_canonical": qg.b_tilde(r["avec"]).to_json(),
                "simple_ok": r["simple_matches_dual_canonical"],
                "standard_ok": r["standard_matches_dual_pbw"],
            }
        )
    _emit(args, lines, {"rows": rows, "ok": ok})
    return 0 if ok else 2


def cmd_hall(args) -> int:
    cd = cartan_datum(args.type)
    quiver = _parse_quiver(args, cd)
    if args.what == "gamma":
        x = _parse_iso(args.x, cd)
        y = _parse_iso(args.y, cd)
        t = _parse_iso(args.t, cd)
        w = _parse_iso(args.w, cd)
        g = toen_gamma(x, y, t, w, quiver, args.q)
        _emit(args, [f"gamma = {g}"], {"gamma": [g.numerator, g.denominator]})
        return 0
    if args.what == "number":
        x = _parse_iso(args.x, cd)
        y = _parse_iso(args.y, cd)
        w = _parse_iso(args.w, cd)
        g = hall_number(x, y, w, quiver, args.q)
        _emit(args, [f"g^W_(X,Y) = {g}"], {"hall_number": g})
        return 0
    if args.what == "relations":
        dh = DerivedHall(quiver, args.q)
        fails = check_h_relations(dh, range(args.mmax + 1))
        const = constant_identity_holds(args.q)
        ok = const and not fails
        _emit(
            args,
            [f"constant identity: {'ok' if const else 'FAIL'}", f"relation failures: {len(fails)}"],
            {"constant_identity": const, "failures": [list(map(str, f)) for f in fails]},
        )
        return 0 if ok else 2
    if args.what == "iota":
        cat = CategoryQ(QuiverContext(quiver))
        rep = iota_check(cat, args.q, max_len=args.max_len, m_offsets=range(args.mmax + 1))
        lines = [
            f"constant identity: {'ok' if rep['constant_identity'] else 'FAIL'}",
            f"relation failures: {len(rep['relation_failures'])}",
            f"scalar table consistent: {rep['consistent']}",
        ] + [f"  a={','.join(map(str, a))}: {s}" for a, s in sorted(rep["scalars"].items())]
        _emit(
            args,
            lines,
            {
                "ok": rep["ok"],
                "scalars": {",".join(map(str, a)): repr(s) for a, s in rep["scalars"].items()},
            },
        )
        return 0 if rep["ok"] else 2
    raise ValueError(f"unknown hall subcommand {args.what}")


def cmd_verify(args) -> int:
    if args.what == "presentation":
        cd = cartan_datum(args.type)
        quiver = _parse_quiver(args, cd)
        lo, hi = (int(x) for x in args.m_range.split(".."))
        pres = Presentation(QuiverContext(quiver))
        fails = pres.verify_relations(lo, hi)
        _emit(
            args,
            [f"presentation relation failures: {len(fails)}"],
            {"ok": not fails, "failures": [str(f[:4]) for f in fails]},
        )
        return 0 if not fails else 2
    if args.what == "mainth":
        return cmd_canonical(args)
    if args.what == "all":
        return _verify_all(args)
    raise ValueError(f"unknown verify subcommand {args.what}")


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

    cd = cartan_datum("A3")
    cat = CategoryQ(QuiverContext(QuiverDatum.from_xi(cd, (2, 3, 2))))
    qg = QGroupSide(cat)
    rep = qg.verify_mainth(2)
    ok = all(r["simple_matches_dual_canonical"] and r["standard_matches_dual_pbw"] for r in rep)
    checks.append(("rank-3 simples match the dual canonical basis (degree 2)", ok))
    checks.append(("rank-3 quantum Serre relations", not qg.serre_check()))

    pres = Presentation(QuiverContext(QuiverDatum.from_xi(cartan_datum("A2"), (0, 1))))
    checks.append(("rank-2 presentation relations", not pres.verify_relations(0, 2)))

    cat2 = CategoryQ(QuiverContext(QuiverDatum.from_xi(cartan_datum("A2"), (2, 1))))
    rep = iota_check(cat2, 2, max_len=2, m_offsets=range(2))
    checks.append(("rank-2 Hall specialization (q=2)", rep["ok"]))

    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    _emit(args, lines, {"checks": [{"name": n, "ok": o} for n, o in checks]})
    return 0 if all(ok for _, ok in checks) else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qgroth")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, quiver=True):
        p.add_argument("--type", required=True, help="diagram type, e.g. A4, D5, E6")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--config", help="JSON file of default flag values (flags win)")
        p.add_argument("--cache-dir", dest="cache_dir", help="memo-table cache directory")
        if quiver:
            p.add_argument("--xi", help="height function, comma-separated")
            p.add_argument("--arrows", help="orientation, e.g. 2-1,2-3 for arrows 2->1, 2->3")

    p = sub.add_parser("qcartan", help="inverse quantum Cartan matrix series")
    common(p, quiver=False)
    p.add_argument("--mmax", type=int, default=20)
    p.set_defaults(fn=cmd_qcartan)

    p = sub.add_parser("phi", help="repetition-quiver labelling table")
    common(p)
    p.add_argument("--window", default="-6..6", help="p-range lo..hi")
    p.set_defaults(fn=cmd_phi)

    p = sub.add_parser("qchar", help="characters")
    p.add_argument("what", choices=("fundamental", "kr", "standard", "simple", "truncate"))
    common(p)
    p.add_argument("--i", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("-m", "--monomial", help='dominant monomial, e.g. "Y[1,0]Y[2,1]^2"')
    p.set_defaults(fn=cmd_qchar)

    p = sub.add_parser("tsystem", help="deformed T-system exponents")
    common(p, quiver=False)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_tsystem)

    p = sub.add_parser("dominant-pairs", help="root decompositions vs dominant monomials")
    common(p)
    p.add_argument("--d", required=True, help="dimension vector, comma-separated")
    p.set_defaults(fn=cmd_dominant_pairs)

    p = sub.add_parser("canonical", help="dual canonical basis and the main comparison")
    common(p)
    p.add_argument("--degree-bound", type=int, default=3, dest="degree_bound")
    p.set_defaults(fn=cmd_canonical)

    p = sub.add_parser("hall", help="Hall numbers and derived Hall relations")
    p.add_argument("what", choices=("gamma", "number", "relations", "iota"))
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--t")
    p.add_argument("--w")
    p.add_argument("--mmax", type=int, default=3)
    p.add_argument("--max-len", type=int, default=3, dest="max_len")
    p.set_defaults(fn=cmd_hall)

    p = sub.add_parser("verify", help="verification batteries")
    p.add_argument("what", choices=("presentation", "mainth", "all"))
    common(p)
    p.add_argument("--m-range", default="0..3", dest="m_range")
    p.add_argument("--degree-bound", type=int, default=3, dest="degree_bound")
    p.add_argument("--desk", action="store_true", help="desk-scale battery")
    p.set_defaults(fn=cmd_verify)

    return ap


def _apply_config(argv: list[str]) -> list[str]:
    """Merge an optional JSON config file into the argument list.  Explicit
    flags win: config entries are appended only when the flag is absent."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    path = argv[idx + 1]
    argv = argv[:idx] + argv[idx + 2 :]
    with open(path) as fh:
        conf = json.load(fh)
    for key, value in conf.items():
        flag = "--" + key.replace("_", "-")
        if flag not in argv:
            argv += [flag, str(value)]
    return argv


def _cache_path(cache_dir: str):
    import os

    return os.path.join(cache_dir, "inverse-tables.v1.json")


def _load_cache(cache_dir: str) -> None:
    import os

    from . import qcartan as qcartan_mod

    path = _cache_path(cache_dir)
    if os.path.exists(path):
        with open(path) as fh:
            qcartan_mod.load_tables_json(json.load(fh))


def _save_cache(cache_dir: str) -> None:
    import os

    from . import qcartan as qcartan_mod

    os.makedirs(cache_dir, exist_ok=True)
    with open(_cache_path(cache_dir), "w") as fh:
        json.dump(qcartan_mod.tables_to_json(), fh, sort_keys=True)


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _apply_config(list(argv))
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    except (OSError, json.JSONDecodeError, IndexError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    cache_dir = getattr(args, "cache_dir", None)
    try:
        if cache_dir:
            _load_cache(cache_dir)
        code = args.fn(args)
        if cache_dir:
            _save_cache(cache_dir)
        return code
    except ResourceCap as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except NonMultiplicityFree as exc:
        print(f"not computable: {exc}", file=sys.stderr)
        return 3
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
