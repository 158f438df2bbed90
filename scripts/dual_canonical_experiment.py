#!/usr/bin/env python3
"""Compute all truncated simple classes of bounded degree for one orientation,
match them against the rescaled dual canonical basis, and print the
standard-to-simple transition polynomials per weight space.

Usage: python scripts/dual_canonical_experiment.py [TYPE] [XI] [DEGREE]
e.g.   python scripts/dual_canonical_experiment.py A3 2,3,2 3
"""

import sys

from qgroth import CategoryQ, QGroupSide, QuiverContext, QuiverDatum, cartan_datum
from qgroth.characters import expand_in_dominant_basis


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "A3"
    xi = tuple(int(x) for x in sys.argv[2].split(",")) if len(sys.argv) > 2 else None
    degree = int(sys.argv[3]) if len(sys.argv) > 3 else 3
    cd = cartan_datum(name)
    quiver = QuiverDatum.from_xi(cd, xi) if xi else QuiverDatum.bipartite(cd)
    cat = CategoryQ(QuiverContext(quiver))
    qg = QGroupSide(cat)
    report = qg.verify_mainth(degree)
    matched = 0
    for r in report:
        ok = r["simple_matches_dual_canonical"] and r["standard_matches_dual_pbw"]
        matched += ok
        if not ok:
            print("MISMATCH at", r["avec"])
    print(f"{matched} simple classes matched the rescaled dual canonical basis")
    print()
    print("transition polynomials (nontrivial weight spaces):")
    seen = set()
    for r in report:
        deg = cat.root_of(r["avec"])
        if deg in seen:
            continue
        seen.add(deg)
        depth = cat.depths(deg)
        if len(depth) < 2:
            continue
        avec = cat.xt.exponents
        basis = {c: qg.e_tilde(avec(c)) for c in depth}
        print(f"  weight {deg}:")
        for a in depth:
            coeffs = expand_in_dominant_basis(qg.b_tilde(avec(a)), basis, depth)
            row = {avec(k): v.render("v") for k, v in coeffs.items() if not v.is_zero()}
            print(f"    B~{avec(a)} = " + " + ".join(f"({c}) E~{k}" for k, c in sorted(row.items())))


if __name__ == "__main__":
    main()
