#!/usr/bin/env python3
"""Print the K-data sheet for every bundled group, plus the singular
class tables of the two dicyclic groups in the amalgam case study."""

from lowerk.casebook import rows_to_table
from lowerk.fusion import Rational, count_irreducibles, p_singular_classes, sc_rank
from lowerk.groups import build_group, dicyclic_group
from lowerk.ktheory import BUNDLED_KSHEETS, carter_rank, k_minus1
from lowerk.errors import UnknownSchurData


def main() -> None:
    header = ("group", "|G|", "r_Q", "sc", "carter", "K_-1", "K0~", "Wh")
    rows = [header]
    for name in sorted(BUNDLED_KSHEETS):
        G = build_group(name)
        sheet = BUNDLED_KSHEETS[name]
        try:
            km1 = str(k_minus1(G))
        except UnknownSchurData:
            km1 = "?"
        rows.append((name, str(G.order), str(count_irreducibles(G, Rational())),
                     str(sc_rank(G)), str(carter_rank(G)), km1,
                     str(sheet.entries["K0t"]), str(sheet.entries["Wh"])))
    print(rows_to_table(rows))

    print()
    for G, p in ((dicyclic_group(12, ("w", "z")), 2),
                 (dicyclic_group(12, ("w", "z")), 3),
                 (build_group("dicyclic:24"), 2),
                 (build_group("dicyclic:24"), 3)):
        classes = p_singular_classes(G, p)
        print(f"{p}-singular classes of {G.name}:")
        for order, cls in classes:
            print(f"  order {order:2d}: {{{', '.join(G.element_names[i] for i in cls)}}}")
        print()


if __name__ == "__main__":
    main()
