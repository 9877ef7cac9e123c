"""Sweep the ladder construction over p and print a residual table.

Builds the default-base ladder representation for every coprime root label,
verifies the defining relations, and checks cyclicity.  A quick way to see
the whole pipeline hold together at growing dimension.

Usage: python scripts/ladder_sweep.py [--max-p 25] [--all-k]
"""

import argparse
from math import gcd

from hallrep import PrimitiveRoot, build_ladder, cyclicity_check, verify_relations


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=int, default=25)
    parser.add_argument("--all-k", action="store_true", help="sweep every coprime k, not just k = 1")
    args = parser.parse_args()

    header = f"{'p':>3} {'k':>3} {'dim':>4} {'commutator':>12} {'conjugation':>12} {'|E^N scalar|':>13} {'cyclic':>7}"
    print(header)
    print("-" * len(header))
    for p in range(1, args.max_p + 1):
        order = 2 * p + 1
        labels = [k for k in range(1, order) if gcd(k, order) == 1] if args.all_k else [1]
        for k in labels:
            root = PrimitiveRoot(p, k)
            rep = build_ladder(root)
            rpt = verify_relations(rep.k_mat, rep.e_plus, rep.e_minus, root)
            cyc = cyclicity_check(rep)
            print(
                f"{p:>3} {k:>3} {order:>4} {rpt.commutator_residual:>12.2e} "
                f"{rpt.conjugation_residual_minus:>12.2e} {abs(cyc.epow_scalar):>13.4e} "
                f"{str(cyc.is_cyclic):>7}"
            )


if __name__ == "__main__":
    main()
