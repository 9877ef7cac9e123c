"""Compare the exact Gram matrix of a Laughlin family against Monte Carlo.

Prints both matrices side by side with the per-entry deviation in units of
the reported standard error, and optionally dumps the Monte Carlo matrix as
CSV for plotting.

Usage: python scripts/gram_demo.py [--samples 1000000] [--seed 0] [--csv out.csv]
"""

import argparse

from hallrep import LaughlinSpec, gram_matrix


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exponents", type=lambda s: [int(x) for x in s.split(",")],
                        default=[1, 3, 5], help="comma-separated odd exponents")
    parser.add_argument("--electrons", type=int, default=2)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--csv", default=None, help="write the MC Gram matrix as CSV")
    args = parser.parse_args()

    specs = [LaughlinSpec(m, args.electrons) for m in args.exponents]
    exact = gram_matrix(specs, "exact").value.real
    mc = gram_matrix(specs, "mc", samples=args.samples, seed=args.seed, workers=args.workers)
    values, errs = mc.value.real, mc.stderr

    print(f"Laughlin exponents {args.exponents}, {args.electrons} electrons, "
          f"{args.samples} samples, seed {args.seed}")
    print(f"{'entry':>8} {'exact':>14} {'monte carlo':>14} {'stderr':>10} {'sigmas':>7}")
    for i in range(len(specs)):
        for j in range(len(specs)):
            sigmas = abs(values[i, j] - exact[i, j]) / errs[i, j] if errs[i, j] else 0.0
            print(f"  ({i},{j}) {exact[i, j]:>14.4f} {values[i, j]:>14.4f} "
                  f"{errs[i, j]:>10.4f} {sigmas:>7.2f}")

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(mc.to_csv())
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
