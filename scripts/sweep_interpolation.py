#!/usr/bin/env python3
"""Sweep the total-mass interpolation check over small primes for the two
bundled curves, covering good ordinary, split, and nonsplit reduction."""

import argparse

from exczero.curves import EllipticCurve, ap, reduction_type
from exczero.pipeline import total_mass_report

CURVES = [
    EllipticCurve("11a1", 11, 0, -1, 1, -10, -20),
    EllipticCurve("15a1", 15, 1, 1, 1, -10, -10),
]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--level", type=int, default=3)
    parser.add_argument("--prec", type=int, default=6)
    args = parser.parse_args()

    for E in CURVES:
        for p in (3, 5, 7, 11, 13):
            kind = reduction_type(E, p)
            if kind == "good" and ap(E, p) % p == 0:
                kind = f"supersingular, a_{p} = {ap(E, p)}"
            if kind not in ("good", "split", "nonsplit"):
                print(f"{E.label} p={p}: skipped ({kind})")
                continue
            rep = total_mass_report(E, p, args.level, args.prec)
            print(f"{E.label} p={p} ({rep.kind}): ratio={rep.ratio} "
                  f"predicted={rep.predicted} mod p^{rep.check_exp} "
                  f"ok={rep.ok}")


if __name__ == "__main__":
    main()
