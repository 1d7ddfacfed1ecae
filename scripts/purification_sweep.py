#!/usr/bin/env python3
"""Purify random float channels and report reconstruction error statistics.

For each trial a channel is built from a random Kraus family and purified
into a Kraus family read off its Choi matrix; the channel is then rebuilt
from that family with `cpm_from_kraus(purify(phi))` and compared with the
original. The worst entrywise error over all trials is the headline number.

Example:
    python3 scripts/purification_sweep.py --trials 100 --max-dim 4
"""

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import catprob.quantum as qt
from catprob.semirings import get_semiring


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=50)
    ap.add_argument("--max-dim", type=int, default=3)
    ap.add_argument("--seed", type=int, default=20170901)
    args = ap.parse_args(argv)

    sr = get_semiring("complex-f64")
    rng = random.Random(args.seed)
    worst = 0.0
    pure_in = 0
    for _ in range(args.trials):
        d = rng.randrange(2, args.max_dim + 1)
        w = (qt.QWire(d),)
        n_kraus = rng.randrange(1, d + 2)
        mats = [
            [[sr.sample(rng) for _ in range(d)] for _ in range(d)]
            for _ in range(n_kraus)
        ]
        phi = qt.cpm_from_kraus(qt.kraus_family(sr, w, w, mats))
        pure_in += qt.is_pure_choi(phi)
        back = qt.cpm_from_kraus(qt.purify(phi))
        err = max(
            abs(a - b)
            for ra, rb in zip(phi.entries, back.entries)
            for a, b in zip(ra, rb)
        )
        worst = max(worst, err)
    print(f"trials: {args.trials} (dims 2..{args.max_dim}, seed {args.seed})")
    print(f"pure inputs: {pure_in}")
    print(f"worst reconstruction error: {worst:.3e}")
    return 0 if worst < 1e-9 else 1


if __name__ == "__main__":
    raise SystemExit(main())
