#!/usr/bin/env python3
"""Two-stage training (cross-entropy warm-up, output layer re-drawn, then
margin-loss maximization) against from-scratch margin training on the noisy
imbalanced toy."""

import argparse

import numpy as np

from aucmax.experiments import prepare_data, two_stage_protocol
from aucmax.losses import SurrogateSpec
from aucmax.optimizer import from_scratch_pesg, two_stage_train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")

    proto = two_stage_protocol()
    rows = []
    for seed in range(args.seeds):
        train, test = prepare_data(proto["data"], seed)
        spec = SurrogateSpec("auc_margin", p=train.p, m=proto["margin"])
        _, _, r2 = two_stage_train(proto["model"], train, proto["stage1"], spec,
                                   proto["pesg"], proto["epochs"], proto["batch_size"],
                                   seed, test_data=test)
        _, _, r1 = from_scratch_pesg(proto["model"], train, spec, proto["pesg"],
                                     proto["epochs"], proto["batch_size"], seed,
                                     test_data=test)
        rows.append((seed, r2[-1].test_auc, r1[-1].test_auc))

    print(f"{'seed':>4} {'two_stage':>10} {'from_scratch':>13}")
    for seed, two, scratch in rows:
        print(f"{seed:>4} {two:>10.4f} {scratch:>13.4f}")
    print(f"\nmean: two-stage {np.mean([r[1] for r in rows]):.4f} "
          f"vs from-scratch {np.mean([r[2] for r in rows]):.4f}")


if __name__ == "__main__":
    main()
