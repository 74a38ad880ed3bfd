#!/usr/bin/env python3
"""Held-out experiments on synthetic identity clusters.

Subcommands:

  trend   plain learner vs ensemble cascade: per-seed held-out EER and
          KL(Pos||Neg) plus the mean/std summary. The default geometry
          matches the acceptance setup (identity spread twice the sample
          spread), which verification separates perfectly; pass a smaller
          --inter-spread (e.g. 0.35) to put the classes into genuine overlap
          and see the direction of the metric-learning and divergence effects.
  stages  cascade EER as the stage count grows. Stage count 0 is the plain
          learner; each added stage doubles the leading group count. Train EER
          is reported alongside to expose where extra depth stops buying fit
          and starts costing generalization.
  lambda  rmml EER as the balance weight lambda sweeps 0 to 1.2 in steps of
          0.1, plain and cascade, averaged over seeds. Overlapping clusters
          (the default geometry here) show a quick drop from lambda=0, then a
          plateau or a slow climb as the discriminative term starts to overfit.
  pca     held-out EER across PCA output dimensionalities for each learner.
          PCA is fitted on the feature matrix and the learners are trained on
          the projected features; the raw (no-PCA) row is included for
          reference. ``--`` marks covariance-inversion failures
          (SingularCovariance), ``deg`` degenerate pair statistics
          (DegenerateStats, e.g. rmml on 1-wide cascade groups), ``err``
          any other numerical failure and ``n/a`` a configuration that
          cannot be fitted at all (ValidationError, e.g. 3 stages on fewer
          than 2**3 PCA dimensions).

Every subcommand samples one pair pool per seed and splits it into disjoint
train and held-out pairs with ``split_pairs``.
"""

import argparse

import numpy as np

import ecml


def split_pairs(pairs, n_train, seed):
    """Disjoint train/held-out split of one sampled pair set."""
    rng = np.random.default_rng(seed + 104729)
    idx = rng.permutation(len(pairs))
    take = lambda sel: ecml.PairSet(pairs.i[sel], pairs.j[sel], pairs.y[sel])
    return take(idx[:n_train]), take(idx[n_train:])


def problem(args, seed):
    """Features plus the train and held-out pairs of one seed."""
    feats, labels = ecml.gen_synthetic(
        args.ids, args.samples_per_id, args.dim,
        args.intra_spread, args.inter_spread, seed,
    )
    pool = ecml.sample_pairs(labels, args.train_pairs + args.heldout_pairs, 0.5, seed)
    return (feats, *split_pairs(pool, args.train_pairs, seed))


def fit(feats, pairs, stages, learner, lam, seed):
    return ecml.fit_cascade(feats, pairs, stages, ecml.make_learner(learner, lam), seed)


def eer(model, feats, pairs):
    return ecml.evaluate(model, feats, pairs).eer


def run_trend(args):
    rows = []
    print(f"{'seed':>4} {'eer plain':>10} {'eer casc':>10} {'kl plain':>10} {'kl casc':>10}")
    for seed in range(args.seeds):
        feats, train, heldout = problem(args, seed)
        plain = fit(feats, train, 0, args.learner, args.lambda_plain, seed)
        casc = fit(feats, train, args.stages, args.learner, args.lambda_cascade, seed)
        rep_p = ecml.evaluate(plain, feats, heldout, bins=args.bins)
        rep_c = ecml.evaluate(casc, feats, heldout, bins=args.bins)
        row = (rep_p.eer, rep_c.eer, rep_p.kl_pos_neg, rep_c.kl_pos_neg)
        rows.append(row)
        print(f"{seed:>4} {row[0]:>10.4f} {row[1]:>10.4f} {row[2]:>10.3f} {row[3]:>10.3f}")

    arr = np.asarray(rows)
    print("-" * 48)
    print(f"mean {arr[:,0].mean():>10.4f} {arr[:,1].mean():>10.4f} "
          f"{arr[:,2].mean():>10.3f} {arr[:,3].mean():>10.3f}")
    if args.seeds > 1:
        print(f"std  {arr[:,0].std(ddof=1):>10.4f} {arr[:,1].std(ddof=1):>10.4f} "
              f"{arr[:,2].std(ddof=1):>10.3f} {arr[:,3].std(ddof=1):>10.3f}")
    eer_wins = int((arr[:, 1] <= arr[:, 0]).sum())
    kl_wins = int((arr[:, 3] >= arr[:, 2]).sum())
    print(f"cascade eer <= plain on {eer_wins}/{args.seeds} seeds; "
          f"cascade kl >= plain on {kl_wins}/{args.seeds} seeds")


def run_stages(args):
    train_eer = np.zeros((args.seeds, args.max_stages + 1))
    test_eer = np.zeros_like(train_eer)
    for seed in range(args.seeds):
        feats, train, heldout = problem(args, seed)
        for stages in range(args.max_stages + 1):
            lam = args.lam if stages else ecml.DEFAULT_LAMBDA
            model = fit(feats, train, stages, "rmml", lam, seed)
            train_eer[seed, stages] = eer(model, feats, train)
            test_eer[seed, stages] = eer(model, feats, heldout)

    print(f"{'stages':>7} {'train eer':>10} {'heldout eer':>12}")
    for stages in range(args.max_stages + 1):
        print(f"{stages:>7} {train_eer[:, stages].mean():>10.4f} "
              f"{test_eer[:, stages].mean():>12.4f}")


def run_lambda(args):
    lams = [round(0.1 * k, 1) for k in range(13)]
    plain = np.zeros((args.seeds, len(lams)))
    casc = np.zeros_like(plain)
    for seed in range(args.seeds):
        feats, train, heldout = problem(args, seed)
        for k, lam in enumerate(lams):
            plain[seed, k] = eer(fit(feats, train, 0, "rmml", lam, seed), feats, heldout)
            casc[seed, k] = eer(fit(feats, train, args.stages, "rmml", lam, seed), feats, heldout)

    print(f"{'lambda':>7} {'eer plain':>10} {'eer cascade':>12}")
    for k, lam in enumerate(lams):
        print(f"{lam:>7.1f} {plain[:, k].mean():>10.4f} {casc[:, k].mean():>12.4f}")


def failure_mark(exc):
    """The table cell that stands for a fit that raised ``exc``."""
    if isinstance(exc, ecml.SingularCovariance):
        return "--"
    if isinstance(exc, ecml.DegenerateStats):
        return "deg"
    if isinstance(exc, ecml.ValidationError):
        return "n/a"
    return "err"


def run_pca(args):
    feats, train, heldout = problem(args, args.seed)
    lam = ecml.DEFAULT_CASCADE_LAMBDA if args.stages else ecml.DEFAULT_LAMBDA
    learners = [("rmml", lam), ("kissme", None),
                ("genuine-baseline", None)]
    print(f"{'pca dim':>8}" + "".join(f"{name:>18}" for name, _ in learners))
    for k in [None] + list(args.pca_dims):
        if k is None:
            reduced, tag = feats, "raw"
        else:
            reduced, tag = ecml.apply_pca(ecml.fit_pca(feats, k), feats), str(k)
        cells = []
        for name, lam in learners:
            try:
                model = fit(reduced, train, args.stages, name, lam, args.seed)
                cells.append(f"{eer(model, reduced, heldout):>18.4f}")
            except (ecml.NumericalError, ecml.ValidationError) as exc:
                cells.append(f"{failure_mark(exc):>18}")
        print(f"{tag:>8}" + "".join(cells))


def add_geometry(p, inter_spread=0.5):
    p.add_argument("--ids", type=int, default=50)
    p.add_argument("--samples-per-id", type=int, default=20)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--intra-spread", type=float, default=1.0)
    p.add_argument("--inter-spread", type=float, default=inter_spread)
    p.add_argument("--train-pairs", type=int, default=3000)
    p.add_argument("--heldout-pairs", type=int, default=2000)


def build_parser():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trend", help="plain vs cascade held-out EER and KL over seeds")
    add_geometry(p, inter_spread=2.0)
    p.add_argument("--stages", type=int, default=ecml.DEFAULT_STAGES)
    p.add_argument("--lambda-plain", type=float, default=ecml.DEFAULT_LAMBDA)
    p.add_argument("--lambda-cascade", type=float, default=ecml.DEFAULT_CASCADE_LAMBDA)
    p.add_argument("--learner", default="rmml", choices=ecml.metrics.LEARNER_NAMES)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--bins", type=int, default=ecml.DEFAULT_BINS)
    p.set_defaults(func=run_trend)

    p = sub.add_parser("stages", help="train vs held-out EER as the stage count grows")
    add_geometry(p)
    p.add_argument("--max-stages", type=int, default=5)
    p.add_argument("--lambda", type=float, default=ecml.DEFAULT_CASCADE_LAMBDA, dest="lam")
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=run_stages)

    p = sub.add_parser("lambda", help="EER as lambda sweeps 0 to 1.2")
    add_geometry(p)
    p.add_argument("--stages", type=int, default=ecml.DEFAULT_STAGES)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=run_lambda)

    p = sub.add_parser("pca", help="EER across PCA output dimensionalities per learner")
    add_geometry(p)
    p.add_argument("--pca-dims", type=int, nargs="+", default=[64, 32, 16, 8])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stages", type=int, default=0,
                   help="0 for plain learners, >=1 to sweep the cascade instead")
    p.set_defaults(func=run_pca)
    return ap


def main():
    args = build_parser().parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
