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
          reference.

A fit that fails is marked, not fatal. A per-seed cell reads ``--`` for a
covariance-inversion failure (SingularCovariance), ``err`` for any other
numerical failure and ``n/a`` for a configuration that cannot be fitted at all
(ValidationError, e.g. 3 stages on fewer than 2**3 PCA dimensions). A mean or
std over seeds reads the mark of the first seed that failed, if any did, and
``trend`` counts wins only over the seeds where both arms fit. rmml has an
answer for every group (a zero contrast gives M = I, and rho None since no
normalizer was applied), so it fails only on unfittable configurations.

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
    """The fitted model, or the failure mark of the exception its fit raised."""
    try:
        return ecml.fit_cascade(feats, pairs, stages, ecml.make_learner(learner, lam), seed)
    except (ecml.NumericalError, ecml.ValidationError) as exc:
        return failure_mark(exc)


def failure_mark(exc):
    """The table cell that stands for a fit that raised ``exc``."""
    if isinstance(exc, ecml.SingularCovariance):
        return "--"
    if isinstance(exc, ecml.ValidationError):
        return "n/a"
    return "err"


def eer(model, feats, pairs):
    """The EER of ``model``, or ``model`` itself when it is a failure mark."""
    return model if isinstance(model, str) else ecml.evaluate(model, feats, pairs).eer


def cell(value, width, digits=4):
    """A right-aligned table cell: a number to ``digits`` places, or a failure mark."""
    return f"{value:>{width}}" if isinstance(value, str) else f"{value:>{width}.{digits}f}"


def summary(values, stat, width, digits=4):
    """A cell of ``stat`` over per-seed values, or the first failure mark among them."""
    marks = [v for v in values if isinstance(v, str)]
    return cell(marks[0] if marks else float(stat(values)), width, digits)


def run_trend(args):
    rows = []
    digits = (4, 4, 3, 3)
    print(f"{'seed':>4} {'eer plain':>10} {'eer casc':>10} {'kl plain':>10} {'kl casc':>10}")
    for seed in range(args.seeds):
        feats, train, heldout = problem(args, seed)
        reps = []
        for stages, lam in ((0, args.lambda_plain), (args.stages, args.lambda_cascade)):
            model = fit(feats, train, stages, args.learner, lam, seed)
            reps.append(model if isinstance(model, str)
                        else ecml.evaluate(model, feats, heldout, bins=args.bins))
        # a failed arm's mark stands in both of its cells
        row = [getattr(r, "eer", r) for r in reps] + [getattr(r, "kl_pos_neg", r) for r in reps]
        rows.append(row)
        print(f"{seed:>4}" + "".join(" " + cell(v, 10, d) for v, d in zip(row, digits)))

    columns = list(zip(*rows))
    std = lambda v: np.std(v, ddof=1)
    print("-" * 48)
    print("mean" + "".join(" " + summary(c, np.mean, 10, d) for c, d in zip(columns, digits)))
    if args.seeds > 1:
        print("std " + "".join(" " + summary(c, std, 10, d) for c, d in zip(columns, digits)))
    paired = np.asarray([r for r in rows if not any(isinstance(v, str) for v in r)]).reshape(-1, 4)
    eer_wins = int((paired[:, 1] <= paired[:, 0]).sum())
    kl_wins = int((paired[:, 3] >= paired[:, 2]).sum())
    print(f"cascade eer <= plain on {eer_wins}/{len(paired)} seeds; "
          f"cascade kl >= plain on {kl_wins}/{len(paired)} seeds")


def run_stages(args):
    train_eer = [[] for _ in range(args.max_stages + 1)]
    test_eer = [[] for _ in range(args.max_stages + 1)]
    for seed in range(args.seeds):
        feats, train, heldout = problem(args, seed)
        for stages in range(args.max_stages + 1):
            lam = args.lam if stages else ecml.DEFAULT_LAMBDA
            model = fit(feats, train, stages, "rmml", lam, seed)
            train_eer[stages].append(eer(model, feats, train))
            test_eer[stages].append(eer(model, feats, heldout))

    print(f"{'stages':>7} {'train eer':>10} {'heldout eer':>12}")
    for stages in range(args.max_stages + 1):
        print(f"{stages:>7} {summary(train_eer[stages], np.mean, 10)} "
              f"{summary(test_eer[stages], np.mean, 12)}")


def run_lambda(args):
    lams = [round(0.1 * k, 1) for k in range(13)]
    plain = [[] for _ in lams]
    casc = [[] for _ in lams]
    for seed in range(args.seeds):
        feats, train, heldout = problem(args, seed)
        for k, lam in enumerate(lams):
            plain[k].append(eer(fit(feats, train, 0, "rmml", lam, seed), feats, heldout))
            casc[k].append(eer(fit(feats, train, args.stages, "rmml", lam, seed), feats, heldout))

    print(f"{'lambda':>7} {'eer plain':>10} {'eer cascade':>12}")
    for k, lam in enumerate(lams):
        print(f"{lam:>7.1f} {summary(plain[k], np.mean, 10)} {summary(casc[k], np.mean, 12)}")


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
            model = fit(reduced, train, args.stages, name, lam, args.seed)
            cells.append(cell(eer(model, reduced, heldout), 18))
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
