"""Command-line front end.

Subcommands: synth, pairs, fit, eval, transform, inspect. Each flag's built-in
default is its argparse ``default=``. A JSON ``--config`` file is type-checked
and then becomes the running subcommand's parser defaults, so flags win over
the file and the file wins over built-in defaults. Option values are checked
by the library calls that use them; a subcommand checks only what no library
call does. All results on stdout are deterministic for a fixed configuration;
timing diagnostics go to stderr as ``phase,seconds`` lines.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import cascade as casc
from . import evaluation as ev
from . import features as feat
from . import metrics as met
from .errors import NumericalError, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


@contextmanager
def _phase(name):
    start = time.perf_counter()
    yield
    print(f"{name},{time.perf_counter() - start:.6f}", file=sys.stderr)


def _config_options(parser):
    """Config-file key -> argparse action for each option of a subcommand.

    A key is the long flag name with dashes as underscores, so it equals the
    action's dest except for ``lambda`` (dest ``lam``) and ``format`` (``fmt``).
    """
    return {
        action.option_strings[0].lstrip("-").replace("-", "_"): action
        for action in parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


def _config_value(path, key, value, action):
    """Check a config-file value against the type its flag parses to."""
    if isinstance(action, argparse.BooleanOptionalAction):
        ok, kind = isinstance(value, bool), "true or false"
    elif action.type is int:
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif action.type is float:
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    elif action.nargs == "+":
        ok = isinstance(value, str) or (
            isinstance(value, list) and all(isinstance(v, str) for v in value)
        )
        kind = "a string or a list of strings"
    else:
        ok, kind = isinstance(value, str), "a string"
    if not ok:
        raise ValidationError(f"{path}: config key {key!r} must be {kind}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValidationError(
            f"{path}: config key {key!r} must be one of {list(action.choices)}, got {value!r}"
        )
    return float(value) if action.type is float else value


def _load_config_file(args):
    """Checked values of the ``--config`` file for the running subcommand, by dest.

    Keys any subcommand knows are accepted, so one file can serve several
    subcommands; a JSON null counts as not set.
    """
    path = args.config
    try:
        raw = json.loads(feat._read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    options = _config_options(args.command_parser)
    cfg = {}
    for key, value in raw.items():
        if key not in args.config_keys:
            raise ValidationError(f"{path}: unknown config key {key!r}")
        action = options.get(key)
        if action is not None and value is not None:
            cfg[action.dest] = _config_value(path, key, value, action)
    return cfg


def _require(args, *names):
    """Raise unless each named path option is set by a flag or the config file."""
    for name in names:
        if getattr(args, name) is None:
            raise ValidationError(f"--{name} is required (flag or config file)")


def _features(args, stream):
    """The ``--features`` file: with ``stream``, a raw-binary file is only opened, else loaded.

    An opened file (a ``FeatureFile``) is read anew by each consumer, which
    keeps only what it derives from the rows. A CSV file is always parsed,
    and held, whole.
    """
    if stream and args.fmt == "raw-binary":
        return feat.FeatureFile(args.features)
    return feat.load_features(args.features, args.fmt)


def _print_stages(model):
    for s, stage in enumerate(model.stages):
        clamped = ",".join(str(p.clamped_count) for p in stage.projections)
        print(
            f"stage {s}: groups={stage.group_count} group_dim={stage.group_dim} "
            f"clamped={clamped}"
        )


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    _require(args, "features", "labels", "pairs")
    with _phase("synth"):
        matrix, labels = feat.gen_synthetic(
            args.ids, args.samples_per_id, args.dim,
            args.intra_spread, args.inter_spread, args.seed,
        )
        pairs = feat.sample_pairs(labels, args.count, args.pos_fraction, args.seed)
    with _phase("write"):
        with ExitStack() as undo:  # a failed write removes the files written before it
            feat.save_features(matrix, args.features, args.fmt)
            undo.callback(Path(args.features).unlink, missing_ok=True)
            feat.save_labels(labels, args.labels)
            undo.callback(Path(args.labels).unlink, missing_ok=True)
            feat.save_pairs(pairs, args.pairs)
            undo.pop_all()
    print(f"seed: {args.seed}")
    print(f"features: {args.features} ({matrix.count}x{matrix.dim}, {args.fmt})")
    print(f"labels: {args.labels}")
    print(f"pairs: {args.pairs} ({pairs.n_pos} matched, {pairs.n_neg} unmatched)")
    return EXIT_OK


def cmd_pairs(args):
    _require(args, "labels", "pairs")
    labels = feat.load_labels(args.labels)
    pairs = feat.sample_pairs(labels, args.count, args.pos_fraction, args.seed)
    feat.save_pairs(pairs, args.pairs)
    print(f"seed: {args.seed}")
    print(f"pairs: {args.pairs} ({pairs.n_pos} matched, {pairs.n_neg} unmatched)")
    return EXIT_OK


def cmd_fit(args):
    _require(args, "features", "pairs", "model")
    # fit_cascade reads 0 stages as the plain learner and never sees --stages without --cascade
    if args.cascade and args.stages < 1:
        raise ValidationError(f"--cascade needs --stages >= 1, got {args.stages}")
    if args.stages < 0:
        raise ValidationError(f"--stages must be >= 0, got {args.stages}")
    lam = args.lam
    if lam is None:
        lam = casc.DEFAULT_CASCADE_LAMBDA if args.cascade else met.DEFAULT_LAMBDA
    learner = met.make_learner(args.learner, lam)
    with _phase("load"):
        # fit_pca and apply_pca each read a raw-binary file themselves, so no
        # N x D input is held during the PCA eigendecomposition
        features = _features(args, stream=args.pca_dim is not None)
        pairs = feat.load_pairs(args.pairs)
    # an opened raw-binary file has read only its header, so no row is read yet
    pairs.check_against(features)
    width = features.dim if args.pca_dim is None else args.pca_dim
    # 2**stages stage-0 groups of a 2**stages-wide input are 1 wide, and
    # rmml's trace-normalized contrast of a 1 x 1 sum is identically zero
    if args.cascade and args.learner == "rmml" and width == 2**args.stages:
        raise ValidationError(
            f"--learner rmml cannot fit --stages {args.stages} on {width}-dim features: "
            "its stage-0 groups would be 1 wide"
        )
    pca = None
    if args.pca_dim is not None:
        with _phase("pca"):
            pca = feat.fit_pca(features, args.pca_dim)
            features = feat.apply_pca(pca, features)
    stage_count = args.stages if args.cascade else 0
    # hand fit_cascade the only reference, so the input is freed after stage 0
    inputs = [features]
    del features
    with _phase("fit"):
        model = casc.fit_cascade(inputs.pop(), pairs, stage_count, learner, args.seed)
    with _phase("save"):
        casc.save_model(model, args.model, pca=pca)
    print(f"learner: {args.learner}")
    print(f"lambda: {lam}" if args.learner == "rmml" else "lambda: n/a")
    print(f"stages: {model.stage_count}")
    _print_stages(model)
    print(f"model: {args.model}")
    return EXIT_OK


def cmd_eval(args):
    # a config file may give one model path as a plain string
    model_paths = [args.model] if isinstance(args.model, str) else args.model
    if not model_paths:
        raise ValidationError("--model is required")
    _require(args, "features", "pairs")
    ev._check_bins(args.bins)
    with _phase("load"):
        # each model reads the rows of a raw-binary file anew
        features = _features(args, stream=True)
        pairs = feat.load_pairs(args.pairs)
    reports = []
    with _phase("score"):
        for path in model_paths:
            model, pca = casc.load_model(path)
            reports.append((path, ev.evaluate(model, features, pairs, args.bins, pca=pca)))
    if len(reports) == 1:
        lines = ev.report_lines(reports[0][1])
    else:
        lines = []
        eers = np.asarray([r.eer for _, r in reports])
        for k, (path, report) in enumerate(reports):
            lines.append(f"model_{k}_path={path}")
            lines.append(f"model_{k}_eer={report.eer!r}")
            lines.append(f"model_{k}_kl={report.kl_pos_neg!r}")
        lines.append(f"eer_mean={float(eers.mean())!r}")
        lines.append(f"eer_std={float(eers.std(ddof=1))!r}")
    for line in lines:
        print(line)
    if args.report is not None:
        if len(reports) == 1:
            ev.save_report(reports[0][1], args.report, roc_path=f"{args.report}.roc.csv")
        else:
            feat._write_lines(args.report, lines)
    return EXIT_OK


def cmd_transform(args):
    _require(args, "features", "output", "model")
    model, pca = casc.load_model(args.model)
    # a raw-binary input is projected as it is read, never held whole
    matrix = _features(args, stream=pca is not None)
    if pca is not None:
        matrix = feat.apply_pca(pca, matrix)
    with _phase("transform"):
        out = casc.transform(model, matrix)
    feat.save_features(out, args.output, args.fmt)
    print(f"transformed: {args.output} ({out.count}x{out.dim})")
    return EXIT_OK


def cmd_inspect(args):
    if args.model is None:
        raise ValidationError("--model is required")
    model, pca = casc.load_model(args.model)
    final = model.final_metric
    print(f"learner: {final.learner}")
    print(f"lambda: {final.lam}" if final.lam is not None else "lambda: n/a")
    if final.rho is not None:
        print(f"rho: {final.rho}")
    print(f"seed: {model.seed}")
    print(f"input dim: {model.input_dim}")
    print(f"stages: {model.stage_count}")
    if model.stages:
        print(f"group counts: {','.join(str(s.group_count) for s in model.stages)}")
    _print_stages(model)
    print(f"final metric dim: {final.dim}")
    if pca is not None:
        print(f"pca: {pca.input_dim} -> {pca.k}")
    else:
        print("pca: none")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_flags(p, *flags):
    """Add flags that several subcommands share; their defaults are written here only."""
    shared = {
        "--seed": dict(type=int, default=0),
        "--count": dict(type=int, default=2000),
        "--pos-fraction": dict(type=float, default=0.5),
        "--format": dict(dest="fmt", choices=feat.FEATURE_FORMATS, default="csv"),
        "--config": dict(help="JSON config file; flags override its values"),
    }
    for flag in flags:
        p.add_argument(flag, **shared.get(flag, {}))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ecml",
        description="Closed-form metric learning with an ensemble cascade.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic features, labels, and pairs")
    p.add_argument("--ids", type=int, default=20)
    p.add_argument("--samples-per-id", type=int, default=20)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--intra-spread", type=float, default=1.0)
    p.add_argument("--inter-spread", type=float, default=2.0)
    _add_flags(
        p, "--seed", "--count", "--pos-fraction", "--features", "--labels", "--pairs",
        "--format", "--config",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pairs", help="sample labeled pairs from a label file")
    _add_flags(p, "--labels", "--count", "--pos-fraction", "--seed", "--pairs", "--config")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("fit", help="fit a metric or cascade model")
    _add_flags(p, "--features", "--pairs", "--model")
    p.add_argument("--learner", choices=met.LEARNER_NAMES, default="rmml")
    p.add_argument("--cascade", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--stages", type=int, default=casc.DEFAULT_STAGES)
    p.add_argument(
        "--lambda", type=float, dest="lam",
        help=f"default {casc.DEFAULT_CASCADE_LAMBDA} with --cascade, {met.DEFAULT_LAMBDA} without",
    )
    p.add_argument("--pca-dim", type=int)
    _add_flags(p, "--seed", "--format", "--config")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="evaluate one or more fitted models")
    p.add_argument("--model", nargs="+")
    p.add_argument("--bins", type=int, default=ev.DEFAULT_BINS)
    _add_flags(p, "--features", "--pairs", "--report", "--format", "--config")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transform", help="map features through a fitted cascade")
    _add_flags(p, "--model", "--features", "--output", "--format", "--config")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("inspect", help="print a model file summary")
    _add_flags(p, "--model")
    p.set_defaults(func=cmd_inspect)

    known = set().union(*(_config_options(p) for p in sub.choices.values()))
    for p in sub.choices.values():
        p.set_defaults(command_parser=p, config_keys=known)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None) is not None:
            # checked file values become parser defaults; flags still win on the reparse
            args.command_parser.set_defaults(**_load_config_file(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
