"""Command-line front end.

Subcommands: synth, pairs, fit, eval, transform, inspect. Configuration
precedence is command-line flags over a JSON config file (--config) over
built-in defaults. All results on stdout are deterministic for a fixed
configuration; timing diagnostics go to stderr as ``phase,seconds`` lines.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
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

DEFAULTS = {
    "learner": "rmml",
    "cascade": False,
    "stages": casc.DEFAULT_STAGES,
    "lam": None,  # resolved to 0.1 with --cascade, 0.5 without
    "pca_dim": None,
    "seed": 0,
    "bins": ev.DEFAULT_BINS,
    "fmt": "csv",
    "ids": 20,
    "samples_per_id": 20,
    "dim": 64,
    "intra_spread": 1.0,
    "inter_spread": 2.0,
    "count": 2000,
    "pos_fraction": 0.5,
}

@dataclass(frozen=True)
class RunConfig:
    """Resolved fitting/evaluation configuration."""

    learner: str = "rmml"
    cascade: bool = False
    stages: int = casc.DEFAULT_STAGES
    lam: float | None = None
    pca_dim: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.learner not in met.LEARNER_NAMES:
            raise ValidationError(
                f"unknown learner {self.learner!r}; expected one of {met.LEARNER_NAMES}"
            )
        if self.cascade and self.stages < 1:
            raise ValidationError("cascade fitting requires at least 1 stage")
        if self.stages < 0:
            raise ValidationError("stages must be >= 0")
        if self.lam is not None and self.lam < 0:
            raise ValidationError("lambda must be nonnegative")
        if self.pca_dim is not None and self.pca_dim < 1:
            raise ValidationError("pca dimension must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")

    @property
    def effective_lambda(self) -> float:
        if self.lam is not None:
            return float(self.lam)
        return casc.DEFAULT_CASCADE_LAMBDA if self.cascade else met.DEFAULT_LAMBDA


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
    """Values of the JSON ``--config`` file that the running subcommand reads.

    Keys any subcommand knows are accepted, so one file can serve several
    subcommands; a JSON null counts as not set.
    """
    path = getattr(args, "config", None)
    if path is None:
        return {}
    try:
        raw = json.loads(feat._read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    cfg = {}
    for key, value in raw.items():
        if key not in args.config_keys:
            raise ValidationError(f"{path}: unknown config key {key!r}")
        action = args.config_options.get(key)
        if action is not None and value is not None:
            cfg[action.dest] = _config_value(path, key, value, action)
    return cfg


def _resolve(args, *names):
    """Merge CLI flags (highest), config file, and built-in defaults."""
    file_cfg = _load_config_file(args)
    out = {}
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            value = file_cfg.get(name, DEFAULTS.get(name))
        out[name] = value
    return out


def _require(cfg, key, flag):
    if cfg.get(key) is None:
        raise ValidationError(f"{flag} is required (flag or config file)")
    return cfg[key]


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    cfg = _resolve(
        args,
        "ids", "samples_per_id", "dim", "intra_spread", "inter_spread",
        "seed", "count", "pos_fraction", "features", "labels", "pairs", "fmt",
    )
    features_path = _require(cfg, "features", "--features")
    labels_path = _require(cfg, "labels", "--labels")
    pairs_path = _require(cfg, "pairs", "--pairs")
    seed = cfg["seed"]
    with _phase("synth"):
        matrix, labels = feat.gen_synthetic(
            cfg["ids"], cfg["samples_per_id"], cfg["dim"],
            cfg["intra_spread"], cfg["inter_spread"], seed,
        )
        pairs = feat.sample_pairs(labels, cfg["count"], cfg["pos_fraction"], seed)
    with _phase("write"):
        feat.save_features(matrix, features_path, cfg["fmt"])
        feat.save_labels(labels, labels_path)
        feat.save_pairs(pairs, pairs_path)
    print(f"seed: {seed}")
    print(f"features: {features_path} ({matrix.count}x{matrix.dim}, {cfg['fmt']})")
    print(f"labels: {labels_path}")
    print(f"pairs: {pairs_path} ({pairs.n_pos} matched, {pairs.n_neg} unmatched)")
    return EXIT_OK


def cmd_pairs(args):
    cfg = _resolve(args, "labels", "count", "pos_fraction", "seed", "pairs")
    labels_path = _require(cfg, "labels", "--labels")
    pairs_path = _require(cfg, "pairs", "--pairs")
    labels = feat.load_labels(labels_path)
    pairs = feat.sample_pairs(labels, cfg["count"], cfg["pos_fraction"], cfg["seed"])
    feat.save_pairs(pairs, pairs_path)
    print(f"seed: {cfg['seed']}")
    print(f"pairs: {pairs_path} ({pairs.n_pos} matched, {pairs.n_neg} unmatched)")
    return EXIT_OK


def cmd_fit(args):
    cfg_map = _resolve(
        args,
        "learner", "cascade", "stages", "lam", "pca_dim", "seed",
        "features", "pairs", "model", "fmt",
    )
    features_path = _require(cfg_map, "features", "--features")
    pairs_path = _require(cfg_map, "pairs", "--pairs")
    model_path = _require(cfg_map, "model", "--model")
    cfg = RunConfig(
        learner=cfg_map["learner"],
        cascade=cfg_map["cascade"],
        stages=cfg_map["stages"],
        lam=cfg_map["lam"],
        pca_dim=cfg_map["pca_dim"],
        seed=cfg_map["seed"],
    )
    with _phase("load"):
        matrix = feat.load_features(features_path, cfg_map["fmt"])
        pairs = feat.load_pairs(pairs_path)
    pca = None
    if cfg.pca_dim is not None:
        with _phase("pca"):
            pca = feat.fit_pca(matrix, cfg.pca_dim)
            matrix = feat.apply_pca(pca, matrix)
    learner = met.make_learner(cfg.learner, cfg.effective_lambda)
    stage_count = cfg.stages if cfg.cascade else 0
    with _phase("fit"):
        model = casc.fit_cascade(matrix, pairs, stage_count, learner, cfg.seed)
    with _phase("save"):
        casc.save_model(model, model_path, pca=pca)
    print(f"learner: {cfg.learner}")
    print(f"lambda: {cfg.effective_lambda}" if cfg.learner == "rmml" else "lambda: n/a")
    print(f"stages: {model.stage_count}")
    for s, stage in enumerate(model.stages):
        clamped = ",".join(str(p.clamped_count) for p in stage.projections)
        print(
            f"stage {s}: groups={stage.group_count} group_dim={stage.group_dim} "
            f"clamped={clamped}"
        )
    print(f"model: {model_path}")
    return EXIT_OK


def _score_model(model_path, matrix, pairs, bins):
    model, pca = casc.load_model(model_path)
    data = feat.apply_pca(pca, matrix) if pca is not None else matrix
    return ev.evaluate(model, data, pairs, bins=bins)


def cmd_eval(args):
    cfg = _resolve(args, "model", "features", "pairs", "report", "bins", "fmt")
    model_paths = cfg["model"]
    if isinstance(model_paths, str):
        model_paths = [model_paths]
    if not model_paths:
        raise ValidationError("--model is required")
    features_path = _require(cfg, "features", "--features")
    pairs_path = _require(cfg, "pairs", "--pairs")
    bins = cfg["bins"]
    with _phase("load"):
        matrix = feat.load_features(features_path, cfg["fmt"])
        pairs = feat.load_pairs(pairs_path)
    reports = []
    with _phase("score"):
        for path in model_paths:
            reports.append((path, _score_model(path, matrix, pairs, bins)))
    lines = []
    if len(reports) == 1:
        _, report = reports[0]
        lines = [
            f"eer={report.eer!r}",
            f"threshold={report.threshold!r}",
            f"kl={report.kl_pos_neg!r}",
            f"degenerate={'true' if report.degenerate else 'false'}",
        ]
    else:
        eers = np.asarray([r.eer for _, r in reports])
        for k, (path, report) in enumerate(reports):
            lines.append(f"model_{k}_path={path}")
            lines.append(f"model_{k}_eer={report.eer!r}")
            lines.append(f"model_{k}_kl={report.kl_pos_neg!r}")
        lines.append(f"eer_mean={float(eers.mean())!r}")
        lines.append(f"eer_std={float(eers.std(ddof=1))!r}")
    for line in lines:
        print(line)
    if cfg["report"] is not None:
        if len(reports) == 1:
            ev.save_report(reports[0][1], cfg["report"], roc_path=f"{cfg['report']}.roc.csv")
        else:
            Path(cfg["report"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_transform(args):
    cfg = _resolve(args, "model", "features", "output", "fmt")
    features_path = _require(cfg, "features", "--features")
    output_path = _require(cfg, "output", "--output")
    model_path = _require(cfg, "model", "--model")
    model, pca = casc.load_model(model_path)
    matrix = feat.load_features(features_path, cfg["fmt"])
    if pca is not None:
        matrix = feat.apply_pca(pca, matrix)
    with _phase("transform"):
        out = casc.transform(model, matrix)
    feat.save_features(out, output_path, cfg["fmt"])
    print(f"transformed: {output_path} ({out.count}x{out.dim})")
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
    for s, stage in enumerate(model.stages):
        clamped = ",".join(str(p.clamped_count) for p in stage.projections)
        print(
            f"stage {s}: groups={stage.group_count} group_dim={stage.group_dim} "
            f"clamped={clamped}"
        )
    print(f"final metric dim: {final.dim}")
    if pca is not None:
        print(f"pca: {pca.input_dim} -> {pca.k}")
    else:
        print("pca: none")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_config_flag(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ecml",
        description="Closed-form metric learning with an ensemble cascade.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic features, labels, and pairs")
    p.add_argument("--ids", type=int)
    p.add_argument("--samples-per-id", type=int, dest="samples_per_id")
    p.add_argument("--dim", type=int)
    p.add_argument("--intra-spread", type=float, dest="intra_spread")
    p.add_argument("--inter-spread", type=float, dest="inter_spread")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--pos-fraction", type=float, dest="pos_fraction")
    p.add_argument("--features")
    p.add_argument("--labels")
    p.add_argument("--pairs")
    p.add_argument("--format", dest="fmt", choices=feat.FEATURE_FORMATS)
    _add_config_flag(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pairs", help="sample labeled pairs from a label file")
    p.add_argument("--labels")
    p.add_argument("--count", type=int)
    p.add_argument("--pos-fraction", type=float, dest="pos_fraction")
    p.add_argument("--seed", type=int)
    p.add_argument("--pairs")
    _add_config_flag(p)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("fit", help="fit a metric or cascade model")
    p.add_argument("--features")
    p.add_argument("--pairs")
    p.add_argument("--model")
    p.add_argument("--learner", choices=met.LEARNER_NAMES)
    p.add_argument("--cascade", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--stages", type=int)
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--pca-dim", type=int, dest="pca_dim")
    p.add_argument("--seed", type=int)
    p.add_argument("--format", dest="fmt", choices=feat.FEATURE_FORMATS)
    _add_config_flag(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="evaluate one or more fitted models")
    p.add_argument("--model", nargs="+")
    p.add_argument("--features")
    p.add_argument("--pairs")
    p.add_argument("--report")
    p.add_argument("--bins", type=int)
    p.add_argument("--format", dest="fmt", choices=feat.FEATURE_FORMATS)
    _add_config_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transform", help="map features through a fitted cascade")
    p.add_argument("--model")
    p.add_argument("--features")
    p.add_argument("--output")
    p.add_argument("--format", dest="fmt", choices=feat.FEATURE_FORMATS)
    _add_config_flag(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("inspect", help="print a model file summary")
    p.add_argument("--model")
    p.set_defaults(func=cmd_inspect)

    options = {name: _config_options(p) for name, p in sub.choices.items()}
    known = set().union(*options.values())
    for name, p in sub.choices.items():
        p.set_defaults(config_options=options[name], config_keys=known)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
