"""In-memory span recorder and the per-layer instrumentation of ``ecml``.

Spans are recorded from outside the package: :func:`instrumented` rebinds the
public module attributes that ``ecml.cli`` and ``ecml.cascade`` look up at
call time, and restores them on exit, so untraced calls run the original
functions with no added cost. Layers are the package modules ``features``,
``metrics``, ``cascade``, ``evaluation`` and ``cli``, plus the two numpy
eigen solvers the package calls.

Calls made once per pair (the distance closure handed to ``score_pairs``)
and the eigen solvers are aggregated into (calls, seconds) on the innermost
open span instead of getting a span each, which keeps the recorder's own
cost small.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import ExitStack, contextmanager
from time import perf_counter


class Tracer:
    """Spans with name, start, end and parent, kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "id": len(self.spans) + len(self._stack),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": perf_counter(),
            "end": None,
            "attrs": attrs,
            "agg": {},
        }
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def add(self, name, seconds, calls=1):
        """Aggregate ``calls`` and ``seconds`` under ``name`` on the open span."""
        agg = self._stack[-1]["agg"]
        c, s = agg.get(name, (0, 0.0))
        agg[name] = (c + calls, s + seconds)


def _spanned(tracer, name, fn, attrs=None, result_attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        extra = attrs(*args, **kwargs) if attrs else {}
        with tracer.span(name, **extra) as rec:
            out = fn(*args, **kwargs)
            if result_attrs:
                rec["attrs"].update(result_attrs(out))
            return out

    return wrapper


def _aggregated(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add(name, perf_counter() - start)

    return wrapper


def _stats_attrs(features, pairs):
    return {"pairs": len(pairs), "width": features.dim}


def _wrappers(tracer, ecml, np):
    """(module, attribute, replacement) for every instrumented call site."""
    feat, met, casc, ev = ecml.features, ecml.metrics, ecml.cascade, ecml.evaluation
    met_make_learner = met.make_learner
    ev_score_pairs = ev.score_pairs

    def make_learner(*args, **kwargs):
        return _spanned(tracer, "metrics.learner", met_make_learner(*args, **kwargs))

    def score_pairs(distance_fn, features, pairs):
        calls = 0
        total = 0.0

        def timed(a, b):
            nonlocal calls, total
            start = perf_counter()
            out = distance_fn(a, b)
            total += perf_counter() - start
            calls += 1
            return out

        with tracer.span("evaluation.score_pairs") as rec:
            out = ev_score_pairs(timed, features, pairs)
            rec["agg"]["cascade.cascade_distance"] = (calls, total)
            return out

    out = [
        (feat, name, _spanned(tracer, f"features.{name}", getattr(feat, name)))
        for name in (
            "load_features", "load_pairs", "save_features", "sample_pairs",
            "fit_pca", "apply_pca",
        )
    ]
    out += [
        (met, "make_learner", make_learner),
        (casc, "accumulate_stats", _spanned(
            tracer, "metrics.accumulate_stats", casc.accumulate_stats, attrs=_stats_attrs
        )),
        (casc, "mcd", _spanned(
            tracer, "cascade.mcd", casc.mcd,
            result_attrs=lambda proj: {"clamped": proj.clamped_count},
        )),
        (ev, "score_pairs", score_pairs),
    ]
    out += [
        (casc, name, _spanned(tracer, f"cascade.{name}", getattr(casc, name)))
        for name in ("fit_cascade", "save_model", "load_model")
    ]
    out += [
        (ev, name, _spanned(tracer, f"evaluation.{name}", getattr(ev, name)))
        for name in ("build_report", "save_report")
    ]
    out += [
        (np.linalg, name, _aggregated(tracer, f"linalg.{name}", getattr(np.linalg, name)))
        for name in ("eigh", "eigvalsh")
    ]
    return out


@contextmanager
def instrumented(tracer):
    """Rebind the instrumented ``ecml`` attributes for the duration of the block."""
    import numpy as np

    import ecml.cli  # binds ``ecml`` with every layer module loaded

    with ExitStack() as stack:
        for module, name, replacement in _wrappers(tracer, ecml, np):
            original = getattr(module, name)
            stack.callback(setattr, module, name, original)
            setattr(module, name, replacement)
        yield tracer


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced fit + eval


def _dur(rec):
    return rec["end"] - rec["start"]


def _self_time(rec, spans):
    children = sum(_dur(s) for s in spans if s["parent"] == rec["id"])
    return _dur(rec) - children


def layer_metrics(tracer):
    """Timings and exact counts of one traced iteration (fit + eval)."""
    spans = tracer.spans

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(_dur(s) for s in named(name))

    def agg(name):
        calls = sum(s["agg"].get(name, (0, 0.0))[0] for s in spans)
        seconds = sum(s["agg"].get(name, (0, 0.0))[1] for s in spans)
        return calls, seconds

    stats = named("metrics.accumulate_stats")
    eigh_calls, eigh_s = agg("linalg.eigh")
    eigvalsh_calls, eigvalsh_s = agg("linalg.eigvalsh")
    dist_calls, dist_s = agg("cascade.cascade_distance")
    (fit,) = named("cli.fit")
    (ev,) = named("cli.eval")
    timings = {
        "features.load_features_s": total("features.load_features"),
        "features.load_pairs_s": total("features.load_pairs"),
        "features.fit_pca_s": total("features.fit_pca"),
        "features.apply_pca_s": total("features.apply_pca"),
        "metrics.accumulate_stats_s": total("metrics.accumulate_stats"),
        "metrics.learner_s": total("metrics.learner"),
        "linalg.eig_s": eigh_s + eigvalsh_s,
        "cascade.mcd_s": total("cascade.mcd"),
        "cascade.fit_cascade_self_s": sum(
            _self_time(s, spans) for s in named("cascade.fit_cascade")
        ),
        "cascade.save_model_s": total("cascade.save_model"),
        "cascade.load_model_s": total("cascade.load_model"),
        "cascade.cascade_distance_s": dist_s,
        "evaluation.score_pairs_self_s": total("evaluation.score_pairs") - dist_s,
        "evaluation.build_report_s": total("evaluation.build_report"),
        "evaluation.save_report_s": total("evaluation.save_report"),
        "cli.fit_traced_s": _dur(fit),
        "cli.eval_traced_s": _dur(ev),
        "cli.fit_unattributed_s": _self_time(fit, spans),
        "cli.eval_unattributed_s": _self_time(ev, spans),
    }
    # Exact counts; the *_computed ones are derived from array sizes, not measured.
    counts = {
        "metrics.accumulate_stats.calls": len(stats),
        "metrics.accumulate_stats.flops_computed": sum(
            2 * s["attrs"]["pairs"] * s["attrs"]["width"] ** 2 for s in stats
        ),
        "metrics.accumulate_stats.diff_bytes_computed": max(
            (8 * s["attrs"]["pairs"] * s["attrs"]["width"] for s in stats), default=0
        ),
        "metrics.learner.calls": len(named("metrics.learner")),
        "linalg.eigh_calls": eigh_calls,
        "linalg.eigvalsh_calls": eigvalsh_calls,
        "cascade.mcd.calls": len(named("cascade.mcd")),
        "cascade.clamped_total": sum(s["attrs"]["clamped"] for s in named("cascade.mcd")),
        "cascade.cascade_distance.calls": dist_calls,
    }
    return timings, counts


def setup_metrics(tracer):
    """Timings of the traced ``synth`` + ``pairs`` calls that write the inputs."""
    return {
        name + "_s": sum(_dur(s) for s in tracer.spans if s["name"] == name)
        for name in ("features.save_features", "features.sample_pairs")
    }


def median_metrics(samples):
    """Per-key median over a list of equal-keyed metric dicts."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
