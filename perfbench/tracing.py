"""In-memory spans around the pipeline's public functions, and their summary.

``install`` replaces public functions with timing wrappers in the module
where their callers look them up, so nothing under ``src/`` changes.  Level
``stages`` wraps only the stage entry points and costs next to nothing; it is
on in every run.  Level ``kernels`` adds spans and counters around the hot
kernels and is used only in the separate traced run at ``jobs=1``, where
every kernel call happens in this process.  The wrappers keep what the
counters need and ``Tracer.finish`` computes them after the timed part, so
counting adds nothing to the spans or to the traced wall.

A span is a dict with ``id``, ``run``, ``name``, ``layer`` (the topofeat
module name), ``parent``, ``start``, ``end`` and optional ``attrs`` counters.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist, pdist, squareform
from topofeat.homology import enclosing_radius

STAGES = {
    "stage_ingest": "ingest", "stage_embed": "embedding", "stage_denoise": "denoise",
    "stage_persist": "homology", "stage_filter": "diagrams", "stage_vectorize": "vectorize",
    "stage_classify": "classify",
}
LAYERS = ("ingest", "embedding", "cloud", "denoise", "homology", "diagrams", "vectorize",
          "classify", "pipeline")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._pending: list[tuple[dict, object]] = []

    @contextmanager
    def span(self, name: str, layer: str):
        s = {"id": len(self.spans), "run": self.run_id, "name": name, "layer": layer,
             "parent": self._stack[-1] if self._stack else None}
        self.spans.append(s)
        self._stack.append(s["id"])
        s["start"] = time.perf_counter()
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()

    def defer(self, span: dict, counters) -> None:
        """Have ``finish`` set ``span["attrs"] = counters()``."""
        self._pending.append((span, counters))

    def finish(self) -> None:
        """Compute the deferred counters; call once the timed part is over."""
        for span, counters in self._pending:
            span["attrs"] = counters()
        self._pending.clear()

    def wrap(self, name: str, layer: str, fn, count=None):
        """``fn`` inside a span; ``count(result, *args)`` gives its counters in ``finish``."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name, layer) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                self.defer(s, functools.partial(count, result, *args, **kwargs))
            return result
        return wrapped


def _rips_counts(diagram, points, max_scale=None):
    """Edges up to the enclosing radius, and how many of them close a cycle.

    Recomputed from the cloud exactly as ``rips_diagram`` selects its edges;
    an edge that does not merge two components is a cycle edge.
    """
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    n = len(pts)
    h1 = sum(1 for f in diagram.features if f[0] == 1)
    if n < 2:
        return {"edges": 0, "cycle_edges": 0, "h1_bars": h1}
    dmat = squareform(pdist(pts))
    top = float(dmat.max()) if max_scale is None else float(max_scale)
    ii, jj = np.nonzero(np.triu(dmat <= min(top, enclosing_radius(dmat)), k=1))
    n_comp, _ = connected_components(coo_matrix((np.ones(len(ii)), (ii, jj)), shape=(n, n)),
                                     directed=False)
    return {"edges": int(len(ii)), "cycle_edges": int(len(ii) - (n - n_comp)), "h1_bars": h1}


def _kpdtm_counts(centers, points, history):
    """Iterations, convergence and final objective of one fit, from its ``history``.

    The fit records the objective and then stops before updating the
    centers, so a fit that stopped on its own returns the centers its last
    objective was scored with.  A fit cut off at ``max_iter`` returns updated
    centers; it counts as converged only if they score the same, in which
    case the next iteration would have stopped.
    """
    if not history:
        return {"iters": 0, "converged": False, "objective": 0.0}
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    pts = pts.reshape(len(pts), -1)
    score = cdist(pts, centers.means, metric="sqeuclidean") + centers.variances[None, :]
    obj = float(score[np.arange(len(pts)), np.argmin(score, axis=1)].sum())
    return {"iters": len(history), "converged": obj == history[-1], "objective": history[-1]}


def install(tracer: Tracer, level: str) -> None:
    """Wrap the pipeline's public functions; call before importing the CLI or scripts."""
    from topofeat import classify, cloud, denoise, pipeline

    for name in (*STAGES, "run_pipeline", "sweep_weights"):
        setattr(pipeline, name, tracer.wrap(name, STAGES.get(name, "pipeline"),
                                            getattr(pipeline, name)))
    if level != "kernels":
        return

    fit = denoise.kpdtm_fit

    def kpdtm_fit(points, params, history=None):
        hist = [] if history is None else history
        with tracer.span("kpdtm_fit", "denoise") as s:
            result = fit(points, params, history=hist)
        tracer.defer(s, functools.partial(_kpdtm_counts, result, points, hist))
        return result

    denoise.kpdtm_fit = kpdtm_fit
    pipeline.remap_multichannel = tracer.wrap("remap_multichannel", "denoise",
                                              pipeline.remap_multichannel)
    pipeline.rips_diagram = tracer.wrap("rips_diagram", "homology", pipeline.rips_diagram,
                                        _rips_counts)
    pipeline.mkde_density = tracer.wrap("mkde_density", "diagrams", pipeline.mkde_density)
    pipeline.filter_by_density = tracer.wrap(
        "filter_by_density", "diagrams", pipeline.filter_by_density,
        lambda kept, points, *_a, **_k: {"points_in": len(points), "points_kept": len(kept)})
    pipeline.persistence_image = tracer.wrap("persistence_image", "vectorize",
                                             pipeline.persistence_image)
    kfold = tracer.wrap("kfold_cv", "classify", classify.kfold_cv)
    pipeline.kfold_cv = classify.kfold_cv = kfold
    classify.train_svm = tracer.wrap("train_svm", "classify", classify.train_svm)
    pc = cloud.PointCloud
    pc.from_csv = staticmethod(tracer.wrap("PointCloud.from_csv", "cloud", pc.from_csv))
    pc.to_csv = tracer.wrap("PointCloud.to_csv", "cloud", pc.to_csv)


# ------------------------------------------------------------------ summary

def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def stage_walls(spans: list[dict]) -> dict[str, float]:
    """Summed wall time per stage entry point."""
    out = {name: 0.0 for name in STAGES}
    for s in spans:
        if s["name"] in STAGES:
            out[s["name"]] += _dur(s)
    return out


def tail(values: list[float], beyond: int = 10) -> float:
    """Highest order statistic with at least ``beyond`` samples above it (max if too few)."""
    v = sorted(values)
    return v[len(v) - beyond - 1] if len(v) > beyond else (v[-1] if v else 0.0)


def summarize(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose timed phase lasted ``wall_s``."""
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += _dur(s)

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    m: dict[str, float] = {}
    for layer in LAYERS:
        own = [s for s in spans if s["layer"] == layer]
        m[f"{layer}.self_s"] = sum(_dur(s) - child_time[s["id"]] for s in own)
        if layer not in ("cloud", "pipeline"):
            m[f"{layer}.wall_s"] = sum(_dur(s) for s in own
                                       if all(a["layer"] != layer for a in ancestors(s)))

    def calls(name):
        return [s for s in spans if s["name"] == name]

    def ms_median(name):
        d = [_dur(s) * 1e3 for s in calls(name)]
        return statistics.median(d) if d else 0.0

    def attr_mean(name, key):
        v = [s["attrs"][key] for s in calls(name)]
        return float(np.mean(v)) if v else 0.0

    reads, writes = calls("PointCloud.from_csv"), calls("PointCloud.to_csv")
    m["cloud.read_s"] = sum(_dur(s) for s in reads)
    m["cloud.write_s"] = sum(_dur(s) for s in writes)
    m["cloud.reads"] = len(reads)
    m["cloud.writes"] = len(writes)
    m["denoise.remap_multichannel.ms_median"] = ms_median("remap_multichannel")
    m["denoise.jobs"] = len(calls("remap_multichannel"))
    m["denoise.kpdtm_fit.calls"] = len(calls("kpdtm_fit"))
    m["denoise.kpdtm_fit.ms_median"] = ms_median("kpdtm_fit")
    m["denoise.kpdtm_fit.iters_mean"] = attr_mean("kpdtm_fit", "iters")
    m["denoise.kpdtm_fit.converged_frac"] = attr_mean("kpdtm_fit", "converged")
    m["denoise.kpdtm_fit.objective_mean"] = attr_mean("kpdtm_fit", "objective")
    rips = calls("rips_diagram")
    m["homology.jobs"] = len(rips)
    m["homology.rips_diagram.calls"] = len(rips)
    m["homology.rips_diagram.ms_median"] = ms_median("rips_diagram")
    m["homology.rips_diagram.ms_tail"] = tail([_dur(s) * 1e3 for s in rips])
    m["homology.edges_mean"] = attr_mean("rips_diagram", "edges")
    m["homology.cycle_edges_mean"] = attr_mean("rips_diagram", "cycle_edges")
    m["homology.h1_bars_mean"] = attr_mean("rips_diagram", "h1_bars")
    cyc = sum(s["attrs"]["cycle_edges"] for s in rips)
    m["homology.bar_yield"] = sum(s["attrs"]["h1_bars"] for s in rips) / cyc if cyc else 0.0
    m["diagrams.mkde_density.calls"] = len(calls("mkde_density"))
    m["diagrams.mkde_density.ms_median"] = ms_median("mkde_density")
    m["diagrams.points_in"] = sum(s["attrs"]["points_in"] for s in calls("filter_by_density"))
    m["diagrams.points_kept"] = sum(s["attrs"]["points_kept"] for s in calls("filter_by_density"))
    m["vectorize.persistence_image.calls"] = len(calls("persistence_image"))
    m["vectorize.persistence_image.ms_median"] = ms_median("persistence_image")
    m["classify.kfold_cv.calls"] = len(calls("kfold_cv"))
    m["classify.kfold_cv.ms_median"] = ms_median("kfold_cv")
    m["classify.train_svm.calls"] = len(calls("train_svm"))
    m["classify.train_svm.ms_median"] = ms_median("train_svm")
    covered = sum(_dur(s) for s in spans
                  if s["name"] in STAGES and all(a["name"] not in STAGES for a in ancestors(s)))
    m["bench.stage_cover_frac"] = covered / wall_s if wall_s > 0 else 0.0
    m["bench.remainder_s"] = wall_s - covered
    return m

