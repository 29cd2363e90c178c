"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 11/12 share one
full synthetic pipeline run (a few minutes); criterion 13 needs an external
dataset directory in TOPOFEAT_ADHD_DIR and is skipped otherwise.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import brute_force_betti, rips_filtration
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

from topofeat.classify import EvalReport, LabeledDataset, kfold_cv, load_features_csv, metrics
from topofeat.config import PipelineConfig
from topofeat.denoise import MassParams, dtm_profile, kpdtm_eval, kpdtm_fit, prune_cloud
from topofeat.diagrams import BandwidthSpec, filter_by_density, mkde_density
from topofeat.homology import betti_at, rips_diagram
from topofeat.pipeline import (evaluate, load_subject_diagrams, run_pipeline, stage_synth,
                               vectorize_features)
from topofeat.synth import SynthSpec, gen_cloud
from topofeat.vectorize import WeightParams, persistence_image, weight_fn


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    """Full pipeline on the 40-subjects-per-class synthetic dataset."""
    out = tmp_path_factory.mktemp("acceptance_run")
    cfg = PipelineConfig(out_dir=str(out), seed=0, jobs=4)
    t0 = time.time()
    stage_synth(cfg, n_subjects=40, segments_per_subject=10, n_channels=6)
    rep = run_pipeline(cfg)
    return cfg, rep, time.time() - t0


def test_criterion_01_homology_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(2, 4))
        pts = rng.normal(size=(n, d))
        max_scale = float(pdist(pts).max()) if n > 1 else 1.0
        filt = rips_filtration(pts, max_scale=max_scale)
        diagram = rips_diagram(pts)
        for eps in np.linspace(0.0, max_scale, 5):
            for dim in (0, 1):
                assert betti_at(diagram, eps, dim) == brute_force_betti(filt, eps, dim)
                checked += 1
    elapsed = time.time() - t0
    report(1, elapsed < 60, f"{checked} bar counts matched brute force in {elapsed:.1f}s")


def test_criterion_02_mst_property():
    t0 = time.time()
    rng = np.random.default_rng(202)
    for _ in range(50):
        pts = rng.normal(size=(30, 2))
        deaths = np.sort(rips_diagram(pts).finite_bars(0)[:, 1])
        mst = minimum_spanning_tree(squareform(pdist(pts))).toarray()
        weights = np.sort(mst[mst > 0])
        assert len(deaths) == 29
        assert np.abs(deaths - weights).max() < 1e-9
    elapsed = time.time() - t0
    report(2, elapsed < 10, f"50 clouds, deaths == MST weights to 1e-9, {elapsed:.1f}s")


def test_criterion_03_circle_and_square():
    th = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    circle = np.c_[np.cos(th), np.sin(th)]
    bars = rips_diagram(circle).bars(1)
    pers = np.sort(bars[:, 1] - bars[:, 0])[::-1]
    runner_up = pers[1] if len(pers) > 1 else 0.0
    circle_ok = pers[0] > 5 * runner_up

    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sq_bars = rips_diagram(square).bars(1)
    square_ok = (sq_bars.shape == (1, 2)
                 and abs(sq_bars[0, 0] - 1.0) < 1e-9
                 and abs(sq_bars[0, 1] - math.sqrt(2)) < 1e-9)
    report(3, circle_ok and square_ok,
           f"circle dominant {pers[0]:.3f} vs runner-up {runner_up:.3f}; "
           f"square bar ({sq_bars[0, 0]:.9f}, {sq_bars[0, 1]:.9f})")


def test_criterion_04_dtm_reduction_and_descent():
    rng = np.random.default_rng(404)
    pts = rng.normal(size=(300, 3))
    queries = rng.normal(size=(1000, 3))
    vals = dtm_profile(pts, queries, 1)
    nn = ((queries[:, None, :] - pts[None, :, :]) ** 2).sum(-1).min(1)
    q1_ok = np.abs(vals - nn).max() < 1e-12

    descent_ok = True
    for seed in range(20):
        cloud = rng.normal(size=(80, 2))
        hist = []
        kpdtm_fit(cloud, MassParams(5, 12, 50, seed), history=hist)
        descent_ok &= all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
    report(4, q1_ok and descent_ok,
           f"q=1 max err {np.abs(vals - nn).max():.2e}; 20 seeded runs monotone")


def test_criterion_05_kpdtm_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(505)
    theta = rng.uniform(0, 2 * np.pi, 500)
    pts = np.c_[np.cos(theta), np.sin(theta)] + 0.1 * rng.normal(size=(500, 2))
    centers = kpdtm_fit(pts, MassParams(10, 100, 50, 7))
    approx = kpdtm_eval(centers, pts)
    exact = dtm_profile(pts, pts, 10)
    corr = float(np.corrcoef(approx, exact)[0, 1])
    elapsed = time.time() - t0
    report(5, corr >= 0.9 and elapsed < 30, f"pearson {corr:.4f} in {elapsed:.1f}s")


def test_criterion_06_feature_recovery():
    spec = SynthSpec("circle_plus_blob", 140, noise_level=0.12, seed=42, n2=400)
    cloud, labels = gen_cloud(spec)
    clean = np.c_[np.cos(2 * np.pi * np.arange(140) / 140),
                  np.sin(2 * np.pi * np.arange(140) / 140)]

    def dominant(points):
        bars = rips_diagram(points).finite_bars(1)
        return float((bars[:, 1] - bars[:, 0]).max()) if len(bars) else 0.0

    p_clean = dominant(clean)
    p_masked = dominant(cloud.points)
    params = MassParams(20, 100, 50, 11)
    pruned = prune_cloud(cloud, params, 140)
    p_recovered = dominant(pruned.points)
    frac_circle = float(np.mean(labels[pruned.time_index] == "circle"))

    # brute-force distance-to-measure oracle validates the removal direction
    d2 = ((cloud.points[:, None, :] - cloud.points[None, :, :]) ** 2).sum(-1)
    order = np.argsort(d2, axis=1)[:, :20]
    neigh = cloud.points[order]
    m = neigh.mean(axis=1)
    v = ((neigh - m[:, None, :]) ** 2).sum(2).mean(1)
    oracle_scores = ((cloud.points - m) ** 2).sum(1) + v
    blob_lower = np.median(oracle_scores[labels == "blob"]) < np.median(oracle_scores[labels == "circle"])

    ok = (p_masked < 0.5 * p_clean and p_recovered >= 0.8 * p_clean
          and frac_circle >= 0.9 and blob_lower)
    report(6, ok, f"masked {p_masked / p_clean:.2f}x, recovered {p_recovered / p_clean:.2f}x, "
                  f"{frac_circle:.0%} circle retained, oracle confirms blob scores lowest")


def test_criterion_07_mkde_correctness():
    single = mkde_density(np.array([[3.0, 4.0]]), BandwidthSpec.identity(1.0))
    identity_ok = abs(single[0] - 1.0 / (2 * math.pi)) < 1e-12

    rng = np.random.default_rng(707)
    cluster = rng.normal(0, 0.5, size=(100, 2)) + [5.0, 8.0]
    pts = np.vstack([cluster, [[50.0, 60.0]]])
    dens = mkde_density(pts, BandwidthSpec.from_covariance(pts))
    kept = filter_by_density(pts, dens, 0.99)
    outlier_dropped = (len(kept) == 100
                       and int(np.argmin(dens)) == 100
                       and not any(abs(b - 50.0) < 1.0 for _, b, _ in kept.features))
    report(7, identity_ok and outlier_dropped,
           f"single-point density err {abs(single[0] - 1 / (2 * math.pi)):.1e}; "
           f"unique outlier dropped from 101")


def test_criterion_08_weighting_algebra():
    rng = np.random.default_rng(808)
    cont_ok = True
    for _ in range(100):
        a, c = rng.uniform(0, 50, 2)
        t1 = rng.uniform(0, 400)
        t2 = t1 + rng.uniform(1e-3, 400)
        params = WeightParams(a, c, t1, t2)
        scale = max(1.0, a, c)
        if t1 > 0:
            cont_ok &= abs(weight_fn(t1, params) - a) <= 1e-12 * scale
        cont_ok &= abs(weight_fn(t2, params) - c) <= 1e-12 * scale
    paper = WeightParams(0.0, 3.0, 100.0, 200.0)
    exact_ok = (weight_fn(100.0, paper) == 0.0 and weight_fn(200.0, paper) == 3.0
                and weight_fn(300.0, paper) == 10003.0)
    report(8, cont_ok and exact_ok,
           "knot continuity to 1e-12 over 100 param draws; w(100)=0, w(200)=3, w(300)=10003")


def test_criterion_09_image_mass_and_additivity():
    rng = np.random.default_rng(909)
    params = WeightParams(0.0, 3.0, 100.0, 200.0)
    pts = np.column_stack([rng.uniform(-2, 2, 8), rng.uniform(120, 260, 8)])
    sigma = 4.0
    extent = ((pts[:, 0].min() - 6 * sigma, pts[:, 0].max() + 6 * sigma),
              (pts[:, 1].min() - 6 * sigma, pts[:, 1].max() + 6 * sigma))
    kw = dict(grid=(40, 40), extent=extent, sigma=sigma, params=params, normalize=False)
    img = persistence_image(pts, **kw)
    total = weight_fn(pts[:, 1], params).sum()
    mass_ok = abs(img.sum() - total) <= 0.005 * total

    img_a = persistence_image(pts[:5], **kw)
    img_b = persistence_image(pts[5:], **kw)
    additive_err = np.abs(img - (img_a + img_b)).max()
    report(9, mass_ok and additive_err < 1e-9,
           f"pixel sum off by {abs(img.sum() - total) / total:.2e}; "
           f"additivity err {additive_err:.1e}")


def test_criterion_10_metrics_and_roundtrip():
    acc, se, sp = metrics(50, 20, 10, 40)
    arith_ok = (acc == 0.75 and abs(se - 0.7143) <= 1e-4 and sp == 0.8)

    row = {"acc": 85.60, "sp": 88.33, "se": 83.61}
    rep = EvalReport(acc=row["acc"] / 100, se=row["se"] / 100, sp=row["sp"] / 100)
    parsed = EvalReport.from_json(rep.to_json())
    rt_ok = (parsed.acc, parsed.se, parsed.sp) == (0.8560, 0.8361, 0.8833)
    report(10, arith_ok and rt_ok,
           f"(50,20,10,40) -> ({acc:.4f}, {se:.4f}, {sp:.4f}); reference row round-trips")


def test_criterion_11_end_to_end_synthetic(synthetic_run):
    cfg, rep, elapsed = synthetic_run
    data = load_features_csv(Path(cfg.out_dir) / "features.csv")
    rng = np.random.default_rng(cfg.seed + 1)
    permuted = LabeledDataset(data.features, rng.permutation(data.labels))
    null = kfold_cv(permuted, k=cfg.folds, seed=cfg.seed, kernel=cfg.kernel, C=cfg.C)
    ok = rep.acc >= 0.90 and 0.35 <= null.acc <= 0.65 and elapsed < 600
    report(11, ok, f"acc={rep.acc:.4f} (se={rep.se:.4f} sp={rep.sp:.4f}), "
                   f"permuted acc={null.acc:.4f}, {elapsed:.0f}s")


def test_criterion_12_descriptor_ordering(synthetic_run):
    cfg, rep, _ = synthetic_run
    diagrams, labels = load_subject_diagrams(cfg)
    accs = {"pi": rep.acc}
    for descriptor in ("landscape", "betti"):
        sub = replace(cfg, descriptor=descriptor)
        ids, features, y, _ = vectorize_features(diagrams, labels, sub)
        accs[descriptor] = evaluate(LabeledDataset(features, y, ids), sub).acc
    ok = accs["pi"] >= accs["landscape"] >= accs["betti"]
    report(12, ok, f"pi={accs['pi']:.4f} >= landscape={accs['landscape']:.4f} "
                   f">= betti={accs['betti']:.4f}")


@pytest.mark.skipif("TOPOFEAT_ADHD_DIR" not in os.environ,
                    reason="external dataset not configured (set TOPOFEAT_ADHD_DIR)")
def test_criterion_13_external_dataset(tmp_path):
    cfg = PipelineConfig(input_dir=os.environ["TOPOFEAT_ADHD_DIR"], out_dir=str(tmp_path / "ext"),
                         channels="Fz,F8,F3,C4,C3,F7", seed=0, jobs=4)
    rep = run_pipeline(cfg)
    reference = {"acc": 0.8560, "sp": 0.8833, "se": 0.8361}
    within = {k: abs(getattr(rep, k) - v) <= 0.05 for k, v in reference.items()}
    # reported, not gated: completion is the contract
    report(13, True, f"acc={rep.acc:.4f} se={rep.se:.4f} sp={rep.sp:.4f}; "
                     f"within 5 points of reference: {within}")
