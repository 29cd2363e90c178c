import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import ORACLE_DATA, separable, two_clusters

from topofeat.classify import (EvalReport, FoldReport, LabeledDataset, SvmModel,
                               UndefinedMetricError, _kernel_matrix, kfold_cv,
                               load_features_csv, metrics, predict, save_features_csv,
                               stratified_folds, train_svm, tune_hyperparameters)


def xor_data(rng, reps=10):
    base = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    x = np.tile(base, (reps, 1)) + rng.normal(size=(4 * reps, 2)) * 0.05
    y = np.tile([1, 1, 0, 0], reps)
    return LabeledDataset(x, y)


def oracle_train_svm(data: LabeledDataset, kernel: str = "rbf", C: float = 1.0,
                     gamma: float | None = None, tol: float = 1e-3,
                     max_passes: int = 8, max_iter: int = 2000, seed: int = 0) -> SvmModel:
    """Simplified SMO as first written: every error term recomputes
    ``(alphas * y) @ k[:, i]`` and the scalars stay numpy float64.
    ``train_svm`` must return the same fit bit for bit.
    """
    x = data.features
    y01 = data.labels
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (x - mean) / std
    n, d = z.shape
    if gamma is None:
        gamma = 1.0 / d
    y = np.where(y01 == 1, 1.0, -1.0)

    k = _kernel_matrix(z, z, kernel, gamma)

    rng = np.random.default_rng(seed)
    alphas = np.zeros(n)
    b = 0.0
    passes = 0
    it = 0
    while passes < max_passes and it < max_iter:
        changed = 0
        for i in range(n):
            ei = (alphas * y) @ k[:, i] + b - y[i]
            if (y[i] * ei < -tol and alphas[i] < C) or (y[i] * ei > tol and alphas[i] > 0):
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                ej = (alphas * y) @ k[:, j] + b - y[j]
                ai_old, aj_old = alphas[i], alphas[j]
                if y[i] == y[j]:
                    lo, hi = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
                else:
                    lo, hi = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
                if hi - lo < 1e-12:
                    continue
                eta = 2 * k[i, j] - k[i, i] - k[j, j]
                if eta >= 0:
                    continue
                aj = aj_old - y[j] * (ei - ej) / eta
                aj = min(hi, max(lo, aj))
                if abs(aj - aj_old) < 1e-7:
                    continue
                ai = ai_old + y[i] * y[j] * (aj_old - aj)
                alphas[i], alphas[j] = ai, aj
                b1 = b - ei - y[i] * (ai - ai_old) * k[i, i] - y[j] * (aj - aj_old) * k[i, j]
                b2 = b - ej - y[i] * (ai - ai_old) * k[i, j] - y[j] * (aj - aj_old) * k[j, j]
                if 0 < ai < C:
                    b = b1
                elif 0 < aj < C:
                    b = b2
                else:
                    b = 0.5 * (b1 + b2)
                changed += 1
        it += 1
        passes = passes + 1 if changed == 0 else 0

    support = alphas > 1e-10
    return SvmModel(z[support], y[support], alphas[support], b, kernel, gamma, mean, std)


def fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` rounded once, as C's ``fma`` (Python 3.11 has no ``math.fma``).

    The exact value is ``Fraction(a) * Fraction(b) + Fraction(c)``, here over
    a power-of-two denominator left unreduced, and int division rounds it
    correctly, as ``float(Fraction)`` does.
    """
    (na, da), (nb, db), (nc, dc) = (v.as_integer_ratio() for v in (a, b, c))
    return (na * nb * dc + nc * da * db) / (da * db * dc)


def fixed_order_dot(ay: list, col: list) -> float:
    """``ay . col`` in the documented order: blocks of four rounded products
    into two sums, ``t1 += m1 + m3`` and ``t2 += m2 + m4``, then the tail
    fused into ``t1``, then ``t1 + t2``."""
    t1 = t2 = 0.0
    top = len(ay) - len(ay) % 4
    for r in range(0, top, 4):
        t1 += col[r] * ay[r] + col[r + 2] * ay[r + 2]
        t2 += col[r + 1] * ay[r + 1] + col[r + 3] * ay[r + 3]
    for r in range(top, len(ay)):
        t1 = fma(col[r], ay[r], t1)
    return t1 + t2


def fixed_order_train_svm(data: LabeledDataset, kernel: str = "rbf", C: float = 1.0,
                          gamma: float | None = None, tol: float = 1e-3, max_passes: int = 8,
                          max_iter: int = 2000, seed: int = 0) -> SvmModel:
    """Simplified SMO on Python floats whose error terms ``fixed_order_dot``
    sums over the Gram matrix's columns, so its bits depend on no BLAS kernel.
    An error term is kept until the next pair update, which ``TestSmoOracle``
    shows changes no bit.  ``train_svm`` must return the same fit bit for bit.
    """
    x = data.features
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (x - mean) / std
    n, d = z.shape
    if gamma is None:
        gamma = 1.0 / d
    y = np.where(data.labels == 1, 1.0, -1.0).tolist()
    k = _kernel_matrix(z, z, kernel, gamma)
    rows, cols = k.tolist(), k.T.tolist()

    rng = np.random.default_rng(seed)
    alphas = [0.0] * n
    ay = [0.0 * yr for yr in y]
    err = {}
    b = 0.0
    passes = 0
    it = 0
    while passes < max_passes and it < max_iter:
        changed = 0
        for i in range(n):
            if i not in err:
                err[i] = fixed_order_dot(ay, cols[i]) + b - y[i]
            ei = err[i]
            if (y[i] * ei < -tol and alphas[i] < C) or (y[i] * ei > tol and alphas[i] > 0):
                j = int(rng.integers(n - 1))
                if j >= i:
                    j += 1
                if j not in err:
                    err[j] = fixed_order_dot(ay, cols[j]) + b - y[j]
                ej = err[j]
                ai_old, aj_old = alphas[i], alphas[j]
                if y[i] == y[j]:
                    lo, hi = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
                else:
                    lo, hi = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
                if hi - lo < 1e-12:
                    continue
                ki, kj = rows[i], rows[j]
                eta = 2 * ki[j] - ki[i] - kj[j]
                if eta >= 0:
                    continue
                aj = min(hi, max(lo, aj_old - y[j] * (ei - ej) / eta))
                if abs(aj - aj_old) < 1e-7:
                    continue
                ai = ai_old + y[i] * y[j] * (aj_old - aj)
                alphas[i], alphas[j] = ai, aj
                ay[i], ay[j] = ai * y[i], aj * y[j]
                err.clear()
                b1 = b - ei - y[i] * (ai - ai_old) * ki[i] - y[j] * (aj - aj_old) * ki[j]
                b2 = b - ej - y[i] * (ai - ai_old) * ki[j] - y[j] * (aj - aj_old) * kj[j]
                if 0 < ai < C:
                    b = b1
                elif 0 < aj < C:
                    b = b2
                else:
                    b = 0.5 * (b1 + b2)
                changed += 1
        it += 1
        passes = passes + 1 if changed == 0 else 0

    a = np.array(alphas)
    support = a > 1e-10
    return SvmModel(z[support], np.array(y)[support], a[support], b, kernel, gamma, mean, std)


def drawn_data(n: int, seed: int) -> LabeledDataset:
    """n rows with both classes, overlapping more or less, at a drawn scale."""
    rng = np.random.default_rng([n, seed])
    labels = rng.permutation(np.arange(n) % 2)
    x = rng.normal(size=(n, int(rng.integers(1, 8)))) * 10.0 ** rng.uniform(-6, 6)
    return LabeledDataset(x + labels[:, None] * rng.uniform(0, 3) * x.std(), labels)


def assert_same_fit(model, oracle):
    assert np.array_equal(model.alphas, oracle.alphas)
    assert model.bias == oracle.bias
    assert np.array_equal(model.sv_x, oracle.sv_x)
    assert np.array_equal(model.sv_y, oracle.sv_y)


class TestSmoOracle:
    """``train_svm`` caches error terms; the fit must not change by a bit."""

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    @pytest.mark.parametrize("name", ORACLE_DATA)
    def test_matches_oracle(self, name, kernel):
        data = ORACLE_DATA[name]()
        for C, gamma, seed in itertools.product((0.1, 1.0, 10.0), (None, 0.3), (0, 3)):
            model = train_svm(data, kernel=kernel, C=C, gamma=gamma, seed=seed)
            assert_same_fit(model, oracle_train_svm(data, kernel=kernel, C=C, gamma=gamma,
                                                    seed=seed))

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_cases_reach_the_box_bound(self, kernel):
        # the clipped steps are exercised too: some alphas end exactly at C
        model = train_svm(separable(), kernel=kernel, C=0.1)
        assert np.any(model.alphas == 0.1)

    @pytest.mark.parametrize("max_passes, max_iter",
                             list(itertools.product((1, 8), (1, 2, 2000))))
    @pytest.mark.parametrize("name", ORACLE_DATA)
    def test_stopping_rules_match_oracle(self, name, max_passes, max_iter):
        data = ORACLE_DATA[name]()
        for kernel, C in itertools.product(("rbf", "linear"), (0.1, 10.0)):
            kwargs = dict(kernel=kernel, C=C, max_passes=max_passes, max_iter=max_iter, seed=3)
            assert_same_fit(train_svm(data, **kwargs), oracle_train_svm(data, **kwargs))

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_kfold_report_matches_oracle(self, kernel, monkeypatch):
        data = two_clusters(np.random.default_rng(15), n=20, spread=4.0)
        report = kfold_cv(data, k=5, seed=3, kernel=kernel)
        monkeypatch.setattr("topofeat.classify.train_svm", oracle_train_svm)
        assert kfold_cv(data, k=5, seed=3, kernel=kernel).to_json() == report.to_json()


class TestFixedOrderOracle:
    """The fit equals a Python SMO whose error terms sum in the documented
    order, so its bits do not depend on the machine's BLAS."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_fixed_order_oracle(self, n):
        # every n mod 4, and n = 2, which draws no partner; at most 25 sweeps a
        # fit keep the Python oracle quick, and TestSmoOracle holds the
        # default stopping rules
        for seed in range(10):
            data = drawn_data(n, seed)
            for kernel, C, gamma in itertools.product(("rbf", "linear"), (0.1, 1.0, 10.0),
                                                      (None, 0.3)):
                kwargs = dict(kernel=kernel, C=C, gamma=gamma, seed=seed, max_iter=25)
                if kernel == "rbf" or gamma is None:  # a linear fit ignores gamma
                    oracle = fixed_order_train_svm(data, **kwargs)
                assert_same_fit(train_svm(data, **kwargs), oracle)

    def test_fma_rounds_once(self):
        tiny = 2.0 ** -30
        assert (1.0 + tiny) * (1.0 - tiny) - 1.0 == 0.0  # two roundings lose the product's tail
        assert fma(1.0 + tiny, 1.0 - tiny, -1.0) == -(tiny * tiny)
        rng = np.random.default_rng(5)
        for a, b, c in rng.normal(size=(2000, 3)) * 10.0 ** rng.integers(-12, 12, size=(2000, 3)):
            a, b, c = float(a), float(b), float(c)
            assert fma(a, b, c) == float(Fraction(a) * Fraction(b) + Fraction(c))


class TestMetrics:
    def test_worked_example(self):
        acc, se, sp = metrics(50, 20, 10, 40)
        assert acc == pytest.approx(0.75)
        assert se == pytest.approx(50 / 70)
        assert sp == pytest.approx(0.8)

    def test_perfect_classifier(self):
        assert metrics(7, 0, 0, 13) == (1.0, 1.0, 1.0)

    def test_zero_denominators(self):
        with pytest.raises(UndefinedMetricError):
            metrics(0, 5, 0, 0)   # no negatives
        with pytest.raises(UndefinedMetricError):
            metrics(0, 0, 3, 2)   # no positives
        with pytest.raises(UndefinedMetricError):
            metrics(0, 0, 0, 0)

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            metrics(-1, 0, 0, 5)

    @given(st.tuples(st.integers(1, 500), st.integers(0, 500),
                     st.integers(0, 500), st.integers(1, 500)))
    def test_prevalence_identity(self, counts):
        tp, fn, fp, tn = counts
        if tp + fn == 0 or fp + tn == 0:
            return
        acc, se, sp = metrics(tp, fn, fp, tn)
        prev = (tp + fn) / (tp + fn + fp + tn)
        assert acc == pytest.approx(se * prev + sp * (1 - prev))
        assert min(se, sp) - 1e-12 <= acc <= max(se, sp) + 1e-12


class TestTrainSvm:
    def test_separable_linear(self, rng):
        data = two_clusters(rng)
        model = train_svm(data, kernel="linear", C=1.0)
        assert np.mean(predict(model, data.features) == data.labels) == 1.0

    def test_xor_linear_fails_rbf_succeeds(self, rng):
        data = xor_data(rng)
        linear = train_svm(data, kernel="linear", C=1.0)
        assert np.mean(predict(linear, data.features) == data.labels) <= 0.75
        rbf = train_svm(data, kernel="rbf", C=10.0, gamma=1.0)
        assert np.mean(predict(rbf, data.features) == data.labels) == 1.0

    def test_duplicated_points_predict_identically(self, rng):
        data = two_clusters(rng, n=25)
        doubled = LabeledDataset(np.vstack([data.features, data.features]),
                                 np.concatenate([data.labels, data.labels]))
        model = train_svm(doubled, kernel="rbf", seed=2)
        preds = predict(model, doubled.features)
        assert np.array_equal(preds[:50], preds[50:])

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_no_columns_rejected(self, kernel):
        data = LabeledDataset(np.empty((4, 0)), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError, match="no feature columns"):
            train_svm(data, kernel=kernel)

    def test_single_class_rejected(self, rng):
        with pytest.raises(ValueError):
            train_svm(LabeledDataset(rng.normal(size=(10, 2)), np.ones(10, dtype=int)))

    def test_non_finite_rejected(self):
        bad = np.array([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(ValueError):
            LabeledDataset(bad, np.array([0, 1]))

    def test_rescaling_invariance(self, rng):
        data = two_clusters(rng)
        scale = np.array([3.7, 0.04])
        m1 = train_svm(data, kernel="rbf", seed=5)
        m2 = train_svm(LabeledDataset(data.features * scale, data.labels), kernel="rbf", seed=5)
        assert np.array_equal(predict(m1, data.features), predict(m2, data.features * scale))


class TestPredict:
    def test_training_labels_reproduced(self, rng):
        data = two_clusters(rng)
        model = train_svm(data, kernel="rbf")
        assert np.array_equal(predict(model, data.features), data.labels)

    def test_empty_matrix(self, rng):
        model = train_svm(two_clusters(rng), kernel="linear")
        assert predict(model, np.empty((0, 2))).shape == (0,)

    def test_dimension_mismatch(self, rng):
        model = train_svm(two_clusters(rng), kernel="linear")
        with pytest.raises(ValueError, match="dimension"):
            model.decision_function(rng.normal(size=(3, 5)))

    @pytest.mark.parametrize("shape", [(2, 6), (2, 5), (2, 8), (5,), (3,)],
                             ids=["2x6", "2x5", "2x8", "5", "3"])
    def test_predict_refuses_other_dimensions(self, rng, shape):
        data = two_clusters(rng)
        model = train_svm(LabeledDataset(np.hstack([data.features, data.features ** 2]),
                                         data.labels), kernel="linear")
        assert predict(model, np.ones(4)).shape == (1,)  # a 1-D array is one sample
        with pytest.raises(ValueError, match="does not match training dimension 4"):
            predict(model, rng.normal(size=shape))


class TestStratifiedFolds:
    def test_each_fold_has_both_classes(self, rng):
        labels = np.array([1] * 30 + [0] * 50)
        folds = stratified_folds(labels, 10, seed=1)
        assert sorted(np.concatenate(folds).tolist()) == list(range(80))
        for f in folds:
            assert set(labels[f]) == {0, 1}

    def test_class_too_small(self):
        labels = np.array([1] * 3 + [0] * 50)
        with pytest.raises(ValueError, match="class"):
            stratified_folds(labels, 10, seed=0)


class TestKfoldCv:
    def test_separable_perfect(self, rng):
        report = kfold_cv(two_clusters(rng), k=10, seed=1)
        assert (report.acc, report.se, report.sp) == (1.0, 1.0, 1.0)
        assert len(report.per_fold) == 10
        assert report.tp + report.fn + report.fp + report.tn == 80

    def test_permuted_labels_near_chance(self, rng):
        x = rng.normal(size=(200, 8))
        y = rng.integers(0, 2, size=200)
        report = kfold_cv(LabeledDataset(x, y), k=10, seed=3)
        assert 0.35 <= report.acc <= 0.65

    def test_bit_reproducible(self, rng):
        data = two_clusters(rng, n=20)
        r1 = kfold_cv(data, k=5, seed=9)
        r2 = kfold_cv(data, k=5, seed=9)
        assert r1.to_json() == r2.to_json()


class TestEvalReport:
    def test_paper_row_roundtrip(self):
        row = EvalReport(acc=0.8560, se=0.8361, sp=0.8833)
        parsed = json.loads(row.to_json())
        assert (parsed["acc"], parsed["se"], parsed["sp"]) == (0.8560, 0.8361, 0.8833)
        assert parsed["tp"] is None

    def test_counts_roundtrip(self, tmp_path):
        report = EvalReport.from_counts(5, 1, 2, 8, [FoldReport(5, 1, 2, 8)])
        report.save(tmp_path / "r.json")
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["acc"] == report.acc
        assert loaded["per_fold"][0]["tp"] == 5

    def test_from_counts_consistency(self):
        report = EvalReport.from_counts(50, 20, 10, 40)
        assert report.acc == pytest.approx(0.75)
        assert report.se == pytest.approx(50 / 70, abs=1e-4)
        assert report.sp == pytest.approx(0.8)


class TestFeaturesCsv:
    def test_roundtrip(self, tmp_path, rng):
        feats = rng.normal(size=(6, 4))
        labels = np.array([0, 1, 0, 1, 1, 0])
        ids = [f"s{i}" for i in range(6)]
        save_features_csv(tmp_path / "f.csv", LabeledDataset(feats, labels, subject_ids=ids))
        data = load_features_csv(tmp_path / "f.csv")
        assert np.allclose(data.features, feats)
        assert np.array_equal(data.labels, labels)
        assert data.subject_ids == ids

    def test_text_per_value_and_roundtrip_bit_exact(self, tmp_path, rng):
        feats = rng.normal(size=(5, 7)) * 10.0 ** rng.integers(-300, 300, size=(5, 7))
        feats[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
        labels = np.array([1, 0, 0, 1, 1])
        ids = [f"s{i}" for i in range(5)]
        save_features_csv(tmp_path / "f.csv", LabeledDataset(feats, labels, subject_ids=ids))
        expected = [",".join(["subject_id", *(f"f{i}" for i in range(7)), "label"])]
        expected += [",".join([sid] + [repr(float(v)) for v in row] + [str(int(lab))])
                     for sid, row, lab in zip(ids, feats, labels)]
        assert (tmp_path / "f.csv").read_text() == "\n".join(expected) + "\n"
        data = load_features_csv(tmp_path / "f.csv")
        assert data.features.tobytes() == feats.tobytes()


class TestGridSearch:
    def test_returns_grid_member(self, rng):
        data = two_clusters(rng, n=15)
        c, gamma = tune_hyperparameters(data, seed=0)
        assert c in (0.1, 1.0, 10.0)
        assert gamma in (0.1 / 2, 1.0 / 2, 10.0 / 2)
