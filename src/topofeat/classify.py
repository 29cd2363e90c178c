"""Soft-margin SVM (SMO), stratified k-fold evaluation and the ACC/SE/SP metrics.

The dual problem is solved by simplified sequential minimal optimisation
(Platt, MSR-TR-98-14) with a seeded partner choice, so runs are
reproducible.  Features are standardised per column with training-fold
statistics only; the positive class is the patient class, so sensitivity
counts patients caught and specificity controls kept.

numpy builds the Gram matrix; the SMO loop runs in ``svm_smo`` of
``_kernels.c`` (see :mod:`topofeat._kernels`), one call per fit.  The fit's
bits are fixed by one rule: each error term
``E_i = (alphas * y) . k[:, i] + b - y_i`` sums its products in one fixed
order, the one numpy's ``ay.dot(k[:, i])`` takes through the strided
``ddot`` of OpenBLAS's SkylakeX (AVX-512) kernel, so the fits are those of a
numpy loop on such a CPU.  They do not depend on the machine's BLAS; the
Gram matrix (``np.exp``, and BLAS for the linear kernel) and
``decision_function`` still do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._kernels import _library
from .fileio import read_table, write_atomic, write_table


class UndefinedMetricError(ValueError):
    """A requested ratio has a zero denominator."""


@dataclass
class LabeledDataset:
    """N x D feature matrix with binary labels (1 = patient, 0 = control)."""

    features: np.ndarray
    labels: np.ndarray
    subject_ids: list[str] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (N, D) with one label per row")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite values")
        if not np.all(np.isin(self.labels, (0, 1))):
            raise ValueError("labels must be 0 or 1")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class FoldReport:
    tp: int
    fn: int
    fp: int
    tn: int


@dataclass
class EvalReport:
    """Confusion counts plus ACC/SE/SP, with per-fold detail when available."""

    acc: float
    se: float
    sp: float
    tp: int | None = None
    fn: int | None = None
    fp: int | None = None
    tn: int | None = None
    per_fold: list[FoldReport] = field(default_factory=list)

    @classmethod
    def from_counts(cls, tp: int, fn: int, fp: int, tn: int,
                    per_fold: list[FoldReport] | None = None) -> "EvalReport":
        acc, se, sp = metrics(tp, fn, fp, tn)
        return cls(acc=acc, se=se, sp=sp, tp=tp, fn=fn, fp=fp, tn=tn,
                   per_fold=per_fold or [])

    def to_json(self) -> str:
        payload = {
            "acc": self.acc, "se": self.se, "sp": self.sp,
            "tp": self.tp, "fn": self.fn, "fp": self.fp, "tn": self.tn,
            "per_fold": [{"tp": f.tp, "fn": f.fn, "fp": f.fp, "tn": f.tn}
                         for f in self.per_fold],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        write_atomic(path, self.to_json())


def metrics(tp: int, fn: int, fp: int, tn: int) -> tuple[float, float, float]:
    """(accuracy, sensitivity, specificity) from confusion counts."""
    if min(tp, fn, fp, tn) < 0:
        raise ValueError("counts must be nonnegative")
    n = tp + fn + fp + tn
    if n == 0:
        raise UndefinedMetricError("no samples: accuracy undefined")
    if tp + fn == 0:
        raise UndefinedMetricError("no positives: sensitivity undefined")
    if fp + tn == 0:
        raise UndefinedMetricError("no negatives: specificity undefined")
    return (tp + tn) / n, tp / (tp + fn), tn / (fp + tn)


def _kernel_matrix(a: np.ndarray, b: np.ndarray, kernel: str, gamma: float) -> np.ndarray:
    """Gram matrix between the rows of ``a`` and ``b``: linear or exp(-gamma |a - b|^2)."""
    if kernel == "linear":
        return a @ b.T
    if kernel == "rbf":
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-gamma * sq)
    raise ValueError(f"unknown kernel: {kernel}")


class SvmModel:
    """Fitted SVM: stored support set, kernel setup and column standardiser."""

    def __init__(self, sv_x, sv_y, alphas, bias, kernel, gamma, mean, std):
        self.sv_x = sv_x
        self.sv_y = sv_y
        self.alphas = alphas
        self.bias = bias
        self.kernel = kernel
        self.gamma = gamma
        self.mean = mean
        self.std = std

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.mean.shape[0]:
            raise ValueError(
                f"feature dimension {x.shape[1] if x.ndim == 2 else 'n/a'} "
                f"does not match training dimension {self.mean.shape[0]}")
        z = (x - self.mean) / self.std
        if len(z) == 0:
            return np.empty(0)
        k = _kernel_matrix(z, self.sv_x, self.kernel, self.gamma)
        return k @ (self.alphas * self.sv_y) + self.bias


def _pcg64_words(seed) -> np.ndarray:
    """The state of ``np.random.default_rng(seed)`` as ``svm_smo`` reads it: the
    128-bit PCG64 state and increment, high word first, then the buffered half."""
    state = np.random.default_rng(seed).bit_generator.state
    lcg, inc = state["state"]["state"], state["state"]["inc"]
    mask = (1 << 64) - 1
    return np.array([lcg >> 64, lcg & mask, inc >> 64, inc & mask, state["has_uint32"],
                     state["uinteger"]], dtype=np.uint64)


SMO_TOL = 1e-3  # the KKT violation that triggers a pair update


def train_svm(data: LabeledDataset, kernel: str = "rbf", C: float = 1.0,
              gamma: float | None = None, max_passes: int = 8, max_iter: int = 2000,
              seed: int = 0) -> SvmModel:
    """Fit a binary soft-margin SVM by simplified SMO.

    KKT violations beyond ``SMO_TOL`` trigger pair updates with a partner drawn
    from ``seed``; optimisation stops after ``max_passes`` sweeps without a
    change.  Columns are standardised with statistics of this training data.

    Exactness: the loop is ``svm_smo`` in C.  ``E_i`` is
    ``ay . k[:, i] + b - y_i`` with ``ay = alphas * y``: ``t1 += m1 + m3`` and
    ``t2 += m2 + m4`` over blocks of four rounded products, then each
    remaining product fused into ``t1`` by ``fma``, then ``t1 + t2``.  A
    cached ``E_i`` is reused until the next pair update.  The scalar steps
    round as Python floats do, ``max`` and ``min`` included, and the partner
    is ``np.random.default_rng(seed).integers(n - 1)``, so the fit equals,
    bit for bit, the textbook loop that recomputes ``(alphas * y) @ k[:, i]``
    at every use under OpenBLAS's SkylakeX kernel.  Its Haswell and Zen
    kernels leave the tail unfused, and Prescott's sums in another order.
    """
    if C <= 0:
        raise ValueError("C must be positive")
    if kernel not in ("linear", "rbf"):
        raise ValueError(f"unknown kernel: {kernel}")
    x = data.features
    y01 = data.labels
    if x.shape[1] == 0:
        raise ValueError("training data has no feature columns")
    if len(np.unique(y01)) < 2:
        raise ValueError("training data must contain both classes")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    z = (x - mean) / std
    n, d = z.shape
    if gamma is None:
        gamma = 1.0 / d
    if kernel == "rbf" and gamma <= 0:
        raise ValueError("gamma must be positive for the rbf kernel")
    y = np.where(y01 == 1, 1.0, -1.0)

    k = _kernel_matrix(z, z, kernel, gamma)
    alphas, bias = np.empty(n), np.empty(1)
    if _library().svm_smo(n, k, y, C, SMO_TOL, max_passes, max_iter, _pcg64_words(seed),
                          alphas, bias):
        raise MemoryError("out of memory in the SVM fit")
    support = alphas > 1e-10
    return SvmModel(z[support], y[support], alphas[support], float(bias[0]), kernel, gamma,
                    mean, std)


def predict(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """0/1 labels from the decision function; zero lands on the positive class.

    A 1-D array is one sample; a matrix holds one sample per row.
    """
    x = np.asarray(features, dtype=float)
    scores = model.decision_function(x.reshape(1, -1) if x.ndim == 1 else x)
    return (scores >= 0).astype(int)


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Seeded stratified split: each fold gets a near-equal share of each class."""
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        if len(idx) < k:
            raise ValueError(f"class {cls} has only {len(idx)} members for {k} folds")
        idx = rng.permutation(idx)
        for pos, sample in enumerate(idx):
            folds[pos % k].append(int(sample))
    return [np.array(sorted(f), dtype=int) for f in folds]


def kfold_cv(data: LabeledDataset, k: int = 10, seed: int = 0, kernel: str = "rbf",
             C: float = 1.0, gamma: float | None = None) -> EvalReport:
    """Stratified k-fold cross-validation with pooled confusion counts.

    The headline ACC/SE/SP come from the counts summed over folds;
    per-fold counts are kept in the report.
    """
    folds = stratified_folds(data.labels, k, seed)
    per_fold = []
    for fold_idx in folds:
        mask = np.ones(len(data), dtype=bool)
        mask[fold_idx] = False
        train = LabeledDataset(data.features[mask], data.labels[mask])
        model = train_svm(train, kernel=kernel, C=C, gamma=gamma, seed=seed)
        pred = predict(model, data.features[fold_idx])
        truth = data.labels[fold_idx]
        per_fold.append(FoldReport(
            tp=int(np.sum((pred == 1) & (truth == 1))),
            fn=int(np.sum((pred == 0) & (truth == 1))),
            fp=int(np.sum((pred == 1) & (truth == 0))),
            tn=int(np.sum((pred == 0) & (truth == 0))),
        ))
    tp = sum(f.tp for f in per_fold)
    fn = sum(f.fn for f in per_fold)
    fp = sum(f.fp for f in per_fold)
    tn = sum(f.tn for f in per_fold)
    return EvalReport.from_counts(tp, fn, fp, tn, per_fold)


INNER_FOLDS = 3  # the folds of the grid search's inner cross-validation


def tune_hyperparameters(data: LabeledDataset, seed: int = 0,
                         kernel: str = "rbf") -> tuple[float, float]:
    """Small grid search (C, gamma) by inner stratified CV; returns the best pair."""
    d = data.features.shape[1]
    c_grid = [0.1, 1.0, 10.0]
    g_grid = [0.1 / d, 1.0 / d, 10.0 / d]
    best = (-1.0, 1.0, 1.0 / d)
    for c in c_grid:
        for g in g_grid:
            rep = kfold_cv(data, k=INNER_FOLDS, seed=seed, kernel=kernel, C=c, gamma=g)
            if rep.acc > best[0]:
                best = (rep.acc, c, g)
    return best[1], best[2]


def load_features_csv(path) -> LabeledDataset:
    """Features CSV: subject_id, f0..f{D-1}, label (final column)."""
    table = read_table(path, ids=True, ints=("label",))
    values = table.array()
    return LabeledDataset(np.ascontiguousarray(values[:, :-1]), values[:, -1].astype(int),
                          subject_ids=table.ids)


def save_features_csv(path, data: LabeledDataset) -> None:
    """Write ``data``, which names its rows by ``subject_ids``, as ``load_features_csv`` reads it."""
    header = ["subject_id"] + [f"f{i}" for i in range(data.features.shape[1])] + ["label"]
    write_table(path, [header, *([sid, *row, int(lab)] for sid, row, lab
                                 in zip(data.subject_ids, data.features.tolist(), data.labels))])
