"""Dataset partitioning: hold-out split, K-fold, multilabel-stratified K-fold,
and the cross-validation driver.

Sample identity is any hashable id (the pipeline uses tile grid coordinates);
stratification works on the set of class labels present in each sample.
All functions are deterministic given their seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .tensor import SeededRng, mix_seed

__all__ = [
    "SampleRecord",
    "FoldAssignment",
    "presence_labels",
    "train_test_split",
    "kfold_partition",
    "stratified_kfold_partition",
    "cross_validate",
    "CrossValResult",
    "fold_manifest",
]


@dataclass(frozen=True)
class SampleRecord:
    """A splittable unit: an id plus the class labels it contains."""

    id: object
    labels: frozenset[int] = frozenset()


def presence_labels(label_tile: np.ndarray, min_pixels: int = 1,
                    ignore_value: int = 255) -> frozenset[int]:
    """Classes counting at least ``min_pixels`` pixels in a label tile."""
    if min_pixels < 1:
        raise ParameterError(f"min_pixels must be >= 1, got {min_pixels}")
    tile = np.asarray(label_tile).reshape(-1)
    tile = tile[tile != ignore_value]
    values, counts = np.unique(tile, return_counts=True)
    return frozenset(int(v) for v, c in zip(values, counts) if c >= min_pixels)


@dataclass
class FoldAssignment:
    """Maps every sample id to exactly one of k folds."""

    k: int
    ids: tuple
    folds: tuple[int, ...]
    _by_id: dict = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.ids) != len(self.folds):
            raise ParameterError("ids and folds must have equal length")
        if len(set(self.ids)) != len(self.ids):
            raise DataError("duplicate sample ids")
        if any(f < 0 or f >= self.k for f in self.folds):
            raise ParameterError(f"fold numbers must lie in [0, {self.k})")
        self._by_id = dict(zip(self.ids, self.folds))

    def fold_of(self, sample_id) -> int:
        return self._by_id[sample_id]

    def members(self, fold: int) -> list:
        return [i for i, f in zip(self.ids, self.folds) if f == fold]

    def sizes(self) -> list[int]:
        out = [0] * self.k
        for f in self.folds:
            out[f] += 1
        return out


def _check_k(k: int, n: int) -> None:
    if not (1 < k <= n):
        raise ParameterError(f"need 1 < k <= {n} samples, got k={k}")


def train_test_split(ids, fraction: float, seed: int) -> tuple[list, list]:
    """Disjoint (train, test) covering ``ids``; |test| = round(n * fraction),
    rounding half up. Outputs preserve the input order."""
    ids = list(ids)
    if not (0.0 < fraction < 1.0):
        raise ParameterError(f"fraction must be in (0, 1), got {fraction}")
    if len(set(ids)) != len(ids):
        raise DataError("duplicate sample ids")
    n = len(ids)
    if n < 2:
        raise ParameterError(f"need at least 2 samples to split, got {n}")
    n_test = int(n * fraction + 0.5)
    picks = SeededRng(mix_seed(seed, "holdout")).permutation(n)[:n_test]
    test_set = {ids[i] for i in picks}
    train = [i for i in ids if i not in test_set]
    test = [i for i in ids if i in test_set]
    return train, test


def kfold_partition(ids, k: int, seed: int) -> FoldAssignment:
    """Random partition into k folds whose sizes differ by at most one."""
    ids = list(ids)
    _check_k(k, len(ids))
    n = len(ids)
    order = SeededRng(mix_seed(seed, "kfold")).permutation(n)
    folds = [0] * n
    base, extra = divmod(n, k)
    pos = 0
    for f in range(k):
        size = base + (1 if f < extra else 0)
        for i in order[pos : pos + size]:
            folds[int(i)] = f
        pos += size
    return FoldAssignment(k, tuple(ids), tuple(folds))


def _balance_penalty(count: float, ideal: float) -> float:
    over = abs(count - ideal) - 1.0
    return over * over if over > 1e-9 else 0.0


def stratified_kfold_partition(records, k: int, seed: int) -> FoldAssignment:
    """Multilabel-stratified partition: iterative greedy plus swap repair.

    Greedy pass: classes are processed scarcest-first; each sample goes to
    the fold with the greatest remaining demand for that class, among folds
    that still have capacity (floor/ceil(n/k), which enforces the size
    invariant unconditionally). Ties break toward the currently smaller
    fold, then the lower fold index. Samples without labels fill remaining
    capacity last.

    Repair pass: the greedy result can leave a class more than one sample
    away from its n_c/k share in some fold (capacity pressure from
    co-occurring labels). Deterministic pairwise swaps between the worst
    offending fold and each other fold are applied while they strictly
    reduce the total out-of-tolerance penalty, which drives every per-class
    fold count to within one of its ideal share whenever swaps can get
    there. Fold sizes never change after the greedy pass.
    """
    records = list(records)
    n = len(records)
    _check_k(k, n)
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate sample ids")

    order = [int(i) for i in SeededRng(mix_seed(seed, "stratified")).permutation(n)]
    all_labels = sorted({c for r in records for c in r.labels})
    total_count = {c: sum(1 for r in records if c in r.labels) for c in all_labels}
    remaining_count = dict(total_count)
    base, extra = divmod(n, k)
    cap = [base + (1 if f < extra else 0) for f in range(k)]
    sizes = [0] * k
    # per-fold remaining demand for each class
    demand = {c: [total_count[c] / k] * k for c in all_labels}
    assigned: dict[int, int] = {}
    unassigned = set(range(n))

    def place(pos: int, fold: int) -> None:
        assigned[pos] = fold
        sizes[fold] += 1
        unassigned.discard(pos)
        for c in records[pos].labels:
            demand[c][fold] -= 1.0
            remaining_count[c] -= 1

    while True:
        live = {c: cnt for c, cnt in remaining_count.items() if cnt > 0}
        if not live:
            break
        scarce = min(live, key=lambda c: (live[c], c))
        for pos in order:
            if pos in unassigned and scarce in records[pos].labels:
                open_folds = [f for f in range(k) if sizes[f] < cap[f]]
                best = max(open_folds,
                           key=lambda f: (demand[scarce][f], -sizes[f], -f))
                place(pos, best)
    for pos in order:
        if pos in unassigned:
            open_folds = [f for f in range(k) if sizes[f] < cap[f]]
            best = max(open_folds, key=lambda f: (cap[f] - sizes[f], -f))
            place(pos, best)

    # -- swap repair
    ideal = {c: total_count[c] / k for c in all_labels}
    counts = {c: [0] * k for c in all_labels}
    members: list[list[int]] = [[] for _ in range(k)]
    for pos in range(n):
        f = assigned[pos]
        members[f].append(pos)
        for c in records[pos].labels:
            counts[c][f] += 1

    def swap_gain(pos_a: int, f_a: int, pos_b: int, f_b: int) -> float:
        """Penalty drop from exchanging pos_a (in f_a) with pos_b (in f_b)."""
        gain = 0.0
        for c in set(records[pos_a].labels) ^ set(records[pos_b].labels):
            delta = 1 if c in records[pos_a].labels else -1
            gain += _balance_penalty(counts[c][f_a], ideal[c])
            gain += _balance_penalty(counts[c][f_b], ideal[c])
            gain -= _balance_penalty(counts[c][f_a] - delta, ideal[c])
            gain -= _balance_penalty(counts[c][f_b] + delta, ideal[c])
        return gain

    for _ in range(4 * n):
        worst = None
        for c in sorted(all_labels, key=lambda c: (total_count[c], c)):
            for f in range(k):
                v = _balance_penalty(counts[c][f], ideal[c])
                if v > 0 and (worst is None or v > worst[0] + 1e-12):
                    worst = (v, c, f)
        if worst is None:
            break
        _, c, f = worst
        best = None
        for f2 in range(k):
            if f2 == f:
                continue
            for pos_a in sorted(members[f]):
                for pos_b in sorted(members[f2]):
                    if (c in records[pos_a].labels) == (c in records[pos_b].labels):
                        continue
                    g = swap_gain(pos_a, f, pos_b, f2)
                    if g > 1e-12 and (best is None or g > best[0] + 1e-12):
                        best = (g, pos_a, f, pos_b, f2)
        if best is None:
            break
        _, pos_a, f_a, pos_b, f_b = best
        members[f_a].remove(pos_a)
        members[f_b].remove(pos_b)
        members[f_a].append(pos_b)
        members[f_b].append(pos_a)
        assigned[pos_a], assigned[pos_b] = f_b, f_a
        for lab in records[pos_a].labels:
            counts[lab][f_a] -= 1
            counts[lab][f_b] += 1
        for lab in records[pos_b].labels:
            counts[lab][f_b] -= 1
            counts[lab][f_a] += 1

    folds = tuple(assigned[i] for i in range(n))
    return FoldAssignment(k, tuple(ids), folds)


@dataclass
class CrossValResult:
    """Aggregate score plus the per-hyperparameter breakdown."""

    score: float
    per_theta: list[dict]


def cross_validate(train_fn, dataset, k: int, seed: int, hyper_grid) -> CrossValResult:
    """K-fold cross-validation over a hyperparameter grid.

    ``train_fn(theta, train_items, val_items, seed)`` returns the validation
    error of one run. The aggregate ``score`` accumulates error/k over every
    (theta, fold) pair; ``per_theta`` carries each theta's fold errors and
    their mean for model selection.
    """
    dataset = list(dataset)
    hyper_grid = list(hyper_grid)
    _check_k(k, len(dataset))
    if not hyper_grid:
        raise ParameterError("hyperparameter grid is empty")
    assignment = kfold_partition(range(len(dataset)), k, mix_seed(seed, "cv-folds"))
    score = 0.0
    per_theta = []
    for t_idx, theta in enumerate(hyper_grid):
        fold_errors = []
        for fold in range(k):
            val_idx = set(assignment.members(fold))
            train_items = [dataset[i] for i in range(len(dataset)) if i not in val_idx]
            val_items = [dataset[i] for i in sorted(val_idx)]
            e = float(train_fn(theta, train_items, val_items,
                               mix_seed(seed, "cv", t_idx, fold)))
            fold_errors.append(e)
            score += e / k
        per_theta.append({
            "theta_index": t_idx,
            "fold_errors": fold_errors,
            "mean_error": float(np.mean(fold_errors)),
        })
    return CrossValResult(score, per_theta)


def fold_manifest(assignment: FoldAssignment, records, seed: int) -> dict:
    """JSON-ready summary: k, seed, fold sizes, per-fold class counts."""
    by_id = {r.id: r for r in records}
    class_counts = []
    for fold in range(assignment.k):
        counts: dict[str, int] = {}
        for sample_id in assignment.members(fold):
            for c in sorted(by_id[sample_id].labels):
                counts[str(c)] = counts.get(str(c), 0) + 1
        class_counts.append(counts)
    return {
        "k": assignment.k,
        "seed": seed,
        "sizes": assignment.sizes(),
        "class_counts": class_counts,
    }
