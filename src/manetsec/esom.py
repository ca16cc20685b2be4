"""Emergent SOM detector: training, U-Matrix, region labels, classification.

Traffic samples are 7-component feature vectors, z-scored against the
training statistics. An online Kohonen pass organizes the neuron lattice,
the U-Matrix (mean weight distance to the 8 lattice neighbors) renders
cluster valleys and boundary hills, and neurons are labeled normal/attack by
majority vote of their best-matching training samples, with the top U-height
quantile marked as hills. A sample whose best match lands on a hill stays
unclassified.
"""

from __future__ import annotations

import csv
import functools
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

FEATURE_NAMES = (
    "nav",
    "tx_rate",
    "rx_rate",
    "rts_retx_rate",
    "data_retx_rate",
    "active_neighbors",
    "forwarding_nodes",
)
N_FEATURES = len(FEATURE_NAMES)

LABEL_NORMAL = 0
LABEL_ATTACK = 1
LABEL_HILL = 2

VERDICT_NORMAL = "normal"
VERDICT_ATTACK = "attack"
VERDICT_UNCLASSIFIED = "unclassified"
VERDICT_OF = {LABEL_NORMAL: VERDICT_NORMAL, LABEL_ATTACK: VERDICT_ATTACK,
               LABEL_HILL: VERDICT_UNCLASSIFIED}

_STD_FLOOR = 1e-9

# Training schedule: learning rate and neighborhood radius fall linearly
# over the run; the radius starts at half the longer lattice side.
_LR_START = 0.5
_LR_END = 0.05
_RADIUS_END = 1.0


class DatasetError(Exception):
    """Malformed dataset, verdict or model file; the message names the
    offending row, and the file's path once a reader of that file re-raises it."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")


def _names_file(read):
    """Prefix the path to every DatasetError that `read(path)` raises."""
    @functools.wraps(read)
    def named(path):
        try:
            return read(path)
        except DatasetError as e:
            e.args = (f"{path}: {e}",)
            raise
    return named


@dataclass
class NormStats:
    """Per-feature mean and (floored) standard deviation of the training set."""

    mean: np.ndarray
    std: np.ndarray


def normalize_features(data: np.ndarray) -> tuple[np.ndarray, NormStats]:
    """Z-score each column to mean zero, variance one.

    Zero-variance columns are floored at 1e-9 with a warning so constant
    features normalize to zeros instead of blowing up. A nan or inf sample
    raises DatasetError, as the CSV reader does: its column would train nan
    weights, which no model file may hold.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("need a 2-D sample matrix with at least 2 rows")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise DatasetError(f"sample {bad[0]}: feature values must be finite, not nan or inf")
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    degenerate = std < _STD_FLOOR
    if degenerate.any():
        names = [FEATURE_NAMES[i] if data.shape[1] == N_FEATURES else str(i)
                 for i in np.flatnonzero(degenerate)]
        warnings.warn(f"zero-variance feature(s) floored: {', '.join(names)}")
        std = np.where(degenerate, _STD_FLOOR, std)
    return (data - mean) / std, NormStats(mean=mean, std=std)


def apply_normalization(stats: NormStats, data: np.ndarray) -> np.ndarray:
    return (np.asarray(data, dtype=float) - stats.mean) / stats.std


@dataclass
class SomConfig:
    rows: int = 50
    cols: int = 80
    epochs: int = 20
    hill_quantile: float = 0.85

    def validate(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ValueError("lattice must be at least 2x2")
        try:  # the model file's header holds each lattice side as a uint16
            _HEADER.pack(_MAGIC, 1, self.rows, self.cols, N_FEATURES)
        except struct.error:
            raise ValueError(f"lattice {self.rows}x{self.cols} does not fit the model "
                             "file: each side must be at most 65535") from None
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not 0.0 < self.hill_quantile < 1.0:
            raise ValueError("hill_quantile must lie in (0, 1)")


@dataclass
class SomGrid:
    """Neuron lattice; weights indexed row-major (neuron = r * cols + c)."""

    rows: int
    cols: int
    weights: np.ndarray  # (rows * cols, n_features)

    @property
    def n_neurons(self) -> int:
        return self.rows * self.cols

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        idx = np.arange(self.n_neurons)
        return idx // self.cols, idx % self.cols


def _online_bmu(diff: np.ndarray, screen: np.ndarray) -> int:
    """Best-matching unit of one training step: argmin of `_exact_d2`, lowest index on ties."""
    np.einsum("ij,ij->j", diff, diff, out=screen)
    return int(screen.argmin())


def train_som(data: np.ndarray, config: SomConfig, rng: np.random.Generator,
              on_epoch=None) -> SomGrid:
    """Online Kohonen training, deterministic for a given generator state.

    Per sample: best-matching unit by Euclidean distance, then a Gaussian
    neighborhood pull with linearly decaying learning rate and radius.
    `on_epoch(epoch_index, weights_copy)` is called after each pass when given.

    The BMU rule is the one `bmu_indices` labels and classifies with: the
    least `_exact_d2`, the squares summed feature by feature in order, ties
    to the lowest index. On the feature-major weights `einsum("ij,ij->j")`
    adds row i of squares into every neuron's sum in turn, the same left
    fold, so `_online_bmu` takes the argmin of its sums as they are (a test
    pins the two bit for bit, nan included).

    The weights live feature-major, `(dim, N)`, so every element-wise step
    runs `dim` long loops instead of N short ones, into reused buffers. Each
    stored value is the one the neuron-major `(N, dim)` form computes: the
    pull is element-wise with the same operands in the same order, and the
    squared lattice distance is a sum of two exact integers.

    Row padding: two ops per step broadcast one operand, the sample column
    in `weights - x` and the neighbourhood row in `h * diff`. On contiguous
    `(dim, N)` operands numpy's iterator joins the rows into chunks of
    `np.getbufsize()` elements and copies the broadcast operand into a
    buffer one element at a time. Once N exceeds a third of the buffer size
    (2730 neurons at numpy's default 8192), `weights` and `diff` are views
    of rows padded by 8 floats, one cache line: rows that cannot be joined
    each run as one unbuffered loop. On a 2-CPU x86 host with numpy 2.4.6,
    at 4000 neurons (50x80) that took the subtraction from 36 to 11 µs and
    the multiply from 22 to 10 µs. Below the threshold numpy buffers every
    operand of a padded row: at 192 neurons (12x16) the same two ops went
    from 3.6 to 4.2 and from 2.8 to 4.9 µs padded, so short rows stay
    contiguous. Padding changes where values sit, not which values are
    computed from which operands, so every stored bit is the same on either
    layout.

    The neighbourhood of a BMU at (rb, cb) is read off one table of squared
    lattice offsets, `d2[i, j] = (i - rows + 1)² + (j - cols + 1)²`, as the
    window whose corner is `(rows - 1 - rb, cols - 1 - cb)`: the same exact
    integers the per-axis sum gave, divided by the same operand. The
    windows are views made once per call, one per neuron.

    The schedule is computed once per epoch as float64 arrays of that
    epoch's n steps: `t = step / denom`, `lr`, and the Gaussian's divisor
    `-2·rad²`. Each element goes through the IEEE operations a per-step
    Python float went through, in the same order, so the loop reads the
    same values (as Python floats, through `tolist`), and no array grows
    with epochs × n.
    """
    config.validate()
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError(f"need a 2-D sample matrix (samples, features), got shape {data.shape}")
    n, dim = data.shape
    rows, cols = config.rows, config.cols
    n_neurons = rows * cols
    stride = n_neurons + 8 if n_neurons > np.getbufsize() // 3 else n_neurons
    lo, hi = data.min(axis=0), data.max(axis=0)
    weights = np.empty((dim, stride))[:, :n_neurons]
    weights[...] = (rng.uniform(size=(n_neurons, dim)) * (hi - lo) + lo).T
    diff = np.empty((dim, stride))[:, :n_neurons]
    samples = data[:, :, None]
    screen = np.empty(n_neurons)
    h = np.empty((rows, cols))
    h_flat = h.reshape(-1)
    d2 = ((np.arange(1 - rows, rows, dtype=float) ** 2)[:, None]
          + np.arange(1 - cols, cols, dtype=float) ** 2)
    windows = [d2[rows - 1 - rb : 2 * rows - 1 - rb, cols - 1 - cb : 2 * cols - 1 - cb]
               for rb in range(rows) for cb in range(cols)]
    r0 = max(rows, cols) / 2
    denom = max(config.epochs * n - 1, 1)
    for epoch in range(config.epochs):
        t = np.arange(epoch * n, (epoch + 1) * n, dtype=float) / denom
        lrs = _LR_START + (_LR_END - _LR_START) * t
        rad = r0 + (_RADIUS_END - r0) * t
        scales = -2.0 * rad * rad
        for idx, lr, scale in zip(rng.permutation(n).tolist(), lrs.tolist(), scales.tolist()):
            np.subtract(weights, samples[idx], diff)
            np.divide(windows[_online_bmu(diff, screen)], scale, h)
            np.exp(h, h)
            np.multiply(lr, h, h)
            np.multiply(h_flat, diff, diff)
            weights -= diff
        if on_epoch is not None:
            on_epoch(epoch, weights.T.copy())
    return SomGrid(rows=rows, cols=cols, weights=weights.T.copy())


_NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def compute_umatrix(grid: SomGrid) -> np.ndarray:
    """U-height per neuron: mean weight distance to its 8 lattice neighbors."""
    w = grid.weights.reshape(grid.rows, grid.cols, -1)
    total = np.zeros((grid.rows, grid.cols))
    count = np.zeros((grid.rows, grid.cols))
    for dr, dc in _NEIGHBOR_OFFSETS:
        src_r = slice(max(0, -dr), grid.rows - max(0, dr))
        src_c = slice(max(0, -dc), grid.cols - max(0, dc))
        dst_r = slice(max(0, dr), grid.rows + min(0, dr))
        dst_c = slice(max(0, dc), grid.cols + min(0, dc))
        d = np.linalg.norm(w[src_r, src_c] - w[dst_r, dst_c], axis=-1)
        total[src_r, src_c] += d
        count[src_r, src_c] += 1.0
    return (total / count).ravel()


# Working memory of a batch kernel: each block takes as many rows as fit
# its largest per-row temporary in this many bytes. Every row's result is
# decided inside its own row, so the block size never changes an output.
_WORK_BYTES = 2**19


def _block_rows(row_bytes: int) -> int:
    """Rows per block when one row's largest temporary takes `row_bytes`."""
    return max(1, _WORK_BYTES // row_bytes)


def _exact_d2(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared distances summed over the last axis, the reference formula."""
    return ((x - w) ** 2).sum(axis=-1)


def bmu_indices(grid: SomGrid, data: np.ndarray) -> np.ndarray:
    """Exhaustive best-matching unit per sample, ties to the lowest index.

    Bit for bit the argmin of `_exact_d2` over all neurons. A GEMM screen
    ‖w‖² − 2·x·wᵀ (the squared distance less ‖x‖²) bounds where that
    argmin lies: every exact minimum is within a rounding bound of the
    row's screen minimum. A row with exactly one neuron inside the bound
    takes the screen's argmin m when `_exact_d2(x, w[m])` is finite: a tie
    would put two neurons inside, so m is the unique exact minimum. Every
    other row (ties, near-ties, no finite bound, overflow, inf or nan) is
    measured against every neuron.

    Working memory follows `_WORK_BYTES`, not the batch: the screen takes
    `_block_rows(8·N)` rows at a time (16 at 50x80, 341 at 12x16) and the
    exhaustive search, an (r, N, d) cube, `_block_rows(8·N·d)`. The
    screen's rounding bound holds for any summation order, so the GEMM's
    block shape cannot move a result.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    w = np.asarray(grid.weights, dtype=float)
    w2 = np.einsum("ij,ij->i", w, w)
    # Rounding bound, with u = ε/2, X = ‖x‖², W = max‖w‖² and d features.
    # The screen of neuron j is off by at most γ_d·‖w_j‖² (the norm)
    # + γ_d·(X + ‖w_j‖²) (2·x·w_j in any summation order, as
    # Σ|x_i·w_ji| ≤ (X + ‖w_j‖²)/2) + u·(X + 2‖w_j‖²) (the subtraction),
    # about e1 = 2(d+1)u·(X + W). An exact distance E_j is off from the
    # true D_j ≤ 2(X + W) by at most γ_{d+3}·D_j, about e2 = 2(d+3)u·(X + W).
    # With j* the exact argmin and m the screen argmin, E_j* ≤ E_m gives
    # screen_j* ≤ screen_m + 2·e1 + 2·e2 = screen_m + 4(d+2)ε·(X + W).
    # The bound takes four times that, plus 16(d+2) subnormal units for
    # products and squares that underflow.
    finfo = np.finfo(float)
    tol_scale = 16 * (w.shape[1] + 2)
    out = np.empty(len(data), dtype=np.int64)
    step = _block_rows(8 * len(w))
    redo_step = _block_rows(8 * w.size)
    for s in range(0, len(data), step):
        x = data[s : s + step]
        with np.errstate(over="ignore", invalid="ignore"):
            screen = x @ w.T
            screen *= -2.0
            screen += w2
            rows = np.arange(len(x))
            m = screen.argmin(axis=1)   # a row's first nan, if it holds one
            x2 = np.einsum("ij,ij->i", x, x)
            thresh = screen[rows, m] + tol_scale * (
                finfo.eps * (x2 + w2.max()) + finfo.smallest_subnormal)
            thresh[~np.isfinite(thresh)] = np.nan  # compares false: not settled
            screen[rows, m] = np.inf
            settled = screen.min(axis=1) > thresh   # no neuron but m is within
            del screen   # the exhaustive search gets its budget
            # the bound assumes finite exact distances: one that overflows
            # may tie with others at inf, where the lowest index wins
            settled[settled] = np.isfinite(_exact_d2(x[settled], w[m[settled]]))
            out[s : s + len(x)] = m
            redo = s + np.flatnonzero(~settled)
            for r in range(0, redo.size, redo_step):
                blk = redo[r : r + redo_step]
                out[blk] = np.argmin(_exact_d2(data[blk, None, :], w), axis=1)
    return out


def _training_labels(labels, n_samples: int) -> np.ndarray:
    """`labels` as an int array, checked to hold one 0 (normal) or 1
    (attack) per training sample."""
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (n_samples,):
        raise ValueError(f"need one training label per sample: {n_samples} samples, "
                         f"labels of shape {labels.shape}")
    if set(np.unique(labels)) - {LABEL_NORMAL, LABEL_ATTACK}:
        raise ValueError("training labels must be 0 (normal) or 1 (attack)")
    return labels


def label_regions(grid: SomGrid, umatrix: np.ndarray, data: np.ndarray,
                  labels: np.ndarray, hill_quantile: float = 0.85) -> np.ndarray:
    """Label every neuron normal/attack/hill.

    Hills are the neurons whose U-height exceeds the given quantile. Valley
    neurons take the majority label of the training samples that map to them
    (ties go to attack); valley neurons no sample maps to inherit the label
    of the nearest labeled valley neuron in lattice distance, lowest neuron
    index on ties. The fill takes `_block_rows(8·|labeled|)` unlabeled
    neurons at a time, each to its own argmin.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    labels = _training_labels(labels, len(data))
    for cls, name in ((LABEL_NORMAL, "normal"), (LABEL_ATTACK, "attack")):
        if not (labels == cls).any():
            warnings.warn(f"training data contains no {name} samples")
    n = grid.n_neurons
    threshold = np.quantile(umatrix, hill_quantile)
    out = np.full(n, -1, dtype=np.int8)
    out[umatrix > threshold] = LABEL_HILL

    bmus = bmu_indices(grid, data)
    votes = np.zeros((n, 2), dtype=np.int64)
    np.add.at(votes, (bmus, labels), 1)
    mapped = votes.sum(axis=1) > 0
    majority = np.where(votes[:, LABEL_ATTACK] >= votes[:, LABEL_NORMAL],
                        LABEL_ATTACK, LABEL_NORMAL).astype(np.int8)
    valley = out == -1
    out[valley & mapped] = majority[valley & mapped]

    # nearest labeled valley neuron fills the rest (exact integer distances)
    rr, cc = grid.positions()
    todo = np.flatnonzero(out == -1)
    source = np.flatnonzero(valley & mapped)
    if todo.size and source.size:
        step = _block_rows(8 * source.size)
        rs, cs = rr[source], cc[source]
        for s in range(0, todo.size, step):
            blk = todo[s : s + step]
            d2 = (rr[blk, None] - rs) ** 2 + (cc[blk, None] - cs) ** 2
            out[blk] = out[source[np.argmin(d2, axis=1)]]
    elif todo.size:
        out[todo] = LABEL_NORMAL  # no labeled valley at all; stay conservative
    return out


@dataclass(slots=True)
class Classification:
    verdict: str
    best_match: int
    distance: float


def classify_batch(grid: SomGrid, labeling: np.ndarray, points: np.ndarray) -> list[Classification]:
    """Classify already-normalized samples by their best match's region."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    bmus = bmu_indices(grid, points)
    dists = np.linalg.norm(points - grid.weights[bmus], axis=1)
    return [Classification(verdict=VERDICT_OF[int(labeling[b])], best_match=int(b),
                           distance=float(d))
            for b, d in zip(bmus, dists)]


@dataclass
class EvalReport:
    detection_rate: float | None
    false_alarm_rate: float | None
    unclassified_fraction: float


def evaluate(verdicts: list[str], truth: list[str], unclassified: str = "exclude") -> EvalReport:
    """Detection and false-alarm rates over aligned verdict/truth sequences.

    unclassified: "exclude" drops those samples from both rates (reported
    separately), "as_normal"/"as_attack" force-counts them.
    """
    if len(verdicts) != len(truth):
        raise ValueError("verdicts and truth must align")
    if unclassified not in ("exclude", "as_normal", "as_attack"):
        raise ValueError(f"bad unclassified policy {unclassified!r}")
    n_total = len(verdicts)
    n_uncls = sum(v == VERDICT_UNCLASSIFIED for v in verdicts)
    pairs = []
    for v, t in zip(verdicts, truth):
        if v == VERDICT_UNCLASSIFIED:
            if unclassified == "exclude":
                continue
            v = VERDICT_NORMAL if unclassified == "as_normal" else VERDICT_ATTACK
        pairs.append((v, t))
    attacks = [v for v, t in pairs if t == VERDICT_ATTACK]
    normals = [v for v, t in pairs if t == VERDICT_NORMAL]
    det = (sum(v == VERDICT_ATTACK for v in attacks) / len(attacks)) if attacks else None
    fa = (sum(v == VERDICT_ATTACK for v in normals) / len(normals)) if normals else None
    return EvalReport(detection_rate=det, false_alarm_rate=fa,
                      unclassified_fraction=(n_uncls / n_total) if n_total else 0.0)


# ---------------------------------------------------------------------------
# Model file: little-endian header, float32 weights row-major, one label byte
# per neuron, float64 normalization statistics. Keyed digests for the map
# distribution protocols are computed over exactly these bytes.
# ---------------------------------------------------------------------------

_MAGIC = b"ESM1"
_HEADER = struct.Struct("<4sBHHB")  # magic, version, rows, cols, n_features


@dataclass
class SomModel:
    grid: SomGrid
    labeling: np.ndarray
    stats: NormStats
    hill_quantile: float = 0.85

    def to_bytes(self) -> bytes:
        g = self.grid
        out = [_HEADER.pack(_MAGIC, 1, g.rows, g.cols, g.weights.shape[1])]
        out.append(np.ascontiguousarray(g.weights, dtype="<f4").tobytes())
        out.append(np.ascontiguousarray(self.labeling, dtype=np.uint8).tobytes())
        out.append(np.ascontiguousarray(self.stats.mean, dtype="<f8").tobytes())
        out.append(np.ascontiguousarray(self.stats.std, dtype="<f8").tobytes())
        out.append(struct.pack("<d", self.hill_quantile))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SomModel":
        if len(raw) < _HEADER.size:
            raise DatasetError("model file truncated")
        magic, version, rows, cols, nf = _HEADER.unpack_from(raw, 0)
        if magic != _MAGIC or version != 1:
            raise DatasetError("not a recognized model file")
        if nf != N_FEATURES:
            raise DatasetError(f"model has {nf} features, expected {N_FEATURES}")
        if rows < 2 or cols < 2:
            raise DatasetError(f"model lattice {rows}x{cols} is smaller than 2x2")
        n = rows * cols
        off = _HEADER.size
        need = off + 4 * n * nf + n + 8 * nf * 2 + 8
        if len(raw) != need:
            raise DatasetError("model file length mismatch")
        weights = np.frombuffer(raw, dtype="<f4", count=n * nf, offset=off
                                ).reshape(n, nf).astype(float)
        if not np.isfinite(weights).all():
            raise DatasetError("model weights must be finite")
        off += 4 * n * nf
        labeling = np.frombuffer(raw, dtype=np.uint8, count=n, offset=off)
        if labeling.max() > LABEL_HILL:
            raise DatasetError(f"model label {labeling.max()} is not 0, 1 or 2")
        off += n
        mean = np.frombuffer(raw, dtype="<f8", count=nf, offset=off).copy()
        off += 8 * nf
        std = np.frombuffer(raw, dtype="<f8", count=nf, offset=off).copy()
        off += 8 * nf
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise DatasetError("model normalization needs a finite mean and a finite positive std")
        (hq,) = struct.unpack_from("<d", raw, off)
        if not 0.0 < hq < 1.0:  # nan fails too
            raise DatasetError(f"model hill_quantile {hq} outside (0, 1)")
        return cls(grid=SomGrid(rows=rows, cols=cols, weights=weights),
                   labeling=labeling.astype(np.int8), stats=NormStats(mean=mean, std=std),
                   hill_quantile=hq)


def save_model(path, model: SomModel) -> None:
    with open(path, "wb") as f:
        f.write(model.to_bytes())


@_names_file
def load_model(path) -> SomModel:
    with open(path, "rb") as f:
        return SomModel.from_bytes(f.read())


def fit_detector(data: np.ndarray, labels: np.ndarray, config: SomConfig,
                 rng: np.random.Generator) -> SomModel:
    """Normalize, train, U-Matrix, label: the whole training pipeline."""
    normalized, stats = normalize_features(data)
    _training_labels(labels, len(normalized))
    grid = train_som(normalized, config, rng)
    umatrix = compute_umatrix(grid)
    labeling = label_regions(grid, umatrix, normalized, labels, config.hill_quantile)
    return SomModel(grid=grid, labeling=labeling, stats=stats,
                    hill_quantile=config.hill_quantile)


# -- CSV interfaces ----------------------------------------------------------

@_names_file
def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a dataset: 7 feature columns plus a normal/attack label column."""
    rows: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DatasetError("empty dataset file")
        expect = list(FEATURE_NAMES) + ["label"]
        if [h.strip() for h in header] != expect:
            raise DatasetError(f"expected header {','.join(expect)}", row=1)
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != N_FEATURES + 1:
                raise DatasetError(f"expected {N_FEATURES + 1} columns, got {len(row)}", row=i)
            try:
                values = [float(x) for x in row[:N_FEATURES]]
            except ValueError as e:
                raise DatasetError(f"non-numeric feature value: {e}", row=i) from None
            if not all(math.isfinite(v) for v in values):
                raise DatasetError("feature values must be finite, not nan or inf", row=i)
            rows.append(values)
            lab = row[N_FEATURES].strip().lower()
            if lab not in (VERDICT_NORMAL, VERDICT_ATTACK):
                raise DatasetError(f"label must be normal or attack, got {lab!r}", row=i)
            labels.append(LABEL_ATTACK if lab == VERDICT_ATTACK else LABEL_NORMAL)
    if not rows:
        raise DatasetError("dataset has no samples")
    return np.array(rows, dtype=float), np.array(labels, dtype=int)


def write_dataset_csv(path, data: np.ndarray, labels: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(list(FEATURE_NAMES) + ["label"])
        for row, lab in zip(np.asarray(data, dtype=float), labels):
            writer.writerow([f"{x:.9g}" for x in row]
                            + [VERDICT_ATTACK if lab == LABEL_ATTACK else VERDICT_NORMAL])


def write_verdicts_csv(path, results: list[Classification]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["verdict", "best_match", "distance"])
        for c in results:
            writer.writerow([c.verdict, c.best_match, f"{c.distance:.9g}"])


@_names_file
def read_verdicts_csv(path) -> list[str]:
    out = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header or header[0] != "verdict":
            raise DatasetError("not a verdict file")
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if row[0] not in (VERDICT_NORMAL, VERDICT_ATTACK, VERDICT_UNCLASSIFIED):
                raise DatasetError(f"bad verdict {row[0]!r}", row=i)
            out.append(row[0])
    return out
