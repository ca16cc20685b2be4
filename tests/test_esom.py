import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from manetsec import esom

from conftest import train_som_reference


def make_two_class(n_per, sep, rng):
    """Two isotropic 7-D Gaussians; `sep` is the per-feature mean shift in
    units of the common per-feature standard deviation (the same convention
    the traffic generator's effect size uses)."""
    normal = rng.normal(0.0, 1.0, size=(n_per, 7))
    attack = rng.normal(sep, 1.0, size=(n_per, 7))
    data = np.vstack([normal, attack])
    labels = np.concatenate([np.zeros(n_per, dtype=int), np.ones(n_per, dtype=int)])
    order = rng.permutation(len(data))
    return data[order], labels[order]


def truth_strings(labels):
    return [esom.VERDICT_ATTACK if l else esom.VERDICT_NORMAL for l in labels]


SMALL = esom.SomConfig(rows=12, cols=16, epochs=10)


@pytest.fixture(scope="module")
def small_model():
    rng = np.random.default_rng(21)
    data, labels = make_two_class(400, 4.0, rng)
    model = esom.fit_detector(data, labels, SMALL, np.random.default_rng(3))
    return model, data, labels


class TestNormalization:
    def test_moments_against_recomputation(self):
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.5, size=(500, 7))
        normed, stats = esom.normalize_features(data)
        assert np.all(np.abs(normed.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(normed.var(axis=0) - 1.0) < 1e-6)

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(300, 7))
        once, _ = esom.normalize_features(data)
        twice, _ = esom.normalize_features(once)
        assert np.allclose(once, twice, atol=1e-12)

    def test_constant_feature_floored_with_warning(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(50, 7))
        data[:, 3] = 42.0
        with pytest.warns(UserWarning, match="rts_retx_rate"):
            normed, _ = esom.normalize_features(data)
        assert np.all(normed[:, 3] == 0.0)

    def test_round_trip_invertibility(self):
        rng = np.random.default_rng(3)
        data = rng.normal(5.0, 3.0, size=(200, 7))
        normed, stats = esom.normalize_features(data)
        assert np.all(np.abs(normed * stats.std + stats.mean - data) < 1e-9)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            esom.normalize_features(np.zeros((1, 7)))

    @pytest.mark.parametrize("bad", [{17: np.nan}, {63: np.inf}, {17: np.nan, 63: -np.inf}])
    def test_non_finite_samples_refused_before_training(self, bad):
        # a nan column would train nan weights that save_model writes and
        # load_model refuses; the set is refused as the CSV reader refuses it
        data, labels = make_two_class(50, 4.0, np.random.default_rng(61))  # 100 samples
        for row, value in bad.items():
            data[row, row % 7] = value
        with pytest.raises(esom.DatasetError, match=f"sample {min(bad)}: .*finite"):
            esom.fit_detector(data, labels, esom.SomConfig(rows=4, cols=5, epochs=2),
                              np.random.default_rng(5))


class TestTraining:
    def test_single_point_attractor(self):
        # one repeated training point pulls every neuron onto it, with the
        # worst-neuron distance shrinking monotonically epoch over epoch
        point = np.full((1, 7), 2.0)
        data = np.repeat(point, 8, axis=0)
        cfg = esom.SomConfig(rows=4, cols=5, epochs=12)
        dists = []
        esom.train_som(data, cfg, np.random.default_rng(5),
                       on_epoch=lambda e, w: dists.append(
                           np.linalg.norm(w - point, axis=1).max()))
        assert all(a >= b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 1e-6

    def test_two_clusters_form_disjoint_regions(self):
        rng = np.random.default_rng(11)
        data, labels = make_two_class(300, 4.0, rng)
        normed, _ = esom.normalize_features(data)
        grid = esom.train_som(normed, SMALL, np.random.default_rng(13))
        bmus = esom.bmu_indices(grid, normed)
        rows, cols = np.divmod(bmus, grid.cols)
        # the two classes occupy essentially disjoint neuron sets
        set_n = set(bmus[labels == 0].tolist())
        set_a = set(bmus[labels == 1].tolist())
        overlap_samples = sum(1 for b, l in zip(bmus, labels)
                              if (b in set_n and b in set_a))
        assert overlap_samples / len(bmus) < 0.05

    def test_seed_determinism(self):
        rng = np.random.default_rng(17)
        data, _ = make_two_class(100, 3.0, rng)
        cfg = esom.SomConfig(rows=6, cols=7, epochs=5)
        g1 = esom.train_som(data, cfg, np.random.default_rng(23))
        g2 = esom.train_som(data, cfg, np.random.default_rng(23))
        assert g1.weights.tobytes() == g2.weights.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            esom.SomConfig(rows=1, cols=5).validate()
        with pytest.raises(ValueError):
            esom.SomConfig(hill_quantile=1.5).validate()
        esom.SomConfig(rows=65535, cols=2).validate()   # the model header's uint16
        for rows, cols in ((65536, 2), (2, 65536)):
            with pytest.raises(ValueError, match="each side must be at most 65535"):
                esom.SomConfig(rows=rows, cols=cols).validate()

    def test_on_epoch_gets_a_detached_neuron_major_copy(self):
        rng = np.random.default_rng(19)
        data, _ = make_two_class(40, 3.0, rng)
        cfg = esom.SomConfig(rows=3, cols=5, epochs=4)
        seen = []

        def scribble(epoch, w):
            seen.append((epoch, w.shape, w.dtype, w.flags.c_contiguous))
            w[...] = np.nan  # must not reach the trainer

        plain = esom.train_som(data, cfg, np.random.default_rng(29))
        scribbled = esom.train_som(data, cfg, np.random.default_rng(29), on_epoch=scribble)
        assert seen == [(e, (15, 7), np.float64, True) for e in range(4)]
        assert scribbled.weights.tobytes() == plain.weights.tobytes()
        assert plain.weights.shape == (15, 7) and plain.weights.flags.c_contiguous


def train_both(case):
    """Final weights and per-epoch snapshots of `train_som` and the oracle."""
    data, cfg, seed = case
    out = []
    for train in (esom.train_som, train_som_reference):
        snaps = []
        with np.errstate(all="ignore"):
            grid = train(data, cfg, np.random.default_rng(seed),
                         on_epoch=lambda e, w: snaps.append(w.tobytes()))
        out.append((grid.weights.tobytes(), snaps))
    return out


@st.composite
def trainer_cases(draw):
    """Small lattices (2xN and non-square too) and samples built for exact
    ties, zero distances, squares that underflow or overflow, and nan/inf."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cfg = esom.SomConfig(rows=draw(st.integers(2, 5)), cols=draw(st.integers(2, 6)),
                         epochs=draw(st.integers(1, 4)))
    n = draw(st.integers(3, 12))
    if draw(st.booleans()):   # small integers: exact ties
        data = rng.integers(-2, 3, size=(n, 7)).astype(float)
    else:
        data = rng.normal(size=(n, 7))
    data *= draw(st.sampled_from([1.0, 1e-160, 1e154]))  # squares underflow / overflow
    if draw(st.booleans()):   # duplicated samples
        data[rng.integers(n, size=n // 2)] = data[rng.integers(n, size=n // 2)]
    if draw(st.booleans()):   # the first sample drawn sits on an initial neuron
        replay = np.random.default_rng(seed)
        lo, hi = data.min(axis=0), data.max(axis=0)
        w0 = replay.uniform(size=(cfg.rows * cfg.cols, 7)) * (hi - lo) + lo
        order = replay.permutation(n)
        data[order[-2:]] = lo, hi   # lo and hi, so w0 stays the same
        data[order[0]] = w0[rng.integers(len(w0))]
    if draw(st.booleans()):   # nan and inf entries
        cells = rng.integers(n * 7, size=draw(st.integers(1, 3)))
        data.flat[cells] = rng.choice([np.nan, np.inf, -np.inf], size=len(cells))
    return data, cfg, seed


# Three points, three copies each, whose features span fifteen orders of
# magnitude: on a 3x3 lattice at seed 221 the row formula
# `einsum("ij,ij->i")`, which sums the squares in another order than the
# left fold, picks another neuron at one step.
ROW_FORMULA_DIFFERS = (
    np.repeat(np.array([[float.fromhex(v) for v in row] for row in (
        ("0x1.0000000000000p+0", "0x1.a36e2eb1c460fp-13", "0x1.3a92a30553997p-12",
         "0x1.c9c3800000005p+24", "0x1.0c6f7a0b5ed8dp-20", "0x1.f400000000009p+9",
         "0x1.ad7f29abefd94p-24"),
        ("0x1.0000000000005p+0", "0x1.a36e2eb1c432dp-13", "0x1.3a92a30553262p-12",
         "0x1.c9c3800000000p+24", "0x1.0c6f7a0b75e7cp-20", "0x1.f400000000009p+9",
         "0x1.ad7f29abefd94p-24"),
        ("0x1.0000000000005p+0", "0x1.a36e2eb1c449ep-13", "0x1.3a92a30553262p-12",
         "0x1.c9c3800000000p+24", "0x1.0c6f7a0b5ed8dp-20", "0x1.f400000000000p+9",
         "0x1.ad7f29abdd66ep-24"))]), 3, axis=0),
    esom.SomConfig(rows=3, cols=3, epochs=8),
    221,
)


def same_bits(a, b):
    """Equal bit for bit where not nan, and nan in the same places."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def classifier_bmu(diff):
    """`bmu_indices` on the step's `(dim, N)` differences as the map and a
    zero sample: it measures 0 - (w - x) = -(w - x), the step's squares."""
    return int(esom.bmu_indices(esom.SomGrid(1, diff.shape[1], diff.T.copy()),
                                np.zeros((1, len(diff))))[0])


class TestOnlineTrainer:
    """`train_som` stores, step by step, the bytes of the neuron-major
    oracle `train_som_reference`."""

    # n = 1 and 2 at epochs 1 and 3, the schedule's edges: denom =
    # max(epochs * n - 1, 1) is clamped to 1 (n = 1, one epoch), or is 2, 1
    # and 5; the oracle computes each step's floats on its own
    @settings(derandomize=True, max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @example(case=ROW_FORMULA_DIFFERS)
    @example(case=(np.array([[0.5, -1.0, 2.0, 0.0, 3.0, -0.25, 1.0]]),
                   esom.SomConfig(rows=2, cols=3, epochs=1), 41))
    @example(case=(np.array([[0.5, -1.0, 2.0, 0.0, 3.0, -0.25, 1.0]]),
                   esom.SomConfig(rows=3, cols=2, epochs=3), 43))
    @example(case=(np.array([[0.5, -1.0, 2.0, 0.0, 3.0, -0.25, 1.0],
                             [-2.0, 1.5, 0.0, 4.0, -1.0, 0.75, 2.0]]),
                   esom.SomConfig(rows=2, cols=3, epochs=1), 47))
    @example(case=(np.array([[0.5, -1.0, 2.0, 0.0, 3.0, -0.25, 1.0],
                             [-2.0, 1.5, 0.0, 4.0, -1.0, 0.75, 2.0]]),
                   esom.SomConfig(rows=3, cols=4, epochs=3), 53))
    @given(case=trainer_cases())
    def test_equals_reference(self, case):
        (got, got_snaps), (want, want_snaps) = train_both(case)
        assert got == want
        assert got_snaps == want_snaps

    @pytest.mark.parametrize("rows,cols,n,epochs", [(50, 80, 300, 2), (12, 16, 400, 10)])
    def test_equals_reference_at_benchmark_sizes(self, rows, cols, n, epochs):
        rng = np.random.default_rng(rows)
        data, _ = make_two_class(n // 2, 1.5, rng)
        normed, _ = esom.normalize_features(data)
        case = (normed, esom.SomConfig(rows=rows, cols=cols, epochs=epochs), 1)
        (got, got_snaps), (want, want_snaps) = train_both(case)
        assert got == want and got_snaps == want_snaps

    @pytest.mark.parametrize("nonfinite", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e154])
    @pytest.mark.parametrize("rows,cols", [(42, 65), (53, 52)])
    def test_equals_reference_on_both_row_layouts(self, rows, cols, scale, nonfinite):
        # 42x65 (2730 neurons) is the largest map on contiguous rows, 53x52
        # (2756) a map on padded rows; small integers make exact ties, the
        # scales make squares underflow and overflow
        rng = np.random.default_rng(rows)
        data = rng.integers(-2, 3, size=(12, 7)).astype(float) * scale
        if nonfinite:
            data.flat[[9, 38, 75]] = np.nan, np.inf, -np.inf
        case = (data, esom.SomConfig(rows=rows, cols=cols, epochs=2), cols)
        (got, got_snaps), (want, want_snaps) = train_both(case)
        assert got == want and got_snaps == want_snaps

    @pytest.mark.parametrize("rows,cols,stride", [
        (12, 16, 192),    # radio_200's map: contiguous rows
        (42, 65, 2730),   # the largest map on contiguous rows
        (53, 52, 2764),   # just past the threshold: padded rows
        (50, 80, 4008),   # detector_50x80's map: rows padded by 8 floats
    ])
    def test_row_layout_per_map_size(self, monkeypatch, rows, cols, stride):
        strides = set()
        online_bmu = esom._online_bmu

        def spy(diff, screen):
            strides.add(diff.strides)
            return online_bmu(diff, screen)

        monkeypatch.setattr(esom, "_online_bmu", spy)
        data = np.random.default_rng(7).normal(size=(4, 7))
        esom.train_som(data, esom.SomConfig(rows=rows, cols=cols, epochs=1),
                       np.random.default_rng(1))
        assert strides == {(stride * 8, 8)}

    def test_non_matrix_samples_rejected(self):
        with pytest.raises(ValueError, match="need a 2-D sample matrix"):
            esom.train_som(np.zeros(7), esom.SomConfig(rows=3, cols=3, epochs=1),
                           np.random.default_rng(1))

    @pytest.mark.parametrize("nonfinite", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e-160, 1e154, 1e-310])
    @pytest.mark.parametrize("n,stride", [(192, 192), (192, 200), (4000, 4000), (4000, 4008)])
    def test_screen_is_the_exact_distance_bit_for_bit(self, n, stride, scale, nonfinite):
        # the premise of the one BMU rule: on contiguous and padded rows the
        # trainer's screen sums the squares in the order `_exact_d2` does, in
        # the gathered (k, dim) form and in bmu_indices' (r, N, dim) redo form
        rng = np.random.default_rng(n + stride)
        weights = np.empty((7, stride))[:, :n]
        weights[:, : n // 2] = rng.integers(-2, 3, size=(7, n // 2))   # exact ties
        weights[:, n // 2 :] = rng.normal(size=(7, n - n // 2))
        samples = np.vstack([rng.integers(-2, 3, size=(2, 7)), rng.normal(size=(2, 7)),
                             weights[:, [3, n - 1]].T])
        weights *= scale
        samples *= scale
        if nonfinite:
            weights.flat[rng.choice(7 * n, size=6, replace=False)] = [np.nan, np.inf, -np.inf] * 2
            samples.flat[[2, 17, 40]] = np.nan, np.inf, -np.inf
        neuron_major = weights.T.copy()
        diff = np.empty((7, stride))[:, :n]
        screen = np.empty(n)
        screens = []
        with np.errstate(over="ignore", invalid="ignore"):
            for x in samples:
                np.subtract(weights, x[:, None], out=diff)
                bmu = esom._online_bmu(diff, screen)
                gathered = esom._exact_d2(np.repeat(x[None], n, axis=0), neuron_major)
                assert same_bits(screen, gathered)
                assert bmu == int(np.argmin(gathered))
                screens.append(screen.copy())
            redo = esom._exact_d2(samples[:, None, :], neuron_major)
        assert same_bits(np.array(screens), redo)

    def test_trainer_and_classifier_share_one_bmu_rule(self, monkeypatch):
        steps = []
        online_bmu = esom._online_bmu

        def spy(diff, screen):
            bmu = online_bmu(diff, screen)
            steps.append((diff.copy(), bmu))
            return bmu

        monkeypatch.setattr(esom, "_online_bmu", spy)
        (got, _), (want, _) = train_both(ROW_FORMULA_DIFFERS)
        assert got == want and len(steps) == 72
        row_formula_differs = 0
        for diff, bmu in steps:
            assert bmu == classifier_bmu(diff)
            rows = diff.T.copy()
            row_formula_differs += bmu != np.argmin(np.einsum("ij,ij->i", rows, rows))
        assert row_formula_differs > 0

    @staticmethod
    def tied_pair(a, b):
        """Two neurons whose squares are a², b², b² with b² half an ulp of
        a² (an even a²): the left fold sums (b², b², a²) exactly to a² + ulp
        and rounds (a², b², b²) down to a², while the row formula rounds
        both down to a²; neuron 1 wins by the left fold, neuron 0 by the
        row formula's tie rule."""
        diff = np.zeros((7, 2))
        diff[:3, 0] = b, b, a
        diff[:3, 1] = a, b, b
        rows = diff.T.copy()
        assert np.argmin(np.einsum("ij,ij->i", rows, rows)) == 0
        return diff

    def test_a_one_ulp_near_tie_goes_to_the_least_left_fold(self):
        diff = self.tied_pair(3.0, 2.0 ** -25)
        assert esom._online_bmu(diff, np.empty(2)) == 1
        assert classifier_bmu(diff) == 1

    def test_a_near_tie_at_the_largest_double_goes_to_the_least_left_fold(self):
        # a² is one ulp below the largest double: bmu_indices' screen bound
        # overflows and it measures every neuron with `_exact_d2`
        diff = self.tied_pair(float.fromhex("0x1.fffffffffffffp+511"), 2.0 ** 485)
        assert esom._online_bmu(diff, np.empty(2)) == 1
        assert classifier_bmu(diff) == 1


class TestUMatrix:
    def test_flat_grid_zero_heights(self):
        grid = esom.SomGrid(4, 4, np.ones((16, 7)))
        assert np.all(esom.compute_umatrix(grid) == 0.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(29)
        grid = esom.SomGrid(5, 7, rng.normal(size=(35, 7)))
        u = esom.compute_umatrix(grid)
        w = grid.weights.reshape(5, 7, -1)
        for r in range(5):
            for c in range(7):
                ds = []
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        if dr == dc == 0:
                            continue
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < 5 and 0 <= cc < 7:
                            ds.append(np.linalg.norm(w[r, c] - w[rr, cc]))
                assert np.isclose(u[r * 7 + c], np.mean(ds))

    def test_boundary_band_elevated(self, small_model):
        model, _, _ = small_model
        u = esom.compute_umatrix(model.grid)
        hill = model.labeling == esom.LABEL_HILL
        assert u[hill].mean() >= 1.5 * u[~hill].mean()


class TestLabeling:
    def test_all_normal_training(self):
        rng = np.random.default_rng(31)
        data = rng.normal(size=(200, 7))
        cfg = esom.SomConfig(rows=6, cols=6, epochs=6)
        grid = esom.train_som(data, cfg, np.random.default_rng(5))
        u = esom.compute_umatrix(grid)
        with pytest.warns(UserWarning, match="no attack samples"):
            labeling = esom.label_regions(grid, u, data, np.zeros(200, dtype=int))
        valley = labeling != esom.LABEL_HILL
        assert np.all(labeling[valley] == esom.LABEL_NORMAL)

    def test_balanced_clusters_give_both_classes(self, small_model):
        model, _, _ = small_model
        assert (model.labeling == esom.LABEL_NORMAL).any()
        assert (model.labeling == esom.LABEL_ATTACK).any()
        assert (model.labeling == esom.LABEL_HILL).any()

    def test_hill_fraction_tracks_quantile(self, small_model):
        model, _, _ = small_model
        frac = (model.labeling == esom.LABEL_HILL).mean()
        assert abs(frac - (1 - model.hill_quantile)) <= 1.0 / model.grid.n_neurons + 1e-9

    def test_every_neuron_labeled(self, small_model):
        model, _, _ = small_model
        assert set(np.unique(model.labeling)) <= {esom.LABEL_NORMAL, esom.LABEL_ATTACK,
                                                  esom.LABEL_HILL}


def classify_one(grid, labeling, point):
    """classify_batch on a one-row input."""
    (result,) = esom.classify_batch(grid, labeling, np.asarray(point)[None, :])
    return result


class TestTrainingLabels:
    """One 0/1 label per training sample, checked before any training."""

    @pytest.mark.parametrize("n_labels", [1, 39, 41])
    def test_wrong_length_rejected_before_training(self, monkeypatch, n_labels):
        data, labels = make_two_class(20, 4.0, np.random.default_rng(37))  # 40 samples
        trained = []
        monkeypatch.setattr(esom, "train_som", lambda *a, **k: trained.append(a))
        with pytest.raises(ValueError, match="one training label per sample: 40 samples"):
            esom.fit_detector(data, np.resize(labels, n_labels),
                              esom.SomConfig(rows=4, cols=5, epochs=2), np.random.default_rng(5))
        assert trained == []

    @pytest.mark.parametrize("n_labels", [1, 39, 41])
    def test_label_regions_rejects_wrong_length(self, small_model, n_labels):
        model, data, labels = small_model
        normed = esom.apply_normalization(model.stats, data[:40])
        with pytest.raises(ValueError, match="one training label per sample: 40 samples"):
            esom.label_regions(model.grid, esom.compute_umatrix(model.grid), normed,
                               labels[:n_labels])

    def test_labels_other_than_zero_and_one_rejected(self):
        data, labels = make_two_class(20, 4.0, np.random.default_rng(37))
        labels[3] = 2
        with pytest.raises(ValueError, match="must be 0 \\(normal\\) or 1 \\(attack\\)"):
            esom.fit_detector(data, labels, esom.SomConfig(rows=4, cols=5, epochs=2),
                              np.random.default_rng(5))


class TestClassification:
    def test_point_on_attack_neuron(self, small_model):
        model, _, _ = small_model
        attack_idx = int(np.flatnonzero(model.labeling == esom.LABEL_ATTACK)[0])
        result = classify_one(model.grid, model.labeling, model.grid.weights[attack_idx])
        assert result.verdict == esom.VERDICT_ATTACK
        assert result.best_match == attack_idx
        assert result.distance == 0.0

    def test_equidistant_tie_breaks_low_index(self):
        weights = np.zeros((4, 7))
        weights[2] = 1.0
        weights[3] = 1.0
        grid = esom.SomGrid(2, 2, weights)
        labeling = np.array([0, 0, 1, 1], dtype=np.int8)
        point = np.full(7, 1.0)
        res = classify_one(grid, labeling, point)
        assert res.best_match == 2  # 2 and 3 tie; lowest index wins

    def test_bmu_matches_exhaustive_argmin(self, small_model):
        model, data, _ = small_model
        rng = np.random.default_rng(37)
        pts = rng.normal(size=(50, 7))
        for p in pts:
            res = classify_one(model.grid, model.labeling, p)
            d = np.linalg.norm(model.grid.weights - p, axis=1)
            assert res.best_match == int(np.argmin(d))

    def test_hill_maps_to_unclassified(self, small_model):
        model, _, _ = small_model
        hill_idx = int(np.flatnonzero(model.labeling == esom.LABEL_HILL)[0])
        res = classify_one(model.grid, model.labeling, model.grid.weights[hill_idx])
        assert res.verdict == esom.VERDICT_UNCLASSIFIED

    def test_batch_equals_single(self, small_model):
        model, data, _ = small_model
        pts = esom.apply_normalization(model.stats, data[:40])
        batch = esom.classify_batch(model.grid, model.labeling, pts)
        for p, b in zip(pts, batch):
            single = classify_one(model.grid, model.labeling, p)
            assert (single.verdict, single.best_match) == (b.verdict, b.best_match)


def reference_bmu_indices(grid, data, chunk=512):
    """The broadcast search that `bmu_indices` replaced: a (chunk, N, d)
    difference cube per block, argmin with ties to the lowest index."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    out = np.empty(len(data), dtype=np.int64)
    for s in range(0, len(data), chunk):
        block = data[s : s + chunk]
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = ((block[:, None, :] - grid.weights[None, :, :]) ** 2).sum(axis=2)
        out[s : s + chunk] = np.argmin(d2, axis=1)
    return out


@st.composite
def bmu_cases(draw):
    """A map and samples built to sit on or near the screen's rounding bound:
    exact ties, samples on neurons, 1-ulp near-ties and mixed magnitudes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):   # small integers: exact ties everywhere
        weights = rng.integers(0, 3, size=(n, 7)).astype(float)
    else:
        weights = rng.normal(size=(n, 7))
    # squares below 1e-308 are subnormal; at 10^153.43 ≈ 2.7e153 a sample
    # and a neuron on opposite sides can have a finite screen but an exact
    # distance that overflows
    exps = [-162, -158, -150, -8, 0, 8, 150, 153.43]
    mag = 10.0 ** draw(st.sampled_from(exps))
    if draw(st.booleans()):   # one magnitude per neuron
        weights *= 10.0 ** rng.choice(exps, size=(n, 1))
    else:
        weights *= mag
    if n > 1 and draw(st.booleans()):   # duplicated neurons
        weights[rng.integers(n, size=n // 2)] = weights[rng.integers(n, size=n // 2)]
    if n > 1 and draw(st.booleans()):   # neurons one ulp from another
        src, dst = rng.integers(n, size=(2, n // 2))
        weights[dst] = np.nextafter(weights[src], rng.choice([-np.inf, np.inf], size=(len(src), 7)))
    block = esom._block_rows(8 * n)   # rows of one screen block on this map
    length = draw(st.sampled_from([block + 1, block, block - 1, 10000, 1, 0]))
    kind = rng.integers(5, size=length)
    a, b = rng.integers(n, size=(2, length))
    scale = np.where(rng.random((length, 1)) < 0.5, mag,
                     10.0 ** rng.choice(exps, size=(length, 1)))
    data = np.select(
        [kind[:, None] == 0, kind[:, None] == 1, kind[:, None] == 2, kind[:, None] == 3],
        [weights[a],                                               # on a neuron
         np.nextafter(weights[a], rng.choice([-np.inf, np.inf], size=(length, 7))),
         (weights[a] + weights[b]) / 2,                            # equidistant
         np.nextafter((weights[a] + weights[b]) / 2, np.inf)],
        rng.normal(size=(length, 7)) * scale)                      # anywhere
    return esom.SomGrid(1, n, weights), data


class TestBmuSearch:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(case=bmu_cases())
    def test_equals_reference(self, case):
        grid, data = case
        got = esom.bmu_indices(grid, data)
        assert got.dtype == np.int64 and got.shape == (len(data),)
        assert np.array_equal(got, reference_bmu_indices(grid, data))

    def test_overflowing_rows_fall_back_to_the_exact_search(self):
        # the CSV reader accepts these; ‖x‖² overflows, so the screen has no
        # finite bound and the rows are searched exactly (every distance inf:
        # index 0)
        rng = np.random.default_rng(67)
        grid = esom.SomGrid(4, 5, rng.normal(size=(20, 7)))
        data = np.vstack([rng.normal(size=(3, 7)), np.full((2, 7), 1e200),
                          np.full((2, 7), 1e300), -np.full((1, 7), 1e300),
                          rng.normal(size=(3, 7)) * 1e300, rng.normal(size=(3, 7))])
        with np.errstate(over="ignore", invalid="ignore"):
            got = esom.bmu_indices(grid, data)
            want = reference_bmu_indices(grid, data)
        assert np.array_equal(got, want)
        assert np.all(got[3:11] == 0)

    def test_overflowing_map_falls_back_to_the_exact_search(self):
        rng = np.random.default_rng(71)
        weights = rng.normal(size=(20, 7))
        weights[5] = 1e200
        grid = esom.SomGrid(4, 5, weights)
        data = np.vstack([rng.normal(size=(300, 7)), np.full((1, 7), 1e200)])
        with np.errstate(over="ignore", invalid="ignore"):
            got = esom.bmu_indices(grid, data)
            want = reference_bmu_indices(grid, data)
        assert np.array_equal(got, want)
        assert got[-1] == 5

    def test_a_lone_candidate_whose_exact_distance_overflows_is_searched(self):
        # both screens stay finite and only neuron 1 lies within the bound,
        # but both exact distances overflow: they tie at inf, so neuron 0
        a = 2.7e153
        grid = esom.SomGrid(1, 2, np.array([[-1.01 * a] * 7, [-a] * 7]))
        data = np.full((1, 7), a)
        assert esom.bmu_indices(grid, data)[0] == reference_bmu_indices(grid, data)[0] == 0

    def test_the_exhaustive_search_is_silent(self):
        grid = esom.SomGrid(4, 5, np.random.default_rng(67).normal(size=(20, 7)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(esom.bmu_indices(grid, np.full((2, 7), 1e200)) == 0)

    def test_traffic_rows_need_no_exhaustive_search(self, small_model, monkeypatch):
        # on trained maps and traffic-like samples the screen settles every
        # row: `_exact_d2` only ever sees the (r, d) rows of settled samples,
        # never the (r, N, d) cube of the exhaustive search
        ndims = []
        exact_d2 = esom._exact_d2

        def spy(x, w):
            ndims.append(np.ndim(x))
            return exact_d2(x, w)

        model, data, labels = small_model
        rng = np.random.default_rng(103)
        fresh, fresh_labels = make_two_class(300, 1.5, rng)
        held_out, _ = make_two_class(300, 1.5, rng)
        monkeypatch.setattr(esom, "_exact_d2", spy)
        points = esom.apply_normalization(model.stats, data)
        esom.label_regions(model.grid, esom.compute_umatrix(model.grid), points, labels)
        esom.classify_batch(model.grid, model.labeling, points)
        fresh_model = esom.fit_detector(fresh, fresh_labels, SMALL, np.random.default_rng(5))
        esom.classify_batch(fresh_model.grid, fresh_model.labeling,
                            esom.apply_normalization(fresh_model.stats, held_out))
        assert len(ndims) == 10 and set(ndims) == {2}   # one call per screen block

    # budgets giving 1-row screens and a 1-row exhaustive search; 5-row
    # screens and a 1-row search; 23-row screens and a 3-row search (on 20
    # neurons, 7 features)
    @pytest.mark.parametrize("budget", [1, 8 * 20 * 5, 8 * 20 * (7 * 3 + 2)])
    def test_small_blocks_equal_reference(self, budget):
        rng = np.random.default_rng(79)
        weights = rng.integers(0, 3, size=(20, 7)).astype(float)   # exact ties
        grid = esom.SomGrid(4, 5, weights)
        data = np.vstack([weights[rng.integers(20, size=17)],      # on a neuron
                          (weights[:9] + weights[9:18]) / 2,       # equidistant
                          np.full((7, 7), 1e200),                  # exact fallback
                          -np.full((3, 7), 1e300),
                          rng.normal(size=(17, 7))])
        data = data[rng.permutation(len(data))]   # 53 rows, fallback rows scattered
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_bmu_indices(grid, data)
            with mock.patch.object(esom, "_WORK_BYTES", budget):
                got = esom.bmu_indices(grid, data)
        assert np.array_equal(got, want)

        # four neurons, each repeated at indices k, k + 4, ...: every row's
        # best match is one of five equal neurons, and the lowest index must win
        grid = esom.SomGrid(4, 5, np.tile(weights[:4], (5, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_bmu_indices(grid, data)
            with mock.patch.object(esom, "_WORK_BYTES", budget):
                got = esom.bmu_indices(grid, data)
        assert np.array_equal(got, want)

        grid = esom.SomGrid(12, 16, rng.normal(size=(192, 7)))
        u = esom.compute_umatrix(grid)
        data = rng.normal(size=(150, 7))
        labels = rng.integers(0, 2, size=150)
        want = esom.label_regions(grid, u, data, labels)
        with mock.patch.object(esom, "_WORK_BYTES", budget):
            assert np.array_equal(esom.label_regions(grid, u, data, labels), want)

    # Working memory follows esom._WORK_BYTES, not the batch: the traced
    # peak of each kernel at 50x80 stays under a few budgets.
    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_classify_memory_is_bounded(self):
        # the broadcast search held a (512, 4000, 7) float64 cube: 115 MB,
        # and 256-row screens 16 MB
        rng = np.random.default_rng(73)
        grid = esom.SomGrid(50, 80, rng.normal(size=(4000, 7)))
        labeling = rng.integers(0, 3, size=4000).astype(np.int8)
        points = rng.normal(size=(10000, 7))
        results, peak = self.traced_peak(lambda: esom.classify_batch(grid, labeling, points))
        assert len(results) == 10000
        assert peak < 8 * esom._WORK_BYTES

    def test_exact_fallback_memory_is_bounded(self):
        # every row overflows the screen; 256-row fallback cubes took 70 MB
        rng = np.random.default_rng(83)
        grid = esom.SomGrid(50, 80, rng.normal(size=(4000, 7)))
        with np.errstate(over="ignore", invalid="ignore"):
            got, peak = self.traced_peak(
                lambda: esom.bmu_indices(grid, np.full((10000, 7), 1e200)))
        assert np.all(got == 0)   # every distance inf
        assert peak < 8 * esom._WORK_BYTES

    def test_tied_map_memory_is_bounded(self):
        # on an all-zero map every neuron is a candidate of every row; the
        # exact step measured a whole 16-row block's 64 000 candidates at
        # once and peaked at 13.2 MiB
        grid = esom.SomGrid(50, 80, np.zeros((4000, 7)))
        data = np.random.default_rng(97).normal(size=(1000, 7))
        got, peak = self.traced_peak(lambda: esom.bmu_indices(grid, data))
        assert np.all(got == 0)   # every distance ties: the lowest index
        assert peak < 8 * esom._WORK_BYTES

    def test_label_regions_memory_is_bounded(self):
        # the nearest-labeled-valley fill in 256-row blocks took 17 MB
        rng = np.random.default_rng(89)
        grid = esom.SomGrid(50, 80, rng.normal(size=(4000, 7)))
        u = esom.compute_umatrix(grid)
        labels = rng.integers(0, 2, size=2000)
        labeling, peak = self.traced_peak(
            lambda: esom.label_regions(grid, u, rng.normal(size=(2000, 7)), labels))
        assert labeling.shape == (4000,)
        assert peak < 8 * esom._WORK_BYTES


class TestEvaluate:
    def test_all_correct(self):
        rep = esom.evaluate(["attack", "normal"], ["attack", "normal"])
        assert rep.detection_rate == 1.0 and rep.false_alarm_rate == 0.0

    def test_all_attack_verdicts(self):
        rep = esom.evaluate(["attack"] * 4, ["attack", "attack", "normal", "normal"])
        assert rep.detection_rate == 1.0 and rep.false_alarm_rate == 1.0

    def test_absent_class_reports_none(self):
        rep = esom.evaluate(["normal", "normal"], ["normal", "normal"])
        assert rep.detection_rate is None
        assert rep.false_alarm_rate == 0.0

    def test_unclassified_excluded_by_default(self):
        rep = esom.evaluate(["unclassified", "attack"], ["attack", "attack"])
        assert rep.detection_rate == 1.0
        assert rep.unclassified_fraction == 0.5

    def test_unclassified_policies(self):
        verdicts = ["unclassified", "unclassified"]
        truth = ["attack", "normal"]
        as_n = esom.evaluate(verdicts, truth, unclassified="as_normal")
        assert as_n.detection_rate == 0.0 and as_n.false_alarm_rate == 0.0
        as_a = esom.evaluate(verdicts, truth, unclassified="as_attack")
        assert as_a.detection_rate == 1.0 and as_a.false_alarm_rate == 1.0

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            esom.evaluate(["attack"], [])


class TestDetectionQuality:
    def test_monotone_separation_ladder(self):
        rates = []
        for sep in (0.75, 1.5, 3.0):
            gen = np.random.default_rng(41)
            data, labels = make_two_class(300, sep, gen)
            test, tl = make_two_class(200, sep, np.random.default_rng(43))
            model = esom.fit_detector(data, labels, SMALL, np.random.default_rng(47))
            normed = esom.apply_normalization(model.stats, test)
            verdicts = [c.verdict for c in
                        esom.classify_batch(model.grid, model.labeling, normed)]
            rep = esom.evaluate(verdicts, truth_strings(tl))
            rates.append(rep.detection_rate)
        assert rates[0] <= rates[1] <= rates[2]

    def test_high_separation_accuracy(self, small_model):
        model, _, _ = small_model
        test, tl = make_two_class(250, 4.0, np.random.default_rng(53))
        normed = esom.apply_normalization(model.stats, test)
        verdicts = [c.verdict for c in
                    esom.classify_batch(model.grid, model.labeling, normed)]
        rep = esom.evaluate(verdicts, truth_strings(tl))
        assert rep.detection_rate >= 0.95
        assert rep.false_alarm_rate <= 0.05


class TestModelIO:
    def test_round_trip(self, small_model, tmp_path):
        model, data, _ = small_model
        path = tmp_path / "model.bin"
        esom.save_model(path, model)
        back = esom.load_model(path)
        assert back.grid.rows == model.grid.rows
        assert np.allclose(back.grid.weights,
                           model.grid.weights.astype(np.float32), atol=0)
        assert np.array_equal(back.labeling, model.labeling)
        assert np.allclose(back.stats.mean, model.stats.mean)
        assert back.hill_quantile == model.hill_quantile

    def test_serialization_deterministic(self, small_model):
        model, _, _ = small_model
        assert model.to_bytes() == model.to_bytes()

    def test_corrupt_file_rejected(self, tmp_path, small_model):
        model, _, _ = small_model
        raw = model.to_bytes()
        with pytest.raises(esom.DatasetError):
            esom.SomModel.from_bytes(raw[:40])
        with pytest.raises(esom.DatasetError):
            esom.SomModel.from_bytes(b"XXXX" + raw[4:])

    def test_non_finite_weights_rejected(self, tmp_path):
        # a nan weight poisons every BMU distance, so classification would
        # fall back to neuron 0's region for every sample
        model = esom.SomModel(
            grid=esom.SomGrid(rows=2, cols=2, weights=np.zeros((4, esom.N_FEATURES))),
            labeling=np.array([0, 1, 2, 0], dtype=np.int8),
            stats=esom.NormStats(mean=np.zeros(esom.N_FEATURES),
                                 std=np.ones(esom.N_FEATURES)))
        path = tmp_path / "model.bin"
        esom.save_model(path, model)
        assert esom.load_model(path).grid.weights.shape == (4, esom.N_FEATURES)
        raw = path.read_bytes()
        for neuron, value in ((1, np.nan), (3, np.inf)):
            at = esom._HEADER.size + 4 * (neuron * esom.N_FEATURES + 2)
            path.write_bytes(raw[:at] + np.array([value], dtype="<f4").tobytes() + raw[at + 4:])
            with pytest.raises(esom.DatasetError, match="weights must be finite"):
                esom.load_model(path)

    @pytest.mark.parametrize("value", [np.nan, 1.5])
    def test_hill_quantile_outside_unit_interval_rejected(self, small_model, value):
        # the last 8 bytes; SomConfig.validate holds the same (0, 1) bound
        raw = small_model[0].to_bytes()
        with pytest.raises(esom.DatasetError, match="hill_quantile"):
            esom.SomModel.from_bytes(raw[:-8] + struct.pack("<d", value))


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(59)
        data, labels = make_two_class(30, 2.0, rng)
        path = tmp_path / "d.csv"
        esom.write_dataset_csv(path, data, labels)
        back, back_labels = esom.read_dataset_csv(path)
        assert np.allclose(back, data, atol=1e-6)
        assert np.array_equal(back_labels, labels)

    def test_error_carries_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nav,tx_rate,rx_rate,rts_retx_rate,data_retx_rate,"
                        "active_neighbors,forwarding_nodes,label\n"
                        "1,2,3,4,5,6,7,normal\n"
                        "1,2,3,4,5,6,oops,attack\n")
        with pytest.raises(esom.DatasetError, match="row 3"):
            esom.read_dataset_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(esom.DatasetError, match="row 1"):
            esom.read_dataset_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(esom.DatasetError):
            esom.read_dataset_csv(path)

    def test_verdict_round_trip(self, tmp_path):
        results = [esom.Classification("attack", 3, 0.5),
                   esom.Classification("unclassified", 9, 1.25)]
        path = tmp_path / "v.csv"
        esom.write_verdicts_csv(path, results)
        assert esom.read_verdicts_csv(path) == ["attack", "unclassified"]
