import re

import numpy as np
import pytest

from aucmax.data import (
    Dataset,
    GaussianToySpec,
    dataset_hash,
    gen_gaussian_toy,
    inject_easy,
    inject_noise,
    load_csv,
    make_imbalanced,
    save_csv,
)
from aucmax.errors import ValidationError
from aucmax.metrics import auc_score


class TestGaussianToy:
    def test_counts_and_prior(self):
        data = gen_gaussian_toy(GaussianToySpec(n_pos=10, n_neg=100, seed=0))
        assert len(data) == 110
        assert data.n_pos == 10 and data.n_neg == 100
        assert data.p == pytest.approx(10 / 110)
        assert data.dim == 2

    def test_deterministic(self):
        a = gen_gaussian_toy(GaussianToySpec(seed=5))
        b = gen_gaussian_toy(GaussianToySpec(seed=5))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = gen_gaussian_toy(GaussianToySpec(seed=6))
        assert not np.array_equal(a.X, c.X)

    def test_six_sigma_separation_near_perfect_auc(self):
        # centers 6*cov_scale apart along the diagonal; project on the
        # separating direction and check the oracle AUC
        d = 6.0 / np.sqrt(2) / 2
        spec = GaussianToySpec(mean_pos=(d, d), mean_neg=(-d, -d),
                               cov_scale=1.0, n_pos=1000, n_neg=9000, seed=7)
        data = gen_gaussian_toy(spec)
        scores = data.X @ np.array([1.0, 1.0])
        assert auc_score(scores, data.y).auc >= 0.999

    @pytest.mark.parametrize("mean", [(np.nan, 1.0), (1.0, -np.inf), (1.0,), (1.0, 2.0, 3.0)])
    @pytest.mark.parametrize("name", ["mean_pos", "mean_neg"])
    def test_mean_must_be_two_finite_numbers(self, name, mean):
        with pytest.raises(ValidationError, match=f"{name} must be two finite numbers"):
            GaussianToySpec(**{name: mean})


class TestMakeImbalanced:
    def test_noop_when_ratio_equals_prior(self):
        data = gen_gaussian_toy(GaussianToySpec(n_pos=50, n_neg=50, seed=1))
        kept, removed = make_imbalanced(data, 0.5, seed=0)
        assert len(kept) == 100 and len(removed) == 0

    def test_one_percent_keeps_five_of_five_hundred(self):
        data = gen_gaussian_toy(GaussianToySpec(n_pos=500, n_neg=500, seed=2))
        kept, removed = make_imbalanced(data, 0.01, seed=3)
        assert kept.n_pos == 5
        assert kept.n_neg == 500
        assert kept.p == pytest.approx(5 / 505)

    def test_conservation_and_negatives_untouched(self):
        data = gen_gaussian_toy(GaussianToySpec(n_pos=80, n_neg=120, seed=4))
        kept, removed = make_imbalanced(data, 0.1, seed=5)
        assert kept.n_pos + len(removed) == 80
        assert removed.n_neg == 0
        kept_negs = np.sort(kept.X[kept.y < 0], axis=0)
        orig_negs = np.sort(data.X[data.y < 0], axis=0)
        assert np.array_equal(kept_negs, orig_negs)

    def test_ratio_above_prior_rejected(self):
        data = gen_gaussian_toy(GaussianToySpec(n_pos=10, n_neg=90, seed=6))
        with pytest.raises(ValidationError):
            make_imbalanced(data, 0.5, seed=0)


class TestInjectNoise:
    def _setup(self, seed=0):
        data = gen_gaussian_toy(GaussianToySpec(n_pos=500, n_neg=1000, seed=seed))
        return make_imbalanced(data, 0.01, seed=seed + 1)

    def test_counts(self):
        kept, removed = self._setup()
        noisy = inject_noise(kept, removed, rate=0.05, seed=9)
        flipped_neg = int((noisy.y_true == -1).sum())
        flipped_pos = int((noisy.y_true == 1).sum())
        assert flipped_neg == int(0.05 * kept.n_neg)
        assert flipped_pos == int(0.05 * len(removed))
        # flipped negatives now carry +1, re-added positives carry -1
        assert np.all(noisy.y[noisy.y_true == -1] == 1)
        assert np.all(noisy.y[noisy.y_true == 1] == -1)

    def test_zero_effect_rate_returns_same_content(self):
        kept, removed = self._setup(seed=2)
        tiny = inject_noise(kept, removed, rate=1e-6, seed=0)
        assert dataset_hash(tiny) == dataset_hash(kept)

    def test_bookkeeping_only_on_flipped(self):
        kept, removed = self._setup(seed=3)
        noisy = inject_noise(kept, removed, rate=0.05, seed=1)
        flipped = noisy.y_true != 0
        assert np.all(noisy.y[flipped] != noisy.y_true[flipped])
        assert np.all(noisy.y_true[~flipped] == 0)

    def test_true_positive_mass_conserved(self):
        kept, removed = self._setup(seed=4)
        noisy = inject_noise(kept, removed, rate=0.05, seed=2)
        n_added_back = int((noisy.y_true == 1).sum())
        # kept positives + re-added (flipped) positives + untouched removed
        assert kept.n_pos + n_added_back + (len(removed) - n_added_back) == 500

    def test_bad_rate_rejected(self):
        kept, removed = self._setup(seed=5)
        with pytest.raises(ValidationError):
            inject_noise(kept, removed, rate=1.5, seed=0)
        with pytest.raises(ValidationError):
            inject_noise(kept, Dataset(np.zeros((0, 2)), np.zeros(0)), 0.05, 0)


class TestInjectEasy:
    def _setup(self):
        data = gen_gaussian_toy(GaussianToySpec(n_pos=100, n_neg=100, seed=8))
        kept, removed = make_imbalanced(data, 0.05, seed=9)
        rng = np.random.default_rng(10)
        scores = rng.normal(size=len(removed))
        return kept, removed, scores

    def test_zero_fraction_unchanged(self):
        kept, removed, scores = self._setup()
        out, rest = inject_easy(kept, removed, scores, top_frac=1e-9)
        assert dataset_hash(out) == dataset_hash(kept)
        assert dataset_hash(rest) == dataset_hash(removed)

    def test_full_fraction_restores_all(self):
        kept, removed, scores = self._setup()
        out, rest = inject_easy(kept, removed, scores, top_frac=1.0)
        assert out.n_pos == kept.n_pos + len(removed)
        assert len(rest) == 0

    def test_sorting_contract(self):
        kept, removed, scores = self._setup()
        out, rest = inject_easy(kept, removed, scores, top_frac=0.3)
        k = int(0.3 * len(removed))
        added = out.X[len(kept):]
        added_scores = sorted(scores, reverse=True)[:k]
        assert min(added_scores) >= max(sorted(scores, reverse=True)[k:])
        assert len(added) == k
        assert np.all(out.y[len(kept):] == 1)
        # the rest are the removed positives not re-added, in their original order
        not_added = [i for i in range(len(removed))
                     if not any(np.array_equal(removed.X[i], x) for x in added)]
        assert np.array_equal(rest.X, removed.X[not_added])
        assert np.all(rest.y == 1) and np.all(rest.y_true == 0)

    def test_misaligned_scores_rejected(self):
        kept, removed, scores = self._setup()
        with pytest.raises(ValidationError):
            inject_easy(kept, removed, scores[:-1], top_frac=0.5)


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        data = gen_gaussian_toy(GaussianToySpec(n_pos=20, n_neg=30, seed=11))
        kept, removed = make_imbalanced(data, 0.2, seed=12)
        noisy = inject_noise(kept, removed, rate=0.2, seed=13)
        path = tmp_path / "d.csv"
        save_csv(noisy, path)
        back = load_csv(path)
        assert np.array_equal(back.X, noisy.X)
        assert np.array_equal(back.y, noisy.y)
        assert np.array_equal(back.y_true, noisy.y_true)

    def test_truth_column_only_when_noisy(self, tmp_path):
        clean = gen_gaussian_toy(GaussianToySpec(n_pos=3, n_neg=3, seed=14))
        path = tmp_path / "clean.csv"
        save_csv(clean, path)
        header = path.read_text().splitlines()[0]
        assert header == "f0,f1,label"

    def test_minimal_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("f0,f1,label\n0.5,-1.0,1\n")
        data = load_csv(path)
        assert len(data) == 1 and data.dim == 2 and data.y[0] == 1

    def test_zero_label_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0.5,1\n0.25,0\n")
        with pytest.raises(ValidationError, match=":3"):
            load_csv(path)

    def test_malformed_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n0.5,1\n")
        with pytest.raises(ValidationError, match=":2"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,target\n0.5,1.0,1\n")
        with pytest.raises(ValidationError):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "1e400", "-inf"])
    def test_non_finite_feature_rejected_with_line(self, tmp_path, cell):
        # the blank line still counts: the bad row is on line 4
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n0.5,1.0,1\n\n0.25,{cell},-1\n{cell},0.0,1\n")
        message = f"^{re.escape(str(path))}:4: features must be finite$"
        with pytest.raises(ValidationError, match=message):
            load_csv(path)

    @pytest.mark.parametrize("text, where, message", [
        ("", "", "empty file"),
        ("f0,f1,label\n0.5,x,1\n", ":2", "unparseable feature value"),
        ("f0,label,true_label\n0.5,1,\n0.5,1,0\n", ":3",
         "true_label must be 1, -1 or empty, got '0'"),
        ("f0,f1,label\n\n", "", "no data rows"),
    ], ids=["empty_file", "unparseable_feature", "bad_true_label", "no_rows"])
    def test_bad_file_rejected_with_its_message(self, tmp_path, text, where, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}{where}: {message}')}$"):
            load_csv(path)


_ONE_EACH = Dataset(np.zeros((2, 2)), np.array([1, -1]))
_ONE_POS = Dataset(np.zeros((1, 2)), np.array([1]))


@pytest.mark.parametrize("call, message", [
    (lambda: Dataset(np.zeros((3, 2)), np.array([1, -1])),
     "X shape (3, 2) does not match 2 labels"),
    (lambda: Dataset(np.zeros((2, 2)), np.array([1, -1]), np.array([0])),
     "y_true length does not match labels"),
    (lambda: Dataset(np.zeros((2, 2)), np.array([1, -1]), np.array([0, 2])),
     "y_true entries must be +1, -1 or 0 (absent)"),
    (lambda: GaussianToySpec(n_pos=0), "need at least one sample per class"),
    (lambda: make_imbalanced(_ONE_EACH, 0.6, 0),
     "imratio must be in (0, 0.5] for n_pos = 1, n_neg = 1, got 0.6"),
    (lambda: make_imbalanced(Dataset(np.zeros((3, 2)), np.array([1, 1, 1])), 1.0, 0),
     "imbalancing needs both classes, got n_pos = 3, n_neg = 0"),
    (lambda: make_imbalanced(Dataset(np.zeros((0, 2)), np.array([], dtype=int)), 0.5, 0),
     "imbalancing needs both classes, got n_pos = 0, n_neg = 0"),
    (lambda: inject_noise(_ONE_EACH, _ONE_EACH, 0.05, 0),
     "removed pool must contain only positives"),
    (lambda: inject_easy(_ONE_EACH, _ONE_POS, [0.5], top_frac=0.0),
     "top_frac must be in (0,1], got 0.0"),
], ids=["x_rows", "y_true_length", "y_true_entries", "empty_class", "imratio_above_prior",
        "no_negatives", "no_rows", "negative_in_pool", "top_frac_zero"])
def test_bad_input_rejected_with_its_message(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def test_dataset_validation():
    with pytest.raises(ValidationError, match=r"^labels must be \+1 or -1$"):
        Dataset(np.zeros((3, 2)), np.array([1, 2, -1]))
    with pytest.raises(ValidationError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1]))
    d = Dataset(np.zeros((2, 2)), np.array([1, -1]))
    assert d.y_true.tolist() == [0, 0]  # no ground-truth annotation
