import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aucmax
from aucmax.errors import ValidationError
from aucmax.metrics import _auc, _class_split, accuracy, auc_score, auc_sensitivity_demo
from aucmax.verify import auc_pair_count


def _random_instance(rng, with_ties=False):
    n_pos = int(rng.integers(1, 30))
    n_neg = int(rng.integers(1, 30))
    scores = rng.normal(size=n_pos + n_neg)
    if with_ties:
        scores = np.round(scores, 1)
    labels = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
    return scores, labels


class TestAucScore:
    def test_perfect_and_inverted(self):
        assert auc_score([1.0, 0.0], [1, -1]).auc == 1.0
        assert auc_score([0.0, 1.0], [1, -1]).auc == 0.0

    def test_tie_policies_on_full_tie(self):
        assert auc_score([0.5, 0.5], [1, -1], tie_policy="half").auc == 0.5
        assert auc_score([0.5, 0.5], [1, -1], tie_policy="geq").auc == 1.0

    def test_ranksum_equals_pair_count_200_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            scores, labels = _random_instance(rng, with_ties=(trial % 3 == 0))
            for policy in ("half", "geq"):
                fast = auc_score(scores, labels, tie_policy=policy).auc
                slow = auc_pair_count(scores, labels, tie_policy=policy)
                assert fast == pytest.approx(slow, abs=1e-13)

    @settings(max_examples=80, deadline=None)
    @given(
        pos=st.lists(st.floats(-4, 4), min_size=1, max_size=12),
        neg=st.lists(st.floats(-4, 4), min_size=1, max_size=12),
    )
    def test_ranksum_equals_pair_count_property(self, pos, neg):
        scores = np.array(pos + neg)
        labels = np.array([1] * len(pos) + [-1] * len(neg))
        assert auc_score(scores, labels).auc == pytest.approx(
            auc_pair_count(scores, labels), abs=1e-13)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(1)
        scores, labels = _random_instance(rng)
        base = auc_score(scores, labels).auc
        assert auc_score(np.exp(scores), labels).auc == pytest.approx(base, abs=1e-13)
        assert auc_score(3.0 * scores + 7.0, labels).auc == pytest.approx(base, abs=1e-13)

    def test_negation_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            scores, labels = _random_instance(rng, with_ties=True)
            total = auc_score(scores, labels).auc + auc_score(-scores, labels).auc
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_separated_data_scores_one_regardless_of_scale(self):
        scores = np.array([1e-9, 2e-9, -1e9, -2e9])
        labels = np.array([1, 1, -1, -1])
        assert auc_score(scores, labels).auc == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            auc_score([1.0, 2.0], [1, 1])

    def test_counts_and_tie_mass(self):
        res = auc_score([1.0, 0.5, 0.5, 0.0], [1, 1, -1, -1])
        assert (res.n_pos, res.n_neg) == (2, 2)
        assert res.tie_mass == pytest.approx(0.25)

    @pytest.mark.parametrize("policy", ["half", "geq"])
    def test_any_nan_score_gives_nan(self, policy):
        res = auc_score([0.1, np.nan, 0.3, 0.2], [1, -1, 1, -1], tie_policy=policy)
        assert np.isnan(res.auc)
        assert res.tie_mass == 0.0
        # NaNs of both classes count as one tied group, as np.unique groups them
        res = auc_score([np.nan, np.nan, 0.3, 0.2], [1, -1, 1, -1], tie_policy=policy)
        assert np.isnan(res.auc)
        assert res.tie_mass == 0.25

    def test_ties_with_infinities_equal_pair_count(self):
        rng = np.random.default_rng(5)
        special = [-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf]
        pools = [
            (special, special),
            (special + [np.nan], special),             # NaNs among positives only
            (special, special + [np.nan]),             # among negatives only
            (special + [np.nan], special + [np.nan]),  # in both classes
            ([0.25], [0.25]),                          # every score tied
        ]
        for pos_values, neg_values in pools:
            for trial in range(200):
                n_pos = 1 if trial % 4 == 0 else int(rng.integers(1, 13))
                n_neg = int(rng.integers(1, 13))
                scores = np.concatenate([rng.choice(pos_values, n_pos),
                                         rng.choice(neg_values, n_neg)])
                labels = np.repeat([1, -1], [n_pos, n_neg])
                order = rng.permutation(scores.size)
                scores, labels = scores[order], labels[order]
                sp = scores[labels > 0][:, None]
                sn = scores[labels < 0][None, :]
                # NaNs of both classes are one tied group
                ties = np.sum((sp == sn) | (np.isnan(sp) & np.isnan(sn)))
                for policy in ("half", "geq"):
                    res = auc_score(scores, labels, tie_policy=policy)
                    if np.isnan(scores).any():
                        assert np.isnan(res.auc)
                    else:
                        assert res.auc == auc_pair_count(scores, labels, tie_policy=policy)
                    assert res.tie_mass == ties / (n_pos * n_neg)


_GRID = [-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0]


@st.composite
def _tie_instances(draw):
    """Per-class scores built to reach each branch of the tie count."""
    case = draw(st.sampled_from(["at_insertion", "above_all", "signed_zeros", "nan_pos",
                                 "nan_neg"]))
    neg = draw(st.lists(st.sampled_from(_GRID), min_size=1, max_size=12))
    if case == "at_insertion":
        # cross-class ties only where a positive equals the negative at its
        # left insertion point, mixed with untied positives in between
        pos = draw(st.lists(st.sampled_from(neg + [v + 0.25 for v in _GRID]),
                            min_size=1, max_size=12))
    elif case == "above_all":
        # every insertion point is past the last negative
        pos = [max(neg) + draw(st.floats(1e-3, 1e3)) for _ in range(draw(st.integers(1, 12)))]
    elif case == "signed_zeros":
        neg = draw(st.lists(st.sampled_from([-0.0, 0.0, -1.0]), min_size=1, max_size=12))
        pos = draw(st.lists(st.sampled_from([-0.0, 0.0, 1.0]), min_size=1, max_size=12))
    else:
        pos = draw(st.lists(st.sampled_from(_GRID), min_size=1, max_size=12))
        nan_class = pos if case == "nan_pos" else neg
        nan_class += [np.nan] * draw(st.integers(1, 3))
    order = draw(st.permutations(range(len(pos) + len(neg))))
    scores = np.array(pos + neg)[order]
    labels = np.repeat([1, -1], [len(pos), len(neg)])[order]
    return scores, labels


class TestAucTieCount:
    @settings(max_examples=300, deadline=None)
    @given(instance=_tie_instances(), policy=st.sampled_from(["half", "geq"]))
    def test_counts_equal_pair_enumeration(self, instance, policy):
        scores, labels = instance
        res = auc_score(scores, labels, tie_policy=policy)
        sp = scores[labels > 0][:, None]
        sn = scores[labels < 0][None, :]
        ties = np.sum((sp == sn) | (np.isnan(sp) & np.isnan(sn)))
        assert res.tie_mass == ties / (sp.size * sn.size)
        if np.isnan(scores).any():
            assert np.isnan(res.auc)
        else:
            assert res.auc == auc_pair_count(scores, labels, tie_policy=policy)


@settings(max_examples=200, deadline=None)
@given(instance=_tie_instances(), policy=st.sampled_from(["half", "geq"]),
       seed=st.integers(0, 2**16))
def test_per_run_class_split_is_bitwise_auc_score(instance, policy, seed):
    # training splits its labels once, then scores every epoch through the
    # split: here the instance, a shuffle of it and tied random scores
    scores, labels = instance
    split = _class_split(labels)
    rng = np.random.default_rng(seed)
    for s in (scores, rng.permutation(scores), np.round(rng.normal(size=scores.size), 1)):
        want, got = auc_score(s, labels, tie_policy=policy), _auc(s, *split, policy)
        assert (got.n_pos, got.n_neg) == (want.n_pos, want.n_neg)
        assert np.array_equal(np.array([got.auc, got.tie_mass]).view(np.int64),
                              np.array([want.auc, want.tie_mass]).view(np.int64))


class TestIllustrationInstance:
    """25 samples, 3 positives perfectly ranked, two negatives over threshold."""

    def _instance(self):
        pos = [0.9, 0.8, 0.7]
        neg = [0.6, 0.6, 0.47, 0.47, 0.45, 0.43, 0.42] + \
              [round(0.12 + 0.02 * i, 2) for i in range(14)] + [0.1]
        scores = np.array(pos + neg)
        labels = np.array([1] * 3 + [-1] * 22)
        return scores, labels

    def test_auc_is_one_accuracy_092(self):
        scores, labels = self._instance()
        assert auc_score(scores, labels).auc == 1.0
        assert accuracy(scores, labels, threshold=0.5) == pytest.approx(0.92)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0.9, 0.1], [1, -1], 0.5) == 1.0

    def test_threshold_tie_counts_positive(self):
        assert accuracy([0.5], [1], 0.5) == 1.0
        assert accuracy([0.5], [-1], 0.5) == 0.0

    def test_nan_threshold_rejected_infinities_allowed(self):
        with pytest.raises(ValidationError, match="threshold must not be NaN"):
            accuracy([0.9, 0.1], [1, -1], float("nan"))
        assert accuracy([0.9, 0.1], [1, 1], -np.inf) == 1.0
        assert accuracy([0.9, 0.1], [1, 1], np.inf) == 0.0

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0, 1, 40)
        labels = np.where(rng.uniform(size=40) > 0.5, 1, -1)
        base = accuracy(scores, labels, 0.5)
        # reflect scores about the threshold and flip labels; ties break the
        # symmetry so keep scores off the threshold
        scores = np.where(scores == 0.5, 0.51, scores)
        base = accuracy(scores, labels, 0.5)
        assert accuracy(1.0 - scores, -labels, 0.5) == pytest.approx(base)


class TestSensitivityDemo:
    def test_accuracy_constant_auc_strictly_decreasing(self):
        rep = auc_sensitivity_demo()
        assert rep.accuracies == (0.92, 0.92, 0.92)
        assert rep.aucs[0] == 1.0
        assert rep.aucs[0] > rep.aucs[1] > rep.aucs[2]

    def test_derived_auc_matches_pair_count_formula(self):
        rep = auc_sensitivity_demo()
        # one positive demoted below 7 negatives, then two positives
        assert rep.aucs[1] == pytest.approx(1.0 - 7 / 66, abs=1e-12)
        assert rep.aucs[2] == pytest.approx(1.0 - 14 / 66, abs=1e-12)
        for scores in rep.scores:
            assert auc_score(scores, rep.labels).auc == pytest.approx(
                auc_pair_count(scores, rep.labels), abs=1e-13)

    def test_renderings(self):
        rep = auc_sensitivity_demo()
        text = rep.as_text()
        assert "base" in text and "0.92" in text
        csv = rep.as_csv()
        assert csv.startswith("case,accuracy,auc")
        assert len(csv.strip().splitlines()) == 4


@pytest.mark.parametrize("bad", [0, 2, 0.5, float("nan")])
@pytest.mark.parametrize("metric", [auc_score, accuracy])
def test_labels_other_than_plus_minus_one_rejected(metric, bad):
    metric([0.3, -0.2, 0.1], [1, -1, 1])
    with pytest.raises(ValidationError, match="labels must be"):
        metric([0.3, -0.2, 0.1], [1, -1, bad])


@pytest.mark.parametrize("call, message", [
    (lambda: auc_score([0.3, -0.2], [1, -1], tie_policy="lt"),
     "tie_policy must be 'half' or 'geq', got 'lt'"),
    (lambda: accuracy([], []), "accuracy of an empty sample set is undefined"),
    (lambda: auc_pair_count([0.3, -0.2], [1, 1]), "AUC needs at least one sample of each class"),
    (lambda: auc_score([0.3, -0.2], [1, 1]),
     "AUC: needs both classes, got 2 positive, 0 negative"),
], ids=["tie_policy", "empty_accuracy", "one_class_pair_count", "one_class_auc"])
def test_bad_input_rejected_with_its_message(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


def _loaded_by_import_aucmax(module: str) -> bool:
    code = f"import sys, aucmax.cli; print({module!r} in sys.modules)"
    src = os.path.dirname(os.path.dirname(aucmax.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    return out.stdout.strip() == "True"


@pytest.mark.parametrize("module", ["scipy", "scipy.special", "scipy.stats", "multiprocessing"])
def test_import_leaves_module_unloaded(module):
    # aucmax imports no scipy module, which is only the tests' oracle (the
    # pointwise sigmoid is losses._expit), nor multiprocessing, which even a
    # scenario that forks worker processes does not load (TestParallelRuns)
    assert not _loaded_by_import_aucmax(module)
