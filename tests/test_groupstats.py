"""Subgroup selections and confusion-rate statistics."""

import numpy as np
import pytest

from fairsep.errors import AlignmentError, PredicateError, SchemaError
from fairsep.groupstats import mask, positive_scores, stats, tally

# Fixed prediction vector used for the hand-tabulated counts below.
HPRED = np.array([1, 0, 1, 0, 0, 1, 0, 1], dtype=np.float64)


# ---------------------------------------------------------------------------
# Selections and masks
# ---------------------------------------------------------------------------

def test_empty_predicate_selects_all_rows(toy8):
    m = mask(toy8, ())
    assert m.all() and len(m) == 8


def test_equality_and_threshold_clauses(toy8):
    assert mask(toy8, (("sex", "F"),)).sum() == 4
    assert mask(toy8, (("occ", "A"),)).sum() == 4
    # Numeric and target columns are not selectable; there are no thresholds.
    for column in ("cap", "hours", "y"):
        with pytest.raises(SchemaError, match="protected or categorical"):
            mask(toy8, ((column, 1),))


def test_unknown_operator_and_column(toy8):
    with pytest.raises(SchemaError, match="no column"):
        mask(toy8, (("wage", "x"),))
    with pytest.raises(SchemaError, match="no column"):
        mask(toy8, (("sex", "F"), ("wage", "x")))


def test_predicate_conjunction_and_chaining(toy8):
    m = mask(toy8, (("sex", "M"), ("occ", "A")))
    # M rows in occupation A: the 10000/60/A and 0/40/A rows
    assert m.sum() == 2
    np.testing.assert_array_equal(
        m, (toy8.column("sex") == "M") & (toy8.column("occ") == "A"))


def test_equality_on_absent_level_is_an_error(toy8):
    with pytest.raises(PredicateError, match="never occurs"):
        mask(toy8, (("sex", "X"),))


# ---------------------------------------------------------------------------
# Score validation and decision modes
# ---------------------------------------------------------------------------

def test_as_scores_alignment_errors(toy8):
    with pytest.raises(AlignmentError, match="does not match"):
        positive_scores(np.zeros(5), toy8, mode="expected")
    with pytest.raises(AlignmentError, match="does not match"):
        positive_scores(np.zeros((8, 1)), toy8, mode="expected")
    with pytest.raises(AlignmentError, match=r"\[0, 1\]"):
        positive_scores(np.full(8, 1.5), toy8, mode="expected")
    with pytest.raises(AlignmentError, match=r"\[0, 1\]"):
        positive_scores(np.array([0.5] * 7 + [-0.1]), toy8, mode="expected")


def test_as_scores_rejects_non_finite_predictions(toy8):
    # NaN slips past min/max range checks, so finiteness is checked first
    for bad in (np.nan, np.inf, -np.inf):
        scores = np.array([0.5] * 7 + [bad])
        with pytest.raises(AlignmentError, match="finite"):
            positive_scores(scores, toy8, mode="expected")
        for mode in ("hard", "expected"):
            with pytest.raises(AlignmentError, match="finite"):
                positive_scores(scores, toy8, mode=mode)


def test_hard_mode_thresholds_at_cutoff_inclusive(toy8):
    scores = np.array([0.0, 0.49, 0.5, 0.51, 1.0, 0.5, 0.2, 0.8])
    out = positive_scores(scores, toy8, mode="hard", cutoff=0.5)
    np.testing.assert_array_equal(out, [0, 0, 1, 1, 1, 1, 0, 1])
    out2 = positive_scores(scores, toy8, mode="hard", cutoff=0.51)
    np.testing.assert_array_equal(out2, [0, 0, 0, 1, 1, 0, 0, 1])


def test_expected_mode_passes_scores_through(toy8):
    scores = np.linspace(0.0, 1.0, 8)
    np.testing.assert_array_equal(
        positive_scores(scores, toy8, mode="expected"), scores)


def test_mode_and_cutoff_validation(toy8):
    with pytest.raises(ValueError, match="unknown mode"):
        positive_scores(HPRED, toy8, mode="soft")
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="cutoff"):
            positive_scores(HPRED, toy8, mode="hard", cutoff=bad)


# ---------------------------------------------------------------------------
# Confusion statistics (hand-tabulated on the 8-row fixture)
# ---------------------------------------------------------------------------

def test_stats_overall_counts(toy8):
    f = stats(positive_scores(HPRED, toy8), toy8.target)
    assert (f.n, f.tp, f.fp, f.tn, f.fn) == (8, 1.0, 3.0, 3.0, 1.0)
    assert f.ppr == 0.5
    assert f.tpr == 0.5
    assert f.fpr == 0.5


def test_stats_per_group_counts(toy8):
    f = stats(positive_scores(HPRED, toy8), toy8.target, mask(toy8, (("sex", "F"),)))
    assert (f.n, f.tp, f.fp, f.tn, f.fn) == (4, 1.0, 1.0, 2.0, 0.0)
    assert f.ppr == 0.5
    assert f.tpr == 1.0
    assert f.fpr == 1.0 / 3.0

    m = stats(positive_scores(HPRED, toy8), toy8.target, mask(toy8, (("sex", "M"),)))
    assert (m.n, m.tp, m.fp, m.tn, m.fn) == (4, 0.0, 2.0, 1.0, 1.0)
    assert m.ppr == 0.5
    assert m.tpr == 0.0
    assert m.fpr == 2.0 / 3.0


def test_stats_all_positive_predictor(toy8):
    f = stats(positive_scores(np.ones(8), toy8), toy8.target)
    assert f.ppr == 1.0 and f.tpr == 1.0 and f.fpr == 1.0
    z = stats(positive_scores(np.zeros(8), toy8), toy8.target)
    assert z.ppr == 0.0 and z.tpr == 0.0 and z.fpr == 0.0


def test_stats_expected_mode_fractional_counts(toy8):
    scores = np.array([0.5, 0.25, 1.0, 0.0, 0.75, 0.5, 0.25, 0.0])
    f = stats(positive_scores(scores, toy8, "expected"), toy8.target)
    # positives are rows 3 and 5 (scores 1.0 and 0.75)
    assert f.tp == 1.75
    assert f.fp == 1.5
    assert f.fn == 0.25
    assert f.tn == 4.5
    assert f.ppr == 3.25 / 8.0
    assert f.tpr == 1.75 / 2.0
    assert f.fpr == 1.5 / 6.0


def test_stats_empty_subgroup_is_flagged(toy8):
    f = stats(positive_scores(HPRED, toy8), toy8.target, np.zeros(8, dtype=bool))
    assert f.n == 0
    assert f.ppr is None and f.tpr is None and f.fpr is None


def test_stats_one_sided_subgroups(toy8):
    # all-negative subgroup: TPR has no support
    f = stats(positive_scores(HPRED, toy8), toy8.target,
              mask(toy8, (("sex", "F"),)) & (toy8.target == 0))
    assert f.tpr is None
    assert f.fpr is not None
    # all-positive subgroup: FPR has no support
    g = stats(positive_scores(HPRED, toy8), toy8.target, toy8.target == 1)
    assert g.fpr is None
    assert g.tpr == 0.5


def test_stats_counts_positives(toy8):
    frames = [stats(positive_scores(HPRED, toy8), toy8.target),
              stats(positive_scores(HPRED, toy8), toy8.target, mask(toy8, (("sex", "F"),))),
              stats(positive_scores(HPRED, toy8), toy8.target, np.zeros(8, dtype=bool)),
              stats(positive_scores(np.ones(8) * 0.3, toy8, "expected"), toy8.target,
                    toy8.target == 1)]
    assert [f.positives for f in frames] == [2, 1, 0, 2]


@pytest.mark.parametrize("seed", range(20))
def test_tally_matches_a_sum_over_each_keys_rows(seed):
    # keys past the first half have no rows, key 0 holds only negatives and
    # key 1 only positives; the others draw both targets
    rng = np.random.default_rng(seed)
    n, size = int(rng.integers(1, 400)), int(rng.integers(4, 12))
    key = rng.integers(0, size // 2, n)
    target = np.where(key == 1, 1, np.where(key == 0, 0, rng.integers(0, 2, n))).astype(np.int8)
    scores = rng.random(n)
    for mode in ("hard", "expected"):
        h = (scores >= 0.5).astype(np.float64) if mode == "hard" else scores
        frames = tally(h, target, key, size)
        assert len(frames) == size
        for k, f in enumerate(frames):
            rows, pos = key == k, target == 1
            counts = (int(rows.sum()), int((rows & pos).sum()))
            sums = [np.sum(h[rows & pos]), np.sum(h[rows & ~pos]),
                    np.sum(1.0 - h[rows & ~pos]), np.sum(1.0 - h[rows & pos])]
            assert (f.n, f.positives) == counts
            if mode == "hard":
                assert [f.tp, f.fp, f.tn, f.fn] == sums
            else:
                np.testing.assert_allclose([f.tp, f.fp, f.tn, f.fn], sums, rtol=1e-12, atol=0)
            tp, fp, tn, fn = sums
            negatives = counts[0] - counts[1]
            rates = [(tp + fp) / counts[0] if counts[0] else None,
                     tp / (tp + fn) if counts[1] else None, fp / (fp + tn) if negatives else None]
            assert [f.ppr, f.tpr, f.fpr] == pytest.approx(rates, rel=1e-12, abs=0)
        assert [frames[k].n for k in range(size // 2, size)] == [0] * (size - size // 2)
        assert frames[0].tpr is None and frames[1].fpr is None


def test_integer_labels_pass_through_hard_mode(toy8):
    out = positive_scores(np.array([1, 0, 1, 0, 0, 1, 0, 1]), toy8)
    np.testing.assert_array_equal(out, HPRED)
