from __future__ import annotations

import numpy as np
import pytest

from oracles import brute_force_macro
from viewgraph.metrics import format_table, macro_metrics, normed_cost

FOUR = ("Reject", "Accept (Poster)", "Accept (Oral)", "Accept (Spotlight)")


class TestConfusion:
    """The confusion counts, as macro_metrics reports them."""

    def test_perfect_is_diagonal(self):
        rep = macro_metrics([0, 1, 2, 3, 3], [0, 1, 2, 3, 3], FOUR)
        assert rep.accuracy == 1.0
        assert [c["support"] for c in rep.per_class] == [1, 1, 1, 2]
        assert [c["label"] for c in rep.per_class] == list(FOUR)

    def test_direct_tally(self):
        # counts [[1, 1], [0, 1]]
        rep = macro_metrics([0, 0, 1], [0, 1, 1], ("a", "b"))
        assert rep.accuracy == pytest.approx(2 / 3)
        assert [c["support"] for c in rep.per_class] == [2, 1]
        assert [(c["precision"], c["recall"]) for c in rep.per_class] == [(1.0, 0.5), (0.5, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no items to evaluate"):
            macro_metrics([], [], ("a", "b"))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 truths vs 1 predictions"):
            macro_metrics([0, 1], [0], ("a", "b"))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"label index out of range: truth=5 pred=1 \(n=2\)"):
            macro_metrics([0, 5], [0, 1], ("a", "b"))


class TestMacroMetrics:
    def test_perfect_case(self):
        rep = macro_metrics([0, 1, 2, 3], [0, 1, 2, 3], FOUR)
        assert rep.accuracy == 1.0
        assert rep.macro_precision == rep.macro_recall == rep.macro_f1 == 1.0

    def test_hand_computed_two_class(self):
        rep = macro_metrics([0, 0, 1, 1], [0, 1, 1, 1], ("a", "b"))
        assert rep.accuracy == 0.75
        assert rep.per_class[0]["precision"] == 1.0
        assert rep.per_class[0]["recall"] == 0.5
        assert rep.per_class[0]["f1"] == pytest.approx(2 / 3)
        assert rep.per_class[1]["precision"] == pytest.approx(2 / 3)
        assert rep.per_class[1]["recall"] == 1.0
        assert rep.per_class[1]["f1"] == pytest.approx(0.8)
        assert rep.macro_f1 == pytest.approx(11 / 15)

    def test_absent_class_counts_as_zero(self):
        # class 2 never predicted nor true beyond one miss
        rep = macro_metrics([0, 0, 2], [0, 0, 0], ("a", "b", "c"))
        by_label = {c["label"]: c for c in rep.per_class}
        assert by_label["c"]["precision"] == 0.0
        assert by_label["c"]["recall"] == 0.0
        assert by_label["b"]["f1"] == 0.0  # absent entirely, still in the mean
        assert rep.macro_f1 == pytest.approx(np.mean([c["f1"] for c in rep.per_class]))

    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(0)
        truths = rng.integers(0, 4, size=30).tolist()
        preds = rng.integers(0, 4, size=30).tolist()
        rep = macro_metrics(truths, preds, FOUR)
        for value in (rep.accuracy, rep.macro_precision, rep.macro_recall, rep.macro_f1):
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n_labels = int(rng.integers(2, 5))
        n = int(rng.integers(1, 40))
        truths = rng.integers(0, n_labels, size=n).tolist()
        preds = rng.integers(0, n_labels, size=n).tolist()
        rep = macro_metrics(truths, preds, tuple(str(c) for c in range(n_labels)))
        expected = brute_force_macro(truths, preds, n_labels)
        assert rep.accuracy == pytest.approx(expected["accuracy"], abs=1e-12)
        assert rep.macro_precision == pytest.approx(expected["macro_precision"], abs=1e-12)
        assert rep.macro_recall == pytest.approx(expected["macro_recall"], abs=1e-12)
        assert rep.macro_f1 == pytest.approx(expected["macro_f1"], abs=1e-12)

    def test_relabeling_permutation_invariant(self):
        rng = np.random.default_rng(3)
        truths = rng.integers(0, 3, size=25).tolist()
        preds = rng.integers(0, 3, size=25).tolist()
        perm = [2, 0, 1]
        base = macro_metrics(truths, preds, ("a", "b", "c"))
        moved = macro_metrics([perm[t] for t in truths], [perm[p] for p in preds], ("x", "y", "z"))
        assert base.accuracy == pytest.approx(moved.accuracy)
        assert base.macro_precision == pytest.approx(moved.macro_precision)
        assert base.macro_recall == pytest.approx(moved.macro_recall)
        assert base.macro_f1 == pytest.approx(moved.macro_f1)


class TestNormedCost:
    def test_scaling(self):
        assert normed_cost({"A": 2.0, "B": 1.0}) == {"A": 1.0, "B": 0.5}

    def test_single_method(self):
        assert normed_cost({"only": 3.5}) == {"only": 1.0}

    def test_low_cost_method(self):
        out = normed_cost({"big": 2.0, "mid": 1.0, "small": 0.16})
        assert out["small"] == pytest.approx(0.08)


class TestTable:
    def test_columns_in_report_order(self):
        rep = macro_metrics([0, 1], [0, 1], ("a", "b"))
        rep.avg_token_cost = 123.4
        table = format_table({"engine": rep})
        header = table.splitlines()[0]
        assert header.index("Accuracy") < header.index("Precision") < header.index("Recall")
        assert header.index("F1 Score") < header.index("Token Cost")
        assert header.split() == ["Method", "Accuracy", "Precision", "Recall", "F1", "Score", "Token", "Cost"]
        assert "123.40" in table
