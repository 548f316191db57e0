"""Accuracy, macro precision/recall/F1, and cost summaries.

Zero-denominator convention: the precision/recall/F1 of a class with no
predicted (resp. true) members is 0, and classes absent from the data
still count toward the macro means.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Mapping, Optional, Sequence

import numpy as np


@dataclass
class MetricReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    per_class: list[dict] = field(default_factory=list)
    avg_token_cost: Optional[float] = None

    def to_dict(self) -> dict:
        """The fields by name, read shallowly; ``avg_token_cost``, the one
        field that may be unset, is left out when it is."""
        return {f.name: value for f in fields(self) if (value := getattr(self, f.name)) is not None}


def macro_metrics(truths: Sequence[int], predictions: Sequence[int], labels: Sequence[str]) -> MetricReport:
    """The report of the items' (truth, prediction) label indices into
    ``labels``, from their confusion counts."""
    if len(truths) != len(predictions):
        raise ValueError(f"{len(truths)} truths vs {len(predictions)} predictions")
    if not truths:
        raise ValueError("no items to evaluate")
    n = len(labels)
    counts = np.zeros((n, n), dtype=int)  # counts[true][predicted]
    for t, p in zip(truths, predictions):
        if not (0 <= t < n) or not (0 <= p < n):
            raise ValueError(f"label index out of range: truth={t} pred={p} (n={n})")
        counts[t, p] += 1
    accuracy = float(np.trace(counts)) / float(counts.sum())
    per_class = []
    precisions, recalls, f1s = [], [], []
    for c in range(n):
        tp = float(counts[c, c])
        fp = float(counts[:, c].sum() - tp)
        fn = float(counts[c, :].sum() - tp)
        prec = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        rec = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        f1 = 2 * prec * rec / (prec + rec) if (prec + rec) > 0 else 0.0
        precisions.append(prec)
        recalls.append(rec)
        f1s.append(f1)
        per_class.append(
            {"label": labels[c], "precision": prec, "recall": rec, "f1": f1,
             "support": int(counts[c, :].sum())}
        )
    return MetricReport(
        accuracy=accuracy,
        macro_precision=float(np.mean(precisions)),
        macro_recall=float(np.mean(recalls)),
        macro_f1=float(np.mean(f1s)),
        per_class=per_class,
    )


def normed_cost(costs: Mapping[str, float]) -> dict[str, float]:
    """Divide every method's average cost by the maximum cost. ``costs``
    is a costs file as ``pipeline`` loads it: non-empty, each cost >= 0
    and not all of them zero."""
    top = max(costs.values())
    return {name: cost / top for name, cost in costs.items()}


def format_table(rows: Mapping[str, MetricReport]) -> str:
    """Aligned text table: method, accuracy, precision, recall, F1, token cost."""
    headers = ["Method", "Accuracy", "Precision", "Recall", "F1 Score", "Token Cost"]
    body = []
    for name, rep in rows.items():
        body.append(
            [
                name,
                f"{rep.accuracy:.2%}",
                f"{rep.macro_precision:.2%}",
                f"{rep.macro_recall:.2%}",
                f"{rep.macro_f1:.2%}",
                "-" if rep.avg_token_cost is None else f"{rep.avg_token_cost:.2f}",
            ]
        )
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
