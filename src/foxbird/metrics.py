"""Text-generation and classification metrics: BLEU-4, ROUGE-L, accuracy,
and macro F-score. All return values in [0, 1]."""

from __future__ import annotations

import math
from collections import Counter

__all__ = ["bleu4", "rouge_l", "lcs_length", "accuracy", "f_score", "macro_f1"]

# added to numerator and denominator of any zero n-gram precision
BLEU_SMOOTHING = 1e-9


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu4(candidate, references) -> float:
    """Sentence-level BLEU with modified n-gram precisions up to 4 and a
    brevity penalty. A zero precision at any order is smoothed by adding
    BLEU_SMOOTHING to both numerator and denominator."""
    if not references:
        raise ValueError("at least one reference is required")
    candidate = list(candidate)
    references = [list(r) for r in references]
    if not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand = _ngrams(candidate, n)
        max_ref = Counter()
        for ref in references:
            max_ref |= _ngrams(ref, n)  # the largest count over the references
        total = sum(cand.values())
        matched = sum((cand & max_ref).values())  # counts clipped to max_ref
        if matched == 0:  # also total == 0, where the smoothed p is 1
            p = (matched + BLEU_SMOOTHING) / (total + BLEU_SMOOTHING)
        else:
            p = matched / total
        log_sum += math.log(p)
    # closest reference length, ties toward the shorter
    c_len = len(candidate)
    r_len = min((abs(len(r) - c_len), len(r)) for r in references)[1]
    bp = 1.0 if c_len > r_len else math.exp(1 - r_len / c_len)
    return min(1.0, bp * math.exp(log_sum / 4))


def lcs_length(a, b) -> int:
    """Longest common subsequence length by dynamic programming."""
    a, b = list(a), list(b)
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate, reference) -> float:
    """LCS F-measure: F = 2RP/(R+P) with R = LCS/|ref|, P = LCS/|cand|."""
    candidate = list(candidate)
    reference = list(reference)
    if not reference:
        raise ValueError("reference must be non-empty")
    if not candidate:
        return 0.0
    lcs = lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    r = lcs / len(reference)
    p = lcs / len(candidate)
    return 2 * r * p / (r + p)


def accuracy(pred, gold) -> float:
    pred, gold = list(pred), list(gold)
    if not pred:
        raise ValueError("empty input")
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(gold)}")
    return sum(p == g for p, g in zip(pred, gold)) / len(pred)


def f_score(pred, gold) -> float:
    """Macro F1: unweighted mean of per-class F1 over the union of classes,
    summed in the classes' ``repr`` order by ``macro_f1``; a class with zero
    precision+recall contributes 0. The tuning objective counts the same
    per-class totals with ``np.bincount`` over class codes and shares
    ``macro_f1``, so both give the same bits."""
    pred, gold = list(pred), list(gold)
    if not pred:
        raise ValueError("empty input")
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(gold)}")
    # 2*tp + fp + fn is the class's count in pred plus its count in gold
    n_pred, n_gold = Counter(pred), Counter(gold)
    tp = Counter(p for p, g in zip(pred, gold) if p == g)
    classes = sorted(n_pred.keys() | n_gold.keys(), key=repr)
    return macro_f1([tp[c] for c in classes], [n_pred[c] for c in classes],
                    [n_gold[c] for c in classes])


def macro_f1(tp, n_pred, n_gold) -> float:
    """Macro F1 from per-class counts of true positives, predictions and gold
    labels, given as integer sequences in the order the classes are summed:
    the mean of ``2 tp / (n_pred + n_gold)`` over the classes whose
    denominator is nonzero (a class in neither list takes no part)."""
    f1s = [2 * t / (p + g) for t, p, g in zip(tp, n_pred, n_gold) if p + g]
    return sum(f1s) / len(f1s)
