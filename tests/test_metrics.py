import itertools
import math
from collections import Counter

import numpy as np
import pytest

from foxbird.metrics import (
    BLEU_SMOOTHING,
    accuracy,
    bleu4,
    f_score,
    lcs_length,
    macro_f1,
    rouge_l,
)


def lcs_oracle(a, b):
    """Quadratic-table LCS, written independently of the implementation."""
    m, n = len(a), len(b)
    t = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if a[i - 1] == b[j - 1]:
                t[i][j] = t[i - 1][j - 1] + 1
            else:
                t[i][j] = max(t[i - 1][j], t[i][j - 1])
    return t[m][n]


def f_score_reference(pred, gold):
    """Macro F1 counting tp, fp and fn with a pass over the pairs for each
    class: the reference that the one-pass f_score must equal exactly."""
    pred, gold = list(pred), list(gold)
    classes = sorted(set(pred) | set(gold), key=repr)
    f1s = []
    for c in classes:
        tp = sum(1 for p, g in zip(pred, gold) if p == c and g == c)
        fp = sum(1 for p, g in zip(pred, gold) if p == c and g != c)
        fn = sum(1 for p, g in zip(pred, gold) if p != c and g == c)
        denom = 2 * tp + fp + fn
        f1s.append(2 * tp / denom if denom else 0.0)
    return sum(f1s) / len(f1s)


def bleu4_clipping_loops(candidate, references):
    """BLEU-4 with its clipped counts taken by hand loops: the largest count
    of each n-gram over the references, then each candidate count clipped to
    it. Frozen, so that ``bleu4`` must keep every bit of it."""
    candidate = list(candidate)
    references = [list(r) for r in references]
    if not candidate:
        return 0.0
    log_sum = 0.0
    for n in range(1, 5):
        cand_ngrams = Counter(tuple(candidate[i:i + n]) for i in range(len(candidate) - n + 1))
        total = sum(cand_ngrams.values())
        if total == 0:
            matched = 0
        else:
            max_ref = Counter()
            for ref in references:
                for gram, c in Counter(tuple(ref[i:i + n])
                                       for i in range(len(ref) - n + 1)).items():
                    if c > max_ref[gram]:
                        max_ref[gram] = c
            matched = sum(min(c, max_ref[g]) for g, c in cand_ngrams.items())
        if matched == 0 or total == 0:
            p = (matched + BLEU_SMOOTHING) / (total + BLEU_SMOOTHING)
        else:
            p = matched / total
        log_sum += math.log(p)
    c_len = len(candidate)
    r_len = min((abs(len(r) - c_len), len(r)) for r in references)[1]
    bp = 1.0 if c_len > r_len else math.exp(1 - r_len / c_len)
    return min(1.0, bp * math.exp(log_sum / 4))


class TestBleu4:
    def test_perfect_match(self):
        cand = "the cat sat on the mat".split()
        assert bleu4(cand, [cand]) == pytest.approx(1.0)

    def test_worked_example(self):
        # cand length 3 vs ref length 4, all n-grams matched:
        # precisions are 1, so BLEU = BP = exp(1 - 4/3)
        cand = ["a", "b", "c"]
        ref = ["a", "b", "c", "d"]
        assert bleu4(cand, [ref]) == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)
        assert bleu4(cand, [ref]) == pytest.approx(0.7165, abs=1e-4)

    def test_no_overlap_tiny(self):
        got = bleu4(["x", "y"], [["a", "b"]])
        assert 0.0 < got < 1e-4

    def test_empty_candidate(self):
        assert bleu4([], [["a"]]) == 0.0

    def test_no_references_rejected(self):
        with pytest.raises(ValueError):
            bleu4(["a"], [])

    def test_clipping(self):
        # "the" appears 3x in cand but only 2x in ref: clipped unigram 2/3.
        # Bigram ("the","the") is clipped to 1 of 2; the trigram misses and
        # is smoothed; the 4-gram order has no candidate n-grams (p = 1).
        cand = ["the", "the", "the"]
        ref = ["the", "the", "cat", "sat"]
        s = BLEU_SMOOTHING
        log_sum = math.log(2 / 3) + math.log(1 / 2) + math.log(s / (1 + s))
        want = math.exp(1 - 4 / 3) * math.exp(log_sum / 4)
        assert bleu4(cand, [ref]) == pytest.approx(want, rel=1e-9)

    def test_closest_ref_length_ties_shorter(self):
        cand = ["a", "b", "c"]
        refs = [["a", "b"], ["a", "b", "c", "d"]]  # both distance 1 -> pick 2
        # r = 2 <= c = 3 -> BP = 1 and all cand n-grams of order <= 2 hit
        got = bleu4(cand, refs)
        exact = bleu4(cand, [["a", "b", "c"]])
        assert got <= exact or got == pytest.approx(exact)

    def test_multi_reference_max_clip(self):
        cand = ["a", "a"]
        got_one = bleu4(cand, [["a"]])
        got_two = bleu4(cand, [["a"], ["a", "a"]])
        assert got_two > got_one

    def test_bounded(self):
        assert 0.0 <= bleu4(["a", "b"], [["b", "a"]]) <= 1.0

    def test_order_sensitivity(self):
        ref = ["the", "quick", "brown", "fox", "jumps"]
        in_order = bleu4(ref, [ref])
        shuffled = bleu4(["fox", "the", "jumps", "quick", "brown"], [ref])
        assert in_order > shuffled

    def test_bits_equal_the_clipping_loops(self):
        # small alphabets, so n-grams repeat within and across references;
        # candidates of 0-3 tokens have orders with no n-gram at all, and a
        # candidate over its own alphabet overlaps no reference
        rng = np.random.Generator(np.random.PCG64(11))
        for case in range(3000):
            words = ["a", "b", "c", "d", "e"][:int(rng.integers(1, 6))]
            refs = [list(rng.choice(words, int(rng.integers(1, 13))))
                    for _ in range(int(rng.integers(1, 4)))]
            cand_words = ["x", "y"] if case % 5 == 0 else words
            cand = list(rng.choice(cand_words, int(rng.integers(0, 13))))
            assert bleu4(cand, refs).hex() == bleu4_clipping_loops(cand, refs).hex()

    def test_bits_equal_the_clipping_loops_on_short_candidates(self):
        refs = [["a", "b", "a", "b"], ["b", "a"], ["a", "a", "a"]]
        for k in range(1, 4):
            for cand in itertools.product("abz", repeat=k):
                for m in range(1, 4):
                    assert bleu4(cand, refs[:m]).hex() == \
                        bleu4_clipping_loops(cand, refs[:m]).hex()


class TestLcs:
    @pytest.mark.parametrize("a,b,want", [
        ("abcde", "ace", 3),
        ("abc", "abc", 3),
        ("abc", "def", 0),
        ("", "abc", 0),
        ("aggtab", "gxtxayb", 4),
    ])
    def test_hand_cases(self, a, b, want):
        assert lcs_length(list(a), list(b)) == want

    def test_matches_oracle_random(self):
        import random
        rnd = random.Random(7)
        for _ in range(50):
            a = [rnd.choice("abcd") for _ in range(rnd.randint(0, 12))]
            b = [rnd.choice("abcd") for _ in range(rnd.randint(0, 12))]
            assert lcs_length(a, b) == lcs_oracle(a, b)

    def test_symmetric(self):
        a, b = list("banana"), list("atana")
        assert lcs_length(a, b) == lcs_length(b, a)


class TestRougeL:
    def test_perfect(self):
        assert rouge_l(["a", "b"], ["a", "b"]) == pytest.approx(1.0)

    def test_worked_example(self):
        # cand 6 tokens, ref 8 tokens... pick LCS=6 of 7/6? use: LCS 6,
        # R = 6/7, P = 6/7 -> F = 6/7
        cand = ["the", "cat", "sat", "on", "the", "mat", "x"]
        ref = ["the", "cat", "sat", "on", "the", "mat", "y"]
        assert rouge_l(cand, ref) == pytest.approx(6 / 7, abs=1e-12)

    def test_asymmetric_lengths(self):
        # LCS = 2, R = 2/2 = 1, P = 2/4 -> F = 2/3
        assert rouge_l(["a", "x", "b", "y"], ["a", "b"]) == pytest.approx(2 / 3)

    def test_disjoint(self):
        assert rouge_l(["a"], ["b"]) == 0.0

    def test_empty_candidate(self):
        assert rouge_l([], ["a"]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            rouge_l(["a"], [])


class TestAccuracy:
    def test_hand(self):
        assert accuracy([1, 0, 1, 1], [1, 1, 1, 0]) == 0.5

    def test_perfect_and_zero(self):
        assert accuracy(["a"], ["a"]) == 1.0
        assert accuracy(["a"], ["b"]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            accuracy([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestFScore:
    def test_perfect(self):
        assert f_score([0, 1, 0], [0, 1, 0]) == 1.0

    def test_hand_macro(self):
        # gold: a a b b, pred: a b b b
        # class a: tp=1 fp=0 fn=1 -> F = 2/3
        # class b: tp=2 fp=1 fn=0 -> F = 4/5
        got = f_score(["a", "b", "b", "b"], ["a", "a", "b", "b"])
        assert got == pytest.approx((2 / 3 + 4 / 5) / 2, abs=1e-12)

    def test_missing_class_contributes_zero(self):
        # pred never says "c", gold has it: per-class F for c is 0
        got = f_score(["a", "a"], ["a", "c"])
        # a: tp=1 fp=1 fn=0 -> 2/3; c: 0
        assert got == pytest.approx((2 / 3 + 0) / 2)

    def test_symmetry_in_classes(self):
        # macro-F treats classes equally regardless of support
        got = f_score([0, 0, 0, 1], [0, 0, 0, 0])
        # class 0: tp=3 fp=0 fn=1 wait gold all 0: fn=1 -> 6/7; class 1: 0
        assert got == pytest.approx((6 / 7) / 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            f_score([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty input"):
            f_score([], [])

    def test_binary_agrees_with_counter_oracle(self):
        import random
        rnd = random.Random(3)
        for _ in range(20):
            n = rnd.randint(1, 30)
            pred = [rnd.choice("xy") for _ in range(n)]
            gold = [rnd.choice("xy") for _ in range(n)]
            f1s = []
            for c in sorted(set(pred) | set(gold)):
                tp = sum(p == g == c for p, g in zip(pred, gold))
                fp = Counter(pred)[c] - tp
                fn = Counter(gold)[c] - tp
                f1s.append(2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0)
            assert f_score(pred, gold) == pytest.approx(sum(f1s) / len(f1s))

    @pytest.mark.parametrize("alphabet", [
        ["x", "y", "z", "w"],
        [0, 1, 2, 3, 4],
        [True, False],
        ["a", 1, "1", 2, "b"],
        [0, 1, True, False, 2],
    ], ids=["str", "int", "bool", "str-int", "int-bool"])
    def test_equals_reference_exactly(self, alphabet):
        # pred and gold draw from overlapping halves of the alphabet, so
        # some classes occur only in pred and some only in gold
        import random
        rnd = random.Random(len(alphabet))
        half = len(alphabet) // 2
        for _ in range(500):
            n = rnd.randint(1, 40)
            pred = [rnd.choice(alphabet[:half + 1]) for _ in range(n)]
            gold = [rnd.choice(alphabet[half:]) if rnd.random() < 0.5
                    else rnd.choice(alphabet) for _ in range(n)]
            assert f_score(pred, gold) == f_score_reference(pred, gold), (pred, gold)
            assert f_score(iter(pred), iter(gold)) == f_score_reference(pred, gold)


class TestMacroF1FromCodes:
    """``macro_f1`` fed with per-class ``np.bincount``s of class codes, the
    classes taken in ``repr`` order, gives ``f_score``'s bits on the labels:
    the tuning objective scores its predictions this way."""

    # "ab c" < "ab" and "it's" < "ab" by repr, but not as strings
    LABELS = ("ab", "ab c", "it's", 'a"b', "Z", "\u00e9", "c1", "c10")

    @staticmethod
    def coded(pred, gold, classes):
        k = len(classes)
        order = sorted(range(k), key=lambda c: repr(classes[c]))
        tp = np.bincount(pred[pred == gold], minlength=k)[order]
        n_pred = np.bincount(pred, minlength=k)[order]
        n_gold = np.bincount(gold, minlength=k)[order]
        return (int(tp.sum()) / len(pred),
                macro_f1(tp.tolist(), n_pred.tolist(), n_gold.tolist()))

    def test_equals_label_metrics_byte_for_byte(self):
        rng = np.random.Generator(np.random.PCG64(0))
        seen = Counter()
        for _ in range(1500):
            classes = sorted(rng.choice(self.LABELS, size=int(rng.integers(1, 9)),
                                        replace=False).tolist())
            k, n = len(classes), int(rng.integers(1, 41))
            # predictions and gold labels from random subsets of the classes,
            # so a class may be missing from either or both
            pred = rng.choice(rng.permutation(k)[:int(rng.integers(1, k + 1))], size=n)
            gold = rng.choice(rng.permutation(k)[:int(rng.integers(1, k + 1))], size=n)
            got = self.coded(pred, gold, classes)
            labels = [classes[c] for c in pred], [classes[c] for c in gold]
            assert got[0].hex() == accuracy(*labels).hex(), labels
            assert got[1].hex() == f_score(*labels).hex() == f_score_reference(*labels).hex(), labels
            present = set(pred.tolist()) | set(gold.tolist())
            seen["single class"] += len(present) == 1
            seen["missing from predictions"] += bool(set(gold.tolist()) - set(pred.tolist()))
            seen["missing from gold"] += bool(set(pred.tolist()) - set(gold.tolist()))
            seen["in neither"] += len(present) < k
            seen["repr order is not str order"] += (
                sorted(classes, key=repr) != classes and len(present) > 1)
        assert min(seen.values()) > 50, seen

    def test_repr_order_changes_the_bits(self):
        # the per-class F1s 2/3, 2/4 and 2/5 sum to another last bit in the
        # reverse order, so the classes' order is part of the result
        tp, n_pred, n_gold = [1, 1, 1], [2, 2, 3], [1, 2, 2]
        assert macro_f1(tp, n_pred, n_gold) != macro_f1(tp[::-1], n_pred[::-1], n_gold[::-1])

    def test_classes_with_no_count_take_no_part(self):
        assert macro_f1([1, 0, 0], [1, 0, 1], [1, 0, 0]) == (1.0 + 0.0) / 2
