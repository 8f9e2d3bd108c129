import math
from collections import Counter

import pytest

from foxbird.metrics import (
    BLEU_SMOOTHING,
    accuracy,
    bleu4,
    f_score,
    lcs_length,
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
