"""Seeded synthetic corpus for the ``tuning-nb`` workload.

Documents are bags of made-up words. Each word is a stem built from
syllables plus an inflection suffix, so Porter stemming merges some
variants and ``use_stemming`` matters. Every document draws most of its
words from one Zipf-like distribution shared by all classes and the rest
from a sparse class-specific distribution; the sparse class profiles
overlap by chance, so classes are separable in graded degrees. The
classifier then depends on how many terms the vocabulary keeps, which
makes the tuning objective vary over its box (the corpus the test suite
uses scores the same fitness on almost every configuration).
"""

from __future__ import annotations

import csv

import numpy as np

SYLLABLES = ("ka", "lo", "mi", "ter", "van", "sol", "pre", "dur",
             "fen", "qua", "bri", "zon", "tal", "mor", "vek", "sin")
SUFFIXES = ("", "s", "ing", "ed", "er", "ation", "ly", "ness")

N_DOCS = 80
N_CLASSES = 6
N_WORDS = 600
SHARED_MASS = 0.8
DOC_LENGTH = (8, 18)  # uniform integer range, upper end exclusive


def generate(seed: int) -> list[tuple[str, str, str]]:
    """Rows of (id, text, label); the same seed gives the same rows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    stems: set[str] = set()
    while len(stems) < N_WORDS // 4:
        stems.add("".join(rng.choice(SYLLABLES, size=int(rng.integers(2, 4)))))
    words = sorted({s + SUFFIXES[int(rng.integers(len(SUFFIXES)))]
                    for s in sorted(stems) for _ in range(4)})[:N_WORDS]
    words = np.array(words)
    n = len(words)
    shared = 1.0 / np.arange(1, n + 1)
    shared = shared[rng.permutation(n)]
    shared /= shared.sum()
    profiles = []
    for _ in range(N_CLASSES):
        w = rng.gamma(0.3, 1.0, n)
        profiles.append(w / w.sum())
    rows = []
    for i in range(N_DOCS):
        c = i % N_CLASSES
        mix = SHARED_MASS * shared + (1 - SHARED_MASS) * profiles[c]
        length = int(rng.integers(*DOC_LENGTH))
        text = " ".join(words[rng.choice(n, size=length, p=mix)])
        rows.append((f"d{i}", text, f"c{c}"))
    return rows


def write_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "label"])
        writer.writerows(rows)
