"""foxbird: hybrid red-fox / hummingbird black-box optimization toolkit.

Subpackages and modules:
    core        search spaces, populations, seeded RNG
    hraha       the hybrid optimizer
    baselines   red-fox, hummingbird, and PSO baselines
    benchmarks  sphere / rastrigin / rosenbrock / ackley
    kernels     forward-only neural kernels
    textpipe    cleaning, stemming, BOW and TF-IDF features
    metrics     BLEU-4, ROUGE-L, accuracy, macro F
    harness     tuning objective, experiment driver, reports
"""

from .core import (
    Individual,
    Population,
    SearchSpace,
    clamp,
    evaluate,
    init_population,
    make_rng,
    make_search_space,
)
from .hraha import OptimizationResult, run

__all__ = [
    "SearchSpace",
    "Individual",
    "Population",
    "make_rng",
    "make_search_space",
    "init_population",
    "evaluate",
    "clamp",
    "OptimizationResult",
    "run",
]

__version__ = "0.1.0"
