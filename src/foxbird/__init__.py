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
    Population,
    SearchSpace,
    clamp,
    init_population,
    make_rng,
)
from .hraha import OptimizationResult, run

__all__ = [
    "SearchSpace",
    "Population",
    "make_rng",
    "init_population",
    "clamp",
    "OptimizationResult",
    "run",
]

__version__ = "0.1.0"
