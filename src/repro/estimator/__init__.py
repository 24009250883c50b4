"""The set-difference estimator (Section 3 and Appendix A of the paper).

A set-difference estimator implicitly maintains two sets ``S1`` and ``S2``
and supports ``update``, ``merge`` and ``query``; ``query`` returns an
estimate of ``|S1 xor S2|`` accurate to within a constant factor with good
probability.  :class:`~repro.estimator.l0.L0Estimator` is the paper's
estimator (Theorem 3.1 / Appendix A), built from levels of tiny mod-4 bucket
counters in the style of streaming L0-norm estimation, and the only one the
library has: every unknown-``d`` protocol opens with one of its frames.  It
is an ``O(log u)`` factor smaller than the strata estimator of Eppstein,
Goodrich, Uyeda and Varghese (reference [14] of the paper), which experiment
E5 (``benchmarks/bench_estimators.py``) cites by its closed-form size.
"""

from repro.estimator.l0 import L0Estimator

__all__ = ["L0Estimator"]
