"""Uncertainty-aware post hoc debiasing of ranked lists.

The core re-ranker shifts protected documents up and non-protected
documents down by a multiple of each document's predictive standard
deviation, clamped so no two same-group documents swap. A Laplace
last-layer module estimates those standard deviations for deterministic
rankers; fairness baselines, utility/fairness metrics, and a sweep
harness round out the toolkit.

The library is imported by module (``pufr.core`` holds the corpus types);
``pufr.cli`` is the ``pufr`` command.
"""

__version__ = "0.1.0"
