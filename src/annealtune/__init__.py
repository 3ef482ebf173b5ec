"""Multi-objective simulated-annealing hyperparameter search.

Searches a categorical CNN hyperparameter space against two minimized
objectives (validation error rate, forward-pass FLOPs), keeps every
non-dominated solution in an archive, and evaluates configurations with a
from-scratch text CNN or with instant synthetic objectives.
"""
