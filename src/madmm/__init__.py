"""Multiblock ADMM with majorize-minimize block updates.

Solves composite problems min f(x) + sum_i g_i(x_i) + h(y) subject to
phi(x) + B y = 0 by cyclic surrogate minimization over the x-blocks, a
closed-form y step, and exact dual ascent, plus the prox-linear baseline
and a benchmark application (l1-regularized quadratic-classifier
logistic regression).
"""

__version__ = "0.1.0"
