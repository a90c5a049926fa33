"""A float64 twin of a float32 ``LearnedScoreModel``, for the algebra checks.

The twin holds the model's float32 weights, biases and embedding table
as float64 arrays, forms its own time rows E @ W0[d:] + b0 from them in
float64, and runs the same ``_forward`` and ``_backward_input`` bodies
on float64 input rows. So a check at float64 tolerances (batch against
single row, pullback against central differences) tests the algebra of
those bodies, and the float32 model is checked against the twin within a
bound stated in float32 rounding units.
"""

import numpy as np

from ficd.schedule import check_step
from ficd.scoremodel import LearnedScoreModel, ScoreModel, eps_to_score
from ficd.scoremodel.mlp import _backward_input, _forward


class Float64Twin(ScoreModel):
    def __init__(self, model: LearnedScoreModel):
        self.model = model
        self.schedule = model.schedule
        d = model.dim
        weights = [W.astype(np.float64) for W in model.weights]
        biases = [b.astype(np.float64) for b in model.biases]
        self.time_rows = model._embedding.astype(np.float64) @ weights[0][d:] + biases[0]
        self.weights = [weights[0][:d], *weights[1:]]
        self.hidden_biases = biases[1:]

    @property
    def dim(self) -> int:
        return self.model.dim

    def _forward(self, x, t, pullback=False):
        check_step(self.schedule, t)
        rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
        biases = [self.time_rows[t - 1], *self.hidden_biases]
        return _forward(self.weights, biases, rows, pullback=pullback)

    def score(self, x, t):
        eps, _ = self._forward(x, t)
        return eps_to_score(eps[0] if np.ndim(x) == 1 else eps, self.schedule, t)

    def score_vjp(self, x, t, v):
        _, cache = self._forward(x, t, pullback=True)
        v2d = np.atleast_2d(np.asarray(v, dtype=np.float64))
        pulled = _backward_input(self.weights, cache, v2d)
        out = eps_to_score(pulled, self.schedule, t)
        return out[0] if np.ndim(x) == 1 else out
