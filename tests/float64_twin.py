"""A float64 twin of a float32 ``LearnedScoreModel``, for the algebra checks.

The twin holds the model's float32 weights and biases as float64 arrays
and runs the same ``_forward`` and ``_backward_input`` bodies on float64
input rows, so a check at float64 tolerances (batch against single row,
pullback against central differences) tests the algebra of those bodies,
and the float32 model is checked against the twin within a bound stated
in float32 rounding units.
"""

import numpy as np

from ficd.schedule import check_step
from ficd.scoremodel import LearnedScoreModel, ScoreModel, eps_to_score
from ficd.scoremodel.mlp import _backward_input, _forward


class Float64Twin(ScoreModel):
    def __init__(self, model: LearnedScoreModel):
        self.model = model
        self.schedule = model.schedule
        self.weights = [W.astype(np.float64) for W in model.weights]
        self.biases = [b.astype(np.float64) for b in model.biases]

    @property
    def dim(self) -> int:
        return self.model.dim

    def _net_input(self, x, t) -> np.ndarray:
        x2d = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.concatenate([x2d, self.model._embed(t, x2d.shape[0])], axis=1)

    def score(self, x, t):
        check_step(self.schedule, t)
        eps, _ = _forward(self.weights, self.biases, self._net_input(x, t))
        return eps_to_score(eps[0] if np.ndim(x) == 1 else eps, self.schedule, t)

    def score_vjp(self, x, t, v):
        check_step(self.schedule, t)
        _, cache = _forward(self.weights, self.biases, self._net_input(x, t), pullback=True)
        v2d = np.atleast_2d(np.asarray(v, dtype=np.float64))
        pulled = _backward_input(self.weights, cache, v2d)[:, : self.dim]
        out = eps_to_score(pulled, self.schedule, t)
        return out[0] if np.ndim(x) == 1 else out
