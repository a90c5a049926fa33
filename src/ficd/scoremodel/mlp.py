"""Small fully connected noise-prediction network trained by score matching.

The network maps (x, time embedding) to a noise estimate; the score is
the definitional conversion -eps_pred / sqrt(1 - alpha_bar_t). Forward,
weight gradients, and the input pullback are written out against plain
numpy so the exact input Jacobian is available without an autodiff
framework.

The first layer's weights W0 act on the row [x, E_t], where E_t is the
sinusoidal embedding of step t. A model builds its embedding table E,
one row per step 1..T, once, and from it the time rows E @ W0[d:] + b0,
also once. So the first layer is x @ W0[:d] plus the step's time row, and
the pullback runs onto x alone, through W0[:d]. Training runs the same
body with each batch's time rows formed from the current weights, and
takes W0's gradient from [x, E_t].

One forward body serves every caller. Each hidden layer forms its SiLU
in place as a / (1 + exp(-a)). On a pullback path (``score_vjp`` and
training) the forward returns a cache: each linear layer's input and
each hidden layer's SiLU derivative s (1 + a (1 - s)), formed as
s + h (1 - s) from the layer's output h and the sigmoid
s = 1 / (1 + exp(-a)), which is taken from the SiLU's own denominator.
So the backward passes evaluate no sigmoid, and the score and pullback
forwards agree bit for bit. The score-only forward keeps nothing: holding the
sigmoid there costs memory traffic on the sampler's hottest call.

The net has one precision, float32: its weights and biases, the
embedding table and time rows, every activation and cache, the pullback,
and training's forward, backward and momentum update. The net's own
score error, 0.325 relative to the N(0, I) oracle on the benchmark's
trained 256x3 net, sits about six orders of magnitude above float32
rounding, and the float32 forward runs about 2.3-2.6x faster than
float64's. Everything outside the model stays float64, with the casts at
its boundary. ``x`` and ``v`` enter as float32 rows; a row with an entry
beyond float32 range (|x| above about 3.4e38), an inf or a nan becomes a
nan row, silently, as in the mixture's rule. The noise estimate and the
pullback leave as float64 before the score conversion, so the sampler's
state, its noise tape and ``samples.csv`` stay float64.

The SiLU runs in place through numpy's ``exp``, a SIMD kernel chosen by
CPU features. So the MLP's output bits, like its BLAS products, are
bound to the host.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from ficd.schedule import NoiseSchedule, check_step
from ficd.scoremodel.base import ScoreModel, _as_rows, _as_vjp_rows, eps_to_score

__all__ = [
    "NetSpec",
    "LearnedScoreModel",
    "TrainingDivergedError",
    "sinusoidal_time_embedding",
    "train_dsm",
    "save_model",
    "load_model",
]


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class NetSpec:
    """Architecture of the noise-prediction net (3 hidden layers of 128 by default)."""

    hidden_width: int = 128
    hidden_layers: int = 3
    time_embed_dim: int = 32

    def __post_init__(self) -> None:
        if self.hidden_width < 1 or self.hidden_layers < 1:
            raise ValueError("hidden_width and hidden_layers must be positive")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be an even integer >= 2")


def sinusoidal_time_embedding(t01: np.ndarray, dim: int) -> np.ndarray:
    """Sin/cos features of a normalized time in [0, 1], shape (..., dim)."""
    half = dim // 2
    freqs = np.exp(np.linspace(math.log(1.0), math.log(1000.0), half))
    args = np.asarray(t01, dtype=np.float64)[..., None] * freqs
    return np.concatenate([np.sin(args), np.cos(args)], axis=-1)


def _forward(weights, biases, h: np.ndarray, pullback: bool = False):
    """Run the net on input rows h; returns (eps_pred, cache).

    ``biases[0]`` is whatever the first layer adds to h @ weights[0]: a
    bias row, or the model's time rows, one per row of h or one for all.
    The cache is None unless ``pullback``; then it holds the input of
    every linear layer and the SiLU derivative of every hidden layer,
    which is all ``_backward_input`` and ``_backward_weights`` read.
    """
    inputs, derivs = [h], []
    for W, b in zip(weights[:-1], biases[:-1]):
        a = h @ W
        a += b
        # The SiLU a / (1 + exp(-a)), one IEEE operation per in-place step.
        # exp(-a) overflows to inf for a below about -88.7 in float32 (-709
        # in float64), where a / inf = -0 is the limit, so the overflow is
        # not an error.
        e = np.negative(a)
        with np.errstate(over="ignore"):
            np.exp(e, out=e)
        e += 1.0
        # The sigmoid s = 1 / e shares the SiLU's denominator, so the score
        # and pullback forwards agree bit for bit. The derivative
        # s (1 + a (1 - s)) is formed as s + h (1 - s) in a's buffer, once h
        # holds the SiLU, so a pullback forward allocates only s beside the
        # score forward's two arrays; a fourth array per layer made
        # training slower.
        if pullback:
            s = np.reciprocal(e)
        h = np.divide(a, e, out=e)
        if pullback:
            deriv = np.subtract(1.0, s, out=a)
            deriv *= h
            deriv += s
            derivs.append(deriv)
            inputs.append(h)
    eps = h @ weights[-1] + biases[-1]
    return eps, ((inputs, derivs) if pullback else None)


def _backward_input(weights, cache, grad_out: np.ndarray) -> np.ndarray:
    """Pullback of grad_out through the net onto its input rows; leaves the cache intact."""
    _, derivs = cache
    g = grad_out @ weights[-1].T
    for W, deriv in zip(reversed(weights[:-1]), reversed(derivs)):
        g = (g * deriv) @ W.T
    return g


def _backward_weights(weights, cache, grad_out: np.ndarray):
    """Gradients of <grad_out, eps_pred> with respect to every weight and bias."""
    inputs, derivs = cache
    grads_W = [None] * len(weights)
    grads_b = [None] * len(weights)
    g = grad_out
    grads_W[-1] = inputs[-1].T @ g
    grads_b[-1] = g.sum(axis=0)
    g = g @ weights[-1].T
    for l in range(len(weights) - 2, -1, -1):
        g *= derivs[l]
        grads_W[l] = inputs[l].T @ g
        grads_b[l] = g.sum(axis=0)
        if l > 0:
            g = g @ weights[l].T
    return grads_W, grads_b


def _rows32(rows: np.ndarray) -> np.ndarray:
    """float64 rows as float32 rows; a row with an entry beyond float32
    range, inf or nan becomes a nan row, silently, and stays one through
    the net."""
    with np.errstate(over="ignore"):
        rows = rows.astype(np.float32)
    rows[~np.isfinite(rows).all(axis=1)] = np.nan
    return rows


def _layer_sizes(spec: NetSpec, d: int) -> list[int]:
    """Widths of the net's layers, input [x, E_t] first and output last."""
    return [d + spec.time_embed_dim] + [spec.hidden_width] * spec.hidden_layers + [d]


def _embedding_table(schedule: NoiseSchedule, dim: int) -> np.ndarray:
    """Embeddings of steps 1..T as float32 rows (T, dim), row t - 1 for step t."""
    t01 = np.arange(1, schedule.T + 1) / schedule.T
    return sinusoidal_time_embedding(t01, dim).astype(np.float32)


class LearnedScoreModel(ScoreModel):
    """Noise-prediction MLP with its schedule, exposed through the score interface.

    Immutable after construction (weight arrays, the embedding table and
    the time rows are read-only); safe for concurrent evaluation.
    ``trained`` records whether any optimizer steps ran, and
    ``final_loss`` is the last minibatch objective.

    The weights and biases are stored as float32, whatever their source,
    so a float64 dump loads by rounding. ``score``, ``score_vjp`` and
    ``jacobian`` take and return float64; inside, the net runs in float32
    (see the module docstring), because its own error is far above
    float32 rounding.

    Construction builds the embedding table, one float32 row per step
    1..T, and from it the time rows E @ W0[d:] + b0, shape (T, width).
    A forward at step t adds time row t - 1 to x @ W0[:d]; it forms no
    embedding, no [x, E_t] input and no first bias add. Hidden layers
    form their SiLU as a / (1 + exp(-a)).

    ``score`` runs the forward with no pullback cache. ``score_vjp`` runs
    it with the cache (layer inputs and SiLU derivatives) and pulls back
    onto x through it without recomputing a sigmoid; ``jacobian`` is the
    base class's, one ``score_vjp`` call for every output row.
    """

    def __init__(
        self,
        spec: NetSpec,
        schedule: NoiseSchedule,
        d: int,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        trained: bool = False,
        final_loss: float | None = None,
    ):
        if len(weights) != spec.hidden_layers + 1 or len(biases) != len(weights):
            raise ValueError("layer count does not match the architecture spec")
        self.spec = spec
        self.schedule = schedule
        self._d = int(d)
        self.weights = [np.array(W, dtype=np.float32) for W in weights]
        self.biases = [np.array(b, dtype=np.float32) for b in biases]
        sizes = _layer_sizes(spec, self._d)
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            want = (sizes[l], sizes[l + 1])
            if W.shape != want or b.shape != want[1:]:
                raise ValueError(
                    f"layer {l} has weights {W.shape} and bias {b.shape}, but a {spec} "
                    f"at d = {self._d} needs {want} and {want[1:]}"
                )
        self._embedding = _embedding_table(schedule, spec.time_embed_dim)
        W0, b0 = self.weights[0], self.biases[0]
        self._time_rows = self._embedding @ W0[self._d :] + b0
        for arr in self.weights + self.biases + [self._embedding, self._time_rows]:
            arr.flags.writeable = False
        # The net as seen from x: W0[:d] in place of W0.
        self._x_weights = [W0[: self._d], *self.weights[1:]]
        self.trained = bool(trained)
        self.final_loss = None if final_loss is None else float(final_loss)

    @property
    def dim(self) -> int:
        return self._d

    @classmethod
    def init(
        cls, spec: NetSpec, schedule: NoiseSchedule, d: int, rng: np.random.Generator
    ) -> "LearnedScoreModel":
        """He-style random initialization; the output layer starts small."""
        sizes = _layer_sizes(spec, d)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = math.sqrt(2.0 / fan_in)
            weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
            biases.append(np.zeros(fan_out))
        weights[-1] = weights[-1] * 0.1
        return cls(spec, schedule, d, weights, biases, trained=False, final_loss=None)

    def _net(self, t: int):
        """The (weights, biases) ``_forward`` runs at step t, which must be checked."""
        return self._x_weights, [self._time_rows[t - 1], *self.biases[1:]]

    # score interface --------------------------------------------------

    def score(self, x: np.ndarray, t: int) -> np.ndarray:
        check_step(self.schedule, t)
        eps, _ = _forward(*self._net(t), _rows32(_as_rows(x, self._d)))
        return eps_to_score(eps.astype(np.float64), self.schedule, t)

    def score_vjp(self, x: np.ndarray, t: int, v: np.ndarray) -> np.ndarray:
        check_step(self.schedule, t)
        x, v = _as_vjp_rows(x, v, self._d)
        weights, biases = self._net(t)
        _, cache = _forward(weights, biases, _rows32(x), pullback=True)
        pulled = _backward_input(weights, cache, _rows32(v))
        return eps_to_score(pulled.astype(np.float64), self.schedule, t)


def train_dsm(
    dataset: np.ndarray,
    net_spec: NetSpec,
    schedule: NoiseSchedule,
    steps: int,
    learning_rate: float = 1e-3,
    seed: int = 0,
    batch_size: int = 128,
    momentum: float = 0.9,
    loss_history: list[float] | None = None,
) -> LearnedScoreModel:
    """Fit the noise-prediction objective by minibatch SGD with momentum.

    Each step draws data points, uniform step indices t in 1..T, and
    Gaussian noise, forms x_t = sqrt(alpha_bar_t) x_0
    + sqrt(1 - alpha_bar_t) eps, and descends the mean squared error
    between the predicted and the drawn noise. The draws are float64;
    the forward, the residual against the float32-cast noise, the backward
    and the update run in float32. The forward is the model's, with each
    batch's time rows E_t @ W0[d:] + b0 formed from the current weights;
    W0's gradient is taken from [x_t, E_t]. Deterministic given the
    seed; ``steps = 0`` returns the untrained initialization. When a
    list is passed as ``loss_history`` the per-step minibatch losses are
    appended to it.
    """
    dataset = np.atleast_2d(np.asarray(dataset, dtype=np.float64))
    if dataset.size == 0:
        raise ValueError("dataset must be non-empty")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not (math.isfinite(learning_rate) and learning_rate > 0.0):
        raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must lie in [0, 1), got {momentum}")
    n, d = dataset.shape
    rng = np.random.Generator(np.random.Philox(seed))
    model = LearnedScoreModel.init(net_spec, schedule, d, rng)
    if steps == 0:
        return model

    # Momentum SGD in place, in the order v = m*v - lr*g, then w = w + v;
    # that order fixes the bits of the trained weights. The in-place update
    # keeps the views W0[:d] and W0[d:] current.
    weights = [W.copy() for W in model.weights]
    biases = [b.copy() for b in model.biases]
    params = weights + biases
    velocities = [np.zeros_like(p) for p in params]
    x_weights, time_weights = [weights[0][:d], *weights[1:]], weights[0][d:]
    loss = math.nan
    for step in range(steps):
        idx = rng.integers(0, n, size=batch_size)
        t = rng.integers(1, schedule.T + 1, size=batch_size)
        eps = rng.standard_normal((batch_size, d))
        abar = schedule.alpha_bars[t - 1][:, None]
        x_t = (np.sqrt(abar) * dataset[idx] + np.sqrt(1.0 - abar) * eps).astype(np.float32)

        emb = model._embedding[t - 1]
        time_rows = emb @ time_weights
        time_rows += biases[0]
        pred, cache = _forward(x_weights, [time_rows, *biases[1:]], x_t, pullback=True)
        # W0 acts on [x_t, E_t], so its gradient takes that whole row as the
        # first layer's input.
        inputs, _ = cache
        inputs[0] = np.concatenate([x_t, emb], axis=1)
        residual = pred - eps.astype(np.float32)
        with np.errstate(over="ignore"):
            loss = float(np.mean(np.sum(residual**2, axis=1)))
        if not math.isfinite(loss):
            raise TrainingDivergedError(
                f"loss became non-finite at step {step} (lr={learning_rate}, batch={batch_size})"
            )
        if loss_history is not None:
            loss_history.append(loss)
        grads_W, grads_b = _backward_weights(x_weights, cache, 2.0 * residual / batch_size)
        for p, v, g in zip(params, velocities, grads_W + grads_b):
            v *= momentum
            g *= learning_rate
            v -= g
            p += v
    return LearnedScoreModel(
        net_spec, schedule, d, weights, biases, trained=True, final_loss=loss
    )


def save_model(model: LearnedScoreModel, path) -> None:
    """Write a flat binary dump: the weights, the net shape and the schedule's betas."""
    arrays = {
        "d": np.array(model.dim),
        "hidden_width": np.array(model.spec.hidden_width),
        "hidden_layers": np.array(model.spec.hidden_layers),
        "time_embed_dim": np.array(model.spec.time_embed_dim),
        "trained": np.array(int(model.trained)),
        "final_loss": np.array(math.nan if model.final_loss is None else model.final_loss),
        "betas": model.schedule.betas,
    }
    for l, (W, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"W_{l}"] = W
        arrays[f"b_{l}"] = b
    np.savez(path, **arrays)


def load_model(path) -> LearnedScoreModel:
    """Read a save_model dump; ValueError or KeyError for any other file.

    A dump with float64 weights, as save_model wrote before the net ran in
    float32, loads by rounding them to float32.
    """
    if not zipfile.is_zipfile(path):
        raise ValueError("not an .npz archive")
    with np.load(path, allow_pickle=False) as data:
        spec = NetSpec(
            hidden_width=int(data["hidden_width"]),
            hidden_layers=int(data["hidden_layers"]),
            time_embed_dim=int(data["time_embed_dim"]),
        )
        schedule = NoiseSchedule(data["betas"])
        n_layers = spec.hidden_layers + 1
        weights = [data[f"W_{l}"] for l in range(n_layers)]
        biases = [data[f"b_{l}"] for l in range(n_layers)]
        final_loss = float(data["final_loss"])
        return LearnedScoreModel(
            spec,
            schedule,
            int(data["d"]),
            weights,
            biases,
            trained=bool(int(data["trained"])),
            final_loss=None if math.isnan(final_loss) else final_loss,
        )
