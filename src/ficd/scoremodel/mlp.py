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
forwards agree bit for bit.

The forward and backward bodies allocate no (N, width) array: they
write into arrays their caller owns. A score forward writes into 2 of
them, which it reuses layer after layer; a pullback forward into 2 per
hidden layer, which become its cache, plus 1 for the sigmoid. The
backward passes write their intermediates over that cache. A model keeps
one such set per thread, sized to the largest block the thread has seen;
``train_dsm`` keeps one for its run, beside flat weight, velocity and
gradient buffers. A (N, width) float32 array at the benchmark's 256 rows
and width is 256 KB, above glibc's default 128 KB mmap threshold, so in a
process that has not raised that threshold each fresh one would be a
fresh mapping with its page faults.

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
import threading
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


def _forward(weights, biases, h: np.ndarray, work, pullback: bool = False):
    """Run the net on input rows h; returns (eps_pred, cache).

    ``biases[0]`` is whatever the first layer adds to h @ weights[0]: a
    bias row, or the model's time rows, one per row of h or one for all.
    ``work`` holds the (N, width) arrays the hidden layers write into, in
    h's dtype: 2 for a score forward, 2 per hidden layer plus 1 for a
    pullback forward. The cache is None unless ``pullback``; then it holds
    the input of every linear layer and the SiLU derivative of every
    hidden layer, all but h in ``work``, which is all ``_backward_input``
    and ``_backward_weights`` read. eps_pred is a new (N, d) array.
    """
    inputs, derivs = [h], []
    for l, (W, b) in enumerate(zip(weights[:-1], biases[:-1])):
        # A score forward reuses its 2 arrays in every layer: the matmul
        # reads h from e before the layer overwrites it.
        a, e = work[2 * l : 2 * l + 2] if pullback else work[:2]
        np.matmul(h, W, out=a)
        a += b
        # The SiLU a / (1 + exp(-a)), one IEEE operation per in-place step.
        # exp(-a) overflows to inf for a below about -88.7 in float32 (-709
        # in float64), where a / inf = -0 is the limit, so the overflow is
        # not an error.
        np.negative(a, out=e)
        with np.errstate(over="ignore"):
            np.exp(e, out=e)
        e += 1.0
        # The sigmoid s = 1 / e shares the SiLU's denominator, so the score
        # and pullback forwards agree bit for bit. The derivative
        # s (1 + a (1 - s)) is formed as s + h (1 - s) in a's array, once h
        # holds the SiLU, so a layer caches 2 arrays and every layer shares
        # the one array s; a third cached array per layer made training
        # slower.
        if pullback:
            s = np.reciprocal(e, out=work[-1])
        h = np.divide(a, e, out=e)
        if pullback:
            deriv = np.subtract(1.0, s, out=a)
            deriv *= h
            deriv += s
            derivs.append(deriv)
            inputs.append(h)
    eps = h @ weights[-1]
    eps += biases[-1]
    return eps, ((inputs, derivs) if pullback else None)


def _backward_input(weights, cache, grad_out: np.ndarray) -> np.ndarray:
    """Pullback of grad_out through the net onto its input rows, as a new (N, d) array.

    The (N, width) intermediates overwrite the cache: the first the last
    layer's input, each later one the SiLU derivative it has just used.
    """
    inputs, derivs = cache
    g = np.matmul(grad_out, weights[-1].T, out=inputs[-1])
    for l in range(len(derivs) - 1, -1, -1):
        g *= derivs[l]
        g = np.matmul(g, weights[l].T, out=derivs[l] if l else None)
    return g


def _backward_weights(weights, cache, grad_out: np.ndarray, grads_W, grads_b) -> None:
    """Write the gradients of <grad_out, eps_pred> with respect to every
    weight and bias into grads_W and grads_b.

    The intermediates overwrite the cache as in ``_backward_input``, each
    once the weight gradient that reads it is taken.
    """
    inputs, derivs = cache
    np.matmul(inputs[-1].T, grad_out, out=grads_W[-1])
    np.sum(grad_out, axis=0, out=grads_b[-1])
    g = np.matmul(grad_out, weights[-1].T, out=inputs[-1])
    for l in range(len(derivs) - 1, -1, -1):
        g *= derivs[l]
        np.matmul(inputs[l].T, g, out=grads_W[l])
        np.sum(g, axis=0, out=grads_b[l])
        if l:
            g = np.matmul(g, weights[l].T, out=derivs[l])


class _Workspace(threading.local):
    """The (rows, width) float32 arrays a model's forwards write into, one set per thread.

    Each thread makes its own set on its first call, so concurrent calls
    share no array. The set grows to the largest row count and array
    count the thread has asked for, and a call takes views of the first
    rows of the arrays it needs.
    """

    def __init__(self, width: int):
        self.width = width
        self.arrays: list[np.ndarray] = []

    def take(self, rows: int, count: int) -> list[np.ndarray]:
        keep = count
        if self.arrays and rows > len(self.arrays[0]):
            keep = max(count, len(self.arrays))
            self.arrays = []  # freed before the larger set is made
        capacity = len(self.arrays[0]) if self.arrays else rows
        while len(self.arrays) < keep:
            self.arrays.append(np.empty((capacity, self.width), dtype=np.float32))
        return [arr[:rows] for arr in self.arrays[:count]]


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
    the time rows are read-only); safe for concurrent evaluation, since
    each thread runs the net in arrays of its own. ``trained`` records
    whether any optimizer steps ran, and ``final_loss`` is the last
    minibatch objective. A weight or bias that is not finite in float32
    is a ValueError naming its layer.

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

    ``score`` runs the forward with no pullback cache, in 2 (N, width)
    float32 arrays. ``score_vjp`` runs it with the cache (layer inputs and
    SiLU derivatives), in 2 arrays per hidden layer plus 1, and pulls back
    onto x through it without recomputing a sigmoid; ``jacobian`` is the
    base class's, one ``score_vjp`` call for every output row. Each
    thread keeps its arrays between calls, sized to the most rows it has
    passed: rows x width x 4 bytes x 2, or x (2 layers + 1) once it has
    run ``score_vjp``. A smaller block runs in the first rows of them.
    No returned array shares memory with them.
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
        # An entry beyond float32 range becomes inf here and is refused below.
        with np.errstate(over="ignore"):
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
            for name, arr in (("weight", W), ("bias", b)):
                if not np.isfinite(arr).all():
                    raise ValueError(f"layer {l} has a non-finite {name}")
        self._embedding = _embedding_table(schedule, spec.time_embed_dim)
        W0, b0 = self.weights[0], self.biases[0]
        self._time_rows = self._embedding @ W0[self._d :] + b0
        for arr in self.weights + self.biases + [self._embedding, self._time_rows]:
            arr.flags.writeable = False
        # The net as seen from x: W0[:d] in place of W0.
        self._x_weights = [W0[: self._d], *self.weights[1:]]
        self._work = _Workspace(spec.hidden_width)
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
        x = _rows32(_as_rows(x, self._d))
        eps, _ = _forward(*self._net(t), x, self._work.take(len(x), 2))
        return eps_to_score(eps.astype(np.float64), self.schedule, t)

    def score_vjp(self, x: np.ndarray, t: int, v: np.ndarray) -> np.ndarray:
        check_step(self.schedule, t)
        x, v = _as_vjp_rows(x, v, self._d)
        weights, biases = self._net(t)
        work = self._work.take(len(x), 2 * self.spec.hidden_layers + 1)
        _, cache = _forward(weights, biases, _rows32(x), work, pullback=True)
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
    W0's gradient is taken from [x_t, E_t]. Every weight and bias sits in
    one flat float32 buffer, as does every velocity and every gradient,
    with a view per layer, and each (batch, width) array of a step is
    written into a buffer made once per run. Deterministic given the
    seed; ``steps = 0`` returns the untrained initialization. When a
    list is passed as ``loss_history`` the per-step minibatch losses are
    appended to it. A non-finite entry of ``dataset`` is a ValueError.
    """
    dataset = np.atleast_2d(np.asarray(dataset, dtype=np.float64))
    if dataset.size == 0:
        raise ValueError("dataset must be non-empty")
    bad = np.flatnonzero(~np.isfinite(dataset).all(axis=1))
    if bad.size:
        raise ValueError(f"dataset must be finite, but row {bad[0]} is not")
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

    # Momentum SGD in place over the flat buffers, in the order
    # v = m*v - lr*g, then w = w + v; that order fixes the bits of the
    # trained weights. The in-place update keeps every view current.
    layers, initial = len(model.weights), model.weights + model.biases
    shapes = [p.shape for p in initial]
    size = sum(math.prod(shape) for shape in shapes)
    params, velocity, grad = (np.zeros(size, dtype=np.float32) for _ in range(3))
    param_views, grad_views = _views(params, shapes), _views(grad, shapes)
    for view, p in zip(param_views, initial):
        view[...] = p
    weights, biases = param_views[:layers], param_views[layers:]
    x_weights, time_weights = [weights[0][:d], *weights[1:]], weights[0][d:]
    # W0 acts on the row [x_t, E_t], so its gradient takes that whole row
    # as the first layer's input; the forward reads its two halves.
    first_input = np.empty((batch_size, d + net_spec.time_embed_dim), dtype=np.float32)
    x_t, emb = first_input[:, :d], first_input[:, d:]
    time_rows = np.empty((batch_size, net_spec.hidden_width), dtype=np.float32)
    work = [np.empty_like(time_rows) for _ in range(2 * net_spec.hidden_layers + 1)]
    eps32 = np.empty((batch_size, d), dtype=np.float32)
    loss = math.nan
    for step in range(steps):
        idx = rng.integers(0, n, size=batch_size)
        t = rng.integers(1, schedule.T + 1, size=batch_size)
        eps = rng.standard_normal((batch_size, d))
        abar = schedule.alpha_bars[t - 1][:, None]
        x_t[...] = np.sqrt(abar) * dataset[idx] + np.sqrt(1.0 - abar) * eps
        emb[...] = model._embedding[t - 1]
        np.matmul(emb, time_weights, out=time_rows)
        time_rows += biases[0]
        pred, (inputs, derivs) = _forward(
            x_weights, [time_rows, *biases[1:]], x_t, work, pullback=True
        )
        eps32[...] = eps
        residual = np.subtract(pred, eps32, out=pred)
        with np.errstate(over="ignore"):
            loss = float(np.mean(np.sum(residual**2, axis=1)))
        if not math.isfinite(loss):
            raise TrainingDivergedError(
                f"loss became non-finite at step {step} (lr={learning_rate}, batch={batch_size})"
            )
        if loss_history is not None:
            loss_history.append(loss)
        residual *= 2.0
        residual /= batch_size
        inputs[0] = first_input
        _backward_weights(
            x_weights, (inputs, derivs), residual, grad_views[:layers], grad_views[layers:]
        )
        velocity *= momentum
        grad *= learning_rate
        velocity -= grad
        params += velocity
    if not np.isfinite(params).all():
        raise TrainingDivergedError(
            f"weights became non-finite at step {steps - 1} (lr={learning_rate}, batch={batch_size})"
        )
    return LearnedScoreModel(
        net_spec, schedule, d, weights, biases, trained=True, final_loss=loss
    )


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the flat buffer, one of each shape."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


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
