"""Desk-scale text CNN built directly on numpy arrays.

Pipeline: embedding lookup -> parallel convolutions over word windows of
height 3/4/5 (filter width = embedding dim) -> max-over-time pooling ->
inverted dropout -> hidden fully connected stage -> dropout -> softmax.
Every pass works on a whole mini-batch: a (B, n) matrix of token ids,
every sentence padded to the corpus's one sentence length. Gradients are
derived by hand; training makes one forward and one backward call per
mini-batch and uses an Rmsprop update. All randomness flows through an
explicit numpy Generator so runs replay bit-identically for a fixed seed.
Parameters are DTYPE (float32), and the passes and training compute in the
dtype of the model they are given; initial weights and dropout masks are
drawn in float64 and cast after, so the random stream is the same in any
dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .evaluator import DivergenceError
from .search_space import WINDOWS, Configuration

#: the dtype of every array init_model builds
DTYPE = np.dtype(np.float32)

#: Rmsprop's squared-gradient decay and the epsilon under its square root
RMSPROP_DECAY = 0.9
RMSPROP_EPSILON = 1e-8

#: sentences per eval-mode pass in accuracy: the default space's smallest
#: batch size, so validation needs no more memory than a training step
EVAL_BATCH = 64


def _relu(z):
    return np.maximum(z, 0.0)


def _drelu(z):
    return (z > 0.0).astype(z.dtype)


def _leaky_relu(z):
    return np.where(z > 0.0, z, 0.01 * z)


def _dleaky_relu(z):
    slope = z.dtype.type
    return np.where(z > 0.0, slope(1.0), slope(0.01))


def _nonpositive(z):
    """z where ELU takes its exponential branch, 0 elsewhere: exp and expm1
    of it cannot overflow, and equal theirs of z where that branch is taken."""
    return np.where(z > 0.0, 0.0, z)


def _elu(z):
    return np.where(z > 0.0, z, np.expm1(_nonpositive(z)))


def _delu(z):
    return np.where(z > 0.0, 1.0, np.exp(_nonpositive(z)))


ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, _drelu),
    "leaky_relu": (_leaky_relu, _dleaky_relu),
    "elu": (_elu, _delu),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "linear": (lambda z: z, lambda z: np.ones_like(z)),
}


@dataclass
class TrainingSettings:
    learning_rate: float
    batch_size: int
    max_epochs: int
    seed: int


@dataclass
class TextCnnModel:
    embedding: np.ndarray  # (vocab, k)
    conv_filters: dict[int, np.ndarray]  # window -> (f_w, w, k)
    conv_bias: dict[int, np.ndarray]  # window -> (f_w,)
    w1: np.ndarray  # (sum f_w, units)
    b1: np.ndarray  # (units,)
    w2: np.ndarray  # (units, classes)
    b2: np.ndarray  # (classes,)
    conv_dropout: float
    fc_dropout: float
    activation: str

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"embedding": self.embedding}
        for w in sorted(self.conv_filters):
            params[f"conv_w{w}"] = self.conv_filters[w]
            params[f"conv_b{w}"] = self.conv_bias[w]
        params.update(w1=self.w1, b1=self.b1, w2=self.w2, b2=self.b2)
        return params

    @property
    def dtype(self) -> np.dtype:
        return self.embedding.dtype

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def class_count(self) -> int:
        return self.b2.shape[0]


def xavier_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int, shape: tuple[int, ...]
) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_model(
    config: Configuration,
    vocab_size: int,
    embedding_dim: int,
    class_count: int,
    rng: np.random.Generator,
) -> TextCnnModel:
    """Build a model for one hyperparameter configuration.

    Weight matrices use uniform Xavier bounds, biases start at zero, and
    the (trainable) embedding table is uniform on [-0.25, 0.25]. The
    activation is one of ACTIVATIONS, as every value of its domain is.
    Each array is drawn in float64 and cast to DTYPE.
    """
    k = embedding_dim
    filters: dict[int, np.ndarray] = {}
    biases: dict[int, np.ndarray] = {}
    for w in WINDOWS:
        f_w = int(config[f"kernel_count_w{w}"])
        filters[w] = xavier_uniform(rng, w * k, f_w, (f_w, w, k)).astype(DTYPE)
        biases[w] = np.zeros(f_w, DTYPE)
    total_filters = sum(arr.shape[0] for arr in filters.values())
    units = int(config["fc_units"])
    return TextCnnModel(
        embedding=rng.uniform(-0.25, 0.25, size=(vocab_size, k)).astype(DTYPE),
        conv_filters=filters,
        conv_bias=biases,
        w1=xavier_uniform(
            rng, total_filters, units, (total_filters, units)
        ).astype(DTYPE),
        b1=np.zeros(units, DTYPE),
        w2=xavier_uniform(rng, units, class_count, (units, class_count)).astype(DTYPE),
        b2=np.zeros(class_count, DTYPE),
        conv_dropout=float(config["conv_dropout"]),
        fc_dropout=float(config["fc_dropout"]),
        activation=str(config["activation"]),
    )


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis: one distribution per row of logits."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _windows(embedding: np.ndarray, ids: np.ndarray, w: int) -> np.ndarray:
    """(B, n) token ids -> (B * (n-w+1), w*k) stacked windows gathered from
    the embedding table, one row per (sentence, position): row b*(n-w+1) + p
    holds the embeddings of tokens p..p+w-1 of sentence b."""
    offsets = np.arange(ids.shape[1] - w + 1)[:, None] + np.arange(w)
    return embedding[ids[:, offsets]].reshape(-1, w * embedding.shape[1])


def forward(
    model: TextCnnModel,
    token_ids: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """One mini-batch of equal-length sentences through the network.

    token_ids is a (B, n) id matrix. Returns ((B, classes) probabilities,
    cache of intermediates for backward). In train mode each sentence's two
    inverted-dropout masks are drawn from rng in sentence order, the conv
    mask before the fc mask, and cast to the model's dtype; in eval mode
    the pass is a pure function of (model, token_ids).
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError("token_ids must be a (batch, length) matrix")
    if ids.min(initial=0) < 0 or ids.max(initial=-1) >= model.vocab_size:
        raise ValueError("token id outside vocabulary; map unknowns first")
    model_windows = sorted(model.conv_filters)
    if ids.shape[1] < max(model_windows):
        raise ValueError(
            f"sentence shorter than the largest window {max(model_windows)}"
        )
    if train_mode and rng is None:
        raise ValueError("train mode requires an rng for dropout masks")
    act, _ = ACTIVATIONS[model.activation]

    batch, n = ids.shape
    rows = np.arange(batch)[:, None]
    argmax: dict[int, np.ndarray] = {}
    pooled_pre: dict[int, np.ndarray] = {}
    pooled_parts = []
    for w in model_windows:
        f_w = model.conv_filters[w].shape[0]
        flat = model.conv_filters[w].reshape(f_w, -1)
        z = (_windows(model.embedding, ids, w) @ flat.T + model.conv_bias[w]).reshape(
            batch, n - w + 1, f_w
        )
        a = act(z)
        # max returns the value a[argmax] would pick, ties and NaN included
        pooled = a.max(axis=1)  # (B, f_w)
        pooled_parts.append(pooled)
        if not train_mode:
            continue  # only backward needs the positions
        idx = a.argmax(axis=1)  # (B, f_w)
        argmax[w] = idx
        pooled_pre[w] = z[rows, idx, np.arange(f_w)]
    h = np.concatenate(pooled_parts, axis=1)  # (B, sum f_w)

    if train_mode:
        # row b is sentence b's conv mask then its fc mask: the order in
        # which one-sentence passes drew them, so the stream is unchanged
        filters = h.shape[1]
        draws = rng.random((batch, filters + model.b1.shape[0]))
        keep = 1.0 - model.conv_dropout
        mask_h = ((draws[:, :filters] < keep) / keep).astype(model.dtype)
        keep = 1.0 - model.fc_dropout
        mask_fc = ((draws[:, filters:] < keep) / keep).astype(model.dtype)
    else:
        mask_h = mask_fc = 1.0
    h_dropped = h * mask_h

    z1 = h_dropped @ model.w1 + model.b1
    a1_dropped = act(z1) * mask_fc
    probs = softmax(a1_dropped @ model.w2 + model.b2)
    cache = {
        "ids": ids,
        "h_dropped": h_dropped,
        "mask_h": mask_h,
        "z1": z1,
        "mask_fc": mask_fc,
        "a1_dropped": a1_dropped,
        "probs": probs,
    }
    if train_mode:
        cache.update(argmax=argmax, pooled_pre=pooled_pre)
    return probs, cache


def loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Summed cross entropy of (B, classes) probabilities against (B,)
    labels, each term clamped away from log(0)."""
    picked = probs[np.arange(len(labels)), labels]
    return -float(np.log(np.maximum(picked, 1e-12)).sum())


def _scatter_add(ids: np.ndarray, rows: np.ndarray, shape: tuple) -> np.ndarray:
    """Zeros of ``shape`` in the dtype of ``rows``, with each (..., k) row of
    ``rows`` added to the row its id names, in one bincount over (id,
    column) cells. bincount adds each cell's terms in token order from 0.0
    in float64, so float64 rows give np.add.at's result bit for bit."""
    k = shape[1]
    cells = (ids.reshape(-1, 1) * k + np.arange(k)).ravel()
    sums = np.bincount(cells, weights=rows.ravel(), minlength=shape[0] * k)
    return sums.reshape(shape).astype(rows.dtype, copy=False)


def backward(
    model: TextCnnModel, cache: dict, labels: np.ndarray
) -> dict[str, np.ndarray]:
    """Exact gradients of the batch's summed cross-entropy loss for one
    cached train-mode forward pass, i.e. the sum of the per-sentence
    gradients, in the model's dtype.

    Max-pooling routes each filter's gradient to its argmax position only;
    dropout masks from the cache gate the fully connected path.
    """
    _, dact = ACTIVATIONS[model.activation]
    grads: dict[str, np.ndarray] = {}
    rows = np.arange(len(labels))

    dlogits = cache["probs"].copy()
    dlogits[rows, labels] -= 1.0
    grads["w2"] = cache["a1_dropped"].T @ dlogits
    grads["b2"] = dlogits.sum(axis=0)

    da1 = (dlogits @ model.w2.T) * cache["mask_fc"]
    dz1 = da1 * dact(cache["z1"])
    grads["w1"] = cache["h_dropped"].T @ dz1
    grads["b1"] = dz1.sum(axis=0)

    dh = (dz1 @ model.w1.T) * cache["mask_h"]
    ids = cache["ids"]
    batch, n = ids.shape
    k = model.embedding.shape[1]
    dembedded = np.zeros((batch, n, k), model.dtype)
    offset = 0
    for w in sorted(model.conv_filters):
        filters = model.conv_filters[w]
        f_w = filters.shape[0]
        dpre = dh[:, offset : offset + f_w] * dact(cache["pooled_pre"][w])  # (B, f_w)
        offset += f_w
        grads[f"conv_b{w}"] = dpre.sum(axis=0)
        positions = n - w + 1
        dz = np.zeros((batch, positions, f_w), model.dtype)
        dz[rows[:, None], cache["argmax"][w], np.arange(f_w)] = dpre
        dz = dz.reshape(batch * positions, f_w)
        # gathered again: windows kept from forward would raise the step's peak
        dfilters = dz.T @ _windows(model.embedding, ids, w)
        grads[f"conv_w{w}"] = dfilters.reshape(filters.shape)
        dwindows = (dz @ filters.reshape(f_w, -1)).reshape(batch, positions, w, k)
        for j in range(w):  # token j of each window sits at position p + j
            dembedded[:, j : j + positions] += dwindows[:, :, j]

    grads["embedding"] = _scatter_add(ids, dembedded, model.embedding.shape)
    return grads


def accuracy(model: TextCnnModel, xs: np.ndarray, ys: np.ndarray) -> float:
    """Share of the (B, n) sentences xs whose eval-mode prediction is ys.

    Predicts EVAL_BATCH sentences per pass, so the window matrices and
    activations stay the size of one slice however large xs is.
    """
    correct = 0
    for start in range(0, len(ys), EVAL_BATCH):
        probs, _ = forward(model, xs[start : start + EVAL_BATCH])
        correct += int((probs.argmax(axis=1) == ys[start : start + EVAL_BATCH]).sum())
    return correct / len(ys)


def rmsprop_update(
    param: np.ndarray,
    grad: np.ndarray,
    acc: np.ndarray,
    learning_rate: float,
) -> None:
    """In-place Rmsprop step: decayed squared-gradient accumulator, then
    param -= lr * grad / sqrt(acc + eps)."""
    acc *= RMSPROP_DECAY
    acc += (1.0 - RMSPROP_DECAY) * grad * grad
    param -= learning_rate * grad / np.sqrt(acc + RMSPROP_EPSILON)


def train(
    model: TextCnnModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    settings: TrainingSettings,
    early_stop: Callable[[list[float]], bool] | None = None,
) -> tuple[TextCnnModel, list[float]]:
    """Rmsprop training with per-epoch validation.

    train_x and val_x are (sentences, n) id matrices. Each mini-batch takes
    one step along the mean of its sentences' gradients; validation is one
    eval-mode pass over val_x.

    Returns the model, which keeps its last epoch's parameters, and the
    validation accuracy after each epoch; the evaluator scores a
    configuration by the best of those accuracies. early_stop sees them
    after each epoch and returns True to halt.
    """
    rng = np.random.default_rng(settings.seed)
    params = model.parameters()
    rms = {name: np.zeros_like(arr) for name, arr in params.items()}
    history: list[float] = []

    for epoch in range(1, settings.max_epochs + 1):
        order = rng.permutation(len(train_y))
        for start in range(0, len(order), settings.batch_size):
            batch = order[start : start + settings.batch_size]
            labels = train_y[batch]
            probs, cache = forward(model, train_x[batch], train_mode=True, rng=rng)
            if not np.isfinite(loss(probs, labels)):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            for name, g in backward(model, cache, labels).items():
                rmsprop_update(
                    params[name], g / len(batch), rms[name], settings.learning_rate
                )

        history.append(accuracy(model, val_x, val_y))
        if early_stop is not None and early_stop(history):
            break

    return model, history
