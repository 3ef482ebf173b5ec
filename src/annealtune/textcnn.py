"""Desk-scale text CNN built directly on numpy arrays.

Pipeline: embedding lookup -> parallel convolutions over word windows of
height 3/4/5 (filter width = embedding dim) -> max-over-time pooling ->
inverted dropout -> hidden fully connected stage -> dropout -> softmax.
Gradients are derived by hand; training uses an Rmsprop update. All
randomness flows through an explicit numpy Generator so runs replay
bit-identically for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .search_space import Configuration

WINDOWS = (3, 4, 5)

#: Rmsprop's squared-gradient decay and the epsilon under its square root
RMSPROP_DECAY = 0.9
RMSPROP_EPSILON = 1e-8


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


def _relu(z):
    return np.maximum(z, 0.0)


def _drelu(z):
    return (z > 0.0).astype(z.dtype)


def _leaky_relu(z):
    return np.where(z > 0.0, z, 0.01 * z)


def _dleaky_relu(z):
    return np.where(z > 0.0, 1.0, 0.01)


def _elu(z):
    return np.where(z > 0.0, z, np.expm1(z))


def _delu(z):
    return np.where(z > 0.0, 1.0, np.exp(z))


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

    @staticmethod
    def from_configuration(
        config: Configuration, max_epochs: int, seed: int
    ) -> "TrainingSettings":
        return TrainingSettings(
            learning_rate=float(config["learning_rate"]),
            batch_size=int(config["batch_size"]),
            max_epochs=max_epochs,
            seed=seed,
        )


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

    def copy_parameters(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.parameters().items()}

    def load_parameters(self, params: dict[str, np.ndarray]) -> None:
        for name, arr in self.parameters().items():
            arr[...] = params[name]

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
    the (trainable) embedding table is uniform on [-0.25, 0.25].
    """
    activation = str(config["activation"])
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    k = embedding_dim
    filters: dict[int, np.ndarray] = {}
    biases: dict[int, np.ndarray] = {}
    for w in WINDOWS:
        f_w = int(config[f"kernel_count_w{w}"])
        filters[w] = xavier_uniform(rng, w * k, f_w, (f_w, w, k))
        biases[w] = np.zeros(f_w)
    total_filters = sum(arr.shape[0] for arr in filters.values())
    units = int(config["fc_units"])
    return TextCnnModel(
        embedding=rng.uniform(-0.25, 0.25, size=(vocab_size, k)),
        conv_filters=filters,
        conv_bias=biases,
        w1=xavier_uniform(rng, total_filters, units, (total_filters, units)),
        b1=np.zeros(units),
        w2=xavier_uniform(rng, units, class_count, (units, class_count)),
        b2=np.zeros(class_count),
        conv_dropout=float(config["conv_dropout"]),
        fc_dropout=float(config["fc_dropout"]),
        activation=activation,
    )


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def _window_matrix(embedded: np.ndarray, w: int) -> np.ndarray:
    """(n, k) embedded sentence -> (n-w+1, w*k) stacked windows."""
    n, k = embedded.shape
    view = np.lib.stride_tricks.sliding_window_view(embedded, (w, k))
    return view.reshape(n - w + 1, w * k)


def forward(
    model: TextCnnModel,
    token_ids: Sequence[int],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, dict]:
    """One sentence through the network.

    Returns (class probabilities, cache of intermediates for backward).
    In train mode the two inverted-dropout masks are drawn from rng; in
    eval mode the pass is a pure function of (model, token_ids).
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("token_ids must be one-dimensional")
    if ids.min(initial=0) < 0 or ids.max(initial=-1) >= model.vocab_size:
        raise ValueError("token id outside vocabulary; map unknowns first")
    model_windows = sorted(model.conv_filters)
    if len(ids) < max(model_windows):
        raise ValueError(
            f"sentence shorter than the largest window {max(model_windows)}"
        )
    if train_mode and rng is None:
        raise ValueError("train mode requires an rng for dropout masks")
    act, _ = ACTIVATIONS[model.activation]

    embedded = model.embedding[ids]  # (n, k)
    windows: dict[int, np.ndarray] = {}
    pre_act: dict[int, np.ndarray] = {}
    argmax: dict[int, np.ndarray] = {}
    pooled_parts = []
    for w in model_windows:
        win = _window_matrix(embedded, w)
        flat = model.conv_filters[w].reshape(model.conv_filters[w].shape[0], -1)
        z = win @ flat.T + model.conv_bias[w]  # (positions, f_w)
        a = act(z)
        idx = a.argmax(axis=0)
        windows[w] = win
        pre_act[w] = z
        argmax[w] = idx
        pooled_parts.append(a[idx, np.arange(a.shape[1])])
    h = np.concatenate(pooled_parts)

    if train_mode:
        keep = 1.0 - model.conv_dropout
        mask_h = (rng.random(h.shape) < keep) / keep
    else:
        mask_h = np.ones_like(h)
    h_dropped = h * mask_h

    z1 = h_dropped @ model.w1 + model.b1
    a1 = act(z1)
    if train_mode:
        keep = 1.0 - model.fc_dropout
        mask_fc = (rng.random(a1.shape) < keep) / keep
    else:
        mask_fc = np.ones_like(a1)
    a1_dropped = a1 * mask_fc

    logits = a1_dropped @ model.w2 + model.b2
    probs = softmax(logits)
    cache = {
        "ids": ids,
        "windows": windows,
        "pre_act": pre_act,
        "argmax": argmax,
        "h_dropped": h_dropped,
        "mask_h": mask_h,
        "z1": z1,
        "mask_fc": mask_fc,
        "a1_dropped": a1_dropped,
        "probs": probs,
        "train_mode": train_mode,
    }
    return probs, cache


def loss(probs: np.ndarray, label: int) -> float:
    """Cross entropy against a one-hot target, clamped away from log(0)."""
    return -float(np.log(max(probs[label], 1e-12)))


def backward(model: TextCnnModel, cache: dict, label: int) -> dict[str, np.ndarray]:
    """Exact gradients of the cross-entropy loss for one cached forward pass.

    Max-pooling routes each filter's gradient to its argmax position only;
    dropout masks from the cache gate the fully connected path.
    """
    if not cache["train_mode"]:
        raise ValueError("backward requires a cache from a train-mode forward")
    _, dact = ACTIVATIONS[model.activation]
    grads: dict[str, np.ndarray] = {}

    dlogits = cache["probs"].copy()
    dlogits[label] -= 1.0
    grads["w2"] = np.outer(cache["a1_dropped"], dlogits)
    grads["b2"] = dlogits

    da1 = (model.w2 @ dlogits) * cache["mask_fc"]
    dz1 = da1 * dact(cache["z1"])
    grads["w1"] = np.outer(cache["h_dropped"], dz1)
    grads["b1"] = dz1

    dh = (model.w1 @ dz1) * cache["mask_h"]
    dembedded = np.zeros_like(model.embedding[cache["ids"]])
    offset = 0
    k = model.embedding.shape[1]
    for w in sorted(model.conv_filters):
        f_w = model.conv_filters[w].shape[0]
        dpooled = dh[offset : offset + f_w]
        offset += f_w
        z = cache["pre_act"][w]
        dz = np.zeros_like(z)
        cols = np.arange(f_w)
        rows = cache["argmax"][w]
        dz[rows, cols] = dpooled * dact(z[rows, cols])
        flat = model.conv_filters[w].reshape(f_w, -1)
        grads[f"conv_w{w}"] = (dz.T @ cache["windows"][w]).reshape(f_w, w, k)
        grads[f"conv_b{w}"] = dz.sum(axis=0)
        dwin = dz @ flat  # (positions, w*k)
        for pos in range(dwin.shape[0]):
            dembedded[pos : pos + w] += dwin[pos].reshape(w, k)

    grads["embedding"] = np.zeros_like(model.embedding)
    np.add.at(grads["embedding"], cache["ids"], dembedded)
    return grads


def predict(model: TextCnnModel, token_ids: Sequence[int]) -> int:
    probs, _ = forward(model, token_ids, train_mode=False)
    return int(np.argmax(probs))


def accuracy(model: TextCnnModel, xs: np.ndarray, ys: np.ndarray) -> float:
    correct = sum(predict(model, x) == int(y) for x, y in zip(xs, ys))
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


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    validation_accuracy: float


def train(
    model: TextCnnModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    settings: TrainingSettings,
    early_stop: Callable[[list[float]], bool] | None = None,
) -> tuple[TextCnnModel, list[EpochStats]]:
    """Rmsprop training with per-epoch validation.

    Restores the parameters of the best-validation epoch before returning.
    early_stop sees the validation-accuracy history after each epoch and
    returns True to halt.
    """
    rng = np.random.default_rng(settings.seed)
    params = model.parameters()
    rms = {name: np.zeros_like(arr) for name, arr in params.items()}
    history: list[EpochStats] = []
    val_history: list[float] = []
    best_acc = -1.0
    best_params = model.copy_parameters()

    for epoch in range(1, settings.max_epochs + 1):
        order = rng.permutation(len(train_y))
        epoch_losses = []
        for start in range(0, len(order), settings.batch_size):
            batch = order[start : start + settings.batch_size]
            grad_sum = {name: np.zeros_like(arr) for name, arr in params.items()}
            batch_loss = 0.0
            for i in batch:
                probs, cache = forward(model, train_x[i], train_mode=True, rng=rng)
                batch_loss += loss(probs, int(train_y[i]))
                for name, g in backward(model, cache, int(train_y[i])).items():
                    grad_sum[name] += g
            batch_loss /= len(batch)
            if not np.isfinite(batch_loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            epoch_losses.append(batch_loss)
            for name, arr in params.items():
                rmsprop_update(
                    arr, grad_sum[name] / len(batch), rms[name], settings.learning_rate
                )

        val_acc = accuracy(model, val_x, val_y)
        history.append(EpochStats(epoch, float(np.mean(epoch_losses)), val_acc))
        val_history.append(val_acc)
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = model.copy_parameters()
        if early_stop is not None and early_stop(val_history):
            break

    model.load_parameters(best_params)
    return model, history
