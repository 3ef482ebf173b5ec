"""Per-sentence text-CNN passes: the reference the batched passes in
annealtune.textcnn are tested against.

forward/backward are the one-sentence-at-a-time code the package used
before it ran whole mini-batches; train_history replays its training loop
(per-sentence forward and backward, gradients summed over the batch).
"""

from typing import Sequence

import numpy as np

from annealtune.textcnn import (
    ACTIVATIONS,
    TextCnnModel,
    TrainingSettings,
    rmsprop_update,
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
    """One sentence through the network: (class probabilities, cache)."""
    ids = np.asarray(token_ids, dtype=np.int64)
    act, _ = ACTIVATIONS[model.activation]

    embedded = model.embedding[ids]  # (n, k)
    windows: dict[int, np.ndarray] = {}
    pre_act: dict[int, np.ndarray] = {}
    argmax: dict[int, np.ndarray] = {}
    pooled_parts = []
    for w in sorted(model.conv_filters):
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
    }
    return probs, cache


def backward(model: TextCnnModel, cache: dict, label: int) -> dict[str, np.ndarray]:
    """Gradients of one sentence's cross-entropy loss."""
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


def train_history(
    model: TextCnnModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    settings: TrainingSettings,
) -> list[float]:
    """Validation accuracy after each epoch of per-sentence training, with
    the same permutation, dropout stream and Rmsprop steps as
    annealtune.textcnn.train; the model keeps its last epoch's parameters."""
    rng = np.random.default_rng(settings.seed)
    params = model.parameters()
    rms = {name: np.zeros_like(arr) for name, arr in params.items()}
    accuracies = []
    for _ in range(settings.max_epochs):
        order = rng.permutation(len(train_y))
        for start in range(0, len(order), settings.batch_size):
            batch = order[start : start + settings.batch_size]
            grad_sum = {name: np.zeros_like(arr) for name, arr in params.items()}
            for i in batch:
                _, cache = forward(model, train_x[i], train_mode=True, rng=rng)
                for name, g in backward(model, cache, int(train_y[i])).items():
                    grad_sum[name] += g
            for name, arr in params.items():
                rmsprop_update(
                    arr, grad_sum[name] / len(batch), rms[name], settings.learning_rate
                )
        accuracies.append(accuracy(model, val_x, val_y))
    return accuracies
