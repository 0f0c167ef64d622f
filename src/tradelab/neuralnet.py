"""Minimal dense feed-forward kernel in float64 numpy.

Provides exactly what the agents need and nothing more: forward evaluation,
exact reverse-mode gradients, bias-corrected Adam, global-norm gradient
clipping, Polyak mixing, and a bit-exact checkpoint format for named networks.

Each network keeps all of its parameters in one contiguous float64 vector,
``theta``, laid out W0, b0, W1, b1, ... with every matrix row-major.
``weights[i]`` and ``biases[i]`` are views into ``theta``, never separate
arrays. :func:`backward` returns the parameter gradient as one vector laid
out like ``theta``, so every optimiser kernel works on one array:
:func:`adam_step` and :func:`soft_update` are elementwise on arrays of any
shape and move their first argument in place, and :func:`clip_gradients`
takes the layer dims only to sum the global norm layer by layer.

Each kernel computes only what its caller reads. :func:`forward` adds the
bias and applies the activation in place on each layer's product, and can
record each layer's input and activation on a :class:`Tape`;
:func:`backward` given that tape uses them instead of running the forward
pass again (without one it runs the same pass itself, so both give
bit-identical gradients). ``backward(..., wrt=...)`` computes the parameter
gradient, the input gradient or both.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .fileio import atomic_open

HIDDEN_ACTIVATIONS = ("relu", "tanh")
OUTPUT_ACTIVATIONS = ("identity", "tanh")

_CHECKPOINT_VERSION = 1


def _grad(name: str, a: np.ndarray) -> np.ndarray:
    """The derivative of a relu or tanh from its output ``a``; relu's is a bool
    mask, which multiplies as 1.0/0.0."""
    return a > 0.0 if name == "relu" else 1.0 - a * a


def _param_views(dims, flat: np.ndarray) -> list[np.ndarray]:
    """Views [W0, b0, W1, b1, ...] into a vector laid out like ``theta``."""
    views = []
    start = 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        stop = start + fan_in * fan_out
        views.append(flat[start:stop].reshape(fan_in, fan_out))
        views.append(flat[stop : stop + fan_out])
        start = stop + fan_out
    return views


def _param_count(dims) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))


@dataclass
class Mlp:
    layer_dims: tuple[int, ...]
    theta: np.ndarray
    hidden_activation: str = "relu"
    output_activation: str = "identity"
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)
    activations: tuple[str, ...] = field(init=False, repr=False)  # one name per layer

    def __post_init__(self):
        size = _param_count(self.layer_dims)
        theta = self.theta
        if theta.dtype != np.float64 or theta.shape != (size,) or not theta.flags.c_contiguous:
            raise ValueError(
                f"theta must be a contiguous float64 vector of {size} parameters for dims "
                f"{self.layer_dims}, got {theta.dtype} {theta.shape}"
            )
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"hidden activation must be one of {HIDDEN_ACTIVATIONS}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"output activation must be one of {OUTPUT_ACTIVATIONS}")
        views = _param_views(self.layer_dims, theta)
        self.weights, self.biases = views[0::2], views[1::2]
        self.activations = (self.hidden_activation,) * (len(self.weights) - 1) + (self.output_activation,)

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]


def create_mlp(
    layer_dims,
    rng: np.random.Generator,
    hidden_activation: str = "relu",
    output_activation: str = "identity",
) -> Mlp:
    """Build an MLP with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) parameters."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"invalid layer dims {dims}")
    net = Mlp(dims, np.empty(_param_count(dims)), hidden_activation, output_activation)
    for w, b in zip(net.weights, net.biases):
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    return net


def clone(net: Mlp) -> Mlp:
    return Mlp(net.layer_dims, net.theta.copy(), net.hidden_activation, net.output_activation)


def _as_batch(x, stack: bool = False) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2 or stack and arr.ndim == 3 and arr.shape[1] == 1:
        return arr, False
    kinds = "a vector, a batch or an (n, 1, dim) stack" if stack else "a vector or a batch of vectors"
    raise ValueError(f"input must be {kinds}, got shape {arr.shape}")


def make_dropout_masks(net: Mlp, rate: float, rng: np.random.Generator):
    """Inverted-dropout masks for the hidden layers; None means no dropout."""
    if rate == 0.0:
        return None
    if not 0.0 < rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    masks = []
    for dim in net.layer_dims[1:-1]:
        keep = (rng.random(dim) >= rate).astype(np.float64)
        masks.append(keep / (1.0 - rate))
    return masks


class Tape:
    """What one forward pass computed, kept for the backward pass that follows.

    Per layer: its input (after the previous layer's dropout) and its
    activation (before dropout). Each activation's derivative is a function
    of the activation itself, so no pre-activation is kept. A tape holds one
    pass; recording another overwrites it.
    """

    def __init__(self):
        self.net: Mlp | None = None
        self.dropout_masks = None
        self.inputs: list[np.ndarray] = []
        self.posts: list[np.ndarray] = []


def _forward_pass(net: Mlp, x: np.ndarray, dropout_masks, tape: Tape | None) -> np.ndarray:
    if tape is not None:
        tape.net, tape.dropout_masks = net, dropout_masks
        tape.inputs, tape.posts = [], []
    a = x
    last = len(net.weights) - 1
    for i, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
        h = a @ w
        h += b
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        elif act == "tanh":
            np.tanh(h, out=h)
        if tape is not None:
            tape.inputs.append(a)
            tape.posts.append(h)
        a = h if dropout_masks is None or i == last else h * dropout_masks[i]
    return a


def forward(net: Mlp, x, dropout_masks=None, tape: Tape | None = None) -> np.ndarray:
    """Evaluate the network on a vector, a (batch, dim) array or an (n, 1, dim) stack.

    A stack's outputs, shaped (n, 1, out), carry exactly the bits of n
    single-vector calls: numpy's matmul runs one gemv (or dot) per item of a
    stack, the routine a single row gets, while a (batch, dim) product runs
    a gemm that may round differently. With a ``tape``, the values of every
    layer are recorded on it for :func:`backward`; a stack takes no tape.
    """
    batch, squeeze = _as_batch(x, stack=True)
    if batch.ndim == 3 and tape is not None:
        raise ValueError("a stack of rows is evaluated without a tape")
    if batch.shape[-1] != net.in_dim:
        raise ValueError(f"input dim {batch.shape[-1]} != network input {net.in_dim}")
    if not np.isfinite(batch).all():
        raise ValueError("non-finite input")
    out = _forward_pass(net, batch, dropout_masks, tape)
    return out[0] if squeeze else out


def backward(net: Mlp, x, upstream_grad, dropout_masks=None, tape: Tape | None = None,
             wrt: str = "both"):
    """Exact gradients of sum(output * upstream_grad) w.r.t. params and input.

    Returns (param_grad, input_grad) with param_grad a fresh vector laid out
    like ``net.theta``. For a batch, parameter gradients accumulate over
    rows; the caller folds any 1/N into ``upstream_grad``. ``tape`` is the
    record of ``forward(net, x, dropout_masks, tape=tape)`` with the current
    parameters; without one the forward pass runs here. ``wrt`` is
    ``"both"``, ``"params"`` or ``"input"``; the gradient it leaves out is
    not computed and comes back as None.
    """
    if wrt not in ("both", "params", "input"):
        raise ValueError(f"wrt must be one of 'both', 'params' or 'input', got {wrt!r}")
    batch, squeeze = _as_batch(x)
    up, _ = _as_batch(upstream_grad)
    if batch.shape[1] != net.in_dim:
        raise ValueError(f"input dim {batch.shape[1]} != network input {net.in_dim}")
    if up.shape != (batch.shape[0], net.out_dim):
        raise ValueError(f"upstream grad shape {up.shape} != {(batch.shape[0], net.out_dim)}")
    if tape is None:
        tape = Tape()
        _forward_pass(net, batch, dropout_masks, tape)
    elif tape.net is not net or tape.dropout_masks is not dropout_masks or tape.inputs[0].shape != batch.shape:
        raise ValueError("tape was recorded for another network, input shape or dropout masks")
    out = views = None
    if wrt != "input":
        out = np.empty_like(net.theta)
        views = _param_views(net.layer_dims, out)  # where each layer's gradient lands
    last = len(net.weights) - 1
    g = up
    for i in range(last, -1, -1):
        act = net.activations[i]
        if act == "identity":
            delta = g  # g * 1.0, exactly
        else:
            local = _grad(act, tape.posts[i])
            if dropout_masks is not None and i < last:
                local = local * dropout_masks[i]
            delta = g * local
        if views is not None:
            np.matmul(tape.inputs[i].T, delta, out=views[2 * i])
            np.add.reduce(delta, axis=0, out=views[2 * i + 1])
        if i > 0 or wrt != "params":
            g = delta @ net.weights[i].T
    return out, None if wrt == "params" else (g[0] if squeeze else g)


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for one parameter array."""

    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0

    @classmethod
    def create(cls, param, **hyper):
        """Zeroed moments shaped like ``param``; ``hyper`` overrides lr, beta1, beta2 or eps."""
        return cls(np.zeros_like(param), np.zeros_like(param), **hyper)


def adam_step(param, grad, opt: AdamState) -> None:
    """One Adam update of ``param``, ``opt``'s moments and its step, in place once every check passed."""
    if not param.shape == grad.shape == opt.m.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {param.shape} "
                         f"(moments {opt.m.shape})")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t
    m, v = opt.m, opt.v
    # m <- beta1 * m + (1 - beta1) * g and v <- beta2 * v + (1 - beta2) * g^2
    m *= opt.beta1
    m += (1.0 - opt.beta1) * grad
    v *= opt.beta2
    v += (1.0 - opt.beta2) * (grad * grad)
    # p - lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m / bc1, v_hat = v / bc2
    denom = np.sqrt(v / bc2)
    denom += opt.eps
    step = m / bc1
    step *= opt.lr
    step /= denom
    param -= step


def global_norm(grad: np.ndarray, dims) -> float:
    """The L2 norm of a gradient laid out like ``theta`` for ``dims``, summed layer
    by layer: one whole-vector sum can round differently."""
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in _param_views(dims, grad))))


def clip_gradients(grad: np.ndarray, dims, max_norm: float) -> np.ndarray:
    """``grad`` scaled by max_norm/norm when its :func:`global_norm` exceeds max_norm,
    else ``grad`` itself."""
    if not max_norm > 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = global_norm(grad, dims)
    return grad if norm <= max_norm else grad * (max_norm / norm)


def soft_update(target, source, tau: float) -> None:
    """Polyak mix in place once every check passed: target <- tau * source + (1 - tau) * target."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if target.shape != source.shape:
        raise ValueError(f"shape mismatch {target.shape} vs {source.shape}")
    target *= 1.0 - tau
    target += tau * source  # the same sum as tau * source + (1 - tau) * target: addition commutes


def checkpoint_payload(net: Mlp, prefix: str = "") -> dict:
    """Flat array dict describing a network: dims, activations, parameters."""
    payload = {
        f"{prefix}layer_dims": np.array(net.layer_dims, dtype=np.int64),
        f"{prefix}hidden_activation": np.array(net.hidden_activation),
        f"{prefix}output_activation": np.array(net.output_activation),
    }
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        payload[f"{prefix}w{i}"] = w
        payload[f"{prefix}b{i}"] = b
    return payload


def net_from_payload(data, prefix: str = "") -> Mlp:
    dims = tuple(int(d) for d in data[f"{prefix}layer_dims"])
    theta = np.empty(_param_count(dims))
    for i, view in enumerate(_param_views(dims, theta)):
        key = f"{prefix}{'wb'[i % 2]}{i // 2}"
        arr = data[key]
        if arr.shape != view.shape:
            raise ValueError(f"checkpoint array {key} has shape {arr.shape}, expected {view.shape}")
        view[...] = arr
    return Mlp(
        layer_dims=dims,
        theta=theta,
        hidden_activation=str(data[f"{prefix}hidden_activation"]),
        output_activation=str(data[f"{prefix}output_activation"]),
    )


def config_hash(config) -> str:
    """A short digest of a config dataclass, stored in checkpoints to catch a mismatch."""
    blob = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def save_nets(path, nets: dict, config, episodes: int) -> None:
    """Write a versioned, bit-exact checkpoint of named networks.

    Keys: ``version``, ``config_hash``, ``episodes`` and, per network, its
    :func:`checkpoint_payload` under the prefix ``<name>.``.
    """
    payload = {
        "version": np.array(_CHECKPOINT_VERSION),
        "config_hash": np.array(config_hash(config)),
        "episodes": np.array(episodes),
    }
    for name, net in nets.items():
        payload.update(checkpoint_payload(net, prefix=f"{name}."))
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_nets(path, names, config) -> tuple[dict, int]:
    """The named networks and the episode count of a :func:`save_nets` checkpoint.

    A ValueError when the version or the configuration differs.
    """
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if str(data["config_hash"]) != config_hash(config):
            raise ValueError(f"{path}: checkpoint was written with a different configuration")
        return {name: net_from_payload(data, prefix=f"{name}.") for name in names}, int(data["episodes"])
