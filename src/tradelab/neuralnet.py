"""Minimal dense feed-forward kernel in float64 numpy.

Provides exactly what the agents need and nothing more: forward evaluation,
exact reverse-mode gradients, bias-corrected Adam, global-norm gradient
clipping, Polyak mixing, row-exact inference over many rows, and a bit-exact
checkpoint format for an agent's table of named networks.

Each network keeps all of its parameters in one contiguous float64 vector,
``theta``, laid out W0, b0, W1, b1, ... with every matrix row-major.
``weights[i]`` and ``biases[i]`` are views into ``theta``, never separate
arrays. :func:`backward` returns the parameter gradient as one vector laid
out like ``theta``, so every optimiser kernel works on one array:
:func:`adam_step` and :func:`soft_update` are elementwise on arrays of any
shape and move their first argument in place, and :func:`clip_gradients`
takes the layer dims only to sum the global norm layer by layer.

Each kernel computes only what its caller reads. :func:`forward` runs a
batch (or an untaped stack of rows), adds the bias and applies the activation
in place on each layer's product, and can record the pass on a :class:`Tape`,
its only record: :func:`backward` reads the pass's input, dropout masks and
activations there, and computes one gradient, ``wrt`` the params or the input.

An agent keeps its networks in one name -> :class:`Mlp` table under their
checkpoint names; the checkpoint format and :func:`forward_rows` are
written once here for every agent's table or network.

The kernels check shapes, dims and tapes only. A rate, a step size or a
finite input is checked once where its value enters: the agent configs,
the price loader and :func:`load_nets`.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .fileio import atomic_open

HIDDEN_ACTIVATIONS = ("relu", "tanh")
OUTPUT_ACTIVATIONS = ("identity", "tanh")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

_CHECKPOINT_VERSION = 1


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

    def __reduce__(self):
        # rebuilt through the constructor, so an unpickled network's views share its theta
        return (Mlp, (self.layer_dims, self.theta, self.hidden_activation, self.output_activation))


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


def make_dropout_masks(net: Mlp, rate: float, rng: np.random.Generator):
    """Inverted-dropout masks for the hidden layers; None means no dropout."""
    if rate == 0.0:
        return None
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
    pass; recording another overwrites it, in the arrays of the last when the
    shapes hold. :func:`backward` returns one of the tape's arrays, which the
    next backward of the same ``wrt`` on it overwrites.
    """

    def __init__(self):
        self.net: Mlp | None = None
        self.dropout_masks = None
        self.inputs: list[np.ndarray] = []
        self.posts: list[np.ndarray] = []
        self._arrays: dict = {}

    def array(self, key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        a = self._arrays.get(key)  # uninitialised, and made anew on a new shape or dtype
        if a is None or a.shape != shape or a.dtype != dtype:
            a = self._arrays[key] = np.empty(shape, dtype)
        return a


def forward(net: Mlp, x, dropout_masks=None, tape: Tape | None = None) -> np.ndarray:
    """Evaluate the network on a (batch, dim) array or an (n, 1, dim) stack.

    A stack's outputs, shaped (n, 1, out), carry exactly the bits of n
    one-row calls: numpy's matmul runs one gemv (or dot) per item of a
    stack, the routine a single row gets, while a (batch, dim) product runs
    a gemm that may round differently. With a ``tape``, the values of every
    layer are recorded on it for :func:`backward`; a stack takes no tape.
    """
    batch = np.asarray(x, dtype=np.float64)
    if batch.ndim != 2 and not (batch.ndim == 3 and batch.shape[1] == 1):
        raise ValueError(f"input must be a batch or an (n, 1, dim) stack, got shape {batch.shape}")
    if batch.ndim == 3 and tape is not None:
        raise ValueError("a stack of rows is evaluated without a tape")
    if batch.shape[-1] != net.layer_dims[0]:
        raise ValueError(f"input dim {batch.shape[-1]} != network input {net.layer_dims[0]}")
    if tape is not None:
        tape.net, tape.dropout_masks = net, dropout_masks
        tape.inputs, tape.posts = [], []
    a = batch
    last = len(net.weights) - 1
    for i, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
        h = np.matmul(a, w, out=None if tape is None else tape.array(("post", i), (len(a), w.shape[1])))
        h += b
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        elif act == "tanh":
            np.tanh(h, out=h)
        if tape is not None:
            tape.inputs.append(a)
            tape.posts.append(h)
        a = h if dropout_masks is None or i == last else np.multiply(
            h, dropout_masks[i], out=None if tape is None else tape.array(("kept", i), h.shape))
    return a


def forward_rows(net: Mlp, rows, block: int) -> np.ndarray:
    """``net`` on each row of an (n, dim) array, as an (n, out) array: ceil(n / block)
    :func:`forward` calls on (k, 1, dim) stacks of ``block`` rows, so each output row
    has the bits of a single-row forward and the scratch memory is ``block`` rows'."""
    return np.concatenate([forward(net, rows[i : i + block, None])[:, 0]
                           for i in range(0, len(rows), block)])


def backward(net: Mlp, upstream_grad, *, tape: Tape, wrt: str):
    """The exact gradient of sum(output * upstream_grad) w.r.t. the params or the input.

    ``tape`` records ``forward(net, x, dropout_masks, tape=tape)`` with the current
    parameters, and ``x`` and the masks are read from it. ``wrt="params"`` returns a
    vector laid out like ``net.theta``, accumulated over the rows of ``x`` (the
    caller folds any 1/N into ``upstream_grad``); ``wrt="input"`` returns the gradient
    shaped like ``x``. Both gradients of one pass are two calls on its tape, and each
    is an array of the tape (see :class:`Tape`).
    """
    if wrt not in ("params", "input"):
        raise ValueError(f"wrt must be 'params' or 'input', got {wrt!r}")
    if tape.net is not net:
        raise ValueError("tape was recorded for another network")
    up = np.asarray(upstream_grad, dtype=np.float64)
    want = (len(tape.inputs[0]), net.layer_dims[-1])
    if up.shape != want:
        raise ValueError(f"upstream grad shape {up.shape} != {want}")
    params = wrt == "params"
    if params:
        grad = tape.array("grad", net.theta.shape)
        views = _param_views(net.layer_dims, grad)  # where each layer's gradient lands
    last = len(net.weights) - 1
    g = up
    for i in range(last, -1, -1):
        act = net.activations[i]
        if act == "identity":
            delta = g  # g * 1.0, exactly
        else:
            # the derivative from the activation: relu's is a bool mask, which multiplies as 1.0/0.0
            post, local = tape.posts[i], tape.array((act, i), g.shape, bool if act == "relu" else float)
            if act == "relu":
                np.greater(post, 0.0, out=local)
            else:
                np.subtract(1.0, np.multiply(post, post, out=local), out=local)  # tanh's 1.0 - a * a
            if tape.dropout_masks is not None and i < last:
                local = np.multiply(local, tape.dropout_masks[i], out=tape.array(("dropout'", i), g.shape))
            # below the top layer g is the tape's own array, and delta takes its place
            delta = np.multiply(g, local, out=tape.array("delta", g.shape) if i == last else g)
        if params:
            np.matmul(tape.inputs[i].T, delta, out=views[2 * i])
            np.add.reduce(delta, axis=0, out=views[2 * i + 1])
        if i > 0 or not params:
            g = np.matmul(delta, net.weights[i].T, out=tape.array(("g", i), (len(g), net.layer_dims[i])))
    return grad if params else g


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators for one parameter array; the betas and eps are module constants."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    step: int = 0


def adam_step(param, grad, opt: AdamState) -> None:
    """One Adam update of ``param``, ``opt``'s moments and its step, in place."""
    if not param.shape == grad.shape == opt.m.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {param.shape} "
                         f"(moments {opt.m.shape})")
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m, v = opt.m, opt.v
    if not hasattr(opt, "_scratch"):  # two vectors made at the first step, so a step allocates nothing
        opt._scratch = (np.empty_like(m), np.empty_like(m))
    denom, step = opt._scratch
    # m <- beta1 * m + (1 - beta1) * g and v <- beta2 * v + (1 - beta2) * g^2 (either order of a product)
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grad, grad, out=step), 1.0 - ADAM_BETA2, out=step)
    # p - lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m / bc1, v_hat = v / bc2
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += ADAM_EPS
    np.divide(m, bc1, out=step)
    step *= opt.lr
    step /= denom
    param -= step


def global_norm(grad: np.ndarray, dims) -> float:
    """The L2 norm of a gradient laid out like ``theta`` for ``dims``, summed layer
    by layer: one whole-vector sum can round differently."""
    total, start = 0.0, 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        for stop in (start + fan_in * fan_out, start + (fan_in + 1) * fan_out):  # W, then b
            part = grad[start:stop]
            total += float(np.add.reduce(np.multiply(part, part)))
            start = stop
    return float(np.sqrt(total))


def clip_gradients(grad: np.ndarray, dims, max_norm: float) -> np.ndarray:
    """``grad`` scaled by max_norm/norm when its :func:`global_norm` exceeds max_norm,
    else ``grad`` itself."""
    norm = global_norm(grad, dims)
    return grad if norm <= max_norm else grad * (max_norm / norm)


def soft_update(target, source, tau: float) -> None:
    """Polyak mix in place: target <- tau * source + (1 - tau) * target."""
    if target.shape != source.shape:
        raise ValueError(f"shape mismatch {target.shape} vs {source.shape}")
    target *= 1.0 - tau
    target += tau * source  # the same sum as tau * source + (1 - tau) * target: addition commutes


def config_hash(config) -> str:
    """A short digest of a config dataclass, stored in checkpoints to catch a mismatch."""
    blob = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _param_keys(name: str, net: Mlp) -> list[tuple[str, np.ndarray]]:
    """``(<name>.w<i> or <name>.b<i>, its view into net.theta)`` for each parameter array."""
    views = _param_views(net.layer_dims, net.theta)
    return [(f"{name}.{'wb'[i % 2]}{i // 2}", view) for i, view in enumerate(views)]


def save_nets(path, nets: dict, config, episodes: int) -> None:
    """Write a versioned, bit-exact checkpoint of a table of named networks.

    Keys: ``version``, ``config_hash``, ``episodes`` and, per network,
    ``<name>.layer_dims``, ``<name>.hidden_activation``,
    ``<name>.output_activation`` and its ``<name>.w<i>``, ``<name>.b<i>`` arrays.
    """
    payload = {
        "version": np.array(_CHECKPOINT_VERSION),
        "config_hash": np.array(config_hash(config)),
        "episodes": np.array(episodes),
    }
    for name, net in nets.items():
        payload[f"{name}.layer_dims"] = np.array(net.layer_dims, dtype=np.int64)
        payload[f"{name}.hidden_activation"] = np.array(net.hidden_activation)
        payload[f"{name}.output_activation"] = np.array(net.output_activation)
        payload.update(_param_keys(name, net))
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_nets(path, nets: dict, config, window: int) -> int:
    """Read a :func:`save_nets` checkpoint into ``nets`` in place; its episode count.

    Every check runs before any ``theta`` moves: a ValueError naming ``path`` for
    a directory, a file cut short or lacking an array, another version or
    configuration, layer dims other than ``window`` builds, another activation,
    or a network array that is misshapen or not finite.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["version"])
            if version != _CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {version}")
            if str(data["config_hash"]) != config_hash(config):
                raise ValueError("checkpoint was written with a different configuration")
            moves = []
            for name, net in nets.items():
                dims = tuple(int(d) for d in data[f"{name}.layer_dims"])
                if dims != net.layer_dims:
                    raise ValueError(f"checkpoint {name} has layer dims {dims}, "
                                     f"but env.window {window} builds {net.layer_dims}")
                for kind in ("hidden", "output"):
                    got, built = str(data[f"{name}.{kind}_activation"]), getattr(net, f"{kind}_activation")
                    if got != built:
                        raise ValueError(f"checkpoint {name} has {kind} activation {got!r}, "
                                         f"but the agent builds {built!r}")
                for key, view in _param_keys(name, net):
                    arr = data[key]
                    if arr.shape != view.shape:
                        raise ValueError(f"checkpoint array {key} has shape {arr.shape}, expected {view.shape}")
                    if not np.isfinite(arr).all():
                        raise ValueError(f"checkpoint array {key} is not finite")
                    moves.append((view, arr))
            episodes = int(data["episodes"])
    except FileNotFoundError:
        raise
    except OSError as exc:  # a directory, or a file it may not read
        raise ValueError(f"{path}: {exc.strerror}") from None
    except (KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:  # KeyError: a missing array
        raise ValueError(f"{path}: {exc.args[0]}") from None  # args[0]: a KeyError's str is quoted
    for view, arr in moves:
        view[...] = arr
    return episodes
