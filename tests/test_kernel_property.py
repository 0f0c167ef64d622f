"""Property checks of the dense kernel over generated networks and batches.

``forward``, ``backward``, ``adam_step`` and ``soft_update`` must give the
bits of the reference kernel in ``oracles`` for every layer shape, batch
size (a one-row batch included), activation pair, dropout mask and
gradient target, and ``backward`` must match central
differences on whole batches. The flat kernels run on the concatenation of
per-layer arrays that the reference updates one layer at a time.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tradelab.neuralnet import (
    HIDDEN_ACTIVATIONS,
    OUTPUT_ACTIVATIONS,
    AdamState,
    Tape,
    adam_step,
    backward,
    create_mlp,
    forward,
    make_dropout_masks,
    soft_update,
)

from helpers import taped_gradients
from oracles import (
    ReferenceAdamState,
    ReferenceTape,
    finite_difference_grads,
    reference_adam_step,
    reference_backward,
    reference_forward_pass,
    reference_soft_update,
    rel_close,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def concat(arrays):
    """One vector of per-layer arrays, in order: the layout of ``theta``."""
    return np.concatenate([a.ravel() for a in arrays])


@st.composite
def passes(draw, max_batch=70):
    """(net, x, upstream, dropout masks) of one pass; x is a batch of one row or more."""
    dims = draw(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    net_gen = np.random.default_rng(draw(SEEDS))
    net = create_mlp(dims, net_gen, draw(st.sampled_from(HIDDEN_ACTIVATIONS)),
                     draw(st.sampled_from(OUTPUT_ACTIVATIONS)))
    batch = draw(st.integers(1, max_batch))
    gen = np.random.default_rng(draw(SEEDS))
    x = gen.normal(scale=draw(st.sampled_from([0.1, 1.0, 10.0])), size=(batch, dims[0]))
    up = gen.normal(size=(batch, dims[-1]))
    masks = make_dropout_masks(net, draw(st.sampled_from([0.0, 0.3, 0.7])), gen)
    return net, x, up, masks


@st.composite
def param_lists(draw):
    """Per-layer parameter arrays: matrices and vectors of any mix of shapes."""
    shapes = draw(st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
                           min_size=1, max_size=4))
    gen = np.random.default_rng(draw(SEEDS))
    return [gen.normal(size=shape) for shape in shapes], gen


@SETTINGS
@given(passes(), st.booleans())
def test_forward_and_backward_match_reference(run, input_first):
    net, x, up, masks = run
    want_out = reference_forward_pass(net, x, masks)
    want_grads, want_dx = reference_backward(net, x, up, masks)

    assert np.array_equal(forward(net, x, dropout_masks=masks), want_out)
    tape = Tape()
    out = forward(net, x, dropout_masks=masks, tape=tape)
    assert np.array_equal(out, want_out)
    # both gradients of one pass, in either order, from two calls on its tape
    order = ("input", "params") if input_first else ("params", "input")
    grads = {wrt: backward(net, up, tape=tape, wrt=wrt) for wrt in order}
    assert grads["params"].shape == net.theta.shape
    assert np.array_equal(grads["params"], concat(want_grads))
    assert np.array_equal(grads["input"], want_dx)


@SETTINGS
@given(param_lists(), st.integers(1, 6), st.sampled_from([1e-3, 0.1]))
def test_adam_steps_match_reference(params_gen, steps, lr):
    want, gen = params_gen
    theta = concat(want)
    opt = AdamState(np.zeros_like(theta), np.zeros_like(theta), lr)
    ref_opt = ReferenceAdamState(want, lr=lr)
    for _ in range(steps):
        # zeros, float dust and large entries side by side
        scale = [gen.choice([0.0, 1e-9, 1.0, 1e3], size=p.shape) for p in want]
        grads = [s * gen.normal(size=s.shape) for s in scale]
        assert adam_step(theta, concat(grads), opt) is None
        want = reference_adam_step(want, grads, ref_opt)
        assert opt.step == ref_opt.step
        assert np.array_equal(theta, concat(want))
        assert np.array_equal(opt.m, concat(ref_opt.m)) and np.array_equal(opt.v, concat(ref_opt.v))


@SETTINGS
@given(param_lists(), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_soft_update_matches_reference(params_gen, tau):
    target, gen = params_gen
    source = [gen.normal(size=t.shape) for t in target]
    flat_target, flat_source = concat(target), concat(source)
    want = reference_soft_update(target, source, tau)
    assert soft_update(flat_target, flat_source, tau) is None
    assert np.array_equal(flat_target, concat(want))
    assert np.array_equal(flat_source, concat(source))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(passes(max_batch=8))
def test_batch_gradients_match_finite_differences(run):
    net, x, up, masks = run
    tape = ReferenceTape()
    reference_forward_pass(net, x, masks, tape)
    # a relu pre-activation within a step's reach of its kink has no central difference
    if net.hidden_activation == "relu":
        assume(all(np.abs(z).min() > 1e-3 for z in tape.pres[:-1]))
    grad, dx = taped_gradients(net, x, up, masks)

    def objective():
        return float(np.sum(forward(net, x, dropout_masks=masks) * up))

    want = finite_difference_grads(objective, [net.theta])[0]
    assert all(rel_close(g, w) for g, w in zip(grad, want))

    xs = x.copy()

    def objective_x():
        return float(np.sum(forward(net, xs, dropout_masks=masks) * up))

    fd_x = finite_difference_grads(objective_x, [xs])[0]
    assert all(rel_close(g, w) for g, w in zip(dx.ravel(), fd_x.ravel()))
