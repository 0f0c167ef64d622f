import numpy as np
import pytest

from tradelab.agents import DqnAgent, DqnConfig, Td3Agent, Td3Config
from tradelab.neuralnet import (
    AdamState,
    Mlp,
    Tape,
    adam_step,
    backward,
    checkpoint_payload,
    clip_gradients,
    clone,
    create_mlp,
    forward,
    global_norm,
    load_nets,
    make_dropout_masks,
    net_from_payload,
    save_nets,
    soft_update,
)

from helpers import push_pairs
from oracles import finite_difference_grads, rel_close


def tiny_affine_net(weight=2.0, bias=1.0):
    net = create_mlp((1, 1), np.random.default_rng(0))
    net.weights[0][:] = weight
    net.biases[0][:] = bias
    return net


class TestForward:
    def test_affine_map(self):
        assert forward(tiny_affine_net(), [3.0]).tolist() == [7.0]

    def test_zero_parameters_give_zero_output(self, rng):
        for out_act in ("identity", "tanh"):
            net = create_mlp((4, 8, 2), rng, output_activation=out_act)
            net.theta[...] = 0.0
            assert forward(net, rng.normal(size=4)).tolist() == [0.0, 0.0]

    def test_tanh_output_range(self, rng):
        net = create_mlp((3, 16, 2), rng, output_activation="tanh")
        for _ in range(50):
            out = forward(net, rng.normal(scale=10.0, size=3))
            assert np.all(np.abs(out) < 1.0)

    def test_dimension_mismatch(self, rng):
        net = create_mlp((3, 2), rng)
        with pytest.raises(ValueError, match="input dim"):
            forward(net, [1.0, 2.0])

    def test_non_finite_input(self, rng):
        net = create_mlp((2, 2), rng)
        with pytest.raises(ValueError, match="non-finite"):
            forward(net, [1.0, float("nan")])

    def test_batch_matches_vector(self, rng):
        # gemm vs gemv may differ in the final ulp; anything beyond that is a bug
        net = create_mlp((3, 5, 2), rng, hidden_activation="tanh")
        xs = rng.normal(size=(6, 3))
        batch = forward(net, xs)
        rows = np.stack([forward(net, x) for x in xs])
        assert np.allclose(batch, rows, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("hidden_act", ["relu", "tanh"])
    @pytest.mark.parametrize("out_act", ["identity", "tanh"])
    def test_stack_is_row_exact(self, hidden_act, out_act):
        # numpy runs one gemv or dot per item of an (n, 1, d) stack, as for a single row;
        # this holds the installed BLAS build to it
        for seed, dims in enumerate([(30, 64, 32, 1), (30, 64, 32, 3), (7, 5, 2)]):
            gen = np.random.default_rng(seed)
            net = create_mlp(dims, gen, hidden_activation=hidden_act, output_activation=out_act)
            xs = gen.normal(scale=0.5, size=(130, dims[0]))
            stacked = forward(net, xs[:, None, :])
            assert stacked.shape == (130, 1, dims[-1])
            rows = np.stack([forward(net, x) for x in xs])
            assert stacked[:, 0].tobytes() == rows.tobytes()

    def test_stack_keeps_the_checks(self, rng):
        net = create_mlp((3, 4, 2), rng)
        xs = rng.normal(size=(5, 1, 3))
        with pytest.raises(ValueError, match=r"or an \(n, 1, dim\) stack, got shape \(5, 3, 1\)"):
            forward(net, xs.reshape(5, 3, 1))
        with pytest.raises(ValueError, match="without a tape"):
            forward(net, xs, tape=Tape())
        with pytest.raises(ValueError, match="input dim 2 != network input 3"):
            forward(net, xs[:, :, :2])
        xs[4, 0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite input"):
            forward(net, xs)
        with pytest.raises(ValueError, match=r"got shape \(1, 5, 1, 3\)"):
            forward(net, xs[None])

    def test_repeated_forward_is_bit_identical(self, rng):
        net = create_mlp((4, 6, 2), rng)
        x = rng.normal(size=(5, 4))
        assert np.array_equal(forward(net, x), forward(net, x))
        g1, i1 = backward(net, x, np.ones((5, 2)))
        g2, i2 = backward(net, x, np.ones((5, 2)))
        assert np.array_equal(g1, g2)
        assert np.array_equal(i1, i2)

    def test_determinism_from_seed(self):
        a = create_mlp((4, 8, 1), np.random.default_rng(7))
        b = create_mlp((4, 8, 1), np.random.default_rng(7))
        assert np.array_equal(a.theta, b.theta)


class TestBackward:
    def test_input_gradient_of_affine_net(self):
        _, input_grad = backward(tiny_affine_net(), [3.0], [1.0])
        assert input_grad.tolist() == [2.0]

    def test_zero_upstream_zeroes_everything(self, rng):
        net = create_mlp((3, 4, 2), rng)
        grad, input_grad = backward(net, rng.normal(size=3), [0.0, 0.0])
        assert grad.shape == net.theta.shape and np.all(grad == 0)
        assert np.all(input_grad == 0)

    def test_unknown_wrt_is_rejected_by_name(self, rng):
        net = create_mlp((3, 2), rng)
        with pytest.raises(ValueError, match="wrt must be one of 'both', 'params' or 'input', got 'weights'"):
            backward(net, np.ones(3), np.ones(2), wrt="weights")

    @pytest.mark.parametrize("hidden_act,out_act", [("relu", "identity"), ("tanh", "tanh")])
    def test_gradients_match_finite_differences(self, hidden_act, out_act, rng):
        for _ in range(5):
            dims = [int(rng.integers(2, 8)) for _ in range(int(rng.integers(2, 5)))]
            net = create_mlp(dims, rng, hidden_activation=hidden_act, output_activation=out_act)
            x = rng.normal(size=dims[0])
            up = rng.normal(size=dims[-1])
            grad, input_grad = backward(net, x, up)

            def objective():
                return float(forward(net, x) @ up)

            fd = finite_difference_grads(objective, [net.theta])[0]
            for g, w in zip(grad, fd):
                assert rel_close(g, w)

            xs = x.copy()

            def objective_x():
                return float(forward(net, xs) @ up)

            fd_x = finite_difference_grads(objective_x, [xs])[0]
            for g, w in zip(input_grad, fd_x):
                assert rel_close(g, w)

    def test_batch_gradients_accumulate(self, rng):
        net = create_mlp((3, 4, 1), rng)
        xs = rng.normal(size=(5, 3))
        ups = rng.normal(size=(5, 1))
        batch_grad, _ = backward(net, xs, ups)
        summed = sum(backward(net, x, up)[0] for x, up in zip(xs, ups))
        assert np.allclose(batch_grad, summed, rtol=1e-12, atol=1e-12)


class TestDropout:
    def test_rate_zero_means_no_masks(self, rng):
        net = create_mlp((3, 4, 1), rng)
        assert make_dropout_masks(net, 0.0, rng) is None

    def test_masks_are_consistent_between_passes(self, rng):
        for hidden_act in ("relu", "tanh"):
            net = create_mlp((4, 8, 8, 1), rng, hidden_activation=hidden_act)
            masks = make_dropout_masks(net, 0.5, rng)
            x = rng.normal(size=4)
            up = np.array([1.0])
            grad, _ = backward(net, x, up, dropout_masks=masks)

            def objective():
                return float(forward(net, x, dropout_masks=masks)[0])

            fd = finite_difference_grads(objective, [net.theta])[0]
            for g, w in zip(grad, fd):
                assert rel_close(g, w)


class TestAdam:
    def test_zero_gradient_keeps_params(self, rng):
        param = rng.normal(size=(3, 2))  # any shape: the step is elementwise
        before = param.copy()
        opt = AdamState.create(param, lr=0.01)
        assert adam_step(param, np.zeros_like(param), opt) is None
        assert opt.step == 1
        assert np.array_equal(param, before)

    def test_first_step_moves_by_learning_rate(self):
        param = np.array([5.0])
        opt = AdamState.create(param, lr=1e-3)
        adam_step(param, np.array([1.0]), opt)
        assert param[0] == pytest.approx(5.0 - 1e-3, abs=1e-9)

    def test_minimizes_quadratic(self):
        x = np.array([1.0])
        opt = AdamState.create(x, lr=0.1)
        for _ in range(100):
            adam_step(x, 2.0 * x, opt)
        assert abs(x[0]) < 0.5

    def test_create_defaults_are_the_dataclass_defaults(self):
        opt = AdamState.create(np.ones((2, 3)), eps=1e-6)
        assert (opt.lr, opt.beta1, opt.beta2, opt.eps, opt.step) == (1e-3, 0.9, 0.999, 1e-6, 0)
        assert opt.m.shape == opt.v.shape == (2, 3) and not opt.m.any()

    def test_rejects_non_finite_gradient(self):
        param = np.array([1.0])
        opt = AdamState.create(param)
        with pytest.raises(ValueError, match="non-finite"):
            adam_step(param, np.array([float("inf")]), opt)
        assert param.tolist() == [1.0] and opt.step == 0 and not opt.m.any()

    def test_rejects_shape_mismatch(self):
        param = np.array([1.0, 2.0])
        opt = AdamState.create(param)
        with pytest.raises(ValueError, match="shape"):
            adam_step(param, np.array([1.0]), opt)
        assert param.tolist() == [1.0, 2.0] and opt.step == 0


class TestClip:
    def test_scales_down_when_above(self):
        grad = np.array([6.0, 8.0])  # global norm 10 over dims (1, 1): w0 = 6, b0 = 8
        clipped = clip_gradients(grad, (1, 1), 1.0)
        assert clipped[0] == pytest.approx(0.6)
        assert clipped[1] == pytest.approx(0.8)
        assert global_norm(clipped, (1, 1)) == pytest.approx(1.0)

    def test_untouched_when_below(self):
        grad = np.array([0.3, 0.4])
        assert np.array_equal(clip_gradients(grad, (1, 1), 1.0), grad)

    def test_zero_gradients_pass_through(self):
        grad = np.zeros(3)
        assert np.array_equal(clip_gradients(grad, (2, 1), 1.0), grad)

    def test_idempotent(self, rng):
        grad = rng.normal(size=12) * 10.0
        once = clip_gradients(grad, (3, 3), 0.7)
        assert np.array_equal(clip_gradients(once, (3, 3), 0.7), once)

    def test_norm_sums_layer_by_layer(self):
        # a TD3-actor-shaped gradient (seed 9) whose one-sum norm rounds differently
        dims = (30, 64, 32, 1)
        grad = np.random.default_rng(9).normal(size=30 * 64 + 64 + 64 * 32 + 32 + 32 + 1)
        bounds = np.cumsum([0] + [n for a, b in zip(dims, dims[1:]) for n in (a * b, b)])
        norm = np.sqrt(sum(float(np.sum(grad[i:j] * grad[i:j])) for i, j in zip(bounds, bounds[1:])))
        one_sum = np.sqrt(np.sum(grad * grad))
        assert norm != one_sum
        assert global_norm(grad, dims) == norm
        clipped = clip_gradients(grad, dims, 1.0)
        assert np.array_equal(clipped, grad * (1.0 / norm))
        assert not np.array_equal(clipped, grad * (1.0 / one_sum))


class TestSoftUpdate:
    def test_full_copy(self):
        target = np.zeros(3)
        assert soft_update(target, np.ones(3), 1.0) is None
        assert np.array_equal(target, np.ones(3))

    def test_no_update(self):
        target = np.zeros(3)
        soft_update(target, np.ones(3), 0.0)
        assert np.array_equal(target, np.zeros(3))

    def test_small_mix(self):
        target = np.array([0.0])
        soft_update(target, np.array([1.0]), 0.005)
        assert target[0] == pytest.approx(0.005, abs=1e-12)

    def test_contraction_toward_source(self, rng):
        target = rng.normal(size=(3, 3))  # any shape: the mix is elementwise
        source = rng.normal(size=(3, 3))
        tau = 0.1
        gap_before = np.abs(target - source)
        soft_update(target, source, tau)
        gap_after = np.abs(target - source)
        assert np.allclose(gap_after, (1 - tau) * gap_before, rtol=1e-12)

    def test_shape_mismatch_moves_nothing(self):
        target = np.zeros(5)
        with pytest.raises(ValueError, match="shape mismatch"):
            soft_update(target, np.ones(6), 0.5)
        assert not target.any()


class TestCheckpoint:
    def test_roundtrip_is_bit_exact(self, rng, tmp_path):
        net = create_mlp((5, 16, 3), rng, hidden_activation="tanh", output_activation="tanh")
        path = tmp_path / "net.npz"
        save_nets(path, {"main": net}, Td3Config(), 17)
        nets, episodes = load_nets(path, ("main",), Td3Config())
        loaded = nets["main"]
        assert loaded.layer_dims == net.layer_dims
        assert loaded.hidden_activation == "tanh"
        assert loaded.output_activation == "tanh"
        assert np.array_equal(net.theta, loaded.theta)
        assert episodes == 17

    def test_keys_dtypes_and_shapes(self, rng, tmp_path):
        path = tmp_path / "nets.npz"
        nets = {"a": create_mlp((3, 4, 1), rng), "b": create_mlp((2, 1), rng)}
        save_nets(path, nets, Td3Config(), 5)
        with np.load(path) as data:
            got = {key: (data[key].dtype.str, data[key].shape) for key in data.files}
        want = {"version": ("<i8", ()), "config_hash": ("<U16", ()), "episodes": ("<i8", ())}
        for name, dims in (("a", (3, 4, 1)), ("b", (2, 1))):
            want[f"{name}.layer_dims"] = ("<i8", (len(dims),))
            want[f"{name}.hidden_activation"] = ("<U4", ())
            want[f"{name}.output_activation"] = ("<U8", ())
            for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
                want[f"{name}.w{i}"] = ("<f8", (fan_in, fan_out))
                want[f"{name}.b{i}"] = ("<f8", (fan_out,))
        assert got == want

    def test_load_checks_version_and_config(self, rng, tmp_path):
        path = tmp_path / "net.npz"
        save_nets(path, {"main": create_mlp((2, 1), rng)}, Td3Config(), 0)
        with pytest.raises(ValueError, match="different configuration"):
            load_nets(path, ("main",), Td3Config(tau=0.5))
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        np.savez(path, **{**payload, "version": np.array(2)})
        with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
            load_nets(path, ("main",), Td3Config())

    def test_config_mismatch_names_the_path(self, rng, tmp_path):
        path = tmp_path / "net.npz"
        save_nets(path, {"main": create_mlp((2, 1), rng)}, Td3Config(), 0)
        with pytest.raises(ValueError) as err:
            load_nets(path, ("main",), Td3Config(tau=0.5))
        assert str(err.value) == f"{path}: checkpoint was written with a different configuration"

    def test_unknown_activation_fails_at_load(self, rng):
        payload = checkpoint_payload(create_mlp((2, 3, 1), rng))
        for key, name in (("hidden_activation", "sigmoid"), ("output_activation", "relu")):
            with pytest.raises(ValueError, match=key.replace("_", " ") + " must be one of"):
                net_from_payload({**payload, key: np.array(name)})

    def test_clone_is_independent(self, rng):
        net = create_mlp((2, 3, 1), rng)
        twin = clone(net)
        twin.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != twin.weights[0][0, 0]


def assert_views_share_theta(net):
    assert len(net.weights) == len(net.biases) == len(net.layer_dims) - 1
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.theta)
        assert np.shares_memory(b, net.theta)


class TestFlatParameters:
    def test_create_and_clone(self, rng):
        net = create_mlp((4, 6, 3), rng)
        assert_views_share_theta(net)
        twin = clone(net)
        assert_views_share_theta(twin)
        assert not np.shares_memory(twin.theta, net.theta)
        assert np.array_equal(twin.theta, net.theta)

    def test_theta_layout(self, rng):
        net = create_mlp((4, 6, 3), rng)
        assert net.theta.shape == (4 * 6 + 6 + 6 * 3 + 3,)
        layers = [p.ravel() for w, b in zip(net.weights, net.biases) for p in (w, b)]
        assert np.array_equal(net.theta, np.concatenate(layers))
        net.theta[0] = 7.0
        assert net.weights[0][0, 0] == 7.0

    def test_theta_writes_show_in_the_views(self, rng):
        net = create_mlp((3, 5, 2), rng)
        values = rng.normal(size=net.theta.shape)
        net.theta[...] = values
        assert_views_share_theta(net)
        assert np.array_equal(net.weights[1], values[20:30].reshape(5, 2))
        assert np.array_equal(net.biases[1], values[30:])
        values += 1.0
        assert not np.array_equal(net.theta, values)

    def test_mlp_rejects_a_misshapen_theta(self):
        for theta in (np.zeros(31), np.zeros(32, dtype=np.float32), np.zeros((2, 16)), np.zeros(64)[::2]):
            with pytest.raises(ValueError, match="contiguous float64 vector of 32 parameters"):
                Mlp((3, 5, 2), theta)

    def test_net_from_payload(self, rng):
        net = create_mlp((3, 5, 2), rng, hidden_activation="tanh")
        loaded = net_from_payload(checkpoint_payload(net))
        assert_views_share_theta(loaded)
        assert np.array_equal(loaded.theta, net.theta)

    def test_net_from_payload_rejects_a_misshapen_array(self, rng):
        payload = checkpoint_payload(create_mlp((3, 5, 2), rng))
        payload["w1"] = payload["w1"].T.copy()
        with pytest.raises(ValueError, match="w1 has shape"):
            net_from_payload(payload)

    def test_agent_restore_load_and_target_sync(self, rng, tmp_path):
        td3 = Td3Agent(4, Td3Config(batch_size=8, actor_hidden=(5,), critic_hidden=(5,)), seed=1)
        dqn = DqnAgent(4, DqnConfig(batch_size=8, hidden=(5,), target_sync=2), seed=1)
        steps = [(rng.normal(size=4), float(rng.choice((-1.0, 1.0))), 0.01, rng.normal(size=4), False)
                 for _ in range(20)]
        push_pairs(td3.buffer, steps)
        push_pairs(dqn.buffer, steps)
        gen = np.random.default_rng(0)
        for agent, names in ((td3, Td3Agent._NET_NAMES), (dqn, ("net", "target_net"))):
            snap = agent.snapshot()
            agent.update(0, gen)
            agent.update(0, gen)
            agent.restore(snap)
            for name in names:
                assert_views_share_theta(getattr(agent, name))
            agent.update(0, gen)
            agent.update(0, gen)
            agent.save(tmp_path / "agent.npz")
            agent.load(tmp_path / "agent.npz")
            for name in names:
                assert_views_share_theta(getattr(agent, name))
        # two updates with target_sync=2: the target is a copy, not an alias
        assert np.array_equal(dqn.target_net.theta, dqn.net.theta)
        assert not np.shares_memory(dqn.target_net.theta, dqn.net.theta)


class TestTape:
    @pytest.mark.parametrize("hidden_act", ["relu", "tanh"])
    @pytest.mark.parametrize("out_act", ["identity", "tanh"])
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_taped_backward_is_bit_identical(self, hidden_act, out_act, rate, rng):
        net = create_mlp((5, 7, 6, 3), rng, hidden_activation=hidden_act, output_activation=out_act)
        x = rng.normal(size=(9, 5))
        up = rng.normal(size=(9, 3))
        masks = make_dropout_masks(net, rate, rng)
        tape = Tape()
        out = forward(net, x, dropout_masks=masks, tape=tape)
        assert np.array_equal(out, forward(net, x, dropout_masks=masks))
        taped, taped_dx = backward(net, x, up, dropout_masks=masks, tape=tape)
        plain, plain_dx = backward(net, x, up, dropout_masks=masks)
        assert taped.shape == plain.shape == net.theta.shape
        assert np.array_equal(taped, plain)
        assert np.array_equal(taped_dx, plain_dx)

    def test_gradients_land_in_one_vector_laid_out_like_theta(self, rng):
        net = create_mlp((3, 4, 2), rng)
        x, up = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        tape = Tape()
        forward(net, x, tape=tape)
        grad, _ = backward(net, x, up, tape=tape)
        assert grad.shape == net.theta.shape and grad.dtype == np.float64 and grad.flags.c_contiguous
        # the identity output layer: dW1 = h1^T up in W1's slot of theta, db1 = column sums of up
        assert np.array_equal(grad[16:24].reshape(4, 2), tape.posts[0].T @ up)
        assert np.array_equal(grad[24:], up.sum(axis=0))

    def test_tape_of_another_pass_is_rejected(self, rng):
        net, other = create_mlp((3, 4, 2), rng), create_mlp((3, 4, 2), rng)
        x = rng.normal(size=(5, 3))
        tape = Tape()
        forward(other, x, tape=tape)
        with pytest.raises(ValueError, match="tape"):
            backward(net, x, np.ones((5, 2)), tape=tape)
        forward(net, x, tape=tape)
        with pytest.raises(ValueError, match="tape"):
            backward(net, x[:2], np.ones((2, 2)), tape=tape)
        with pytest.raises(ValueError, match="tape"):
            backward(net, x, np.ones((5, 2)), dropout_masks=make_dropout_masks(net, 0.5, rng), tape=tape)
