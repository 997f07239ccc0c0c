"""Tensor primitives and reverse-mode gradients against finite differences."""

import numpy as np
import pytest

from vxp import autodiff as ad
from vxp.errors import NonFinite, NotScalar, ShapeMismatch
from vxp.sparse3d import plan_sparse_conv

import oracles


@pytest.fixture(autouse=True)
def _debug_checks(monkeypatch):
    monkeypatch.setattr(ad, "_CHECK_FINITE", True)


def test_matmul_hand_computed():
    a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.Tensor([[1.0], [1.0]])
    out = ad.matmul(a, b)
    assert np.array_equal(out.values, [[3.0], [7.0]])


def test_relu_definition():
    out = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.values, [0.0, 0.0, 2.0])
    # every x <= 0 gives +0.0, signed zero and -inf included
    for dtype in (np.float64, np.float32):
        with ad.precision(dtype):
            out = ad.relu(ad.Tensor([-1.0, -0.0, -np.inf]))
        assert out.values.dtype == dtype
        assert np.array_equal(out.values, [0.0, 0.0, 0.0])
        assert not np.signbit(out.values).any()


def test_backward_mean_square():
    x = ad.Tensor([3.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(x, x))
        tape.backward(loss)
    assert np.allclose(x.grad, [6.0])


def test_backward_relu_subgradient_at_negative():
    x = ad.Tensor([-1.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.relu(x))
        tape.backward(loss)
    assert np.array_equal(x.grad, [0.0])


def test_backward_sets_grad_on_leaves_only():
    x = ad.Tensor([1.5, -2.0], requires_grad=True)
    w = ad.Tensor([0.5, 3.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, w)
        z = ad.add(y, ad.smul(x, 2.0))  # x is used twice
        loss = ad.tsum(ad.mul(z, z))
        tape.backward(loss)
    assert y.grad is None and z.grad is None and loss.grad is None
    zv = x.values * w.values + 2.0 * x.values
    # d/dx of (x w + 2x)^2 summed over the two paths in reverse tape order
    assert x.grad.tobytes() == (2.0 * zv * 2.0 + 2.0 * zv * w.values).tobytes()
    assert w.grad.tobytes() == (2.0 * zv * x.values).tobytes()
    assert len(tape.entries) == 5  # the walk leaves the tape as it was


def test_backward_frees_each_gradient_after_use():
    import tracemalloc

    x = ad.Tensor(np.linspace(0.5, 1.5, 10 ** 5), requires_grad=True)
    # every smooth_l1 input exceeds its beta, so its gradient is 1
    ops = (lambda t: ad.smul(t, 1.01), lambda t: ad.add_scalar(t, 0.5), ad.relu,
           lambda t: ad.smooth_l1(t, 0.5))
    with ad.Tape() as tape:
        y = x
        for i in range(16):
            y = ops[i % 4](y)
        loss = ad.tsum(y)
        # only what the backward allocates is traced, not the forward's arrays
        tracemalloc.start()
        try:
            tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 4 * x.values.nbytes
    assert x.grad.tobytes() == np.full(x.shape, 1.01 ** 4).tobytes()


def test_backward_not_scalar():
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(NotScalar):
            tape.backward(y)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.add(ad.Tensor([1.0]), ad.Tensor([1.0, 2.0]))
    with pytest.raises(ShapeMismatch):
        ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0, 2.0]]))


def test_gradient_accumulates_across_paths():
    # loss = x*x + 3*x uses x twice; dloss/dx = 2x + 3
    x = ad.Tensor([2.0], requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.tsum(ad.add(ad.mul(x, x), ad.smul(x, 3.0)))
        tape.backward(loss)
    assert np.allclose(x.grad, [7.0])


def test_backward_leaves_unreachable_grads_untouched():
    x = ad.Tensor([1.0], requires_grad=True)
    y = ad.Tensor([1.0], requires_grad=True)
    y.grad = np.array([42.0])
    with ad.Tape() as tape:
        loss = ad.tsum(ad.mul(x, x))
        tape.backward(loss)
    assert np.array_equal(y.grad, [42.0])


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    grads = []
    for _ in range(2):
        x.grad = None
        w.grad = None
        with ad.Tape() as tape:
            loss = oracles.l2norm(ad.relu(ad.matmul(x, w)))
            tape.backward(loss)
        grads.append((x.grad.copy(), w.grad.copy()))
    assert np.array_equal(grads[0][0], grads[1][0])
    assert np.array_equal(grads[0][1], grads[1][1])


def test_check_gradient_quadratic_is_fd_exact():
    err = ad.check_gradient(lambda t: ad.tsum(ad.mul(t, t)), ad.Tensor([3.0]))
    assert err < 1e-6


def test_check_gradient_nonfinite_detected():
    def f(t):
        return ad.power(t, 0.5)  # NaN for negative inputs under FD probing

    with pytest.raises(NonFinite):
        ad.check_gradient(f, ad.Tensor([0.0]))


def test_mlp_composite_matches_fd():
    rng = np.random.default_rng(7)
    w1 = rng.normal(size=(5, 4))
    b1 = rng.normal(size=4)
    w2 = rng.normal(size=(4, 1))
    x0 = rng.normal(size=(3, 5))

    def f(w):
        x = ad.Tensor(x0)
        h = ad.relu(ad.add_rowvec(ad.matmul(x, w), ad.Tensor(b1)))
        out = ad.matmul(h, ad.Tensor(w2))
        return ad.smul(ad.tsum(ad.mul(out, out)), 1.0 / out.size)

    assert ad.check_gradient(f, ad.Tensor(w1)) < 1e-4


PRIMITIVES = [
    ("add", lambda t, c: ad.tsum(ad.add(t, ad.Tensor(c))), (4, 3)),
    ("sub", lambda t, c: ad.tsum(ad.sub(ad.Tensor(c), t)), (4, 3)),
    ("mul", lambda t, c: ad.tsum(ad.mul(t, ad.Tensor(c))), (4, 3)),
    ("smul", lambda t, c: ad.tsum(ad.smul(t, 2.5)), (4, 3)),
    ("matmul", lambda t, c: oracles.l2norm(ad.matmul(t, ad.Tensor(c.T))), (4, 3)),
    ("relu", lambda t, c: ad.tsum(ad.relu(t)), (4, 3)),
    ("linear_relu_a", lambda t, c: oracles.l2norm(
        ad.linear_relu(t, ad.Tensor(c.T), ad.Tensor(c[:, 0]))), (4, 3)),
    ("linear_relu_w", lambda t, c: oracles.l2norm(
        ad.linear_relu(ad.Tensor(c), t, ad.Tensor(c[0]))), (3, 3)),
    ("linear_relu_b", lambda t, c: oracles.l2norm(
        ad.linear_relu(ad.Tensor(c.T), ad.Tensor(c), ad.reshape(t, (4,)))), (1, 4)),
    ("power2", lambda t, c: ad.tsum(ad.power(t, 2.0)), (4, 3)),
    ("mean", lambda t, c: ad.smul(ad.tsum(t), 1.0 / t.size), (4, 3)),
    ("sum_axis0", lambda t, c: oracles.l2norm(ad.tsum(t, axis=0)), (4, 3)),
    ("l2norm", lambda t, c: oracles.l2norm(t), (4, 3)),
    ("rownorm", lambda t, c: ad.tsum(ad.rownorm(t)), (4, 3)),
    ("smooth_l1", lambda t, c: oracles.l2norm(ad.smooth_l1(t, 1.0)), (4, 3)),
    ("reshape", lambda t, c: oracles.l2norm(ad.reshape(t, (3, 4))), (4, 3)),
    ("stack_rows", lambda t, c: oracles.l2norm(ad.stack_rows(
        [ad.reshape(t, (3,)), ad.Tensor(c[0]), ad.smul(ad.reshape(t, (3,)), -2.0)])), (1, 3)),
    ("add_rowvec", lambda t, c: ad.tsum(ad.add_rowvec(ad.Tensor(c), ad.reshape(t, (3,)))), (1, 3)),
    ("scale_rows", lambda t, c: ad.tsum(ad.scale_rows(t, c[:, 0])), (4, 3)),
    ("gather", lambda t, c: ad.tsum(ad.gather_rows(t, np.array([0, 2, 2, 1]))), (4, 3)),
    ("clamp", lambda t, c: ad.tsum(ad.clamp_min(t, 0.1)), (4, 3)),
    ("segment_max", lambda t, c: ad.tsum(ad.segment_max(t, np.array([0, 0, 1, 1]), 2)), (4, 3)),
    ("segment_sum", lambda t, c: oracles.l2norm(ad.segment_sum(t, np.array([0, 0, 0, 1]), 2)), (4, 3)),
]


@pytest.mark.parametrize("name,f,shape", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_primitive_gradients_100_seeds(name, f, shape):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        # keep values away from relu/abs/max-tie kinks
        vals = rng.uniform(0.2, 2.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        if name in ("power2", "clamp"):
            vals = np.abs(vals) + 0.5
        const = rng.normal(size=shape)
        err = ad.check_gradient(lambda t: f(t, const), ad.Tensor(vals))
        worst = max(worst, err)
    assert worst < 1e-4


def _conv_rules(kernel_size, stride, rng):
    cells = np.stack(np.meshgrid(*[np.arange(4)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    coords = cells[np.sort(rng.choice(64, size=6, replace=False))]
    plan = plan_sparse_conv(coords, (4, 4, 4), kernel_size, stride)
    return 6, plan.rules, plan.out_coords.shape[0]


def _hand_rules(_rng):
    # three offsets, the middle one with no pairs
    empty = np.zeros(0, dtype=np.intp)
    return 3, [(np.array([0, 2]), np.array([1, 0])), (empty, empty),
               (np.array([1, 2]), np.array([1, 2]))], 3


@pytest.mark.parametrize("rules_of", [
    lambda rng: _conv_rules(1, 1, rng), lambda rng: _conv_rules(1, 2, rng),
    lambda rng: _conv_rules(3, 1, rng), lambda rng: _conv_rules(3, 2, rng), _hand_rules,
], ids=["k1s1", "k1s2", "k3s1", "k3s2", "empty_offset"])
def test_rulebook_matmul_gradients(rules_of):
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        t_in, rules, t_out = rules_of(rng)
        feats = rng.uniform(0.2, 2.0, size=(t_in, 3))
        kernel = rng.normal(size=(len(rules) * 3, 2))
        err_x = ad.check_gradient(
            lambda t: oracles.l2norm(ad.rulebook_matmul(t, ad.Tensor(kernel), rules, t_out)),
            ad.Tensor(feats))
        err_w = ad.check_gradient(
            lambda t: oracles.l2norm(ad.rulebook_matmul(ad.Tensor(feats), t, rules, t_out)),
            ad.Tensor(kernel))
        worst = max(worst, err_x, err_w)
    assert worst < 1e-4


@pytest.mark.parametrize("rows", [[], [np.ones(3), np.ones(2)], [np.ones((1, 3))]],
                         ids=["none", "widths_differ", "not_a_vector"])
def test_stack_rows_shapes_checked(rows):
    with pytest.raises(ShapeMismatch):
        ad.stack_rows([ad.Tensor(r) for r in rows])


def test_rulebook_matmul_kernel_shape_checked():
    with pytest.raises(ShapeMismatch):
        ad.rulebook_matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((4, 2))),
                           [(np.array([0]), np.array([0]))], 1)


def test_power_t_gradients_wrt_base_and_exponent():
    rng = np.random.default_rng(3)
    base = rng.uniform(0.5, 2.0, size=(4, 3))
    p0 = 2.7

    err_base = ad.check_gradient(
        lambda t: ad.tsum(ad.power_t(t, ad.Tensor(p0))), ad.Tensor(base))
    err_exp = ad.check_gradient(
        lambda t: ad.tsum(ad.power_t(ad.Tensor(base), t)), ad.Tensor(p0))
    assert err_base < 1e-6
    assert err_exp < 1e-6


def test_no_tape_means_no_recording():
    x = ad.Tensor([1.0], requires_grad=True)
    y = ad.mul(x, x)
    assert not y.requires_grad


def test_recorded_only_when_input_requires_grad():
    with ad.Tape() as tape:
        ad.mul(ad.Tensor([1.0]), ad.Tensor([2.0]))
        assert len(tape.entries) == 0
        ad.mul(ad.Tensor([1.0], requires_grad=True), ad.Tensor([2.0]))
        assert len(tape.entries) == 1


@pytest.mark.parametrize("b,h,w,c", [(1, 64, 64, 1), (3, 9, 7, 2), (2, 8, 8, 32)])
def test_patches_3x3_s2_match_row_gather(b, h, w, c):
    rng = np.random.default_rng(h * w + c)
    x = rng.normal(size=(b * h * w, c))
    want, want_backward = oracles.patches_by_gather(x, b, h, w)
    g = rng.normal(size=want.shape)
    probe = ad.Tensor(x, requires_grad=True)
    with ad.Tape() as tape:
        out = ad.patches_3x3_s2(probe, b, h, w)
        tape.backward(ad.tsum(ad.mul(out, ad.Tensor(g))))
    assert out.values.tobytes() == want.tobytes()
    assert probe.grad.tobytes() == want_backward(g).tobytes()


def test_patches_3x3_s2_gradient_odd_extents():
    rng = np.random.default_rng(4)
    const = rng.normal(size=(2 * 2 * 3, 9 * 2))
    err = ad.check_gradient(
        lambda t: oracles.l2norm(ad.mul(ad.patches_3x3_s2(t, 2, 5, 7), ad.Tensor(const))),
        ad.Tensor(rng.normal(size=(2 * 5 * 7, 2))))
    assert err < 1e-6


def test_patches_3x3_s2_shape_checked():
    with pytest.raises(ShapeMismatch):
        ad.patches_3x3_s2(ad.Tensor(np.ones((10, 2))), 1, 3, 4)


def test_precision_sets_tensor_dtype_and_restores_after_exception():
    with ad.precision(np.float32):
        assert ad.Tensor([1.0]).values.dtype == np.float32
        with pytest.raises(RuntimeError):
            with ad.precision(np.float64):
                assert ad.Tensor([1.0]).values.dtype == np.float64
                raise RuntimeError("inside")
        assert ad.Tensor([1.0]).values.dtype == np.float32
    assert ad.Tensor([1.0]).values.dtype == np.float64


@pytest.mark.parametrize("repeats", [2, 400], ids=["8_rows", "1600_rows"])
def test_float32_gather_and_scale_stay_float32(repeats):
    rng = np.random.default_rng(2)
    with ad.precision(np.float32):
        x = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with ad.Tape() as tape:
            ad.gather_rows(ad.scale_rows(x, np.arange(1.0, 5.0)),
                           np.arange(4).repeat(repeats))
    for entry in tape.entries:
        assert entry.output.values.dtype == np.float32
        (grad,) = entry.grad_fn(np.ones_like(entry.output.values))
        assert grad.dtype == np.float32


def test_float32_gather_gradient_bits_do_not_depend_on_its_size():
    # 1,024 rows of width 4 (4,096 values) gathered from 8 rows, each about
    # 128 times; 64 more rows (256 values) from a ninth row leave the
    # gradient of the first eight as it was
    rng = np.random.default_rng(8)
    idx = np.concatenate([rng.integers(0, 8, size=1024), np.full(64, 8)])
    g = rng.normal(size=(idx.size, 4))
    grads = []
    for m in (1024, 1088):
        with ad.precision(np.float32):
            x = ad.Tensor(np.zeros((9, 4)), requires_grad=True)
            with ad.Tape() as tape:
                out = ad.gather_rows(x, idx[:m])
                tape.backward(ad.tsum(ad.mul(out, ad.Tensor(g[:m]))))
        grads.append(x.grad[:8].tobytes())
    assert grads[0] == grads[1]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("beta", [1.0, 0.25, 4.0])
def test_smooth_l1_matches_its_composition(dtype, beta):
    # 0, -0.0, +-beta, the floats just inside +-beta, points inside and
    # outside, large values whose square fits in float32, and random draws
    inside = np.nextafter(beta, 0.0)
    rng = np.random.default_rng(int(beta * 4))
    x = np.concatenate([[0.0, -0.0, beta, -beta, inside, -inside, 0.3 * beta, -0.7 * beta,
                         1.5 * beta, -3.0 * beta, 1e15, -1e15],
                        rng.normal(scale=2.0 * beta, size=200)])
    g = rng.normal(size=x.shape)
    results = []
    for op in (ad.smooth_l1, oracles.smooth_l1_composed):
        with ad.precision(dtype):
            probe = ad.Tensor(x, requires_grad=True)
            with ad.Tape() as tape:
                out = op(probe, beta)
                tape.backward(ad.tsum(ad.mul(out, ad.Tensor(g))))
        assert out.values.dtype == probe.grad.dtype == dtype
        results.append((out.values, probe.grad))
    (value, grad), (want_value, want_grad) = results
    assert value.tobytes() == want_value.tobytes()
    # at -0.0 the gradient may be a zero of the other sign
    signed = ~((x == 0.0) & np.signbit(x))
    assert grad[signed].tobytes() == want_grad[signed].tobytes()
    assert np.array_equal(grad, want_grad)


def test_smooth_l1_is_linear_where_the_square_overflows(monkeypatch):
    monkeypatch.setattr(ad, "_CHECK_FINITE", False)
    with ad.precision(np.float32), np.errstate(over="ignore"):
        x = ad.Tensor([1e30, -np.inf], requires_grad=True)
        with ad.Tape() as tape:
            out = ad.smooth_l1(x, 1.0)
            tape.backward(ad.tsum(out))
    assert np.array_equal(out.values, np.array([1e30 - 0.5, np.inf], dtype=np.float32))
    assert np.array_equal(x.grad, [1.0, -1.0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("values", ["integer", "normal"])
def test_segment_max_matches_reduceat_oracle(dtype, values):
    # random layouts with segment lengths 1..32, every other one dominated by
    # the one-to-three-row segments of a voxel grid; integer values (with
    # signed zeros) make ties common, so the lowest-index winner rule and the
    # fold order are both compared bit for bit
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 80))
        if seed % 2:
            lengths = rng.integers(1, 33, size=t)
        else:
            lengths = np.where(rng.random(t) < 0.9, rng.integers(1, 4, size=t),
                               rng.integers(1, 33, size=t))
        seg = np.repeat(np.arange(t), lengths)
        if values == "integer":
            x = rng.integers(-2, 3, size=(seg.size, 6)).astype(np.float64)
            x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
        else:
            x = rng.normal(size=(seg.size, 6))
        g = rng.normal(size=(t, 6))
        results = []
        with ad.precision(dtype):
            for op in (ad.segment_max, oracles.segment_max_reduceat):
                probe = ad.Tensor(x, requires_grad=True)
                with ad.Tape() as tape:
                    out = op(probe, seg, t)
                    tape.backward(ad.tsum(ad.mul(out, ad.Tensor(g))))
                assert out.values.dtype == probe.grad.dtype == dtype
                results.append((out.values.tobytes(), probe.grad.tobytes()))
        assert results[0] == results[1]


def _grad_bytes(op, arrays, g, dtype):
    """Bytes of op(*tensors) and of each tensor's gradient under the upstream
    gradient g, computed in dtype."""
    with ad.precision(dtype):
        probes = [ad.Tensor(x, requires_grad=True) for x in arrays]
        with ad.Tape() as tape:
            out = op(*probes)
            tape.backward(ad.tsum(ad.mul(out, ad.Tensor(g))))
    assert out.values.dtype == dtype
    return [out.values.tobytes()] + [p.grad.tobytes() for p in probes]


def _values(rng, shape, seed):
    # odd seeds draw small integers with signed zeros, so exact zeros and
    # their signs are compared too
    if seed % 2:
        x = rng.integers(-2, 3, size=shape).astype(np.float64)
        x[(x == 0) & (rng.random(shape) < 0.5)] = -0.0
        return x
    return rng.normal(size=shape)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rulebook_matmul_matches_fancy_index_oracle(dtype):
    # random rulebooks with empty offsets, output rows that no offset
    # touches and single-row inputs
    for seed in range(40):
        rng = np.random.default_rng(seed)
        t_in = 1 if seed % 5 == 0 else int(rng.integers(1, 40))
        t_out = int(rng.integers(1, 40))
        num_rows = t_out + int(rng.integers(0, 4))
        rules = []
        for _ in range(int(rng.integers(1, 10))):
            m = 0 if rng.random() < 0.3 else int(rng.integers(0, min(t_in, t_out) + 1))
            rules.append((rng.choice(t_in, m, replace=False), rng.choice(t_out, m, replace=False)))
        c_in, c_out = rng.integers(1, 7, size=2)
        feats = _values(rng, (t_in, c_in), seed)
        kernel = _values(rng, (len(rules) * c_in, c_out), seed)
        g = _values(rng, (num_rows, c_out), seed)
        got, want = (_grad_bytes(lambda a, k: op(a, k, rules, num_rows), [feats, kernel],
                                 g, dtype)
                     for op in (ad.rulebook_matmul, oracles.rulebook_matmul_fancy))
        assert got == want


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gather_rows_matches_fancy_index_oracle(dtype):
    # repeated indices, up to 2,000 rows
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 1 if seed % 5 == 0 else int(rng.integers(1, 30))
        m = int(rng.integers(0, 2000 if seed % 3 == 0 else 40))
        idx = rng.integers(0, n, size=m)
        x = _values(rng, (n, 4), seed)
        g = _values(rng, (m, 4), seed)
        got, want = (_grad_bytes(lambda a: op(a, idx), [x], g, dtype)
                     for op in (ad.gather_rows, oracles.gather_rows_fancy))
        assert got == want


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_segment_ops_match_fancy_index_oracles(dtype):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t = 1 if seed % 5 == 0 else int(rng.integers(1, 40))
        lengths = np.ones(t, dtype=int) if seed % 5 == 0 else rng.integers(1, 6, size=t)
        seg = np.repeat(np.arange(t), lengths)
        x = _values(rng, (seg.size, 5), seed)
        g = _values(rng, (t, 5), seed)
        for op, ref in ((ad.segment_max, oracles.segment_max_reduceat),
                        (ad.segment_sum, oracles.segment_sum_reduceat)):
            got, want = (_grad_bytes(lambda a: f(a, seg, t), [x], g, dtype)
                         for f in (op, ref))
            assert got == want


def test_matmul_gives_no_gradient_to_operands_without_requires_grad():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    g = rng.normal(size=(3, 2))
    const = ad.Tensor(a)
    weight = ad.Tensor(b, requires_grad=True)
    with ad.Tape() as tape:
        ad.matmul(const, weight)
    (entry,) = tape.entries
    ga, gb = entry.grad_fn(g)
    assert ga is None and gb.tobytes() == (a.T @ g).tobytes()
    # requires_grad is read when the gradient is taken, as Tape.backward does
    weight.requires_grad = False
    assert entry.grad_fn(g) == (None, None)


def test_linear_relu_matches_matmul_add_rowvec_relu():
    # small integers with signed zeros make exact-zero pre-activations common
    chain = lambda a, w, b: ad.relu(ad.add_rowvec(ad.matmul(a, w), b))
    for dtype in (np.float64, np.float32):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, k, d = (int(v) for v in rng.integers(1, 9, size=3))
            arrays = [_values(rng, (n, k), seed), _values(rng, (k, d), seed),
                      _values(rng, (d,), seed)]
            g = _values(rng, (n, d), seed)
            assert _grad_bytes(ad.linear_relu, arrays, g, dtype) == \
                _grad_bytes(chain, arrays, g, dtype)


def test_linear_relu_gives_no_gradient_to_an_input_without_requires_grad():
    rng = np.random.default_rng(6)
    a = ad.Tensor(rng.normal(size=(5, 3)))
    w = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=4), requires_grad=True)
    with ad.Tape() as tape:
        out = ad.linear_relu(a, w, b)
        tape.backward(ad.tsum(out))
    assert a.grad is None
    assert w.grad is not None and b.grad is not None
    assert tape.entries[0].grad_fn(np.ones(out.shape))[0] is None


def test_linear_relu_shapes_checked():
    with pytest.raises(ShapeMismatch):
        ad.linear_relu(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))),
                       ad.Tensor(np.ones(3)))
    with pytest.raises(ShapeMismatch):
        ad.linear_relu(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((3, 4))),
                       ad.Tensor(np.ones(3)))
