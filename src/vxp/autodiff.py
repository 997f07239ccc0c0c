"""Dense tensors with reverse-mode automatic differentiation.

The scope is deliberately small: exactly the primitives the encoder heads,
sparse convolutions and losses need, recorded on an explicit tape and
differentiated by a reverse walk. Ops record onto the innermost active
``Tape`` whenever an input requires gradients; without an active tape the
same functions run as plain numpy (inference mode).

One compute dtype is active at a time: float64 by default, float32 inside
``precision(np.float32)``, which the training stages use. A ``Tensor`` casts
its values to the active dtype, primitives allocate in their input's dtype,
and ``Tape.backward`` stores each gradient in its tensor's dtype, so nothing
is silently promoted to float64 inside a float32 region.

Conventions fixed here so tests are deterministic:
  * ReLU gradient at exactly 0 is 0.
  * backward() overwrites .grad on every reachable requires_grad tensor and
    leaves unreachable tensors untouched.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NonFinite, NotScalar, ShapeMismatch

# Finite-ness checks on every primitive output; enabled by the test suite,
# off by default to keep training loops lean.
_CHECK_FINITE = False

# The dtype every new Tensor takes; changed only through precision().
_DTYPE: type = np.float64


def set_debug_checks(enabled: bool) -> None:
    global _CHECK_FINITE
    _CHECK_FINITE = bool(enabled)


@contextlib.contextmanager
def precision(dtype) -> Iterator[None]:
    """Make dtype the compute dtype inside the block; the previous one is
    restored on exit, also when the block raises."""
    global _DTYPE
    previous, _DTYPE = _DTYPE, np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = previous


class Tensor:
    """A dense array in the active compute dtype plus an optional gradient
    buffer."""

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


class _Entry:
    __slots__ = ("inputs", "output", "grad_fn")

    def __init__(self, inputs: Sequence[Tensor], output: Tensor,
                 grad_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]):
        self.inputs = inputs
        self.output = output
        self.grad_fn = grad_fn


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of primitive ops; execution order is topological."""

    def __init__(self):
        self.entries: list[_Entry] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def backward(self, loss: Tensor) -> None:
        """Populate .grad with d(loss)/d(tensor) for every reachable tensor."""
        if loss.values.size != 1:
            raise NotScalar(f"loss has {loss.values.size} elements")
        if not self.entries:
            raise ValueError("backward on an empty tape")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
        holders: dict[int, Tensor] = {id(loss): loss}
        for entry in reversed(self.entries):
            g_out = grads.get(id(entry.output))
            if g_out is None:
                continue
            for inp, g_in in zip(entry.inputs, entry.grad_fn(g_out)):
                if g_in is None or not inp.requires_grad:
                    continue
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + g_in
                else:
                    grads[key] = g_in
                    holders[key] = inp
        for key, tensor in holders.items():
            if tensor.requires_grad:
                tensor.grad = np.asarray(grads[key], dtype=tensor.values.dtype
                                         ).reshape(tensor.shape)


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _finish(out_values: np.ndarray, inputs: Sequence[Tensor],
            grad_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    if _CHECK_FINITE and not np.all(np.isfinite(out_values)):
        raise NonFinite("primitive produced NaN/Inf")
    tape = _active_tape()
    needs = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_values, requires_grad=needs)
    if needs:
        tape.entries.append(_Entry(tuple(inputs), out, grad_fn))
    return out


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeMismatch(f"{op}: {a.shape} vs {b.shape}")


# --- elementwise arithmetic ---

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _finish(a.values + b.values, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _finish(a.values - b.values, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    av, bv = a.values, b.values
    return _finish(av * bv, (a, b), lambda g: (g * bv, g * av))


def neg(a: Tensor) -> Tensor:
    return _finish(-a.values, (a,), lambda g: (-g,))


def smul(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _finish(a.values * s, (a,), lambda g: (g * s,))


def add_scalar(a: Tensor, s: float) -> Tensor:
    return _finish(a.values + float(s), (a,), lambda g: (g,))


def cmul(a: Tensor, const: np.ndarray) -> Tensor:
    """Elementwise multiply by a constant (non-differentiated) array."""
    const = np.asarray(const, dtype=a.values.dtype)
    if const.shape != a.shape:
        raise ShapeMismatch(f"cmul: {a.shape} vs {const.shape}")
    return _finish(a.values * const, (a,), lambda g: (g * const,))


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.values)
    return _finish(np.abs(a.values), (a,), lambda g: (g * sign,))


def power(a: Tensor, exponent: float) -> Tensor:
    """Elementwise a**exponent for a fixed float exponent."""
    e = float(exponent)
    av = a.values
    return _finish(av ** e, (a,), lambda g: (g * e * av ** (e - 1.0),))


def power_t(a: Tensor, p: Tensor) -> Tensor:
    """Elementwise a**p with a learnable scalar exponent.

    Gradient w.r.t. p uses a^p * ln(a); entries with a <= 0 contribute 0,
    which is the correct limit for clamped non-negative inputs.
    """
    if p.values.size != 1:
        raise ShapeMismatch("power_t exponent must be scalar")
    av = a.values
    pv = float(p.values.reshape(()))
    out = av ** pv

    def grad_fn(g):
        ga = g * pv * av ** (pv - 1.0)
        safe = av > 0.0
        logs = np.where(safe, np.log(np.where(safe, av, 1.0)), 0.0)
        gp = np.sum(g * out * logs)
        return ga, np.full(p.shape, gp, dtype=p.values.dtype)

    return _finish(out, (a, p), grad_fn)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); gradient is 0 in the clamped region."""
    floor = float(floor)
    mask = a.values > floor
    return _finish(np.maximum(a.values, floor), (a,), lambda g: (g * mask,))


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0.0
    return _finish(a.values * mask, (a,), lambda g: (g * mask,))


# --- linear algebra ---

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeMismatch("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    return _finish(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.shape
    return _finish(a.values.reshape(shape), (a,), lambda g: (g.reshape(old),))


def add_rowvec(a: Tensor, row: Tensor) -> Tensor:
    """Add a length-d row vector to every row of an (n, d) matrix."""
    if a.values.ndim != 2 or row.values.ndim != 1 or a.shape[1] != row.shape[0]:
        raise ShapeMismatch(f"add_rowvec: {a.shape} + {row.shape}")
    return _finish(a.values + row.values[None, :], (a, row),
                   lambda g: (g, g.sum(axis=0)))


def scale_rows(a: Tensor, col: np.ndarray) -> Tensor:
    """Scale row i of an (n, d) matrix by constant col[i]."""
    col = np.asarray(col, dtype=a.values.dtype)
    if a.values.ndim != 2 or col.shape != (a.shape[0],):
        raise ShapeMismatch(f"scale_rows: {a.shape} by {col.shape}")
    return _finish(a.values * col[:, None], (a,), lambda g: (g * col[:, None],))


# --- reductions ---

def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.shape

    def grad_fn(g):
        if axis is None:
            return (np.full(shape, g),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _finish(a.values.sum(axis=axis), (a,), grad_fn)


def l2norm(a: Tensor) -> Tensor:
    """Euclidean norm of all elements; subgradient 0 at the origin."""
    n = float(np.sqrt(np.sum(a.values ** 2)))
    av = a.values
    denom = n if n > 0.0 else 1.0
    return _finish(np.asarray(n, dtype=av.dtype), (a,), lambda g: (g * av / denom,))


def rownorm(a: Tensor) -> Tensor:
    """Per-row Euclidean norm of an (n, d) matrix -> (n,) vector."""
    if a.values.ndim != 2:
        raise ShapeMismatch("rownorm expects a 2-D tensor")
    av = a.values
    norms = np.sqrt((av ** 2).sum(axis=1))
    denom = np.where(norms > 0.0, norms, 1.0)
    return _finish(norms, (a,), lambda g: (g[:, None] * av / denom[:, None],))


# --- indexed row movement (shared by convolutions and losses) ---

def _scatter_add_rows(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """Rows of g accumulated into an (n, d) buffer at idx (repeats summed),
    returned in g's dtype."""
    d = g.shape[1] if g.ndim == 2 else 1
    if g.size > 4096:
        # bincount is much faster than ufunc.at for large gathers; it always
        # accumulates in float64
        flat = (idx[:, None] * d + np.arange(d)).ravel()
        out = np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(n, d)
        return out.astype(g.dtype, copy=False)
    buf = np.zeros((n, d), dtype=g.dtype)
    np.add.at(buf, idx, g)
    return buf


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of an (n, d) matrix; scatter-add gradient handles repeats."""
    idx = np.asarray(idx, dtype=np.intp)
    n = a.shape[0]
    return _finish(a.values[idx], (a,),
                   lambda g: (_scatter_add_rows(g, idx, n),))


# (dy, dx) of the nine taps of a 3x3 patch, row-major
_TAPS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]


def _tap_range(d: int, n_out: int) -> tuple[slice, slice]:
    """(output, input) ranges of one axis for tap offset d: output o reads
    input 2*o + d, which lies outside the image only for o = 0 and d = -1."""
    first = 1 if d < 0 else 0
    return slice(first, n_out), slice(2 * first + d, 2 * n_out + d - 1, 2)


def patches_3x3_s2(a: Tensor, batch: int, height: int, width: int) -> Tensor:
    """3x3 stride-2 patches of a batch of images -> (batch*oh*ow, 9*c).

    a holds (batch*height*width, c) rows, sample-major then row-major. Output
    pixel (oy, ox) takes input cells (2*oy + dy, 2*ox + dx), dy, dx in
    {-1, 0, 1}, in row-major tap order; cells above or left of the image read
    zero. oh, ow = height//2, width//2, so for odd extents the trailing row
    or column is cropped. Each tap is one strided slice of the input.
    """
    c = a.shape[1]
    if a.values.ndim != 2 or a.shape[0] != batch * height * width:
        raise ShapeMismatch(f"patches_3x3_s2: {a.shape} for {batch}x{height}x{width}")
    oh, ow = height // 2, width // 2
    x = a.values.reshape(batch, height, width, c)
    taps = [(_tap_range(dy, oh), _tap_range(dx, ow)) for dy, dx in _TAPS]
    out = np.empty((batch, oh, ow, 9, c), dtype=x.dtype)
    out[:, :1, :, :3] = 0.0  # dy = -1 above the image
    out[:, :, :1, ::3] = 0.0  # dx = -1 left of the image
    for t, ((oy, iy), (ox, ix)) in enumerate(taps):
        out[:, oy, ox, t] = x[:, iy, ix]

    def grad_fn(g):
        g = g.reshape(batch, oh, ow, 9, c)
        gx = np.zeros_like(x)
        # reverse tap order: each cell sums its contributions in the order of
        # output rows (pixel-major, then tap), as a row scatter-add does
        for t in reversed(range(9)):
            (oy, iy), (ox, ix) = taps[t]
            gx[:, iy, ix] += g[:, oy, ox, t]
        return (gx.reshape(batch * height * width, c),)

    return _finish(out.reshape(batch * oh * ow, 9 * c), (a,), grad_fn)


def rulebook_matmul(a: Tensor, kernel: Tensor,
                    rules: Sequence[tuple[np.ndarray, np.ndarray]],
                    num_rows: int) -> Tensor:
    """Sum over offsets d of a[in_d] @ W_d scattered into rows out_d.

    kernel is (len(rules) * c_in, c_out) with W_d its d-th block of c_in rows.
    Within one offset every row of in_d and of out_d appears at most once,
    so plain indexed adds are exact: no pad row, no np.add.at.
    """
    av, kv = a.values, kernel.values
    if av.ndim != 2 or kv.ndim != 2 or kv.shape[0] != len(rules) * av.shape[1]:
        raise ShapeMismatch(f"rulebook_matmul: {a.shape} with {len(rules)} offsets "
                            f"and kernel {kernel.shape}")
    c_in = av.shape[1]
    blocks = [kv[d * c_in:(d + 1) * c_in] for d in range(len(rules))]
    out = np.zeros((num_rows, kv.shape[1]), dtype=av.dtype)
    for (i, o), w in zip(rules, blocks):
        out[o] += av[i] @ w

    def grad_fn(g):
        ga = np.zeros_like(av)
        gk = np.empty_like(kv)
        for d, ((i, o), w) in enumerate(zip(rules, blocks)):
            go = g[o]
            ga[i] += go @ w.T
            gk[d * c_in:(d + 1) * c_in] = av[i].T @ go
        return ga, gk

    return _finish(out, (a, kernel), grad_fn)


def segment_max(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment column-wise max of an (n, d) matrix.

    segment_ids must be sorted ascending and cover 0..num_segments-1 with at
    least one row each. Gradient flows to the first (lowest-index) maximal
    row per segment and column.

    Segments are ordered longest first, so slot s (row s of every segment
    longer than s) is a prefix of that order and one vectorised step: a pool
    takes as many steps as its longest segment has rows, and each segment
    still folds its rows in index order, as np.maximum.reduceat would.
    """
    seg = np.asarray(segment_ids, dtype=np.intp)
    av = a.values
    starts = np.searchsorted(seg, np.arange(num_segments))
    lengths = np.diff(starts, append=av.shape[0])
    by_len = np.argsort(-lengths, kind="stable")
    first = starts[by_len]
    # longer[s] = number of segments with more than s rows
    longer = np.searchsorted(-lengths[by_len], -np.arange(lengths.max()))
    acc = av[first]
    for s, k in enumerate(longer[1:], start=1):
        np.maximum(acc[:k], av[first[:k] + s], out=acc[:k])
    out = np.empty_like(acc)
    out[by_len] = acc

    def grad_fn(g):
        # walking the slots upward, a column's gradient goes to the first
        # maximal row not yet claimed; every row is written exactly once
        g = g[by_len]
        buf = np.empty_like(av)
        unclaimed = np.ones(acc.shape, dtype=bool)
        for s, k in enumerate(longer):
            rows = first[:k] + s
            hit = (av[rows] == acc[:k]) & unclaimed[:k]
            unclaimed[:k] &= ~hit
            buf[rows] = np.where(hit, g[:k], 0.0)
        return (buf,)

    return _finish(out, (a,), grad_fn)


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment column-wise sum; same segment layout as segment_max."""
    seg = np.asarray(segment_ids, dtype=np.intp)
    starts = np.searchsorted(seg, np.arange(num_segments))
    out = np.add.reduceat(a.values, starts, axis=0)
    return _finish(out, (a,), lambda g: (g[seg],))


# --- gradient oracle ---

def check_gradient(f: Callable[[Tensor], Tensor], x: Tensor,
                   step: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar-valued f against central
    finite differences.

    Returns max over elements of |analytic - fd| / max(1, |fd|).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    probe = Tensor(x.values.copy(), requires_grad=True)
    with Tape() as tape:
        out = f(probe)
        if out.values.size != 1:
            raise NotScalar("check_gradient needs a scalar-valued function")
        tape.backward(out)
    analytic = probe.grad
    if analytic is None:
        analytic = np.zeros_like(probe.values)

    flat = x.values.reshape(-1).copy()
    fd = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(Tensor(flat.reshape(x.shape))).values.reshape(())
        flat[i] = orig - step
        lo = f(Tensor(flat.reshape(x.shape))).values.reshape(())
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NonFinite(f"function not finite near element {i}")
        fd[i] = (hi - lo) / (2.0 * step)

    ana = analytic.reshape(-1)
    denom = np.maximum(1.0, np.abs(fd))
    return float(np.max(np.abs(ana - fd) / denom)) if flat.size else 0.0
