"""Reverse-mode autograd over numpy arrays.

The paper's models were built on a GPU DL framework; offline we provide
the same mathematics: a :class:`Tensor` wrapping an ``ndarray`` with a
gradient slot and a backward closure, plus the operator set the SEVulDet
architecture needs (dense algebra, broadcasting arithmetic, activation
functions, reductions, indexing, concatenation).  Convolution and
pooling live in :mod:`repro.nn.ops`.

Gradient correctness is enforced by numerical-gradient property tests
in ``tests/nn``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .dtype import get_default_dtype

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled",
           "MATMUL_TILE", "matmul_tile", "tiled_matmul"]

# Grad mode is thread-local: concurrent no_grad scopes (e.g. the scan
# service's scorer threads) must not race a shared flag's save/restore
# — interleaved exits could leave gradients disabled process-wide and
# silently break later training.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc: object) -> None:
        _GRAD_STATE.enabled = self._previous


def is_grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce ``grad`` back to ``shape`` (undo numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


#: Most rows per product in :func:`tiled_matmul`.
MATMUL_TILE = 64

#: Multiply-adds up to which OpenBLAS keeps one product on one thread
#: (65536 x its GEMM_MULTITHREAD_THRESHOLD of 4).
_SINGLE_THREAD_WORK = 1 << 18


def matmul_tile(depth: int, width: int) -> int:
    """Rows per tile for a (depth, width) weight: :data:`MATMUL_TILE`,
    halved while one tile's product would be split across BLAS
    threads.  A tile of 64 rows through a 224x256 dense layer would
    be, and on a 2-CPU host a split product waits for a busy partner
    thread: that made small-batch training twice as slow next to one
    other busy process.  The tile depends only on the weight's shape,
    never on the batch."""
    tile = MATMUL_TILE
    while tile > 1 and tile * depth * width > _SINGLE_THREAD_WORK:
        tile //= 2
    return tile


def tiled_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` for ``a`` of shape (..., K) and ``w`` of shape (K, N)
    or (K,), computed so each output row depends only on its own row.

    BLAS picks its kernel from the operand shapes: OpenBLAS computes a
    one-row or one-column product differently from a larger one, so a
    plain ``a @ w`` can give a row different last bits depending on
    how many other rows share the product.  Here the rows are
    flattened, padded with zero rows to a whole number of tiles of
    :func:`matmul_tile` rows, and multiplied tile by tile: every BLAS
    call has the same shape, and a row's result is the same alone, in
    any batch and at any position in it.
    """
    depth = a.shape[-1]
    tile = matmul_tile(depth, w.shape[1] if w.ndim == 2 else 1)
    rows = a.reshape(-1, depth)
    count = rows.shape[0]
    padded = -(-count // tile) * tile
    if padded != count or not rows.flags.c_contiguous:
        tiles = np.zeros((padded, depth), dtype=a.dtype)
        tiles[:count] = rows
        rows = tiles
    out = np.matmul(rows.reshape(padded // tile, tile, depth), w)
    return out.reshape(padded, *w.shape[1:])[:count].reshape(
        *a.shape[:-1], *w.shape[1:])


class Tensor:
    """A numpy array with reverse-mode autograd.

    Attributes:
        data: the underlying float ndarray (dtype set by
            :func:`repro.nn.dtype.get_default_dtype`, float32 by
            default).
        grad: accumulated gradient (same shape/dtype), or None.
        requires_grad: whether backward should flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False,
                 name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=get_default_dtype())
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple["Tensor", ...] = ()
        self.name = name

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    # -- basic protocol ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph mechanics --------------------------------------------------------

    def _make(self, data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without grad requires a "
                                 "scalar tensor")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data ** 2))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent
                                 * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        return self._matmul(other, self.data @ other.data)

    def matmul_rows(self, other) -> "Tensor":
        """``self @ other`` through :func:`tiled_matmul`: each output
        row depends only on its own input row, never on the batch."""
        other = as_tensor(other)
        return self._matmul(other, tiled_matmul(self.data, other.data))

    def _matmul(self, other: "Tensor", out_data: np.ndarray) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    # (..., K) @ (K,) -> (...): d_self = grad[..., None]*v
                    self._accumulate(grad[..., None] * other.data)
                elif self.data.ndim == 1:
                    # (K,) @ (K, N) -> (N,): d_self = W @ grad
                    self._accumulate(other.data @ grad)
                else:
                    self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                elif other.data.ndim == 1:
                    # d_other = sum over leading dims of grad * rows
                    other._accumulate(
                        (grad[..., None] * self.data).reshape(
                            -1, self.data.shape[-1]).sum(axis=0))
                else:
                    left = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(left)

        return self._make(out_data, (self, other), backward)

    # -- elementwise functions ----------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -500, 500))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(np.maximum(self.data, 1e-300))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / np.maximum(self.data, 1e-300))

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, slope * self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, slope))

        return self._make(out_data, (self,), backward)

    # -- reductions -----------------------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    expanded = np.expand_dims(expanded, ax)
            self._accumulate(np.broadcast_to(expanded, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad if keepdims else np.expand_dims(grad, axis)
            max_kept = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == max_kept)
            # Split gradient across ties to keep it a valid subgradient.
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(np.broadcast_to(expanded, self.data.shape)
                             * mask / counts)

        return self._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (grad - dot))

        return self._make(out_data, (self,), backward)

    # -- shape ops -------------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        order = axes or tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(order)
        out_data = self.data.transpose(order)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        datas = [t.data for t in tensors]
        out_data = np.concatenate(datas, axis=axis)
        sizes = [d.shape[axis] for d in datas]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for index, tensor in enumerate(tensors):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(offsets[index], offsets[index + 1])
                    tensor._accumulate(grad[tuple(slicer)])

        probe = Tensor(0.0)
        return probe._make(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        datas = [t.data for t in tensors]
        out_data = np.stack(datas, axis=axis)

        def backward(grad: np.ndarray) -> None:
            slices = np.moveaxis(grad, axis, 0)
            for index, tensor in enumerate(tensors):
                if tensor.requires_grad:
                    tensor._accumulate(slices[index])

        probe = Tensor(0.0)
        return probe._make(out_data, tuple(tensors), backward)

    def pad1d(self, left: int, right: int) -> "Tensor":
        """Zero-pad the last axis."""
        width = [(0, 0)] * (self.data.ndim - 1) + [(left, right)]
        out_data = np.pad(self.data, width)
        length = self.data.shape[-1]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                slicer = [slice(None)] * (grad.ndim - 1) \
                    + [slice(left, left + length)]
                self._accumulate(grad[tuple(slicer)])

        return self._make(out_data, (self,), backward)

    def dropout(self, rate: float, rng: np.random.Generator) -> "Tensor":
        """Inverted dropout (scales at train time)."""
        if rate <= 0.0:
            return self
        keep = 1.0 - rate
        mask = (rng.random(self.data.shape) < keep) / keep
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)


def as_tensor(value) -> Tensor:
    """Coerce numbers / arrays / Tensors into a Tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)
