"""Neural-network layers (Module protocol + the standard zoo).

Modules register parameters and submodules by attribute assignment,
PyTorch-style: ``self.w = Parameter(...)`` and ``self.fc = Linear(...)``
are discovered by :meth:`Module.parameters` automatically.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import init as initializers
from .dtype import get_default_dtype
from .ops import conv1d
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear", "Embedding", "Dropout",
           "Conv1d", "Sequential", "ReLU", "Tanh", "Sigmoid", "Flatten"]


class Parameter(Tensor):
    """A tensor registered as trainable."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class providing parameter discovery and train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def parameters(self) -> Iterator[Parameter]:
        """Yield this module's and all submodules' parameters."""
        seen: set[int] = set()
        for module in self.modules():
            for value in vars(module).values():
                if isinstance(value, Parameter) and id(value) not in seen:
                    seen.add(id(value))
                    yield value

    def modules(self) -> Iterator["Module"]:
        """Yield self and all transitively-contained submodules.

        Each module object is yielded exactly once, even when it is
        reachable through several attributes (an aliased submodule) —
        otherwise shared layers would be visited once per reference,
        double-toggling ``train()``/``eval()`` and double-counting in
        any per-module accounting.
        """
        yield from self._modules_once(set())

    def _modules_once(self, seen: set[int]) -> Iterator["Module"]:
        if id(self) in seen:
            return
        seen.add(id(self))
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value._modules_once(seen)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item._modules_once(seen)

    def named_parameters(self) -> Iterator[tuple[str, "Parameter"]]:
        """Yield ``(dotted_name, parameter)`` pairs.

        Names mirror :meth:`state_dict` keys (attribute path joined
        with dots, list/tuple containers contributing their index).  A
        parameter shared by several attributes is yielded once, under
        the first name attribute-order DFS reaches it by.
        """
        out: dict[str, Parameter] = {}
        self._collect_params(out, prefix="")
        seen: set[int] = set()
        for name, param in out.items():
            if id(param) not in seen:
                seen.add(id(param))
                yield name, param

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat name -> array mapping of all parameters."""
        state: dict[str, np.ndarray] = {}
        self._collect_state(state, prefix="")
        return state

    def _collect_state(self, state: dict[str, np.ndarray],
                       prefix: str) -> None:
        for attr, value in vars(self).items():
            key = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                state[key] = value.data
            elif isinstance(value, Module):
                value._collect_state(state, prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        item._collect_state(state,
                                            prefix=f"{key}.{index}.")

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy arrays into matching parameters (shapes must agree)."""
        own = {}
        self._collect_params(own, prefix="")
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict missing keys: {sorted(missing)}")
        for key, param in own.items():
            array = np.asarray(state[key], dtype=get_default_dtype())
            if array.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: "
                    f"{array.shape} vs {param.data.shape}")
            param.data = array.copy()

    def _collect_params(self, out: dict[str, Parameter],
                        prefix: str) -> None:
        for attr, value in vars(self).items():
            key = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                out[key] = value
            elif isinstance(value, Module):
                value._collect_params(out, prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        item._collect_params(out, prefix=f"{key}.{index}.")

    def _generators(self) -> dict[str, np.random.Generator]:
        """Unique RNGs held by stochastic submodules, keyed by the
        deterministic order :meth:`modules` yields them in (layers
        typically share one Generator; it appears once)."""
        found: dict[str, np.random.Generator] = {}
        seen: set[int] = set()
        for module in self.modules():
            rng = getattr(module, "_rng", None)
            if (isinstance(rng, np.random.Generator)
                    and id(rng) not in seen):
                seen.add(id(rng))
                found[f"rng{len(found)}"] = rng
        return found

    def rng_states(self) -> dict[str, dict]:
        """Bit-generator states of all stochastic submodules.

        Training checkpoints persist these alongside the parameters:
        dropout draws from these generators every training step, so a
        resumed run must continue the stream mid-sequence — a freshly
        seeded model would replay masks from the beginning and
        diverge from the run it claims to continue.
        """
        return {key: rng.bit_generator.state
                for key, rng in self._generators().items()}

    def load_rng_states(self, states: dict[str, dict]) -> None:
        """Restore generator states captured by :meth:`rng_states`."""
        generators = self._generators()
        for key, state in states.items():
            if key in generators:
                generators[key].bit_generator.state = state


class Linear(Module):
    """Fully-connected layer: ``y = x @ W + b``, batch-invariant
    (:meth:`~repro.nn.tensor.Tensor.matmul_rows`)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.xavier_uniform((in_features, out_features), rng),
            name="linear.weight")
        self.bias = Parameter(np.zeros(out_features), name="linear.bias") \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul_rows(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token-id -> vector lookup with sparse gradient accumulation.

    ``id_aliases`` (optional, settable after construction) is an int
    array of length ``vocab_size`` applied to ids before lookup.  It
    implements embedding-level token merging — e.g. gensim-style
    min_count trimming, where rare tokens keep their vocabulary ids
    (so encode/decode stays lossless) but share UNK's embedding row
    for both the forward lookup and the gradient accumulation.
    """

    def __init__(self, vocab_size: int, dim: int,
                 rng: np.random.Generator,
                 weights: np.ndarray | None = None,
                 id_aliases: np.ndarray | None = None):
        super().__init__()
        self.vocab_size = vocab_size
        self.dim = dim
        self.id_aliases = (None if id_aliases is None
                           else np.asarray(id_aliases, dtype=np.int64))
        if weights is not None:
            if weights.shape != (vocab_size, dim):
                raise ValueError("pretrained embedding shape mismatch")
            data = np.asarray(weights, dtype=get_default_dtype()).copy()
        else:
            data = initializers.uniform((vocab_size, dim), rng, 0.5)
        self.weight = Parameter(data, name="embedding.weight")

    def forward(self, token_ids: np.ndarray) -> Tensor:
        ids = np.asarray(token_ids, dtype=np.int64)
        if self.id_aliases is not None:
            ids = self.id_aliases[ids]
        weight = self.weight
        out_data = weight.data[ids]

        def backward(grad: np.ndarray) -> None:
            if weight.requires_grad:
                full = np.zeros_like(weight.data)
                np.add.at(full, ids.reshape(-1),
                          grad.reshape(-1, weight.data.shape[1]))
                weight._accumulate(full)

        probe = Tensor(0.0)
        return probe._make(out_data, (weight,), backward)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate {rate} outside [0, 1)")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        return x.dropout(self.rate, self._rng)


class Conv1d(Module):
    """1-D convolution over (batch, channels, length)."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, stride: int = 1,
                 padding: int = 0, bias: bool = True):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.kernel = kernel
        self.weight = Parameter(
            initializers.he_uniform((out_channels, in_channels, kernel),
                                    rng),
            name="conv1d.weight")
        self.bias = Parameter(np.zeros(out_channels), name="conv1d.bias") \
            if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias, stride=self.stride,
                      padding=self.padding)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        return x.reshape(batch, -1)


class Sequential(Module):
    """Run modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.steps = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.steps:
            x = module(x)
        return x
