"""Reduced-precision inference weights (int8 affine).

``int8`` is per-tensor affine quantization of every weight matrix
(``ndim >= 2``), applied to a *trained* model in place:
``q = round(w / scale) + zero_point`` over the int8 range, dequantized
back into float32 immediately ("dequantize-on-load into the matmul
dtype").  1-D parameters (biases, attention gate biases) stay float32
— they are a rounding error of the total payload and quantizing them
costs accuracy for nothing, the standard practice in int8 inference
runtimes.

The scheme does not touch the model architecture, so a quantized model
scores through exactly the same code paths; the accuracy cost is
measured (not assumed) by
:meth:`repro.core.detector.SEVulDet.quantize`, which reports
max |Δprob| against the float32 weights and the verdict-flip rate at
the operating threshold on a held-out calibration batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import Module

__all__ = ["QuantizedTensor", "quantize_tensor", "dequantize_tensor",
           "apply_inference_dtype", "weights_nbytes",
           "quantized_payload_nbytes"]

#: Symmetric-capable int8 range.  -128 is excluded so the grid stays
#: symmetric around the zero point and negation round-trips.
_QMIN, _QMAX = -127, 127


@dataclass(frozen=True)
class QuantizedTensor:
    """One tensor's per-tensor affine int8 encoding.

    ``dequantize`` reconstructs ``(data - zero_point) * scale`` in the
    requested float dtype; values land exactly on the quantization
    grid, so quantize -> dequantize -> quantize is idempotent.
    """

    data: np.ndarray  # int8
    scale: float
    zero_point: int

    @property
    def nbytes(self) -> int:
        """Stored payload size (int8 data + scale/zero-point)."""
        return self.data.nbytes + 8 + 4


def quantize_tensor(array: np.ndarray) -> QuantizedTensor:
    """Per-tensor affine int8 quantization of a float array."""
    array = np.asarray(array, dtype=np.float64)
    low = float(array.min()) if array.size else 0.0
    high = float(array.max()) if array.size else 0.0
    low, high = min(low, 0.0), max(high, 0.0)  # grid must contain 0
    span = high - low
    if span == 0.0:
        # Constant (all-zero after the clamp) tensor: any scale works.
        scale, zero_point = 1.0, 0
    else:
        scale = span / (_QMAX - _QMIN)
        zero_point = int(round(_QMIN - low / scale))
        zero_point = max(_QMIN, min(_QMAX, zero_point))
    q = np.round(array / scale) + zero_point
    q = np.clip(q, _QMIN, _QMAX).astype(np.int8)
    return QuantizedTensor(data=q, scale=scale, zero_point=zero_point)


def dequantize_tensor(q: QuantizedTensor,
                      dtype=np.float32) -> np.ndarray:
    """Reconstruct the float tensor on the quantization grid."""
    return ((q.data.astype(np.float64) - q.zero_point)
            * q.scale).astype(dtype)


@dataclass
class QuantizationReport:
    """What quantizing a model did — sizes and measured guardband.

    ``max_abs_delta`` / ``mean_abs_delta`` / ``flip_rate`` are filled
    by the caller that owns a calibration batch (the detector); the
    per-tensor stats come from :func:`apply_inference_dtype` itself.
    """

    dtype: str
    weights_nbytes_before: int = 0
    weights_nbytes_after: int = 0
    payload_nbytes: int = 0
    per_tensor: dict = field(default_factory=dict)
    calibration_samples: int = 0
    max_abs_delta: float = 0.0
    mean_abs_delta: float = 0.0
    flip_rate: float = 0.0
    flips: int = 0

    def as_record(self) -> dict:
        return {
            "dtype": self.dtype,
            "weights_nbytes_before": self.weights_nbytes_before,
            "weights_nbytes_after": self.weights_nbytes_after,
            "payload_nbytes": self.payload_nbytes,
            "calibration_samples": self.calibration_samples,
            "max_abs_delta": self.max_abs_delta,
            "mean_abs_delta": self.mean_abs_delta,
            "flip_rate": self.flip_rate,
            "flips": self.flips,
        }


def weights_nbytes(model: Module) -> int:
    """In-memory bytes across all parameters."""
    return sum(param.data.nbytes for param in model.parameters())


def quantized_payload_nbytes(model: Module) -> int:
    """Bytes an int8 archive of ``model`` would occupy (weight
    matrices as int8 + scale/zero-point, 1-D parameters as float32)."""
    total = 0
    for param in model.parameters():
        if param.data.ndim >= 2:
            total += param.data.size + 8 + 4
        else:
            total += param.data.size * 4
    return total


def apply_inference_dtype(model: Module,
                          dtype: str) -> QuantizationReport:
    """Re-represent ``model``'s weights for inference, in place.

    ``float32`` casts everything (back) to float32; ``int8`` quantizes
    weight matrices per tensor and binds the *dequantized* float32
    arrays (the matmul dtype), recording scale/zero-point and the
    worst per-tensor reconstruction error in the report.
    """
    from .dtype import coerce_inference_dtype

    dtype = coerce_inference_dtype(dtype)
    report = QuantizationReport(
        dtype=dtype, weights_nbytes_before=weights_nbytes(model))
    named = {}
    model._collect_params(named, prefix="")
    for name, param in named.items():
        if dtype == "int8" and param.data.ndim >= 2:
            q = quantize_tensor(param.data)
            restored = dequantize_tensor(q, np.float32)
            error = float(np.max(np.abs(
                restored.astype(np.float64)
                - param.data.astype(np.float64))))
            report.per_tensor[name] = {
                "scale": q.scale, "zero_point": q.zero_point,
                "max_abs_err": error,
            }
            param.data = restored
        else:  # float32, and int8's float-kept 1-D parameters
            param.data = param.data.astype(np.float32)
    report.weights_nbytes_after = weights_nbytes(model)
    report.payload_nbytes = (quantized_payload_nbytes(model)
                             if dtype == "int8"
                             else report.weights_nbytes_after)
    return report
