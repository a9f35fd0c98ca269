"""Checks made apart from the program.

* Float64 oracles, one per template family, written from the templates'
  definitions with scipy/numpy rather than with the program's operator
  library.
* A residency replay that walks a plan's steps with the benchmark's own
  bookkeeping: device capacity is never exceeded, every launch finds its
  inputs resident, and every template output ends on the host with its
  latest value.
* The transfer lower bound: every template input must cross to the
  device and every template output back, at least once.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np
from scipy import signal

#: float32 program output against the float64 oracle: largest absolute
#: error as a share of the largest oracle magnitude
REL_TOL = 1e-4


# ---------------------------------------------------------------------------
# Float64 oracles
# ---------------------------------------------------------------------------
def corr_valid(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode 2-D cross-correlation in float64."""
    return signal.correlate(
        np.asarray(image, np.float64), np.asarray(kernel, np.float64),
        mode="valid", method="auto",
    )


def corr_same(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-size cross-correlation with zero padding.

    A ``k``-row kernel pads ``(k - 1) // 2`` rows above and the rest
    below (likewise for columns), so output ``(i, j)`` reads input rows
    ``i - (k - 1) // 2`` onwards.
    """
    kh, kw = kernel.shape
    top, left = (kh - 1) // 2, (kw - 1) // 2
    padded = np.pad(
        np.asarray(image, np.float64),
        ((top, kh - 1 - top), (left, kw - 1 - left)),
    )
    return corr_valid(padded, kernel)


def pool2(x: np.ndarray) -> np.ndarray:
    """Mean over non-overlapping 2x2 blocks."""
    h, w = x.shape
    return x.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def edge_oracle(image, kernels, orientations: int = 4) -> np.ndarray:
    """The edge map: correlate with the first ``ceil(n/2)`` kernels, take
    the magnitude of those responses for the other orientations, and
    combine all responses with an elementwise max."""
    n_conv = (orientations + 1) // 2
    responses = [corr_same(image, kernels[i]) for i in range(n_conv)]
    responses += [np.abs(responses[i]) for i in range(orientations - n_conv)]
    return np.maximum.reduce(responses)


def dog_oracle(image, narrow, wide, octaves: int) -> dict[str, np.ndarray]:
    """Rectified difference-of-Gaussians band per octave."""
    out = {}
    src = np.asarray(image, np.float64)
    for o in range(octaves):
        a, b = corr_same(src, narrow), corr_same(src, wide)
        out[f"DoG{o}"] = np.maximum(b - a, 0.0)
        src = pool2(b)
    return out


def cnn_oracle(inputs: Mapping[str, np.ndarray], planes: tuple[int, int, int]):
    """Forward pass of the 11-layer CNN with planes 1 -> a -> b -> b -> c."""
    a, b, c = planes

    def conv(tag: str, x: list[np.ndarray], n_out: int) -> list[np.ndarray]:
        out = []
        for j in range(n_out):
            acc = sum(
                corr_valid(xi, inputs[f"{tag}.W{i}_{j}"]) for i, xi in enumerate(x)
            )
            out.append(acc + float(inputs[f"{tag}.B{j}"].reshape(-1)[0]))
        return out

    x = [np.asarray(inputs["In0"], np.float64)]
    x = [pool2(np.tanh(v)) for v in conv("conv1", x, a)]
    x = [pool2(np.tanh(v)) for v in conv("conv2", x, b)]
    x = [np.tanh(v) for v in conv("conv3", x, b)]
    x = [np.tanh(np.tanh(v)) for v in conv("conv4", x, c)]
    return {f"tanh5.O{i}": v for i, v in enumerate(x)}


def oracle(spec, inputs: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every template output of ``spec`` computed in float64."""
    p = spec.p
    if spec.family == "edge":
        return {"Edg": edge_oracle(inputs["Img"], [inputs["K1"], inputs["K2"]])}
    if spec.family == "forest":
        return {
            f"T{j}_Edg": edge_oracle(
                inputs[f"T{j}_Img"], [inputs[f"T{j}_K1"], inputs[f"T{j}_K2"]]
            )
            for j in range(p["branches"])
        }
    if spec.family == "video":
        kernels = [inputs["K1"], inputs["K2"]]
        return {
            f"E{t}": edge_oracle(inputs[f"F{t}"], kernels)
            for t in range(p["frames"])
        }
    if spec.family == "dog":
        return dog_oracle(
            inputs["Img"], inputs["Gnarrow"], inputs["Gwide"], p["octaves"]
        )
    if spec.family == "cnn":
        return cnn_oracle(inputs, p["planes"])
    raise ValueError(f"no oracle for family {spec.family!r}")


def close_to_oracle(got: np.ndarray, want: np.ndarray) -> bool:
    """``got`` matches ``want`` within :data:`REL_TOL` of its magnitude."""
    if got.shape != want.shape:
        return False
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    err = float(np.max(np.abs(np.asarray(got, np.float64) - want))) if want.size else 0.0
    return err <= REL_TOL * max(scale, np.finfo(np.float32).tiny)


# ---------------------------------------------------------------------------
# Residency replay and the transfer lower bound
# ---------------------------------------------------------------------------
class ReplayError(AssertionError):
    """A plan broke a residency rule."""


def _size(shape) -> int:
    return math.prod(shape) if shape else 1


def io_lower_bound(template) -> int:
    """Floats every plan must move: all template inputs plus outputs."""
    return sum(
        _size(ds.shape)
        for ds in template.data.values()
        if ds.is_input or ds.is_output
    )


def replay(plan, graph, capacity: int, template) -> dict[str, int]:
    """Walk ``plan`` over the compiled ``graph``; raise on any violation.

    Returns the replay's own accounting: floats moved each way, the
    device peak and the launch count.
    """
    data = graph.data
    on_host = {d for d, ds in data.items() if ds.is_input and not ds.virtual}
    resident: dict[str, int] = {}
    launched: set[str] = set()
    used = peak = h2d = d2h = launches = 0
    for i, step in enumerate(plan.steps):
        kind = type(step).__name__
        if kind == "CopyToGPU":
            if step.data not in on_host or step.data in resident:
                raise ReplayError(f"step {i}: upload of {step.data!r}")
            resident[step.data] = _size(data[step.data].shape)
            used += resident[step.data]
            h2d += resident[step.data]
        elif kind == "CopyToCPU":
            if step.data not in resident:
                raise ReplayError(f"step {i}: download of absent {step.data!r}")
            on_host.add(step.data)
            d2h += resident[step.data]
        elif kind == "Free":
            if step.data not in resident:
                raise ReplayError(f"step {i}: free of absent {step.data!r}")
            used -= resident.pop(step.data)
        elif kind == "Launch":
            op = graph.ops[step.op]
            missing = [d for d in op.inputs if d not in resident]
            if missing or step.op in launched:
                raise ReplayError(f"step {i}: launch {step.op!r} missing {missing}")
            for d in op.outputs:
                if d in resident:
                    raise ReplayError(f"step {i}: {d!r} written while resident")
                resident[d] = _size(data[d].shape)
                used += resident[d]
                on_host.discard(d)
            launched.add(step.op)
            launches += 1
        else:
            raise ReplayError(f"step {i}: unexpected step {kind}")
        if used > capacity:
            raise ReplayError(f"step {i}: {used} floats resident > {capacity}")
        peak = max(peak, used)
    if len(launched) != len(graph.ops):
        raise ReplayError(f"{len(graph.ops) - len(launched)} operators never run")
    for root, ds in template.data.items():
        if not ds.is_output:
            continue
        rows = ds.shape[0] if ds.shape else 1
        if not data[root].virtual:
            pieces = [(root, (0, rows))]
        else:
            pieces = sorted(
                ((c, data[c].row_range) for c in graph.children.get(root, ())
                 if not data[c].virtual),
                key=lambda t: t[1],
            )
        covered = 0
        for name, (r0, r1) in pieces:
            if name not in on_host or r0 > covered:
                raise ReplayError(f"output {root!r} rows {r0}:{r1} not on host")
            covered = max(covered, r1)
        if covered < rows:
            raise ReplayError(f"output {root!r} rows {covered}:{rows} never copied")
    return {"h2d": h2d, "d2h": d2h, "peak": peak, "launches": launches}
