"""Seeded, graded template mixes for the four workloads.

Each mix is a fixed list of template specs whose sizes and operator
counts climb in small steps, so no latency percentile lands on the gap
between two template classes.  A round runs every template once in a
fixed shuffled order, and every run holds whole rounds, so a mix of
``n`` templates puts p50 and p90 at ``n / 2`` and ``n / 10`` templates
from the top; ``n`` is 15 or 25, which puts both in the middle of a
template's samples rather than on the boundary between two.  The seed widens the mix's smallest edge template
by a few pixels and, on execute_ooc, draws the input data; it never
changes the rest of the mix, so runs with different seeds do the same
work to within a fraction of a percent (a seed that also moved the big
templates, or the order, would move the timings by more than their
bounds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.gpusim import MB, TESLA_C870, GpuDevice
from repro.templates import (
    CNNArch,
    ConvLayerSpec,
    cnn_graph,
    cnn_inputs,
    dog_pyramid_graph,
    dog_pyramid_inputs,
    edge_forest_graph,
    edge_forest_inputs,
    find_edges_graph,
    find_edges_inputs,
    valid_cnn_shape,
    video_edge_graph,
    video_edge_inputs,
)

#: bounded devices: a Tesla C870 with its memory cut so that most of
#: each mix runs out of core (usable = 90% of the memory)
DEVICES: dict[str, GpuDevice] = {
    "c870-256K": TESLA_C870.with_memory(MB // 4),
    "c870-512K": TESLA_C870.with_memory(MB // 2),
    "c870-1M": TESLA_C870.with_memory(1 * MB),
    "c870-2M": TESLA_C870.with_memory(2 * MB),
    "c870-4M": TESLA_C870.with_memory(4 * MB),
}


def cnn_arch(a: int, b: int, c: int) -> CNNArch:
    """An 11-layer CNN with planes 1 -> a -> b -> b -> c.

    ``cnn_arch(8, 20, 10)`` is the paper-scale ``SMALL_CNN`` (1632 ops).
    """
    return CNNArch(
        name=f"cnn_{a}_{b}_{c}",
        conv1=ConvLayerSpec(1, a),
        conv2=ConvLayerSpec(a, b),
        conv3=ConvLayerSpec(b, b),
        conv4=ConvLayerSpec(b, c),
    )


@dataclass(frozen=True)
class Spec:
    """One template of a mix: family, parameters and target device."""

    family: str  # edge | forest | video | dog | cnn
    params: tuple[tuple[str, Any], ...]
    device: str

    @property
    def p(self) -> dict[str, Any]:
        return dict(self.params)

    @property
    def label(self) -> str:
        args = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({args})@{self.device}"

    def build(self):
        """The template's operator graph (the program's factories)."""
        p = self.p
        if self.family == "edge":
            return find_edges_graph(p["size"], p["size"])
        if self.family == "forest":
            return edge_forest_graph(p["branches"], p["size"], p["size"])
        if self.family == "video":
            return video_edge_graph(p["frames"], p["size"], p["size"])
        if self.family == "dog":
            return dog_pyramid_graph(p["size"], p["size"], octaves=p["octaves"])
        if self.family == "cnn":
            return cnn_graph(cnn_arch(*p["planes"]), p["size"], p["size"])
        raise ValueError(f"unknown family {self.family!r}")

    def inputs(self, seed: int) -> dict[str, np.ndarray]:
        """Seeded template inputs."""
        p = self.p
        if self.family == "edge":
            return find_edges_inputs(p["size"], p["size"], seed=seed)
        if self.family == "forest":
            return edge_forest_inputs(p["branches"], p["size"], p["size"], seed=seed)
        if self.family == "video":
            return video_edge_inputs(p["frames"], p["size"], p["size"], seed=seed)
        if self.family == "dog":
            return dog_pyramid_inputs(p["size"], p["size"], seed=seed)
        if self.family == "cnn":
            arch = cnn_arch(*p["planes"])
            return cnn_inputs(arch, p["size"], p["size"], seed=seed)
        raise ValueError(f"unknown family {self.family!r}")


@dataclass
class Mix:
    specs: list[Spec]
    #: the order of one round, as indexes into ``specs``
    order: list[int] = field(default_factory=list)


def _spec(family: str, device: str, **params: Any) -> Spec:
    return Spec(family, tuple(params.items()), device)


def _cnn_size(planes: tuple[int, int, int], base: int) -> int:
    """``base`` or the next size up that survives the CNN's shapes."""
    size = base
    while not valid_cnn_shape(cnn_arch(*planes), size, size):
        size += 4
    return size


def _seeded(seed: int) -> int:
    """Pixels the seed adds to a mix's smallest edge template."""
    return 2 * (seed % 4)


def _mix(name: str, specs: list[Spec]) -> Mix:
    order = list(range(len(specs)))
    random.Random(name).shuffle(order)
    return Mix(specs, order)


def compile_cold(seed: int) -> Mix:
    """Distinct templates, mostly out of core, compiled with a cold cache."""
    specs = [_spec("edge", "c870-4M", size=320 + _seeded(seed))]
    for size in (384, 448, 512, 576):
        specs.append(_spec("edge", "c870-4M", size=size))
    for branches in (2, 3, 4, 5):
        specs.append(_spec("forest", "c870-2M", branches=branches, size=192))
    for size in (384, 448, 512):
        specs.append(_spec("dog", "c870-2M", size=size, octaves=3))
    for frames in (6, 8, 10):
        specs.append(_spec("video", "c870-2M", frames=frames, size=96))
    for planes in ((2, 4, 2), (3, 5, 3), (3, 6, 3), (4, 7, 4), (4, 8, 4), (5, 9, 5),
                   (5, 10, 5), (6, 11, 6), (6, 12, 6), (7, 14, 7)):
        specs.append(_spec("cnn", "c870-256K", planes=planes,
                           size=_cnn_size(planes, 60)))
    return _mix("compile_cold", specs)


def serve(seed: int) -> Mix:
    """Templates graded from 5 to 1632 operators in steps of 1.4x to 2x."""
    specs = [
        _spec("edge", "c870-2M", size=96 + _seeded(seed)),
        _spec("forest", "c870-2M", branches=2, size=64),
        _spec("dog", "c870-2M", size=128, octaves=3),
        _spec("forest", "c870-2M", branches=4, size=64),
        _spec("forest", "c870-2M", branches=8, size=48),
        _spec("video", "c870-2M", frames=12, size=40),
        _spec("forest", "c870-2M", branches=16, size=40),
        _spec("forest", "c870-2M", branches=32, size=32),
        _spec("video", "c870-2M", frames=46, size=32),
        _spec("forest", "c870-2M", branches=64, size=32),
    ]
    for planes in ((4, 10, 5), (5, 12, 6), (6, 14, 7), (7, 17, 8), (8, 20, 10)):
        specs.append(_spec("cnn", "c870-1M", planes=planes,
                           size=_cnn_size(planes, 60)))
    return _mix("serve", specs)


def execute_ooc(seed: int) -> Mix:
    """Out-of-core plans small enough to run numerically."""
    specs = [_spec("edge", "c870-512K", size=160 + _seeded(seed))]
    for size in (192, 224, 256, 288):
        specs.append(_spec("edge", "c870-512K", size=size))
    for frames in (4, 6, 8, 10):
        specs.append(_spec("video", "c870-512K", frames=frames, size=64))
    for size in (256, 320, 384):
        specs.append(_spec("dog", "c870-512K", size=size, octaves=3))
    for planes in ((2, 4, 2), (3, 6, 3), (4, 8, 4)):
        specs.append(_spec("cnn", "c870-512K", planes=planes,
                           size=_cnn_size(planes, 92)))
    return _mix("execute_ooc", specs)


MIXES = {
    "compile_cold": compile_cold,
    "serve_warm": serve,
    "serve_sharded": serve,
    "execute_ooc": execute_ooc,
}
