"""Unit tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import math
import os

import numpy as np
import pytest

import calib
import oracles
import pctl
from repro.core.graph import OperatorGraph
from repro.core.plan import CopyToCPU, CopyToGPU, ExecutionPlan, Free, Launch


# -- percentile rule --------------------------------------------------------
def test_nearest_rank():
    assert pctl.rank(100, 90) == 90
    assert pctl.rank(99, 90) == 90  # ceil(89.1)
    assert pctl.rank(3, 50) == 2
    assert pctl.percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert pctl.percentile(list(range(1, 101)), 90) == 90


def test_p90_needs_ten_samples_beyond():
    assert pctl.beyond(100, 90) == 10
    assert pctl.beyond(99, 90) == 9
    assert pctl.min_samples(90) == 100
    assert pctl.min_samples(50) == 20  # rank(20, 50) = 10, ten beyond
    pctl.percentile(list(range(100)), 90, min_beyond=10)
    with pytest.raises(ValueError):
        pctl.percentile(list(range(99)), 90, min_beyond=10)


def test_quartile_spread():
    # statistics.quantiles (exclusive): positions 1.5, 3 and 4.5 of 5
    assert pctl.quartiles([10, 20, 30, 40, 50]) == (15.0, 30.0, 45.0)
    assert pctl.spread([50, 10, 40, 20, 30]) == pytest.approx(1.0)
    assert pctl.spread([7.0] * 10) == 0.0


# -- calibration arithmetic ---------------------------------------------------
def test_factor_rescales_to_nominal_speed():
    n = calib.NOMINAL_S
    assert calib.factor(n, n) == pytest.approx(1.0)
    assert calib.factor(2 * n, 2 * n) == pytest.approx(0.5)  # half speed
    # the mean of the two readings: 2n and n average to 1.5n
    assert calib.factor(2 * n, n) == pytest.approx(1 / 1.5)
    with pytest.raises(ValueError):
        calib.factor(0.0, n)


class _FixedReadings:
    def __init__(self, values):
        self.values = list(values)
        self.readings = []

    def reading(self):
        value = self.values.pop(0)
        self.readings.append(value)
        return value


def test_step_factors_ignore_a_lone_outlier():
    n = calib.NOMINAL_S
    readings = [n, n, n, 9 * n, n, n]
    assert calib.step_factors(readings) == pytest.approx([1.0] * 5)


def test_step_factors_follow_a_change_of_speed():
    n = calib.NOMINAL_S
    # windows [1,1,2], [1,1,2,2], [1,2,2,2], [2,2,2]
    assert calib.step_factors([n, n, 2 * n, 2 * n, 2 * n]) == pytest.approx(
        [1.0, 1 / 1.5, 0.5, 0.5]
    )
    with pytest.raises(ValueError):
        calib.step_factors([n, 0.0])


def test_segments_share_readings_and_scale_busy_time():
    n = calib.NOMINAL_S
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    seg = calib.Segments(_FixedReadings([2 * n, 2 * n, 2 * n]), clock=lambda: next(ticks))
    seg.start()
    seg.stop()
    seg.start()
    seg.stop()
    assert len(seg.readings) == 3  # the middle reading is shared
    assert seg.elapsed == [1.0, 3.0]
    assert seg.factors() == pytest.approx([0.5, 0.5])
    assert seg.busy_raw == pytest.approx(4.0)
    assert seg.busy_cal == pytest.approx(2.0)


def test_reading_runs_on_every_core_and_restores_affinity():
    mask = os.sched_getaffinity(0)
    cal = calib.Calibrator()
    value = cal.reading()
    assert value > 0
    assert cal.readings == [value]
    assert os.sched_getaffinity(0) == mask
    assert cal.cpus == sorted(mask)


# -- oracles on hand-checked inputs ----------------------------------------------
def test_corr_valid_by_hand():
    img = np.arange(9.0).reshape(3, 3)
    out = oracles.corr_valid(img, np.ones((2, 2)))
    assert np.array_equal(out, [[8, 12], [20, 24]])


def test_corr_same_pads_below_and_right_for_even_kernels():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = oracles.corr_same(img, np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(out, [[5, 2], [3, 4]])


def test_corr_same_centres_odd_kernels():
    img = np.zeros((3, 3))
    img[1, 1] = 1.0
    k = np.arange(9.0).reshape(3, 3)
    # cross-correlation of a centred impulse flips the kernel
    assert np.array_equal(oracles.corr_same(img, k), k[::-1, ::-1])


def test_pool2():
    assert np.array_equal(oracles.pool2(np.array([[1.0, 2.0], [3.0, 4.0]])), [[2.5]])


def test_edge_oracle_by_hand():
    img = np.array([[1.0]])
    # responses 2, -3, |2|, |-3| -> max 3
    out = oracles.edge_oracle(img, [np.array([[2.0]]), np.array([[-3.0]])])
    assert out.tolist() == [[3.0]]
    # two orientations: response -img and its magnitude
    out = oracles.edge_oracle(np.array([[1.0, -2.0]]), [np.array([[-1.0]])], 2)
    assert out.tolist() == [[1.0, 2.0]]


def test_dog_oracle_by_hand():
    out = oracles.dog_oracle(np.ones((4, 4)), np.array([[1.0]]), np.array([[2.0]]), 2)
    assert np.array_equal(out["DoG0"], np.ones((4, 4)))  # 2 - 1
    assert np.array_equal(out["DoG1"], 2 * np.ones((2, 2)))  # pool(2) * (2 - 1)


def test_cnn_oracle_by_hand():
    one = np.ones((1, 1))
    inputs = {"In0": np.full((4, 4), 0.5)}
    for tag in ("conv1", "conv2", "conv3", "conv4"):
        inputs[f"{tag}.W0_0"] = one
        inputs[f"{tag}.B0"] = np.zeros(1)
    out = oracles.cnn_oracle(inputs, (1, 1, 1))
    want = 0.5
    for _ in range(5):  # five tanh layers; pooling a constant keeps it
        want = math.tanh(want)
    assert list(out) == ["tanh5.O0"]
    assert out["tanh5.O0"].shape == (1, 1)
    assert out["tanh5.O0"][0, 0] == pytest.approx(want, rel=1e-15)


def test_close_to_oracle_tolerance():
    want = np.array([100.0, -50.0])
    assert oracles.close_to_oracle(np.float32(want + [0.009, 0.0]), want)
    assert not oracles.close_to_oracle(np.float32(want + [0.02, 0.0]), want)
    assert not oracles.close_to_oracle(want[:1], want)


# -- residency replay -------------------------------------------------------------
def _tiny():
    g = OperatorGraph("tiny")
    g.add_data("A", (2, 2), is_input=True)
    g.add_data("B", (2, 2))
    g.add_data("C", (2, 2), is_output=True)
    g.add_operator("f", "tanh", ["A"], ["B"])
    g.add_operator("g", "tanh", ["B"], ["C"])
    return g


def _plan(*steps):
    return ExecutionPlan(steps=list(steps))


def test_replay_accepts_a_valid_plan():
    g = _tiny()
    plan = _plan(CopyToGPU("A"), Launch("f"), Free("A"), Launch("g"), Free("B"),
                 CopyToCPU("C"), Free("C"))
    acct = oracles.replay(plan, g, capacity=8, template=g)
    assert acct == {"h2d": 4, "d2h": 4, "peak": 8, "launches": 2}
    assert oracles.io_lower_bound(g) == 8


def test_replay_rejects_over_capacity():
    g = _tiny()
    plan = _plan(CopyToGPU("A"), Launch("f"), Launch("g"), CopyToCPU("C"))
    with pytest.raises(oracles.ReplayError, match="resident"):
        oracles.replay(plan, g, capacity=8, template=g)


def test_replay_rejects_missing_input():
    g = _tiny()
    plan = _plan(CopyToGPU("A"), Launch("f"), Free("B"), Launch("g"), CopyToCPU("C"))
    with pytest.raises(oracles.ReplayError, match="missing"):
        oracles.replay(plan, g, capacity=100, template=g)


def test_replay_rejects_output_left_on_device():
    g = _tiny()
    plan = _plan(CopyToGPU("A"), Launch("f"), Launch("g"))
    with pytest.raises(oracles.ReplayError, match="not on host"):
        oracles.replay(plan, g, capacity=100, template=g)
