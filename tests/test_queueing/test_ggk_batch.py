"""Batch-vs-serial equivalence of the vectorized STAP queueing kernel.

Every batched condition must be *bit-identical* (``np.array_equal``, no
tolerance) to a standalone :func:`simulate_stap_queue` run under the
same config — the core contract that lets every consumer switch kernels
freely.
"""

import numpy as np
import pytest

from repro.queueing import (
    BatchQueueResult,
    StapQueueConfig,
    simulate_stap_queue,
    simulate_stap_queue_batch,
)


def _sample(C, n, seed=0):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(0.6, size=(C, n)), axis=1)
    demands = rng.lognormal(0.0, 0.5, size=(C, n))
    return arrivals, demands


def _assert_rows_match(batch, arrivals, demands, configs):
    for c, cfg in enumerate(configs):
        serial = simulate_stap_queue(arrivals[c], demands[c], cfg)
        for fld in (
            "arrival_times",
            "start_times",
            "completion_times",
            "boosted",
            "boosted_time",
        ):
            assert np.array_equal(
                getattr(serial, fld), getattr(batch, fld)[c]
            ), f"condition {c}: {fld} diverges"


class TestBitIdentity:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("timeout", [0.0, 0.75, np.inf])
    @pytest.mark.parametrize("boost", [1.0, 1.6])
    def test_sweep(self, k, timeout, boost):
        C, n = 5, 400
        arrivals, demands = _sample(C, n, seed=k * 100 + int(boost * 10))
        configs = [
            StapQueueConfig(
                n_servers=k,
                mean_service_time=0.8 + 0.1 * c,
                timeout=timeout,
                boost_speedup=boost,
            )
            for c in range(C)
        ]
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        _assert_rows_match(batch, arrivals, demands, configs)

    def test_single_condition(self):
        arrivals, demands = _sample(1, 300)
        configs = [StapQueueConfig(n_servers=2, timeout=0.5, boost_speedup=1.4)]
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        assert batch.n_conditions == 1
        _assert_rows_match(batch, arrivals, demands, configs)

    def test_broadcast_arrivals_and_demands(self):
        C, n = 6, 350
        arrivals, demands = _sample(1, n, seed=3)
        arrivals_1d, demands_1d = arrivals[0], demands[0]
        configs = [
            StapQueueConfig(
                n_servers=2, timeout=t, boost_speedup=b, mean_service_time=m
            )
            for t, b, m in zip(
                (0.0, 0.5, 1.0, 2.0, np.inf, 0.5),
                (1.5, 1.0, 2.0, 1.2, 1.7, 3.0),
                (1.0, 0.9, 1.1, 1.0, 0.8, 1.3),
            )
        ]
        batch = simulate_stap_queue_batch(arrivals_1d, demands_1d, configs)
        full = np.broadcast_to(arrivals_1d, (C, n))
        _assert_rows_match(batch, full, np.broadcast_to(demands_1d, (C, n)), configs)

    def test_mixed_server_counts(self):
        # Ragged k exercises the general argmin path with inf padding.
        C, n = 4, 300
        arrivals, demands = _sample(C, n, seed=9)
        configs = [
            StapQueueConfig(n_servers=k, timeout=0.5, boost_speedup=1.5)
            for k in (1, 3, 2, 4)
        ]
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        _assert_rows_match(batch, arrivals, demands, configs)

    def test_boost_one_with_finite_timeout(self):
        # boost == 1 must land in the serial kernel's no-boost branch
        # even when the warning fires mid-query.
        C, n = 3, 250
        arrivals, demands = _sample(C, n, seed=4)
        configs = [
            StapQueueConfig(n_servers=2, timeout=0.2, boost_speedup=1.0)
            for _ in range(C)
        ]
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        assert not batch.boosted.any()
        _assert_rows_match(batch, arrivals, demands, configs)

    def test_derived_quantities_match(self):
        C, n = 4, 300
        arrivals, demands = _sample(C, n, seed=11)
        configs = [
            StapQueueConfig(n_servers=2, timeout=0.5, boost_speedup=1.5)
            for _ in range(C)
        ]
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        dropped = batch.drop_warmup(0.1)
        for c, cfg in enumerate(configs):
            serial = simulate_stap_queue(arrivals[c], demands[c], cfg)
            assert np.array_equal(serial.response_times, batch.response_times[c])
            assert serial.boost_fraction == batch.boost_fractions[c]
            sd = serial.drop_warmup(0.1)
            assert np.array_equal(
                sd.completion_times, dropped.completion_times[c]
            )
            # condition() reconstructs the serial result wholesale.
            cond = batch.condition(c)
            assert np.array_equal(cond.start_times, serial.start_times)
            assert cond.start_times.flags["C_CONTIGUOUS"]


class TestEdgeCases:
    def test_empty_queries(self):
        batch = simulate_stap_queue_batch(
            np.empty((3, 0)), np.empty((3, 0)), [StapQueueConfig()] * 3
        )
        assert isinstance(batch, BatchQueueResult)
        assert batch.completion_times.shape == (3, 0)
        assert batch.boost_fractions.tolist() == [0.0, 0.0, 0.0]
        assert batch.response_times.shape == (3, 0)

    def test_no_conditions_raises(self):
        with pytest.raises(ValueError, match="configs"):
            simulate_stap_queue_batch(np.zeros(4), np.ones(4), [])

    def test_non_config_raises(self):
        with pytest.raises(TypeError, match="StapQueueConfig"):
            simulate_stap_queue_batch(np.zeros(4), np.ones(4), [{"n_servers": 2}])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arrivals_raise(self, bad):
        arrivals = np.array([[0.0, 1.0, bad, 3.0]])
        with pytest.raises(ValueError, match="finite"):
            simulate_stap_queue_batch(arrivals, np.ones((1, 4)), [StapQueueConfig()])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_demands_raise(self, bad):
        demands = np.array([[1.0, bad, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            simulate_stap_queue_batch(
                np.arange(3.0)[None, :], demands, [StapQueueConfig()]
            )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_zero_demands_match_serial(self, k):
        """Zero work, of either sign, stays legal and bit-identical."""
        arrivals, demands = _sample(3, 40, seed=k)
        demands[:, ::3] = 0.0
        demands[:, 1::5] = -0.0
        configs = [
            StapQueueConfig(n_servers=k, timeout=t, boost_speedup=1.5)
            for t in (0.0, 0.5, np.inf)
        ]
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        _assert_rows_match(batch, arrivals, demands, configs)

    def test_unsorted_row_raises(self):
        arrivals = np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        with pytest.raises(ValueError, match="sorted"):
            simulate_stap_queue_batch(
                arrivals, np.ones((2, 3)), [StapQueueConfig()] * 2
            )

    def test_condition_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="condition rows"):
            simulate_stap_queue_batch(
                np.zeros((2, 3)), np.ones((2, 3)), [StapQueueConfig()] * 3
            )

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="matching shapes"):
            simulate_stap_queue_batch(
                np.zeros((2, 3)), np.ones((2, 4)), [StapQueueConfig()] * 2
            )

    def test_3d_input_raises(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            simulate_stap_queue_batch(
                np.zeros((2, 3, 4)), np.ones((2, 3, 4)), [StapQueueConfig()] * 2
            )


@pytest.mark.parametrize("fraction", [-0.1, 1.0, float("nan")])
def test_batch_drop_warmup_rejects_bad_fraction(fraction):
    arrivals, demands = _sample(2, 20)
    batch = simulate_stap_queue_batch(arrivals, demands, [StapQueueConfig()] * 2)
    with pytest.raises(ValueError, match="fraction"):
        batch.drop_warmup(fraction)
