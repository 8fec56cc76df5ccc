"""Batch-vs-serial equivalence of the vectorized STAP queueing kernel.

Every batched condition must be *bit-identical* (``np.array_equal``, no
tolerance) to a standalone :func:`simulate_stap_queue` run under the
same config — the core contract that lets every consumer switch kernels
freely.  The batched kernel takes ``(C, n)`` rows and one server count
for every condition, the inputs ``ResponseTimeModel.simulate_many``
passes, and rejects anything else.
"""

import numpy as np
import pytest

from repro.queueing import (
    QueueResult,
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
        assert batch.start_times.shape == (1, 300)
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
            assert serial.boost_fraction == batch.boost_fraction[c]
            sd = serial.drop_warmup(0.1)
            for fld in ("arrival_times", "start_times", "completion_times"):
                assert np.array_equal(getattr(sd, fld), getattr(dropped, fld)[c])
            assert sd.boost_fraction == dropped.boost_fraction[c]


class TestEdgeCases:
    def test_empty_queries(self):
        batch = simulate_stap_queue_batch(
            np.empty((3, 0)), np.empty((3, 0)), [StapQueueConfig()] * 3
        )
        assert isinstance(batch, QueueResult)
        assert batch.completion_times.shape == (3, 0)
        assert batch.boost_fraction.tolist() == [0.0, 0.0, 0.0]
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
        with pytest.raises(ValueError, match="matching 2-D"):
            simulate_stap_queue_batch(
                np.zeros((2, 3)), np.ones((2, 4)), [StapQueueConfig()] * 2
            )

    def test_3d_input_raises(self):
        with pytest.raises(ValueError, match="matching 2-D"):
            simulate_stap_queue_batch(
                np.zeros((2, 3, 4)), np.ones((2, 3, 4)), [StapQueueConfig()] * 2
            )

    @pytest.mark.parametrize(
        "arrivals,demands",
        [
            (np.arange(4.0), np.ones(4)),
            (np.arange(4.0), np.ones((1, 4))),
            (np.arange(4.0)[None, :], np.ones(4)),
        ],
        ids=["both", "arrivals", "demands"],
    )
    def test_1d_input_raises(self, arrivals, demands):
        """One ``(n,)`` row is not broadcast across the conditions."""
        with pytest.raises(ValueError, match="matching 2-D"):
            simulate_stap_queue_batch(arrivals, demands, [StapQueueConfig()])

    @pytest.mark.parametrize("servers", [(1, 2), (2, 2, 3), (4, 1, 1, 1)])
    def test_mixed_server_counts_raise(self, servers):
        arrivals, demands = _sample(len(servers), 20)
        configs = [StapQueueConfig(n_servers=k) for k in servers]
        with pytest.raises(ValueError, match="one n_servers"):
            simulate_stap_queue_batch(arrivals, demands, configs)

    def test_numpy_and_python_server_counts_are_one_count(self):
        arrivals, demands = _sample(2, 300, seed=5)
        configs = [
            StapQueueConfig(n_servers=k, timeout=0.5, boost_speedup=1.5)
            for k in (3, np.int64(3))
        ]
        batch = simulate_stap_queue_batch(arrivals, demands, configs)
        _assert_rows_match(batch, arrivals, demands, configs)


@pytest.mark.parametrize("fraction", [-0.1, 1.0, float("nan")])
def test_batch_drop_warmup_rejects_bad_fraction(fraction):
    arrivals, demands = _sample(2, 20)
    batch = simulate_stap_queue_batch(arrivals, demands, [StapQueueConfig()] * 2)
    with pytest.raises(ValueError, match="fraction"):
        batch.drop_warmup(fraction)
