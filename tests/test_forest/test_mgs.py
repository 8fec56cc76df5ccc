"""Tests for multi-grained scanning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro import telemetry
from repro.forest import MultiGrainScanner, mgs, sliding_windows

from .forest_oracle import mgs_transform_oracle


def traces_with_signal(n=60, H=12, W=10, rng=0):
    """Traces where a bright patch's intensity determines the target."""
    r = np.random.default_rng(rng)
    t = r.normal(0, 0.1, size=(n, H, W))
    y = r.uniform(0, 1, size=n)
    for i in range(n):
        t[i, 3:6, 2:5] += y[i]  # spatially localized signal
    return t, y


class TestSlidingWindows:
    def test_figure4_counts(self):
        """Figure 4's example: 29x20 trace, 5x5 window -> 25x16=400 windows."""
        t = np.zeros((2, 29, 20))
        out = sliding_windows(t, (5, 5))
        assert out.shape == (2, 400, 25)

    def test_full_window_single_position(self):
        t = np.arange(24, dtype=float).reshape(1, 4, 6)
        out = sliding_windows(t, (4, 6))
        assert out.shape == (1, 1, 24)
        assert np.array_equal(out[0, 0], t[0].ravel())

    def test_window_content_correct(self):
        t = np.arange(12, dtype=float).reshape(1, 3, 4)
        out = sliding_windows(t, (2, 2))
        # First window: rows 0-1, cols 0-1.
        assert np.array_equal(out[0, 0], [0, 1, 4, 5])

    def test_oversized_window_rejected(self):
        with pytest.raises(ValueError):
            sliding_windows(np.zeros((1, 3, 3)), (4, 2))

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError):
            sliding_windows(np.zeros((3, 3)), (2, 2))


class TestScanner:
    def test_transform_shape(self):
        t, y = traces_with_signal()
        sc = MultiGrainScanner(
            windows=[(3, 3), (5, 5)], n_estimators=5, rng=0
        ).fit(t, y)
        feats = sc.transform(t)
        expect = (12 - 3 + 1) * (10 - 3 + 1) + (12 - 5 + 1) * (10 - 5 + 1)
        assert feats.shape == (60, expect)
        assert sc.n_features() == expect

    def test_learns_localized_signal(self):
        t, y = traces_with_signal(n=80, rng=1)
        t_test, y_test = traces_with_signal(n=40, rng=2)
        sc = MultiGrainScanner(windows=[(3, 3)], n_estimators=10, rng=0).fit(t, y)
        feats = sc.transform(t_test)
        # Averaging features over the signal-bearing positions should
        # correlate strongly with the target.
        corr = np.corrcoef(feats.mean(axis=1), y_test)[0, 1]
        assert corr > 0.7

    def test_max_instances_subsampling(self):
        t, y = traces_with_signal(n=40)
        sc = MultiGrainScanner(
            windows=[(3, 3)], n_estimators=3, max_instances=100, rng=0
        )
        sc.fit(t, y)  # should not blow up despite 40*80=3200 instances
        assert sc.transform(t).shape[0] == 40

    def test_shape_mismatch_on_transform(self):
        t, y = traces_with_signal(n=20)
        sc = MultiGrainScanner(windows=[(3, 3)], n_estimators=2, rng=0).fit(t, y)
        with pytest.raises(ValueError):
            sc.transform(np.zeros((5, 9, 9)))

    def test_unfitted_raises(self):
        sc = MultiGrainScanner(windows=[(3, 3)])
        with pytest.raises(RuntimeError):
            sc.transform(np.zeros((1, 5, 5)))
        with pytest.raises(RuntimeError):
            sc.n_features()

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiGrainScanner(windows=[])
        with pytest.raises(ValueError):
            MultiGrainScanner(n_estimators=0)
        t, y = traces_with_signal(n=10)
        with pytest.raises(ValueError):
            MultiGrainScanner(windows=[(3, 3)]).fit(t, y[:5])


# -- distinct windows are predicted once -------------------------------------

#: Fitted trace shape and windows of the equivalence scanner: a 2-D
#: window, a window as tall as the trace, one as wide, and the whole trace.
SHAPE = (7, 9)
WINDOWS = [(2, 3), (7, 4), (3, 9), (7, 9)]


@pytest.fixture(scope="module")
def scanner():
    r = np.random.default_rng(3)
    t = r.normal(size=(30, *SHAPE))
    y = t[:, 2:5, 1:4].mean(axis=(1, 2)) + r.normal(0, 0.1, 30)
    # Many more than eight trees, so a one-row mean (NumPy sums it
    # pairwise) often rounds differently from a batch's (tree by tree).
    return MultiGrainScanner(
        windows=WINDOWS, n_estimators=30, max_depth=None, rng=0
    ).fit(t, y)


def _columns(r, H, kind):
    """A palette of distinct trace columns of one kind."""
    if kind == "signed_zero":
        return np.stack([np.zeros(H), np.full(H, -0.0), r.normal(size=H)])
    if kind == "nan":
        nan = r.normal(size=H)
        nan[r.integers(H)] = np.nan
        return np.stack([nan, r.normal(size=H), np.full(H, np.nan)])
    return r.normal(size=(r.integers(1, 4), H))


def _layout(r, W, kind, n_palette):
    """Which palette column fills each tick."""
    if kind == "equal":
        return np.zeros(W, dtype=int)
    if kind == "periodic":
        # Boosted ticks spread evenly, as the nominal traces place them.
        m = int(r.integers(0, W + 1))
        k = np.arange(W)
        tick = np.rint(k * W / max(m, 1)).astype(int)
        boosted = np.zeros(W, dtype=bool)
        boosted[tick[(k < m) & (tick < W)]] = True
        return boosted.astype(int)
    return r.integers(0, n_palette, size=W)


def _trace_batch(seed, n, kind, layout):
    r = np.random.default_rng(seed)
    H, W = SHAPE
    out = np.empty((n, H, W))
    for s in range(n):
        palette = _columns(r, H, kind)
        cols = _layout(r, W, layout, len(palette)) % len(palette)
        out[s] = palette[cols].T
    return out


def _assert_oracle(scanner, traces):
    got = scanner.transform(traces)
    want = mgs_transform_oracle(scanner, traces)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestDistinctWindows:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 4),
        kind=st.sampled_from(["normal", "nan", "signed_zero"]),
        layout=st.sampled_from(["equal", "periodic", "random"]),
    )
    def test_matches_all_positions_oracle(self, scanner, seed, n, kind, layout):
        _assert_oracle(scanner, _trace_batch(seed, n, kind, layout))

    def test_noisy_traces(self, scanner):
        traces = np.random.default_rng(5).normal(size=(6, *SHAPE))
        _assert_oracle(scanner, traces)

    def test_no_samples(self, scanner):
        out = scanner.transform(np.zeros((0, *SHAPE)))
        assert out.shape == (0, scanner.n_features())
        _assert_oracle(scanner, np.zeros((0, *SHAPE)))

    def test_one_distinct_window_in_a_full_height_scan(self, scanner):
        # One sample of equal columns: the (7, 4) window has six
        # positions and one distinct window, so a single row is predicted
        # for six the oracle predicts as a batch.
        for seed in range(10):
            column = np.random.default_rng(seed).normal(size=SHAPE[0])
            traces = np.repeat(column[None, :, None], SHAPE[1], axis=2)
            _assert_oracle(scanner, traces)

    def test_signed_zero_and_nan_columns_stay_apart(self, scanner):
        t = np.zeros((1, 2, 5))
        t[0, :, 1] = -0.0
        t[0, :, 2] = np.nan
        t[0, :, 3] = -0.0
        t[0, :, 4] = np.nan
        columns = t.view(np.int64).transpose(0, 2, 1)
        assert mgs._first_equal(columns).tolist() == [[0, 1, 2, 1, 2]]
        palette = np.stack([np.zeros(SHAPE[0]), np.full(SHAPE[0], -0.0)])
        traces = palette[[0, 1, 0, 1, 1, 0, 0, 1, 0]].T[None]
        _assert_oracle(scanner, traces)

    def test_first_equal(self):
        labels = np.array([[0, 1, 0, 1, 0, 5], [0, 0, 0, 0, 0, 0]])
        windows = sliding_window_view(labels, 2, axis=1)
        assert mgs._first_equal(windows).tolist() == [[0, 1, 0, 1, 4], [0] * 5]

    def test_blocks_bound_the_comparison(self, monkeypatch):
        items = np.random.default_rng(4).integers(0, 3, size=(6, 5, 2))
        whole = mgs._first_equal(items)
        # One sample per block gives the same answer.
        monkeypatch.setattr(mgs, "_BLOCK_ELEMENTS", 1)
        assert np.array_equal(mgs._first_equal(items), whole)
        assert np.array_equal(
            whole,
            [[next(k for k in range(5) if (s[k] == s[j]).all()) for j in range(5)]
             for s in items],
        )

    def test_counters_record_saved_rows(self, scanner):
        traces = _trace_batch(1, 3, "normal", "equal")
        reg = telemetry.configure()
        try:
            scanner.transform(traces)
        finally:
            telemetry.disable()
        H, W = SHAPE
        positions = sum((H - h + 1) * (W - w + 1) for h, w in WINDOWS)
        assert reg.counter("mgs.window_rows") == 3 * positions
        # Equal columns: one distinct window per row offset.
        distinct = sum(H - h + 1 for h, _ in WINDOWS)
        assert reg.counter("mgs.window_rows_predicted") == 3 * distinct
