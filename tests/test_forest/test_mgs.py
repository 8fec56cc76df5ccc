"""Tests for multi-grained scanning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        label, _ = mgs._content_groups(t.view(np.uint64)[0])
        assert _partition(label) == [[0], [1, 3], [2, 4]]
        palette = np.stack([np.zeros(SHAPE[0]), np.full(SHAPE[0], -0.0)])
        traces = palette[[0, 1, 0, 1, 1, 0, 0, 1, 0]].T[None]
        _assert_oracle(scanner, traces)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        kind=st.sampled_from(["alphabet", "periodic_rows", "shared_rows"]),
    )
    def test_segments_repeating_across_columns_and_offsets(
        self, scanner, seed, n, kind
    ):
        traces = _repeating_segments(seed, n, kind)
        reg = telemetry.configure()
        try:
            _assert_oracle(scanner, traces)
        finally:
            telemetry.disable()
        # Each distinct window content is predicted once across the
        # call, or every window when no column repeats.
        H, W = SHAPE
        columns = {c.tobytes() for c in traces.transpose(0, 2, 1).reshape(-1, H)}
        repeats = len(columns) < n * W
        want = 0
        for h, w in WINDOWS:
            rows = sliding_windows(traces, (h, w)).reshape(-1, h * w)
            want += len({row.tobytes() for row in rows}) if repeats else len(rows)
        assert reg.counter("mgs.window_rows_predicted") == want

    def test_every_hash_colliding_keeps_the_oracle(self, scanner, monkeypatch):
        monkeypatch.setattr(
            mgs, "_HASH_MULTIPLIERS", np.zeros_like(mgs._HASH_MULTIPLIERS)
        )
        for seed, kind in enumerate(["alphabet", "periodic_rows", "shared_rows"]):
            _assert_oracle(scanner, _repeating_segments(seed, 3, kind))
        _assert_oracle(scanner, _trace_batch(7, 4, "signed_zero", "random"))
        _assert_oracle(scanner, _trace_batch(8, 4, "nan", "periodic"))

    def test_noisy_traces_predict_every_window(self):
        t, y = traces_with_signal(n=64, H=20, W=12)
        reg = telemetry.configure()
        try:
            MultiGrainScanner(
                windows=[(5, 5), (10, 10)], n_estimators=2, rng=0
            ).fit_transform(t, y)
        finally:
            telemetry.disable()
        rows = reg.counter("mgs.window_rows")
        assert rows == 64 * (16 * 8 + 11 * 3)
        assert reg.counter("mgs.window_rows_predicted") == rows


def _partition(label) -> list[list[int]]:
    """The groups of a labelling, as sorted member lists."""
    groups: dict[int, list[int]] = {}
    for i, g in enumerate(np.asarray(label).tolist()):
        groups.setdefault(g, []).append(i)
    return sorted(groups.values())


def _key_partition(parts) -> list[list[int]]:
    keys = list(zip(*(np.asarray(p).tolist() for p in parts)))
    return _partition([keys.index(k) for k in keys])


def _repeating_segments(seed, n, kind):
    """Traces whose row segments repeat across distinct columns and
    across row offsets, as in nominal traces whose columns differ only
    in a few boost-related counters."""
    r = np.random.default_rng(seed)
    H, W = SHAPE
    if kind == "alphabet":
        # Two or three values: columns differ, short segments repeat.
        values = r.normal(size=r.integers(2, 4))
        return values[r.integers(0, values.shape[0], size=(n, H, W))]
    if kind == "periodic_rows":
        # Each column cycles through a short period, from its own phase.
        period = int(r.integers(1, 4))
        values = r.normal(size=(n, period))
        phase = r.integers(0, 3, size=(n, 1, W))
        rows = (np.arange(H)[None, :, None] + phase) % period
        return values[np.arange(n)[:, None, None], rows]
    # One base column per sample; each tick overwrites a few rows.
    out = np.repeat(r.normal(size=(n, H, 1)), W, axis=2)
    for s in range(n):
        for j in range(W):
            changed = r.integers(0, H, size=r.integers(0, 3))
            out[s, changed, j] = r.choice([1.0, 2.0, -0.0], size=changed.shape[0])
    return out


class TestContentGroups:
    def test_by_hand(self):
        # Six keys of two parts, one key per column.
        parts = np.array([[1, 3, 1, 3, 1, 0], [2, 4, 2, 5, 2, 0]], dtype=np.uint64)
        label, first = mgs._content_groups(parts)
        assert _partition(label) == [[0, 2, 4], [1], [3], [5]]
        # Groups are numbered in the order of their representatives.
        assert first.tolist() == sorted(first.tolist())
        assert label[first].tolist() == [0, 1, 2, 3]

    def test_no_keys(self):
        label, first = mgs._content_groups(np.zeros((3, 0), dtype=np.uint64))
        assert label.shape == first.shape == (0,)

    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.lists(st.integers(0, 1), min_size=6, max_size=6), max_size=40
        ),
        high=st.booleans(),
    )
    def test_labels_equal_exactly_when_contents_do(self, keys, high):
        # ``high`` puts the differences in the top bits, as the
        # exponents of float keys do; a hash that ignored them would
        # collide often, and a collision splits a group.
        keys = np.array(keys, dtype=np.uint64).reshape(-1, 6)
        if high:
            keys <<= np.uint64(60)
        parts = keys.T
        label, first = mgs._content_groups(parts)
        assert _partition(label) == _key_partition(parts)
        assert label[first].tolist() == list(range(first.shape[0]))

    def test_blocks_of_parts_give_the_same_groups(self, monkeypatch):
        keys = np.random.default_rng(7).integers(0, 2, size=(9, 300))
        keys = keys.astype(np.uint64) << np.uint64(60)
        whole = mgs._content_groups(keys)
        # One part per block, then blocks that do not divide the parts.
        for elements in (1, 4 * 300):
            monkeypatch.setattr(mgs, "_KEY_BLOCK_ELEMENTS", elements)
            label, first = mgs._content_groups(keys)
            assert np.array_equal(label, whole[0])
            assert np.array_equal(first, whole[1])
        assert _partition(whole[0]) == _key_partition(keys)

    def test_colliding_hashes_split_never_merge(self, monkeypatch):
        monkeypatch.setattr(
            mgs, "_HASH_MULTIPLIERS", np.zeros_like(mgs._HASH_MULTIPLIERS)
        )
        keys = np.random.default_rng(6).integers(0, 3, size=(50, 2))
        keys = keys.astype(np.uint64)
        parts = keys.T
        label, first = mgs._content_groups(parts)
        assert label[first].tolist() == list(range(first.shape[0]))
        # Every key shares a hash: each group holds equal keys only, and
        # the keys equal to the one representative all stay together.
        for group in _partition(label):
            assert (keys[group] == keys[group[0]]).all()
        assert len(_partition(label)) >= len(_key_partition(parts))

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
