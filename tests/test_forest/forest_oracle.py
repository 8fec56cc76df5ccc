"""Reference forest inference for equivalence tests.

``predict_oracle`` and ``predict_per_tree_oracle`` are the loop
:meth:`_BaseForest.predict` and ``predict_per_tree`` ran on large
batches before every forest predict went through the packed, chunked
traversal of :class:`repro.forest.PackedForest`: one
:meth:`RegressionTree.predict` call per tree, summed in tree order (or
stacked).  The others are the multi-grained scan over every window
position and the cascade's forest-by-forest predict, before repeated
windows were predicted once and each level became one pack.  The
production paths must reproduce all of them bit for bit.
"""

import numpy as np


def predict_oracle(forest, X) -> np.ndarray:
    """Forest mean, accumulated one tree at a time."""
    X = np.ascontiguousarray(X, dtype=float)
    out = np.zeros(X.shape[0])
    for t in forest.trees_:
        out += t.predict(X)
    return out / len(forest.trees_)


def predict_per_tree_oracle(forest, X) -> np.ndarray:
    """(n_trees, n_samples) matrix, one row per tree."""
    X = np.ascontiguousarray(X, dtype=float)
    return np.stack([t.predict(X) for t in forest.trees_])


def mgs_transform_oracle(scanner, traces) -> np.ndarray:
    """The all-positions multi-grained scan: every window position of
    every sample goes through its window forest, repeats included.
    :meth:`MultiGrainScanner.transform` predicts distinct windows only
    and must reproduce it bit for bit."""
    from repro.forest.mgs import sliding_windows

    traces = np.asarray(traces, dtype=float)
    feats = []
    for window, forest in zip(scanner.windows, scanner._forests):
        inst = sliding_windows(traces, window)
        n, p, d = inst.shape
        pred = forest.predict(inst.reshape(n * p, d))
        feats.append(pred.reshape(n, p))
    return np.concatenate(feats, axis=1)


def cascade_propagate_oracle(cascade, X) -> np.ndarray:
    """Raw features plus every level's concept columns, one forest
    predict at a time (the loop before each level became one pack)."""
    current = np.ascontiguousarray(X, dtype=float)
    for level in cascade._levels:
        concepts = np.stack([f.predict(current) for f in level.forests], axis=1)
        current = np.concatenate([current, concepts], axis=1)
    return current


def cascade_predict_oracle(cascade, X) -> np.ndarray:
    """Output-ensemble mean, summed one output forest at a time."""
    current = cascade_propagate_oracle(cascade, X)
    out = np.zeros(current.shape[0])
    for f in cascade._output_forests:
        out += f.predict(current)
    return out / len(cascade._output_forests)


def concept_features_oracle(cascade, X) -> np.ndarray:
    return cascade_propagate_oracle(cascade, X)[:, cascade._n_raw_features :]
