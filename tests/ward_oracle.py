"""Reference Ward linkage with a pairwise scan (test use only).

``reference_ward_linkage`` is ``tneda.ordering.ward_linkage`` as it was
before the closest pair was found with one ``argmin``: a Python double loop
over the active pairs keyed by (distance, lower id, higher id), then the
same Lance-Williams update. The property tests require the library to
reproduce its merges, heights and sizes exactly.
"""

import numpy as np


def reference_ward_linkage(dist):
    """(merges, heights, sizes) for a valid distance matrix with n >= 2."""
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    work = dist.copy()
    ids = list(range(n))
    sizes = {i: 1 for i in range(n)}
    merges = np.empty((n - 1, 2), dtype=np.int64)
    heights = np.empty(n - 1)
    out_sizes = np.empty(n - 1, dtype=np.int64)

    for step in range(n - 1):
        m = len(ids)
        best = None
        for a in range(m):
            for b in range(a + 1, m):
                key = (work[a, b], min(ids[a], ids[b]), max(ids[a], ids[b]))
                if best is None or key < best[0]:
                    best = (key, a, b)
        _, a, b = best
        id_a, id_b = ids[a], ids[b]
        size_a, size_b = sizes[id_a], sizes[id_b]
        new_id = n + step
        merges[step] = (min(id_a, id_b), max(id_a, id_b))
        heights[step] = work[a, b]
        out_sizes[step] = size_a + size_b
        sizes[new_id] = size_a + size_b

        keep = [k for k in range(m) if k not in (a, b)]
        if keep:
            keep_arr = np.array(keep)
            sz = np.array([sizes[ids[k]] for k in keep], dtype=np.float64)
            total = sz + size_a + size_b
            d2 = (
                (sz + size_a) * work[keep_arr, a] ** 2
                + (sz + size_b) * work[keep_arr, b] ** 2
                - sz * work[a, b] ** 2
            ) / total
            new_col = np.sqrt(np.maximum(d2, 0.0))
        rows = keep + [a]
        new_work = work[np.ix_(rows, rows)]
        if keep:
            new_work[-1, :-1] = new_col
            new_work[:-1, -1] = new_col
        new_work[-1, -1] = 0.0
        work = new_work
        ids = [ids[k] for k in keep] + [new_id]

    return merges, heights, out_sizes
