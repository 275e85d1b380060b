"""Pareto optimality and hypervolume machinery (paper Sec. II-C, IV-B).

All objectives are minimized.  The Pareto hypervolume of a front ``P``
w.r.t. a reference point ``vref`` (dominated by every front point) is
the volume of the region dominated by ``P`` and dominating ``vref`` —
paper Eq. (6).  The acquisition function needs, per candidate, the
*hypervolume improvement* of thousands of Monte-Carlo objective
samples, so this module also provides a disjoint box decomposition of
the dominated region that turns batched HVI into a few vectorized
numpy reductions.
"""

from __future__ import annotations

import numpy as np


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True if objective vector ``a`` dominates ``b`` (Definition 1)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def pareto_mask(Y: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows of ``Y`` (minimization).

    Duplicate rows are all kept if non-dominated.  Uses the compacting
    sweep: each surviving pivot eliminates everything it dominates in
    one vectorized pass, so the cost is O(n × survivors) instead of a
    Python loop over all n rows — the difference between milliseconds
    and seconds on whole-design-space sweeps (tens of thousands of
    rows with fronts of tens of points).  Pivots are visited in stable
    objective-sum order: a row with a small sum is likelier to
    dominate many, so the candidate set shrinks fastest.  The mask is
    the exact non-dominated set whatever the order.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = Y.shape[0]
    if n <= 1:
        return np.ones(n, dtype=bool)
    survivors = np.argsort(Y.sum(axis=1), kind="stable")
    candidates = Y[survivors]
    i = 0
    while i < candidates.shape[0]:
        p = candidates[i]
        dominated = np.all(p <= candidates, axis=1) & np.any(
            p < candidates, axis=1
        )
        if dominated.any():
            keep = ~dominated
            candidates = candidates[keep]
            survivors = survivors[keep]
            # The pivot survives (it never strictly dominates itself);
            # its new position is the number of kept rows before it.
            i = int(np.count_nonzero(keep[:i])) + 1
        else:
            i += 1
    mask = np.zeros(n, dtype=bool)
    mask[survivors] = True
    return mask


def pareto_front(Y: np.ndarray) -> np.ndarray:
    """Unique non-dominated rows, lexicographically sorted."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    front = np.unique(Y[pareto_mask(Y)], axis=0)
    return front


def default_reference(Y: np.ndarray, margin: float = 1.1) -> np.ndarray:
    """Reference point ``vref``: component-wise worst value × margin.

    The paper uses "extremely large values of the multiple design
    objectives"; a fixed margin above the observed worst keeps volumes
    comparable across optimization steps.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    worst = Y.max(axis=0)
    span = np.where(worst > 0, worst * margin, worst * (2.0 - margin))
    # Guard against degenerate zero-valued objectives.
    return np.where(np.isclose(span, worst), worst + 1.0, span)


# ----------------------------------------------------------------------
# exact hypervolume
# ----------------------------------------------------------------------


def hypervolume(front: np.ndarray, ref: np.ndarray) -> float:
    """Exact Pareto hypervolume of a point set w.r.t. ``ref`` (Eq. (6)).

    Points at or beyond ``ref`` in any coordinate contribute only their
    clipped part.  Dispatches on dimension: closed form for M=1/2, sweep
    for M=3; like :func:`dominated_boxes`, higher M is not supported.
    """
    front = np.atleast_2d(np.asarray(front, dtype=float))
    ref = np.asarray(ref, dtype=float)
    if front.shape[0] == 0:
        return 0.0
    if front.shape[1] != ref.shape[0]:
        raise ValueError("front and reference dimensionality mismatch")
    front = np.minimum(front, ref)  # clip to the reference box
    keep = pareto_mask(front)
    front = np.unique(front[keep], axis=0)
    front = front[np.all(front < ref, axis=1)]
    if front.shape[0] == 0:
        return 0.0
    m = front.shape[1]
    if m == 1:
        return float(ref[0] - front[:, 0].min())
    if m == 2:
        return _hv2d(front, ref)
    if m == 3:
        return _hv3d(front, ref)
    raise NotImplementedError("hypervolume supports up to 3 objectives")


def _hv2d(front: np.ndarray, ref: np.ndarray) -> float:
    """2-D staircase hypervolume (front already clean & clipped)."""
    order = np.argsort(front[:, 0])
    pts = front[order]
    volume = 0.0
    prev_y = ref[1]
    for x, y in pts:
        volume += (ref[0] - x) * (prev_y - y)
        prev_y = y
    return float(volume)


def _staircase_insert(stair: np.ndarray, x: float, y: float) -> np.ndarray:
    """Insert one point into a clean 2-D staircase (minimization).

    ``stair`` has strictly increasing x and strictly decreasing y — the
    canonical (lexicographically sorted, deduplicated) form of a 2-D
    Pareto front.  Returns the staircase with ``(x, y)`` merged in:
    unchanged if the point is dominated by (or equal to) a staircase
    point, otherwise with the point inserted and everything it
    dominates removed.  O(k) per insert, so a z-sweep maintains its
    2-D front incrementally instead of re-filtering the whole prefix
    per slab.
    """
    if stair.shape[0] == 0:
        return np.array([[x, y]])
    xs = stair[:, 0]
    j = int(np.searchsorted(xs, x, side="right")) - 1  # last x' <= x
    if j >= 0 and stair[j, 1] <= y:
        return stair  # dominated by (or duplicate of) stair[j]
    i = int(np.searchsorted(xs, x, side="left"))
    # Points at i.. have x' >= x and descending y; the ones the new
    # point dominates (y' >= y) form the leading run of that suffix.
    t = int(np.count_nonzero(stair[i:, 1] >= y))
    return np.concatenate([stair[:i], np.array([[x, y]]), stair[i + t:]])


def _hv3d(front: np.ndarray, ref: np.ndarray) -> float:
    """3-D hypervolume by sweeping slabs along the third axis.

    The 2-D staircase of the swept prefix is maintained incrementally
    (one O(k) insert per slab) rather than re-derived per slab with a
    quadratic non-domination filter; the slab areas — and hence the
    summed volume — are bit-for-bit what the per-slab refilter produced.
    """
    order = np.argsort(front[:, 2])
    pts = front[order]
    zs = pts[:, 2]
    boundaries = np.append(zs, ref[2])
    volume = 0.0
    stair = np.empty((0, 2))
    for k in range(len(pts)):
        stair = _staircase_insert(stair, pts[k, 0], pts[k, 1])
        dz = boundaries[k + 1] - boundaries[k]
        if dz <= 0:
            continue
        volume += _hv2d(stair, ref[:2]) * dz
    return float(volume)


# ----------------------------------------------------------------------
# disjoint box decomposition of the dominated region
# ----------------------------------------------------------------------


def dominated_boxes(front: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Disjoint boxes whose union is the region dominated by ``front``
    (and dominating ``ref``).

    Returns an array of shape (n_boxes, 2, M): ``boxes[b, 0]`` is the
    lower corner, ``boxes[b, 1]`` the upper corner.  Supports M in
    {1, 2, 3}; the sum of box volumes equals :func:`hypervolume`.

    This powers the batched Monte-Carlo EIPV estimator and is the
    reproduction of the paper's grid-cell decomposition (Fig. 6): the
    *non-dominated* cells are the complement of these boxes within the
    reference box.
    """
    front = np.atleast_2d(np.asarray(front, dtype=float))
    ref = np.asarray(ref, dtype=float)
    front = np.minimum(front, ref)
    keep = pareto_mask(front)
    front = np.unique(front[keep], axis=0)
    front = front[np.all(front < ref, axis=1)]
    m = ref.shape[0]
    if front.shape[0] == 0:
        return np.empty((0, 2, m))
    if m == 1:
        return np.array([[[front[:, 0].min()], [ref[0]]]])
    if m == 2:
        return _boxes2d(front, ref)
    if m == 3:
        return _boxes3d(front, ref)
    raise NotImplementedError("dominated_boxes supports up to 3 objectives")


def _boxes2d(front: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Disjoint vertical strips under the 2-D staircase."""
    order = np.argsort(front[:, 0])
    pts = front[order]
    # Strip k spans x in [x_k, x_{k+1}) and y in [min of first k+1 ys, ref):
    # on a clean front y decreases with x, so that minimum is just y_k.
    boxes = []
    best_y = ref[1]
    for k, (x, y) in enumerate(pts):
        best_y = min(best_y, y)
        x_hi = pts[k + 1, 0] if k + 1 < len(pts) else ref[0]
        if x_hi > x and ref[1] > best_y:
            boxes.append([[x, best_y], [x_hi, ref[1]]])
    return np.array(boxes) if boxes else np.empty((0, 2, 2))


def _boxes3d(front: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Disjoint boxes: z-slabs × 2-D staircase strips.

    Maintains the swept prefix's 2-D staircase incrementally (see
    :func:`_staircase_insert`) instead of re-filtering per slab.
    """
    order = np.argsort(front[:, 2])
    pts = front[order]
    boundaries = np.append(pts[:, 2], ref[2])
    boxes = []
    stair = np.empty((0, 2))
    for k in range(len(pts)):
        stair = _staircase_insert(stair, pts[k, 0], pts[k, 1])
        z_lo, z_hi = boundaries[k], boundaries[k + 1]
        if z_hi <= z_lo:
            continue
        strips = _boxes2d(stair, ref[:2])
        for (lo, hi) in strips:
            boxes.append([[lo[0], lo[1], z_lo], [hi[0], hi[1], z_hi]])
    return np.array(boxes) if boxes else np.empty((0, 2, 3))


# ----------------------------------------------------------------------
# hypervolume improvement
# ----------------------------------------------------------------------


def hvi_batch(
    samples: np.ndarray, front: np.ndarray, ref: np.ndarray,
    boxes: np.ndarray | None = None,
) -> np.ndarray:
    """Hypervolume improvement of many points at once (vectorized).

    ``samples`` has shape (n, M).  Uses the identity

        HVI(y) = vol(box[y, ref]) − vol(box[y, ref] ∩ dominated(front)),

    with the dominated region pre-decomposed into disjoint boxes.  The
    intersection volumes are built one contiguous (n × n_boxes) plane
    per objective — the clipped edge length along that axis — and
    multiplied into one accumulator in objective order, so no
    (n × n_boxes × M) array is ever materialized and the arithmetic is
    element for element that of a product over the last axis.  Pass
    ``boxes`` to reuse a decomposition across calls within one
    optimization step.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    ref = np.asarray(ref, dtype=float)
    if boxes is None:
        boxes = dominated_boxes(front, ref)
    edge = np.clip(ref[None, :] - samples, 0.0, None)
    own = _prod_last_axis(edge)
    if boxes.shape[0] == 0:
        return own
    cols = np.ascontiguousarray(samples.T)  # (M, n)
    lows = np.ascontiguousarray(boxes[:, 0, :].T)  # (M, B)
    highs = np.ascontiguousarray(boxes[:, 1, :].T)
    # Intersection of each box [low, high] with the sample's own box
    # [y, ref]; box highs never exceed ref by construction.
    inter = np.empty((samples.shape[0], boxes.shape[0]))
    plane = np.empty_like(inter)
    for k in range(cols.shape[0]):
        out = inter if k == 0 else plane
        np.maximum(cols[k][:, None], lows[k][None, :], out=out)
        np.subtract(highs[k][None, :], out, out=out)
        np.clip(out, 0.0, None, out=out)
        if k:
            np.multiply(inter, plane, out=inter)
    return np.maximum(own - inter.sum(axis=1), 0.0)


def _prod_last_axis(a: np.ndarray) -> np.ndarray:
    """Sequential product over the last axis.

    Same reduction order as ``np.prod`` (so results are bitwise
    identical) but much faster for the tiny M of this problem, where
    ``np.prod``'s generic reduction dominates the hot acquisition loop.
    """
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = out * a[..., k]
    return out
