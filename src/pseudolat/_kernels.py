"""Hot solver kernel: box-constrained Levenberg-damped Gauss-Newton.

The batch solver minimizes sum_k (||p - a_k|| - d_k)^2 for B problems from
S start points each. It is the inner loop of every Monte-Carlo experiment,
so it is vectorized over flat lanes (problem, start): every numpy call
advances all running lanes one iteration, and a lane that converges or
stalls is written to the outputs by lane index and compacted out of the
working arrays, so finished starts stop costing work. It returns, per
problem and start: final point, residual, masked gradient norm, converged
flag, iteration count.

Each lane's arithmetic does not depend on which other lanes share its call:
the per-lane reductions run along contiguous axes of fixed length, so a
problem solved alone or inside any batch gives bit-identical outputs.

Bounds are handled with an active set: an axis is frozen when it is pinned
(lo == hi) or sits on a face with the descent direction pointing outward.
Frozen axes are dropped from the damped normal equations, steps are
clipped into the box, and convergence is judged on the masked gradient so
a minimum pressed against a face still converges. The damping update is
the one of Madsen, Nielsen & Tingleff, "Methods for Non-Linear Least
Squares Problems" (DTU, 2004), section 3.2.
"""

from __future__ import annotations

import numpy as np

# LM settings: iteration cap, absolute gradient and step tolerances, and
# initial damping.
_MAX_ITER = 200
_GRAD_TOL = 1e-9
_STEP_TOL = 1e-12
_DAMPING0 = 1e-3
# A start converged when its masked gradient norm meets _GRAD_TOL or is below
# this fraction of 2 sqrt(K f), which bounds ||2 J^T r|| because every row of
# J is a unit vector: noisy residuals put the absolute floor out of reach.
_REL_GRAD_TOL = 1e-6
_LAMBDA_MIN = 1e-12
_LAMBDA_MAX = 1e14
_DIST_FLOOR = 1e-12
_FACE_EPS = 1e-12

# Lanes per kernel call. Beyond ~200 lanes the per-call overhead is already
# amortized and larger calls only grow the working arrays (peak memory).
_LANE_CAP = 200


def backend() -> str:
    """Kernel implementation, recorded as provenance: always 'numpy'."""
    return "numpy"


def _residuals(P, anchors, d, prob):
    # Lane l belongs to problem prob[l]; the per-lane anchor rows are
    # gathered here so that only one transient copy of them exists.
    diff = P[:, None, :] - anchors[prob]  # (L, K, 3)
    dist = np.maximum(np.sqrt(np.sum(diff * diff, axis=2)), _DIST_FLOOR)
    r = dist - d[prob]
    return diff, dist, r, np.sum(r * r, axis=1)


def _frozen_axes(P, g, lo, hi):
    pinned = (hi - lo) == 0.0
    at_lo = (P <= lo + _FACE_EPS) & (g > 0)
    at_hi = (P >= hi - _FACE_EPS) & (g < 0)
    return pinned[None, :] | at_lo | at_hi


def _lm_solve_lanes(anchors, d, starts, lo, hi):
    """Solve every start of every problem: anchors (B, K, 3), d (B, K),
    starts (B, S, 3); outputs are flat over lanes (problem, start)."""
    B, S = starts.shape[:2]
    prob = np.repeat(np.arange(B), S)  # lane = problem * S + start
    P = np.clip(starts.reshape(-1, 3), lo, hi)
    L = P.shape[0]
    lam = np.full(L, _DAMPING0)
    iters = np.zeros(L, dtype=np.int64)
    lane = np.arange(L)

    out_p = np.empty((L, 3))
    out_f = np.empty(L)
    out_g = np.full(L, np.inf)
    out_iters = np.zeros(L, dtype=np.int64)

    diff, dist, r, f = _residuals(P, anchors, d, prob)
    gm = np.full(L, np.inf)
    eye = np.eye(3)

    def retire(done):
        # Write finished lanes out by lane index, keep the rest.
        nonlocal prob, P, f, diff, dist, r, lam, iters, lane, gm
        idx = lane[done]
        out_p[idx] = P[done]
        out_f[idx] = f[done]
        out_g[idx] = gm[done]
        out_iters[idx] = iters[done]
        keep = ~done
        # one array at a time, so each old copy is freed before the next
        diff = diff[keep]
        dist, r = dist[keep], r[keep]
        P, f, lam, iters, lane, gm = P[keep], f[keep], lam[keep], iters[keep], lane[keep], gm[keep]
        prob = prob[keep]
        return keep

    for _ in range(_MAX_ITER):
        if lane.size == 0:
            break
        J = diff / dist[:, :, None]  # (L, K, 3)
        g = 2.0 * np.einsum("ski,sk->si", J, r)
        frozen = _frozen_axes(P, g, lo, hi)
        gm = np.sqrt(np.sum(np.where(frozen, 0.0, g) ** 2, axis=1))
        newly = gm < _GRAD_TOL
        if np.any(newly):
            keep = retire(newly)
            if lane.size == 0:
                break
            J, frozen = J[keep], frozen[keep]

        free = ~frozen
        A = np.einsum("ski,skj->sij", J, J)
        A = A * free[:, :, None] * free[:, None, :]
        A += np.where(frozen, 1.0, 0.0)[:, :, None] * eye[None, :, :]
        A += lam[:, None, None] * eye[None, :, :] * free[:, :, None] * free[:, None, :]
        b = -np.einsum("ski,sk->si", J, r) * free
        del J  # free it before the trial point's residuals are built
        delta = np.linalg.solve(A, b[:, :, None])[:, :, 0]
        Pt = np.clip(P + delta, lo, hi)
        step = np.sqrt(np.sum((Pt - P) ** 2, axis=1))

        difft, distt, rt, ft = _residuals(Pt, anchors, d, prob)
        accept = ft < f
        P = np.where(accept[:, None], Pt, P)
        f = np.where(accept, ft, f)
        np.copyto(diff, difft, where=accept[:, None, None])
        np.copyto(dist, distt, where=accept[:, None])
        np.copyto(r, rt, where=accept[:, None])
        del difft, distt, rt
        lam = np.where(accept, np.maximum(lam * 0.25, _LAMBDA_MIN), lam * 4.0)

        stalled = (accept & (step < _STEP_TOL)) | (lam > _LAMBDA_MAX)
        iters += ~stalled
        if np.any(stalled):
            retire(stalled)

    retire(np.ones(lane.size, dtype=np.bool_))
    conv = (out_g <= _GRAD_TOL) | (out_g <= _REL_GRAD_TOL * 2.0 * np.sqrt(anchors.shape[1] * out_f))
    return out_p, out_f, out_g, conv, out_iters


def lm_solve_batch(anchors, d, starts, lo, hi):
    """Run the damped Gauss-Newton solver from every start of every problem.

    ``anchors`` is (K, 3) for one problem or (B, K, 3) for B problems with
    ``d`` (K,) or (B, K); ``starts`` is (S, 3), shared by all problems, or
    (B, S, 3). Outputs are indexed [start] for one problem and
    [problem, start] otherwise. At most ``_LANE_CAP`` lanes run per kernel pass.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    single = anchors.ndim == 2
    anchors = np.ascontiguousarray(anchors[None] if single else anchors)
    d = np.ascontiguousarray(d, dtype=np.float64).reshape(anchors.shape[:2])
    starts = np.asarray(starts, dtype=np.float64)
    B, S = anchors.shape[0], starts.shape[-2]
    starts = np.ascontiguousarray(np.broadcast_to(starts, (B, S, 3)))
    lo = np.ascontiguousarray(lo, dtype=np.float64)
    hi = np.ascontiguousarray(hi, dtype=np.float64)

    per_call = max(1, _LANE_CAP // S)
    parts = []
    # an empty batch still makes one (empty) pass so the outputs keep their shapes
    for b0 in range(0, max(B, 1), per_call):
        sl = slice(b0, b0 + per_call)
        parts.append(_lm_solve_lanes(anchors[sl], d[sl], starts[sl], lo, hi))
    outs = [np.concatenate(arrays) for arrays in zip(*parts)]
    shape = (S,) if single else (B, S)
    return tuple(o.reshape(shape + o.shape[1:]) for o in outs)
