"""Plain-Python reference for the solver kernel, used only by the tests.

This is the scalar loop form of the box-constrained Levenberg-damped
Gauss-Newton in `pseudolat._kernels`: one start at a time, explicit 3x3
normal equations and Gaussian elimination. It shares no code with the
vectorized kernel (its constants are copied), so the two are independent
implementations of the same algorithm and the kernel tests compare them.
"""

import numpy as np

_LAMBDA_MIN = 1e-12
_LAMBDA_MAX = 1e14
_DIST_FLOOR = 1e-12
_FACE_EPS = 1e-12
_REL_GRAD_TOL = 1e-6


def _lm_solve_batch_loops(anchors, d, starts, lo, hi, max_iter, grad_tol, step_tol, damping0):
    S = starts.shape[0]
    K = anchors.shape[0]
    out_p = np.empty((S, 3))
    out_f = np.empty(S)
    out_g = np.empty(S)
    out_conv = np.zeros(S, dtype=np.bool_)
    out_iters = np.zeros(S, dtype=np.int64)

    for s in range(S):
        p = np.empty(3)
        for i in range(3):
            p[i] = min(max(starts[s, i], lo[i]), hi[i])
        lam = damping0

        f = 0.0
        for k in range(K):
            dx = p[0] - anchors[k, 0]
            dy = p[1] - anchors[k, 1]
            dz = p[2] - anchors[k, 2]
            dist = max(np.sqrt(dx * dx + dy * dy + dz * dz), _DIST_FLOOR)
            rk = dist - d[k]
            f += rk * rk

        gm = np.inf
        it = 0
        while it < max_iter:
            A = np.zeros((3, 3))
            b = np.zeros(3)
            g = np.zeros(3)
            for k in range(K):
                dx = p[0] - anchors[k, 0]
                dy = p[1] - anchors[k, 1]
                dz = p[2] - anchors[k, 2]
                dist = max(np.sqrt(dx * dx + dy * dy + dz * dz), _DIST_FLOOR)
                rk = dist - d[k]
                jx, jy, jz = dx / dist, dy / dist, dz / dist
                A[0, 0] += jx * jx
                A[0, 1] += jx * jy
                A[0, 2] += jx * jz
                A[1, 1] += jy * jy
                A[1, 2] += jy * jz
                A[2, 2] += jz * jz
                b[0] -= jx * rk
                b[1] -= jy * rk
                b[2] -= jz * rk
                g[0] += 2.0 * jx * rk
                g[1] += 2.0 * jy * rk
                g[2] += 2.0 * jz * rk
            A[1, 0] = A[0, 1]
            A[2, 0] = A[0, 2]
            A[2, 1] = A[1, 2]

            frozen = np.zeros(3, dtype=np.bool_)
            gm = 0.0
            for i in range(3):
                if (
                    hi[i] - lo[i] == 0.0
                    or (p[i] <= lo[i] + _FACE_EPS and g[i] > 0)
                    or (p[i] >= hi[i] - _FACE_EPS and g[i] < 0)
                ):
                    frozen[i] = True
                else:
                    gm += g[i] * g[i]
            gm = np.sqrt(gm)
            if gm < grad_tol:
                break

            # Drop frozen axes from the damped normal equations.
            for i in range(3):
                if frozen[i]:
                    for j in range(3):
                        A[i, j] = 0.0
                        A[j, i] = 0.0
                    A[i, i] = 1.0
                    b[i] = 0.0
                else:
                    A[i, i] += lam
            delta = _solve3(A, b)

            pt = np.empty(3)
            step = 0.0
            for i in range(3):
                pt[i] = min(max(p[i] + delta[i], lo[i]), hi[i])
                step += (pt[i] - p[i]) ** 2
            step = np.sqrt(step)

            ft = 0.0
            for k in range(K):
                dx = pt[0] - anchors[k, 0]
                dy = pt[1] - anchors[k, 1]
                dz = pt[2] - anchors[k, 2]
                dist = max(np.sqrt(dx * dx + dy * dy + dz * dz), _DIST_FLOOR)
                rk = dist - d[k]
                ft += rk * rk

            if ft < f:
                for i in range(3):
                    p[i] = pt[i]
                f = ft
                lam = max(lam * 0.25, _LAMBDA_MIN)
                if step < step_tol:
                    break
            else:
                lam *= 4.0
                if lam > _LAMBDA_MAX:
                    break
            it += 1

        out_p[s] = p
        out_f[s] = f
        out_g[s] = gm
        # converged: the absolute tolerance, or the scale-aware bound
        # gm <= _REL_GRAD_TOL * 2 sqrt(K f) on ||2 J^T r||
        out_conv[s] = gm <= grad_tol or gm <= _REL_GRAD_TOL * 2.0 * np.sqrt(K * f)
        out_iters[s] = it
    return out_p, out_f, out_g, out_conv, out_iters


def _solve3(A, b):
    # Gaussian elimination with partial pivoting on a 3x3 system.
    M = np.empty((3, 4))
    for i in range(3):
        for j in range(3):
            M[i, j] = A[i, j]
        M[i, 3] = b[i]
    for col in range(3):
        prow = col
        best = abs(M[col, col])
        for row in range(col + 1, 3):
            if abs(M[row, col]) > best:
                best = abs(M[row, col])
                prow = row
        if prow != col:
            for j in range(4):
                tmp = M[col, j]
                M[col, j] = M[prow, j]
                M[prow, j] = tmp
        pivot = M[col, col]
        if pivot == 0.0:
            pivot = 1e-300
        for row in range(col + 1, 3):
            fac = M[row, col] / pivot
            for j in range(col, 4):
                M[row, j] -= fac * M[col, j]
    x = np.zeros(3)
    for i in range(2, -1, -1):
        acc = M[i, 3]
        for j in range(i + 1, 3):
            acc -= M[i, j] * x[j]
        pivot = M[i, i]
        if pivot == 0.0:
            pivot = 1e-300
        x[i] = acc / pivot
    return x

