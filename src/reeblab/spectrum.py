"""Asymptotic operator along a closed orbit: discretization and spectrum.

In a symplectic trivialization the operator is L = -J0 d/dt - S(t) with
S(t) = -J0 dPhi/dt Phi(t)^{-1} symmetric, acting on loops of the plane;
``build_S`` takes S from exact logarithms of the path's one-step transfers.
Discretized with an antisymmetric centered periodic difference, the matrix
is exactly symmetric; its eigenvalues are real, each eigensection carries a
winding number, windings are monotone in the eigenvalue and each integer is
attained exactly twice.  The generalized index is read off the windings of
the extremal eigenvalues around zero: mu = 2 wind(nu_neg) + p with
p = wind(nu_pos) - wind(nu_neg) in {0, 1}, undefined if 0 is an eigenvalue.

For constant S the discrete operator is block-circulant: the real Fourier
basis splits it into one 4 x 4 block per mode and two 2 x 2 blocks, and it
is solved mode by mode by one batched LAPACK call.  When S varies, the
dense symmetric eigenproblem is solved by LAPACK (``np.linalg.eigh``
behind ``jacobi.jacobi_eigh``); for constant S that dense solve is the
tests' oracle for the mode route, and ``fourier_oracle_spectrum`` its
closed form.  Neither route fixes a basis inside a degenerate eigenspace.
The clusters that hold the difference's sawtooth null mode are rotated to a
deterministic basis before windings are read, so the smooth member keeps
its winding; every other cluster keeps the solver's basis, since its
sections share one winding and any mixture of them winds alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .czindex import CZResult
from .errors import BandTooNarrow, DegenerateOrbit, NoConvergence, SamplingTooCoarse
from .jacobi import jacobi_eigh
from .model import J0, SymplecticPath, winding_turns


@dataclass
class OperatorModel:
    """S(t) of the operator sampled on a uniform periodic grid, and S itself
    if constant: ValueError unless finite and exactly symmetric."""

    S: np.ndarray  # (n, 2, 2)
    tau: np.ndarray
    period: float
    constant_S: Optional[np.ndarray] = None

    def __post_init__(self):
        for s in [s for s in (self.S, self.constant_S) if s is not None]:
            if not np.isfinite(s).all():
                raise ValueError(f"S has {np.sum(~np.isfinite(s))} non-finite entries")
            asym = float(np.max(np.abs(s - np.swapaxes(s, -1, -2))))
            if asym:
                raise ValueError(f"S is not symmetric (defect {asym:g})")

    @property
    def n_nodes(self) -> int:
        return len(self.tau)


@dataclass
class SpectrumReport:
    """Trusted central band of the discrete spectrum with windings."""

    eigenvalues: np.ndarray
    windings: np.ndarray
    eigenvectors: np.ndarray  # (n_nodes, 2, n_kept)
    nu_neg: float
    nu_pos: float
    wind_neg: int
    wind_pos: int
    p: int
    mu_tilde_frame: int
    n_nodes: int
    n_excluded: int
    all_eigenvalues: np.ndarray
    gap: float


def _periodic_d4(n: int) -> np.ndarray:
    """Fourth-order centered periodic differentiation matrix (antisymmetric):
    u' ~ [8(u_{j+1} - u_{j-1}) - (u_{j+2} - u_{j-2})] / (12 h)."""
    h = 1.0 / n
    d = np.zeros((n, n))
    idx = np.arange(n)
    d[idx, (idx + 1) % n] += 8.0
    d[idx, (idx - 1) % n] -= 8.0
    d[idx, (idx + 2) % n] -= 1.0
    d[idx, (idx - 2) % n] += 1.0
    return d / (12.0 * h)


def d4_symbol(n_mode, n_nodes: int):
    """Exact symbol of the discrete derivative on mode exp(2 pi i n t)."""
    h = 1.0 / n_nodes
    th = 2.0 * np.pi * np.asarray(n_mode, float) * h
    return (8.0 * np.sin(th) - np.sin(2.0 * th)) / (6.0 * h)


def build_S(path: SymplecticPath) -> OperatorModel:
    """Coefficient path S = -J0 dPhi/dt Phi^{-1} of the operator.

    A path with a constant generator A gives the closed form -J0 T A; any
    other the exact logarithms X_j = theta / sin(theta) (T_j - cos(theta) I)
    of its periodic transfers T_j = Phi_{j+1} Phi_j^{-1}, cos(theta) =
    tr T_j / 2, and S_j = -n J0 (X_{j-1} + X_j) / 2: symmetric as X_j is
    traceless, exact for a constant generator.  Raises DegenerateFrame if a
    determinant is off 1 by over 1e-7, SamplingTooCoarse if a step turns by
    pi/2 or more.
    """
    tau = path.tau
    n = len(tau) - 1  # drop duplicate closing node for the periodic grid
    if path.constant_generator is not None:
        s = -J0 @ (path.period * path.constant_generator)
        return OperatorModel(S=np.broadcast_to(s, (n, 2, 2)).copy(),
                             tau=np.arange(n) / n, period=path.period,
                             constant_S=s)
    if not np.allclose(np.diff(tau), tau[1] - tau[0], rtol=1e-9, atol=1e-12):
        raise ValueError("path nodes must be uniform for differencing (spacing "
                         f"{np.min(np.diff(tau)):g} to {np.max(np.diff(tau)):g})")
    path.check_symplectic()
    step = path.mats[1:] @ np.linalg.inv(path.mats[:-1])
    half = 0.5 * (step[:, 0, 0] + step[:, 1, 1])
    if np.min(half) <= 0.0:
        raise SamplingTooCoarse(f"a step turns by pi/2 or more (half-trace "
                                f"{np.min(half):g} at step {np.argmin(half)})")
    scale = 0.5 * n * (1.0 / np.sinc(np.arccos(half + 0j) / np.pi)).real
    # X11 = -X00 in X = scale (T - half I): -J0 X = [[X10, -X00], [-X00, -X01]]
    x = scale * np.array([0.5 * (step[:, 0, 0] - step[:, 1, 1]),
                          step[:, 0, 1], step[:, 1, 0]])
    x00, x01, x10 = x + np.roll(x, 1, axis=1)
    s = np.stack([x10, -x00, -x00, -x01], axis=1).reshape(n, 2, 2)
    return OperatorModel(S=s, tau=np.arange(n) / n, period=path.period)


def _resample_S(op: OperatorModel, n_nodes: int) -> np.ndarray:
    if n_nodes == op.n_nodes:
        return op.S
    if op.constant_S is not None:
        return np.broadcast_to(op.constant_S, (n_nodes, 2, 2)).copy()
    # periodic linear interpolation
    pos = np.arange(n_nodes) / n_nodes * op.n_nodes
    i0 = np.floor(pos).astype(int) % op.n_nodes
    i1 = (i0 + 1) % op.n_nodes
    w = (pos - np.floor(pos))[:, None, None]
    return (1.0 - w) * op.S[i0] + w * op.S[i1]


def _check_n_nodes(n_nodes: int) -> None:
    if n_nodes % 2 or n_nodes < 128:
        raise ValueError(f"n_nodes must be even and at least 128, got {n_nodes}")


def assemble_matrix(op: OperatorModel, n_nodes: int) -> np.ndarray:
    """Exactly symmetric discretization -kron(D, J0) - blockdiag(S)."""
    _check_n_nodes(n_nodes)
    s = _resample_S(op, n_nodes)
    d = _periodic_d4(n_nodes)
    m = -np.kron(d, J0)
    idx = 2 * np.arange(n_nodes)
    for a in range(2):
        for b in range(2):
            m[idx + a, idx + b] -= s[:, a, b]
    return m


def _mode_eigh(s: np.ndarray, n_nodes: int):
    """Full eigendecomposition of assemble_matrix for constant S, mode by mode.

    In the real Fourier basis sqrt(2/n) (cos, sin)(2 pi m j / n) of mode
    m = 1 .. n/2 - 1 the operator is the 4 x 4 block
    [[-S, -sigma_m J0], [sigma_m J0, -S]], sigma_m = d4_symbol(m, n); on
    the constant and the alternating mode the stencil vanishes and it is
    -S.  The blocks go to LAPACK in one batched call and the eigenvectors
    are mapped back onto the nodes.  Returns (w, V) laid out as
    jacobi_eigh returns them for the dense matrix, eigenvalues ascending by
    a stable sort, for an S that ``OperatorModel`` has checked.
    """
    _check_n_nodes(n_nodes)
    modes = np.arange(1, n_nodes // 2)
    sig = d4_symbol(modes, n_nodes)[:, None, None]
    blocks = np.empty((len(modes), 4, 4))
    blocks[:, :2, :2] = blocks[:, 2:, 2:] = -s
    blocks[:, :2, 2:] = -sig * J0
    blocks[:, 2:, :2] = sig * J0
    try:
        w_m, u_m = np.linalg.eigh(blocks)
        w_0, u_0 = np.linalg.eigh(-s)  # constant and alternating modes
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigh failed: {exc}") from exc
    ang = 2.0 * np.pi / n_nodes * (np.outer(np.arange(n_nodes), modes) % n_nodes)
    scale = np.sqrt(2.0 / n_nodes)
    cos = (scale * np.cos(ang))[:, None, :, None]
    sin = (scale * np.sin(ang))[:, None, :, None]
    # v[j, a, m, c] = cos_m(j) u_m[a, c] + sin_m(j) u_m[2 + a, c]
    v_m = cos * u_m[:, :2].transpose(1, 0, 2) + sin * u_m[:, 2:].transpose(1, 0, 2)
    flat = np.tile(u_0, (n_nodes, 1)) / np.sqrt(n_nodes)
    sign = np.repeat((-1.0) ** np.arange(n_nodes), 2)[:, None]
    w = np.concatenate([w_0, w_m.ravel(), w_0])
    v = np.hstack([flat, v_m.reshape(2 * n_nodes, -1), sign * flat])
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def _eigenpairs(op: OperatorModel, n_nodes: int):
    """(w, V) of the discrete operator: mode by mode for constant S, the
    dense LAPACK solve of the assembled matrix otherwise."""
    if op.constant_S is not None:
        return _mode_eigh(op.constant_S, n_nodes)
    return jacobi_eigh(assemble_matrix(op, n_nodes))


def _zero_tol(w: np.ndarray) -> float:
    """Eigenvalues closer than this are equal: 1e-9 of w's scale."""
    return 1e-9 * max(np.max(np.abs(w)), 1.0)


def _degenerate_clusters(w: np.ndarray):
    """(start, stop) of each run of two or more ascending eigenvalues that
    lie within ``_zero_tol(w)`` of the run's first."""
    tol = _zero_tol(w)
    vals = w.tolist()
    runs = []
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[j] - vals[i] < tol:
            j += 1
        if j - i > 1:
            runs.append((i, j))
        i = j
    return runs


def _disentangle_clusters(w: np.ndarray, v: np.ndarray, n_nodes: int):
    """Rotate the eigenvector basis of each degenerate cluster that carries
    sawtooth content so that content concentrates in as few columns as
    possible.

    The centered periodic stencil annihilates the alternating half-mode, so
    on even grids each constant-mode eigenvalue carries an exactly
    degenerate sawtooth partner; an arbitrary orthogonal mixture would
    spoil the winding of the smooth member.  Such a cluster is rotated by
    the right singular vectors of its sawtooth overlap, which is
    deterministic and leaves the eigenspace unchanged.  A cluster (see
    ``_degenerate_clusters``) is turned only when one of its columns has
    sawtooth overlap above 1e-8; the overlaps of all columns come from one
    (2 x 2n) product.  Every other cluster keeps LAPACK's basis: the
    eigensections of one eigenvalue share one winding (Hofer-Wysocki-
    Zehnder), so any orthogonal mixture of its smooth columns winds alike
    and is trusted alike.
    """
    sign = np.repeat((-1.0) ** np.arange(n_nodes), 2)
    saw = np.zeros((2 * n_nodes, 2))
    saw[0::2, 0] = sign[0::2]
    saw[1::2, 1] = sign[1::2]
    saw /= np.sqrt(n_nodes)
    heavy = np.linalg.norm(saw.T @ v, axis=0) > 1e-8
    for i, j in _degenerate_clusters(w):
        if heavy[i:j].any():
            block = v[:, i:j]
            _, _, wt = np.linalg.svd(saw.T @ block)
            v[:, i:j] = block @ wt.T[:, ::-1]  # sawtooth-light columns first
    return v


def _winding_of_nodes(vecs: np.ndarray, floor: float):
    """Winding and reliability of eigensections sampled at the grid nodes.

    vecs has shape (n_nodes, 2, m).  A winding is trusted when the section
    stays above the floor and every angle step (closing step included) is
    below pi/2.
    """
    norms = np.linalg.norm(vecs, axis=1)
    total, step = winding_turns(vecs, closed=True)
    ok = (np.min(norms, axis=0) > floor * np.max(norms, axis=0)) \
        & (step < 0.5 * np.pi) \
        & (np.abs(total - np.round(total)) < 0.25)
    return np.round(total).astype(int), ok


def discretize_and_solve(op: OperatorModel, n_nodes: int = 256) -> SpectrumReport:
    """Solve the discretized operator and keep the trusted central band.

    The full spectrum comes mode by mode when S is constant and from the
    dense LAPACK solve ``jacobi_eigh`` when it varies; the basis of each
    sawtooth-carrying cluster is then fixed by ``_disentangle_clusters``.
    Eigensection windings come from angle accumulation over the nodes, and
    eigenpairs whose winding cannot be tracked are excluded and counted.
    """
    w, v = _eigenpairs(op, n_nodes)
    v = _disentangle_clusters(w, v, n_nodes)
    vecs = v.reshape(n_nodes, 2, 2 * n_nodes)
    wind, ok = _winding_of_nodes(vecs, floor=1e-8)
    kept = np.where(ok)[0]
    n_excluded = int(len(w) - len(kept))
    wk, windk, vecsk = w[kept], wind[kept], vecs[:, :, kept]  # w ascends

    neg = wk[wk < 0.0]
    pos = wk[wk >= 0.0]
    if not len(neg) or not len(pos):
        raise BandTooNarrow(f"trusted band does not bracket zero: {len(neg)} "
                            f"negative and {len(pos)} nonnegative eigenvalues")
    nu_neg = float(neg[-1])
    nu_pos = float(pos[0])
    wind_neg = int(windk[np.searchsorted(wk, nu_neg)])
    wind_pos = int(windk[np.searchsorted(wk, nu_pos)])
    p_jump = wind_pos - wind_neg
    gap = float(min(abs(nu_neg), abs(nu_pos)))
    return SpectrumReport(
        eigenvalues=wk,
        windings=windk,
        eigenvectors=vecsk,
        nu_neg=nu_neg,
        nu_pos=nu_pos,
        wind_neg=wind_neg,
        wind_pos=wind_pos,
        p=p_jump,
        mu_tilde_frame=2 * wind_neg + p_jump,
        n_nodes=n_nodes,
        n_excluded=n_excluded,
        all_eigenvalues=w,
        gap=gap,
    )


def generalized_cz(report: SpectrumReport, frame_correction: int):
    """Spectral index 2 wind(nu_neg) + p, moved to the global frame;
    DegenerateOrbit if 0 is an eigenvalue within ``_zero_tol``."""
    tol = _zero_tol(report.all_eigenvalues)
    if report.gap <= tol:
        raise DegenerateOrbit(f"0 is in the spectrum: gap {report.gap:g} "
                              f"within {tol:g}")
    if report.p not in (0, 1):
        raise BandTooNarrow(
            f"winding jump p = {report.p} outside {{0, 1}}; band unreliable")
    return CZResult(
        mu_local=report.mu_tilde_frame,
        frame_correction=frame_correction,
        mu_global=report.mu_tilde_frame + 2 * frame_correction,
        method="spectral",
    )


def spectrum_property_audit(report: SpectrumReport, wind_band: int = 2):
    """Checks on the trusted band: (a) windings monotone in the eigenvalue,
    (b) exactly two eigenvalues per interior winding value, (c) pointwise
    linear independence of same-winding eigensections at eigenvalues more
    than 1e-8 apart.  Raises BandTooNarrow unless the band covers the requested
    winding range; returns the audit record with any violations."""
    wk = report.eigenvalues
    windk = report.windings
    if not (windk.min() <= -wind_band and windk.max() >= wind_band):
        raise BandTooNarrow(
            f"trusted band covers windings [{windk.min()}, {windk.max()}]")
    violations = []
    if np.any(np.diff(windk) < 0):
        violations.append("windings not monotone along sorted eigenvalues")
    interior = range(int(windk.min()) + 1, int(windk.max()))
    counts = {}
    for k in interior:
        counts[k] = int(np.sum(windk == k))
        if counts[k] != 2:
            violations.append(f"winding {k} attained {counts[k]} times")
    min_det = np.inf
    for k in interior:
        sel = np.where(windk == k)[0]
        for i in range(len(sel)):
            for j in range(i + 1, len(sel)):
                if abs(wk[sel[i]] - wk[sel[j]]) < 1e-8:
                    continue  # same eigenspace, independence not claimed
                u = report.eigenvectors[:, :, sel[i]]
                v = report.eigenvectors[:, :, sel[j]]
                u = u / np.linalg.norm(u, axis=1, keepdims=True)
                v = v / np.linalg.norm(v, axis=1, keepdims=True)
                det = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
                min_det = min(min_det, float(np.min(det)))
                if np.min(det) <= 1e-6:
                    violations.append(
                        f"eigensections of winding {k} nearly dependent")
    return {
        "monotone": not any("monotone" in s for s in violations),
        "two_per_winding": counts,
        "min_independence_det": None if min_det is np.inf else min_det,
        "violations": violations,
        "ok": not violations,
    }


def fourier_oracle_spectrum(s_const: np.ndarray, n_nodes: int) -> np.ndarray:
    """Exact spectrum of the discrete operator for constant S, mode by mode.

    Each discrete Fourier mode n carries a 4-dimensional invariant block
    (2-dimensional for n = 0 and the half-mode) whose eigenvalues are
    -(s1+s2)/2 +- sqrt((s1-s2)^2/4 + w_n^2) with w_n the discrete symbol.
    Returns all 2*n_nodes eigenvalues sorted ascending.
    """
    s1 = float(s_const[0, 0])
    s2 = float(s_const[1, 1])
    if abs(s_const[0, 1]) > 1e-12 or abs(s_const[1, 0]) > 1e-12:
        raise ValueError("oracle expects diagonal constant S, off-diagonal "
                         f"({s_const[0, 1]:g}, {s_const[1, 0]:g})")
    vals = [-s1, -s2]
    for n in range(1, n_nodes // 2):
        wn = d4_symbol(n, n_nodes)
        mid = -(s1 + s2) / 2.0
        rad = np.sqrt((s1 - s2) ** 2 / 4.0 + wn * wn)
        vals += [mid + rad] * 2 + [mid - rad] * 2
    # half mode (alternating signs) has vanishing odd symbol
    vals += [-s1, -s2]
    return np.sort(np.array(vals))


def fourier_oracle_windings(s_const: np.ndarray, n_nodes: int):
    """(eigenvalues, windings) of the constant-S discrete operator for the
    modes with reliable windings, sorted by eigenvalue."""
    s1 = float(s_const[0, 0])
    s2 = float(s_const[1, 1])
    vals = [(-s1, 0), (-s2, 0)]
    for n in range(1, n_nodes // 4):
        wn = d4_symbol(n, n_nodes)
        mid = -(s1 + s2) / 2.0
        rad = np.sqrt((s1 - s2) ** 2 / 4.0 + wn * wn)
        vals += [(mid + rad, n)] * 2 + [(mid - rad, -n)] * 2
    vals.sort()
    return (np.array([v for v, _ in vals]),
            np.array([k for _, k in vals], dtype=int))
