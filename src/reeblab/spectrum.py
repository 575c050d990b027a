"""Asymptotic operator along a closed orbit: discretization and spectrum.

In a symplectic trivialization the operator is L = -J0 d/dt - S(t) with
S(t) = -J0 dPhi/dt Phi(t)^{-1} symmetric, acting on loops of the plane.
Discretized with an antisymmetric centered periodic difference, the matrix
is exactly symmetric; its eigenvalues are real, each eigensection carries a
winding number, windings are monotone in the eigenvalue and each integer is
attained exactly twice.  The generalized index is read off the windings of
the extremal eigenvalues around zero: mu = 2 wind(nu_neg) + p with
p = wind(nu_pos) - wind(nu_neg) in {0, 1}.

The dense symmetric eigenproblem is solved by LAPACK (``np.linalg.eigh``
behind ``jacobi.jacobi_eigh``).  LAPACK fixes no basis inside a degenerate
eigenspace, so each cluster is rotated to a deterministic basis before
windings are read.  For constant S the discrete operator is block-circulant
and diagonalizes mode by mode; that closed-form route stays as the
independent cross-check of the dense solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import AsymmetryTooLarge, BandTooNarrow
from .jacobi import jacobi_eigh
from .model import J0, SymplecticPath


@dataclass
class OperatorModel:
    """Sampled coefficient path S(t) of the operator on a uniform periodic
    grid, with the asymmetry residual of its reconstruction from the path."""

    S: np.ndarray  # (n, 2, 2), exactly symmetric
    tau: np.ndarray
    period: float
    orbit: object = None
    constant_S: Optional[np.ndarray] = None
    asym_residual: float = 0.0
    frame_kind: str = ""

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


def build_S(path: SymplecticPath, fd_tol: float = None) -> OperatorModel:
    """Coefficient path S = -J0 dPhi/dt Phi^{-1} of the operator.

    Paths carrying a constant generator use the closed form
    S = -J0 * (T * A), which is constant and diagonal for the transverse
    linearizations here; otherwise dPhi/dt comes from centered differences
    of the stored nodes.  The result is symmetrized exactly and the
    asymmetry residual reported; AsymmetryTooLarge above 1e-6.
    """
    cfg = DEFAULT_CONFIG
    fd_tol = cfg.fd_tol if fd_tol is None else fd_tol
    tau = path.tau
    n = len(tau) - 1  # drop duplicate closing node for the periodic grid
    if path.constant_generator is not None:
        gen = path.constant_generator
        s_const = -J0 @ (path.period * gen)
        s_const = 0.5 * (s_const + s_const.T)
        grid = np.arange(n) / n
        s_path = np.broadcast_to(s_const, (n, 2, 2)).copy()
        return OperatorModel(S=s_path, tau=grid, period=path.period,
                             orbit=path.orbit, constant_S=s_const,
                             asym_residual=0.0, frame_kind=path.frame_kind)
    if not np.allclose(np.diff(tau), tau[1] - tau[0], rtol=1e-9, atol=1e-12):
        raise ValueError("path nodes must be uniform for differencing")
    mats = path.mats[:-1]
    nn = len(mats)
    dt = 1.0 / nn
    # centered stencil with the group-law extension Phi(t + 1) = Phi(t) Phi(1)
    end = path.end_matrix()
    end_inv = np.linalg.inv(end)

    def shifted(offset):
        idx = np.arange(nn) + offset
        out = np.empty_like(mats)
        lo = idx < 0
        hi = idx >= nn
        mid = ~(lo | hi)
        out[mid] = mats[idx[mid]]
        out[hi] = mats[idx[hi] - nn] @ end
        out[lo] = mats[idx[lo] + nn] @ end_inv
        return out

    dphi = (8.0 * (shifted(1) - shifted(-1))
            - (shifted(2) - shifted(-2))) / (12.0 * dt)
    s_raw = -np.einsum("ij,njk->nik", J0, dphi @ np.linalg.inv(mats))
    asym = float(np.max(np.abs(s_raw - np.transpose(s_raw, (0, 2, 1)))))
    if asym > 1e-6:
        raise AsymmetryTooLarge(f"asymmetry residual {asym:g}")
    s_sym = 0.5 * (s_raw + np.transpose(s_raw, (0, 2, 1)))
    return OperatorModel(S=s_sym, tau=np.arange(nn) / nn, period=path.period,
                         orbit=path.orbit, asym_residual=asym,
                         frame_kind=path.frame_kind)


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


def assemble_matrix(op: OperatorModel, n_nodes: int) -> np.ndarray:
    """Exactly symmetric discretization -kron(D, J0) - blockdiag(S)."""
    if n_nodes % 2 or n_nodes < 128:
        raise ValueError("n_nodes must be even and at least 128")
    s = _resample_S(op, n_nodes)
    d = _periodic_d4(n_nodes)
    m = -np.kron(d, J0)
    idx = 2 * np.arange(n_nodes)
    for a in range(2):
        for b in range(2):
            m[idx + a, idx + b] -= s[:, a, b]
    return m


def _disentangle_clusters(w: np.ndarray, v: np.ndarray, n_nodes: int,
                          tol: float = 1e-9):
    """Rotate eigenvector bases of (near-)degenerate clusters so sawtooth
    content concentrates in as few columns as possible.

    The centered periodic stencil annihilates the alternating half-mode, so
    on even grids each constant-mode eigenvalue carries an exactly
    degenerate sawtooth partner; an arbitrary orthogonal mixture would
    spoil the winding of the smooth member.  Within each cluster the basis
    is rotated by the right singular vectors of the sawtooth overlap, which
    is deterministic and leaves the eigenspace unchanged.
    """
    sign = np.repeat((-1.0) ** np.arange(n_nodes), 2)
    saw = np.zeros((2 * n_nodes, 2))
    saw[0::2, 0] = sign[0::2]
    saw[1::2, 1] = sign[1::2]
    saw /= np.sqrt(n_nodes)
    scale = max(np.max(np.abs(w)), 1.0)
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and w[j] - w[i] < tol * scale:
            j += 1
        if j - i > 1:
            block = v[:, i:j]
            overlap = saw.T @ block
            _, _, wt = np.linalg.svd(overlap)
            v[:, i:j] = block @ wt.T[:, ::-1]  # sawtooth-light columns first
        i = j
    return v


def _winding_of_nodes(vecs: np.ndarray, floor: float):
    """Winding and reliability of eigensections sampled at the grid nodes.

    vecs has shape (n_nodes, 2, m).  A winding is trusted when the section
    stays above the floor and every angle step (closing step included) is
    below pi/2.
    """
    norms = np.linalg.norm(vecs, axis=1)
    ang = np.arctan2(vecs[:, 1, :], vecs[:, 0, :])
    ang = np.vstack([ang, ang[:1]])
    steps = np.diff(ang, axis=0)
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    total = np.sum(steps, axis=0) / (2.0 * np.pi)
    ok = (np.min(norms, axis=0) > floor * np.max(norms, axis=0)) \
        & (np.max(np.abs(steps), axis=0) < 0.5 * np.pi) \
        & (np.abs(total - np.round(total)) < 0.25)
    return np.round(total).astype(int), ok


def discretize_and_solve(op: OperatorModel, n_nodes: int = None,
                         gap_tol: float = None) -> SpectrumReport:
    """Solve the discretized operator and keep the trusted central band.

    The full spectrum comes from LAPACK through ``jacobi_eigh``; the basis
    of each degenerate cluster is then fixed by ``_disentangle_clusters``.
    Eigensection windings come from angle accumulation over the nodes, and
    eigenpairs whose winding cannot be tracked are excluded and counted.
    """
    cfg = DEFAULT_CONFIG
    n_nodes = cfg.spectrum_nodes if n_nodes is None else n_nodes
    gap_tol = cfg.gap_tol if gap_tol is None else gap_tol
    m = assemble_matrix(op, n_nodes)
    w, v = jacobi_eigh(m)
    v = _disentangle_clusters(w, v, n_nodes)
    vecs = v.reshape(n_nodes, 2, 2 * n_nodes)
    wind, ok = _winding_of_nodes(vecs, floor=1e-8)
    kept = np.where(ok)[0]
    n_excluded = int(len(w) - len(kept))
    wk = w[kept]
    windk = wind[kept]
    order = np.argsort(wk, kind="stable")
    wk = wk[order]
    windk = windk[order]
    vecsk = vecs[:, :, kept][:, :, order]

    neg = wk[wk < 0.0]
    pos = wk[wk >= 0.0]
    if not len(neg) or not len(pos):
        raise BandTooNarrow("trusted band does not bracket zero")
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
    """Spectral index 2 wind(nu_neg) + p, moved to the global frame."""
    from .czindex import CZResult

    if report.p not in (0, 1):
        raise BandTooNarrow(
            f"winding jump p = {report.p} outside {{0, 1}}; band unreliable")
    return CZResult(
        mu_local=report.mu_tilde_frame,
        frame_correction=frame_correction,
        mu_global=report.mu_tilde_frame + 2 * frame_correction,
        method="spectral",
    )


def spectrum_property_audit(report: SpectrumReport, wind_band: int = 2,
                            eq_tol: float = 1e-8):
    """Checks on the trusted band: (a) windings monotone in the eigenvalue,
    (b) exactly two eigenvalues per interior winding value, (c) pointwise
    linear independence of same-winding eigensections at distinct
    eigenvalues.  Raises BandTooNarrow unless the band covers the requested
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
                if abs(wk[sel[i]] - wk[sel[j]]) < eq_tol:
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
        raise ValueError("oracle expects diagonal constant S")
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
