import numpy as np
import pytest

from reeblab import czindex, model, spectrum
from reeblab.errors import BandTooNarrow, NoConvergence
from reeblab.model import J0, SymplecticPath


def test_coefficient_path_constant_case(params, trio, analytic_paths):
    for orbit in trio:
        op = spectrum.build_S(analytic_paths[orbit.label])
        want = orbit.reeb_period * np.diag([orbit.k2, -orbit.k1])
        assert np.allclose(op.constant_S, want, atol=1e-13)
        assert op.asym_residual == 0.0


def test_coefficient_path_identity():
    op = spectrum.build_S(czindex.rotation_path(0.0, 129))
    assert np.allclose(op.constant_S, 0.0)


def test_coefficient_path_rotation_closed_form():
    theta = 0.3
    op = spectrum.build_S(czindex.rotation_path(theta, 129))
    assert np.allclose(op.constant_S, 2 * np.pi * theta * np.eye(2),
                       atol=1e-12)


def test_coefficient_path_finite_difference_route():
    """Strip the generator so the centered-difference reconstruction runs,
    and check it against the closed form."""
    theta = 0.3
    path = czindex.rotation_path(theta, 257)
    stripped = SymplecticPath(tau=path.tau, mats=path.mats, period=path.period)
    op = spectrum.build_S(stripped)
    assert op.asym_residual < 1e-6
    assert np.max(np.abs(op.S - 2 * np.pi * theta * np.eye(2))) < 1e-6


def test_fd_route_on_integrated_path(params, trio):
    gpath = model.restrict_linearized_to_xi(params, trio[1],
                                            "global_frame", 257)
    op = spectrum.build_S(gpath)
    assert op.asym_residual < 1e-5
    # the coefficient matrix must reproduce the path derivative at nodes
    mats = gpath.mats[:-1]
    n = len(mats)
    dt = 1.0 / n
    dphi_fd = (np.roll(mats, -1, axis=0)[2:-2] - np.roll(mats, 1, axis=0)[2:-2]) / (2 * dt)
    recon = np.einsum("ij,njk->nik", J0, op.S[2:-2]) @ mats[2:-2]
    # J0 S Phi = dPhi/dt up to the differencing order
    assert np.max(np.abs(recon - dphi_fd)) < 5e-3


def test_free_operator_fourier_modes():
    op = spectrum.build_S(czindex.rotation_path(0.0, 129))
    rep = spectrum.discretize_and_solve(op, 128)
    sel = np.abs(rep.eigenvalues) < 7.0
    vals = rep.eigenvalues[sel]
    winds = rep.windings[sel]
    w1 = spectrum.d4_symbol(1, 128)
    assert np.allclose(np.sort(vals), [-w1, -w1, 0, 0, w1, w1], atol=1e-9)
    assert sorted(winds.tolist()) == [-1, -1, 0, 0, 1, 1]
    assert w1 == pytest.approx(2 * np.pi, abs=1e-4)


def test_matrix_exactly_symmetric(analytic_paths):
    op = spectrum.build_S(analytic_paths["P2"])
    m = spectrum.assemble_matrix(op, 128)
    assert np.max(np.abs(m - m.T)) == 0.0


def test_full_spectrum_matches_fourier_oracle(spectra_256):
    for label, (op, rep) in spectra_256.items():
        oracle = spectrum.fourier_oracle_spectrum(op.constant_S, 256)
        got = np.sort(rep.all_eigenvalues)
        assert got.shape == oracle.shape
        assert np.max(np.abs(got - oracle)) < 1e-6, label


def test_winding_resolved_band_matches_oracle(spectra_256):
    op, rep = spectra_256["P2"]
    vals, winds = spectrum.fourier_oracle_windings(op.constant_S, 256)
    sel = np.abs(rep.eigenvalues) < 12.0
    osel = np.abs(vals) < 12.0
    assert np.allclose(rep.eigenvalues[sel], vals[osel], atol=1e-6)
    assert np.array_equal(rep.windings[sel], winds[osel])


def test_gap_and_nondegeneracy(spectra_256, trio):
    for orbit in trio:
        _, rep = spectra_256[orbit.label]
        assert rep.gap > 1e-6
        assert rep.nu_neg < 0 <= rep.nu_pos


def test_generalized_index_pattern(spectra_256):
    for label, want in (("P1", 1), ("P2", 2), ("P3", 3)):
        _, rep = spectra_256[label]
        res = spectrum.generalized_cz(rep, 1)
        assert res.mu_global == want


def test_winding_jump_structure(spectra_256):
    _, rep1 = spectra_256["P1"]
    assert (rep1.wind_neg, rep1.wind_pos, rep1.p) == (-1, 0, 1)
    _, rep2 = spectra_256["P2"]
    assert (rep2.wind_neg, rep2.wind_pos, rep2.p) == (0, 0, 0)
    _, rep3 = spectra_256["P3"]
    assert (rep3.wind_neg, rep3.wind_pos, rep3.p) == (0, 1, 1)


def test_generalized_index_global_frame(params, trio):
    """Varying coefficient path from the global frame, no correction: the
    winding pattern shifts by one but the index is unchanged."""
    gpath = model.restrict_linearized_to_xi(params, trio[1],
                                            "global_frame", 257)
    op = spectrum.build_S(gpath)
    rep = spectrum.discretize_and_solve(op, 128)
    res = spectrum.generalized_cz(rep, 0)
    assert res.mu_global == 2
    assert (rep.wind_neg, rep.wind_pos) == (1, 1)


def test_property_audit_passes(spectra_256):
    for label, (_, rep) in spectra_256.items():
        audit = spectrum.spectrum_property_audit(rep)
        assert audit["ok"], (label, audit["violations"])
        assert all(v == 2 for v in audit["two_per_winding"].values())
        assert audit["min_independence_det"] > 1e-3


def test_audit_band_requirement(spectra_256):
    _, rep = spectra_256["P2"]
    with pytest.raises(BandTooNarrow):
        spectrum.spectrum_property_audit(rep, wind_band=10**6)


def test_spectral_convergence_on_doubling(analytic_paths, spectra_256):
    for label in ("P1", "P2", "P3"):
        op = spectrum.build_S(analytic_paths[label])
        r128 = spectrum.discretize_and_solve(op, 128)
        r256 = spectra_256[label][1]
        sel = np.abs(r128.eigenvalues) <= 13.0
        v128 = r128.eigenvalues[sel]
        # align by nearest value in the finer spectrum
        idx = np.searchsorted(r256.eigenvalues, v128)
        idx = np.clip(idx, 0, len(r256.eigenvalues) - 1)
        for a, i in zip(v128, idx):
            j = i if abs(r256.eigenvalues[i] - a) <= \
                abs(r256.eigenvalues[max(i - 1, 0)] - a) else max(i - 1, 0)
            assert abs(r256.eigenvalues[j] - a) <= 1e-4


def test_spectral_indices_of_iterates_agree_with_winding(params, trio,
                                                         analytic_paths):
    for orbit in trio:
        base = analytic_paths[orbit.label]
        for k in (1, 2, 3):
            it = czindex.iterate_path(base, k)
            op = spectrum.build_S(it)
            rep = spectrum.discretize_and_solve(op, 128)
            res = spectrum.generalized_cz(rep, k * 1)
            want = czindex.iterate_index(base, k, 1).mu_global
            assert res.mu_global == want, (orbit.label, k)


def test_degeneracy_coupling_integer_rotation():
    """The winding-interval degeneracy and a kernel eigenvalue must appear
    together on the integer-rotation path."""
    path = czindex.rotation_path(1.0, 257, period=2 * np.pi)
    import pytest as _pytest

    from reeblab.errors import DegenerateOrbit

    with _pytest.raises(DegenerateOrbit):
        czindex.winding_interval(path)
    op = spectrum.build_S(path)
    rep = spectrum.discretize_and_solve(op, 160)
    assert np.min(np.abs(rep.all_eigenvalues)) < 1e-6


def test_nondegenerate_rotation_not_coupled():
    path = czindex.rotation_path(0.37, 257, period=2 * np.pi)
    iv = czindex.winding_interval(path)
    assert iv.degenerate_margin > 1e-3
    op = spectrum.build_S(path)
    rep = spectrum.discretize_and_solve(op, 128)
    assert np.min(np.abs(rep.all_eigenvalues)) > 1e-3


def test_band_too_narrow_for_unbracketed_spectrum():
    # a large positive constant coefficient shifts the low modes entirely
    # below zero only in the untrusted region; fabricate the failure by
    # requesting the generalized index off a report with no positive part
    path = czindex.rotation_path(0.37, 257)
    op = spectrum.build_S(path)
    rep = spectrum.discretize_and_solve(op, 128)
    rep.p = 2  # corrupted winding jump must be rejected
    with pytest.raises(BandTooNarrow):
        spectrum.generalized_cz(rep, 0)


def _sawtooth_overlap(v, n_nodes):
    """Norm of each column's projection on the two unit sawtooth vectors
    (-1)^j e_a / sqrt(n), a = 0, 1, of the 2 n_nodes interleaved rows."""
    sign = (-1.0) ** np.arange(n_nodes) / np.sqrt(n_nodes)
    return np.hypot(sign @ v[0::2], sign @ v[1::2])


@pytest.mark.parametrize("n_nodes", [128, 160])
@pytest.mark.parametrize("source", ["analytic", "numeric"])
@pytest.mark.parametrize("label", ["P1", "P2", "P3"])
def test_only_sawtooth_carrying_clusters_are_turned(analytic_paths,
                                                    numeric_paths, source,
                                                    label, n_nodes):
    """_disentangle_clusters turns exactly the degenerate clusters holding a
    column with sawtooth overlap above 1e-8, puts a sawtooth-free column
    first in each, and leaves every other column bitwise as LAPACK gave it."""
    paths = analytic_paths if source == "analytic" else numeric_paths
    op = spectrum.build_S(paths[label])
    w, v = spectrum.jacobi_eigh(spectrum.assemble_matrix(op, n_nodes))
    heavy = _sawtooth_overlap(v, n_nodes) > 1e-8
    turned = [(i, j) for i, j in spectrum._degenerate_clusters(w)
              if heavy[i:j].any()]
    out = spectrum._disentangle_clusters(w, v.copy(), n_nodes)

    assert len(turned) == 2
    if op.constant_S is not None:  # the n = 0 and half-mode eigenvalues
        assert np.allclose(sorted(w[i] for i, _ in turned),
                           sorted(-np.diag(op.constant_S)), atol=1e-9)
    kept = np.ones(len(w), bool)
    for i, j in turned:
        kept[i:j] = False
        assert not np.array_equal(out[:, i:j], v[:, i:j])
        # the same eigenspace, in an orthonormal basis
        assert np.allclose(out[:, i:j].T @ out[:, i:j], np.eye(j - i),
                           atol=1e-12)
        proj = v[:, i:j] @ v[:, i:j].T
        assert np.allclose(proj @ out[:, i:j], out[:, i:j], atol=1e-12)
        assert _sawtooth_overlap(out[:, i:i + 1], n_nodes)[0] <= 1e-8
    assert np.array_equal(out[:, kept], v[:, kept])


@pytest.mark.parametrize("seed", range(5))
def test_degenerate_cluster_basis_does_not_matter(analytic_paths, numeric_paths,
                                                  monkeypatch, seed):
    """Neither eigensolver route fixes a basis inside a degenerate
    eigenspace: a random rotation inside each cluster must not change the
    windings, the index or the audit once _disentangle_clusters has run.
    Run on P2's analytic path (constant S, solved mode by mode) and its
    variational path (S from the stencil, solved dense)."""
    ops = [spectrum.build_S(paths["P2"])
           for paths in (analytic_paths, numeric_paths)]
    refs = [spectrum.discretize_and_solve(op, 128) for op in ops]
    rng = np.random.default_rng(seed)
    solve = spectrum._eigenpairs
    n_rotated = []

    def rotated_eigh(op, n_nodes):
        w, v = solve(op, n_nodes)
        for i, j in spectrum._degenerate_clusters(w):
            q, _ = np.linalg.qr(rng.standard_normal((j - i, j - i)))
            v[:, i:j] = v[:, i:j] @ q
            n_rotated.append(j - i)
        return w, v

    monkeypatch.setattr(spectrum, "_eigenpairs", rotated_eigh)
    for op, ref in zip(ops, refs):
        n_rotated.clear()
        rep = spectrum.discretize_and_solve(op, 128)
        assert len(n_rotated) > 100  # both spectra are degenerate
        assert np.array_equal(rep.windings, ref.windings)
        assert np.array_equal(rep.eigenvalues, ref.eigenvalues)
        assert rep.n_excluded == ref.n_excluded
        assert rep.mu_tilde_frame == ref.mu_tilde_frame == 0
        audit = spectrum.spectrum_property_audit(rep)
        want = spectrum.spectrum_property_audit(ref)
        assert audit["ok"] and want["ok"]
        assert audit["two_per_winding"] == want["two_per_winding"]
        assert audit["violations"] == want["violations"]
        assert audit["min_independence_det"] == pytest.approx(
            want["min_independence_det"], rel=1e-6)


# S of the synthetic constant generator: symmetric with off-diagonal
# entries, which fourier_oracle_spectrum refuses
S_OFFDIAG = np.array([[1.3, 0.4], [0.4, -0.7]])


def _constant_S_paths(analytic_paths):
    """Constant-S paths the mode route serves: P1-P3 at k = 1-4, the free
    operator (a fourfold cluster at 0), a non-integer rotation and a
    generator whose S is not diagonal."""
    paths = {f"{label}_k{k}": czindex.iterate_path(path, k)
             for label, path in analytic_paths.items() for k in (1, 2, 3, 4)}
    paths["rotation_0"] = czindex.rotation_path(0.0, 129)
    paths["rotation_0.37"] = czindex.rotation_path(0.37, 257, period=2 * np.pi)
    paths["offdiag"] = SymplecticPath.from_generator(J0 @ S_OFFDIAG, 1.0, 129)
    return paths


@pytest.mark.parametrize("n_nodes", [128, 160, 256])
def test_mode_route_matches_dense_eigh(analytic_paths, monkeypatch, n_nodes):
    """The mode-by-mode solve of a constant-S operator agrees with LAPACK's
    dense eigh of the assembled matrix: eigenvalues, residual and
    orthonormality to 1e-12 of the matrix's norm, and the same windings,
    exclusions, audit (its least determinant to rounding) and, where 0 is
    no eigenvalue, index."""
    dense = {}
    for name, path in _constant_S_paths(analytic_paths).items():
        op = spectrum.build_S(path)
        assert op.constant_S is not None
        a = spectrum.assemble_matrix(op, n_nodes)
        scale = np.linalg.norm(a)
        w_ref = np.linalg.eigh(a)[0]
        w, v = spectrum._eigenpairs(op, n_nodes)
        assert np.max(np.abs(w - w_ref)) <= 1e-12 * scale, name
        assert np.linalg.norm(a @ v - v * w) <= 1e-12 * scale, name
        assert np.max(np.abs(v.T @ v - np.eye(2 * n_nodes))) <= 1e-12, name
        dense[name] = (op, spectrum.discretize_and_solve(op, n_nodes))

    monkeypatch.setattr(spectrum, "_eigenpairs", lambda op, n: np.linalg.eigh(
        spectrum.assemble_matrix(op, n)))
    for name, (op, rep) in dense.items():
        ref = spectrum.discretize_and_solve(op, n_nodes)
        assert np.array_equal(rep.windings, ref.windings), name
        assert rep.n_excluded == ref.n_excluded, name
        if ref.gap < 1e-9:
            # 0 is an eigenvalue (the free operator): the index is undefined
            # and the side of 0 its kernel falls on is rounding noise
            assert rep.gap < 1e-9, name
        else:
            assert (rep.wind_neg, rep.wind_pos, rep.p, rep.mu_tilde_frame) == \
                (ref.wind_neg, ref.wind_pos, ref.p, ref.mu_tilde_frame), name
        audit = spectrum.spectrum_property_audit(rep)
        want = spectrum.spectrum_property_audit(ref)
        # a ratio of eigenvector entries, equal to rounding
        assert audit.pop("min_independence_det") == pytest.approx(
            want.pop("min_independence_det"), rel=1e-12), name
        assert audit == want, name


def _twin_operators(s_const, n_nodes=128):
    """The same constant S as an operator the mode route solves and as one
    the dense route solves."""
    s_path = np.broadcast_to(s_const, (n_nodes, 2, 2)).copy()
    tau = np.arange(n_nodes) / n_nodes
    return (spectrum.OperatorModel(S=s_path, tau=tau, period=1.0,
                                   constant_S=s_const),
            spectrum.OperatorModel(S=s_path, tau=tau, period=1.0))


def _raised(exc_type, op, n_nodes=128):
    with pytest.raises(exc_type) as info:
        spectrum._eigenpairs(op, n_nodes)
    return str(info.value)


def test_mode_route_refuses_non_finite_S_as_dense():
    modes, dense = _twin_operators(np.array([[1.0, np.nan], [np.nan, np.inf]]))
    assert _raised(ValueError, modes) == _raised(ValueError, dense) \
        == "matrix has 384 non-finite entries"


def test_mode_route_refuses_asymmetric_S_as_dense():
    modes, dense = _twin_operators(np.array([[1.0, 0.3], [0.2, -0.5]]))
    assert _raised(ValueError, modes) == _raised(ValueError, dense) \
        == "matrix is not symmetric (defect 0.1)"


@pytest.mark.parametrize("n_nodes", [129, 126])
def test_mode_route_refuses_bad_node_count_as_dense(n_nodes):
    modes, dense = _twin_operators(S_OFFDIAG)
    assert _raised(ValueError, modes, n_nodes) \
        == _raised(ValueError, dense, n_nodes) \
        == f"n_nodes must be even and at least 128, got {n_nodes}"


def test_mode_route_reports_lapack_failure_as_dense(monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    modes, dense = _twin_operators(S_OFFDIAG)
    assert _raised(NoConvergence, modes) == _raised(NoConvergence, dense) \
        == "LAPACK eigh failed: Eigenvalues did not converge"
