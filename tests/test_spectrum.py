import numpy as np
import pytest

from reeblab import czindex, model, spectrum
from reeblab.errors import BandTooNarrow
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
    stripped = SymplecticPath(tau=path.tau, mats=path.mats,
                              frame_kind=path.frame_kind, period=path.period)
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


@pytest.mark.parametrize("seed", range(5))
def test_degenerate_cluster_basis_does_not_matter(analytic_paths, monkeypatch,
                                                  seed):
    """LAPACK fixes no basis inside a degenerate eigenspace: a random
    rotation inside each cluster must not change the windings, the index or
    the audit once _disentangle_clusters has run."""
    op = spectrum.build_S(analytic_paths["P2"])
    ref = spectrum.discretize_and_solve(op, 128)
    rng = np.random.default_rng(seed)
    solve = spectrum.jacobi_eigh
    n_rotated = []

    def rotated_eigh(a):
        w, v = solve(a)
        scale = max(np.max(np.abs(w)), 1.0)  # as in _disentangle_clusters
        i = 0
        while i < len(w):
            j = i + 1
            while j < len(w) and w[j] - w[i] < 1e-9 * scale:
                j += 1
            if j - i > 1:
                q, _ = np.linalg.qr(rng.standard_normal((j - i, j - i)))
                v[:, i:j] = v[:, i:j] @ q
                n_rotated.append(j - i)
            i = j
        return w, v

    monkeypatch.setattr(spectrum, "jacobi_eigh", rotated_eigh)
    rep = spectrum.discretize_and_solve(op, 128)
    assert len(n_rotated) > 100  # the constant-S spectrum is degenerate
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
