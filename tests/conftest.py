import pytest

from reeblab import czindex, leaves, model, orbits, spectrum
from reeblab.model import HamiltonianParams

EPS = 0.5


@pytest.fixture(scope="session")
def params():
    p = HamiltonianParams.from_preset("validated", EPS)
    orbits.validate_structure(p)
    return p


@pytest.fixture(scope="session")
def params_figure():
    p = HamiltonianParams.from_preset("paper-figure", EPS)
    orbits.validate_structure(p)
    return p


@pytest.fixture(scope="session")
def trio(params):
    return orbits.special_orbits(params)


@pytest.fixture(scope="session")
def analytic_paths(params, trio):
    return {o.label: czindex.analytic_monodromy_oracle(params, o.label, orbit=o)
            for o in trio}


@pytest.fixture(scope="session")
def numeric_paths(params, trio):
    return {o.label: model.restrict_linearized_to_xi(
        params, o, "rho_orbit_frame", 257) for o in trio}


@pytest.fixture(scope="session")
def spectra_256(params, analytic_paths):
    """Spectrum reports at 256 nodes for the three binding orbits."""
    out = {}
    for label, path in analytic_paths.items():
        op = spectrum.build_S(path)
        out[label] = (op, spectrum.discretize_and_solve(op, 256))
    return out


@pytest.fixture(scope="session")
def atlas(params):
    return leaves.foliation_atlas(params)


@pytest.fixture(scope="session")
def separatrix(params):
    return orbits.separatrix_and_homoclinics(params)
