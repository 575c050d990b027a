"""The set-up every reeblab process pays: import the package and build the
validated model.

run.py calls `build()` in its own process before the timed passes, and runs
this file as a fresh child process several times to measure `setup_s`.  The
caller puts the repository's `src/` on the import path.
"""

EPSILON = 0.5


def build():
    """Import reeblab, build and validate the model, and take every lazy
    first-call cost (a numba compile of the eigensolver, when numba is
    present) so that none of it lands in a timed pass."""
    import numpy as np

    import reeblab
    from reeblab import jacobi, orbits

    p = reeblab.HamiltonianParams.from_preset("validated", EPSILON)
    orbits.validate_structure(p)
    trio = orbits.special_orbits(p)
    jacobi.jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    return p, trio


if __name__ == "__main__":
    build()
