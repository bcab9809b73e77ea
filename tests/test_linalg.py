"""Backward-error contract of the factorized solves and their rank updates."""
import numpy as np
import pytest
from scipy import sparse

from pneumotop import linalg
from pneumotop.errors import SolveError


def _spd_and_basis(n=30, r=4, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = sparse.csc_matrix(m @ m.T + n * np.eye(n))
    u = sparse.random(n, r, density=0.3, random_state=seed, format="csr")
    return a, u, rng.normal(size=n)


def test_rank_updates_solve_updated_matrix_with_one_factorization(monkeypatch):
    calls, real_splu = [], linalg.splu

    def counting_splu(a):
        calls.append(a.shape)
        return real_splu(a)

    monkeypatch.setattr(linalg, "splu", counting_splu)
    a, u, b = _spd_and_basis()
    base = linalg.FactorizedSystem(a, context="test system")
    coefficients = [0.5, 10.0, 1e4]
    for c, system in zip(coefficients, base.rank_updates(u, coefficients)):
        x = system.solve(b)
        a_c = a.toarray() + c * (u @ u.T).toarray()
        err = np.linalg.norm(b - a_c @ x) / (
            np.abs(a_c).sum(axis=0).max() * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert err <= linalg.RESIDUAL_TOL
        assert np.allclose(x, np.linalg.solve(a_c, b), rtol=1e-10, atol=0)
    assert calls == [a.shape]


def test_rank_update_missing_the_contract_raises(monkeypatch):
    a, u, b = _spd_and_basis()
    (system,) = linalg.FactorizedSystem(a, context="test system").rank_updates(u, [3.0])
    monkeypatch.setattr(linalg, "RESIDUAL_TOL", 0.0)
    with pytest.raises(SolveError, match="test system: backward error"):
        system.solve(b)
