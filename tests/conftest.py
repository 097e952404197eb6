"""Shared helpers: seeded random operators and families for property tests,
the rank of the formally seeded solutions, the byte oracle of the report
writer, and the CSV number kernels' cells against repr."""

import json

import numpy as np

from blockjacobi.coeffs import tabulated_family
from blockjacobi.opcore import adj, condition_estimate
from blockjacobi.recurrence import formal_eigenvector_start, fundamental_matrix
from blockjacobi.runner import _jsonable
from blockjacobi.table import FIELD, float_fields


def rand_operator(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def rand_hermitian(rng, d):
    m = rand_operator(rng, d)
    return (m + adj(m)) / 2


def rand_invertible(rng, d, cond_cap=50.0):
    """Random complex matrix, resampled until reasonably well conditioned."""
    while True:
        m = rand_operator(rng, d)
        if condition_estimate(m) < cond_cap:
            return m


def rand_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def rand_family(rng, d, length):
    """Valid tabulated family: well-conditioned a_n, Hermitian b_n."""
    a = [rand_invertible(rng, d) for _ in range(length)]
    b = [rand_hermitian(rng, d) for _ in range(length)]
    return tabulated_family(a, b, "random tabulated")


def formal_rank(fam, z, horizon) -> int:
    """Numerical dimension of the span of the d solutions seeded through
    formal_eigenvector_start from a basis of H, read from the fundamental
    matrix as phi alpha: how many singular values of the stacked, normalized
    trajectories exceed 1e-8 times the largest."""
    starts = [formal_eigenvector_start(fam, z, u0) for u0 in np.eye(fam.dim)]
    u = fundamental_matrix(fam, z, horizon).samples(starts).reshape(fam.dim, -1)
    svals = np.linalg.svd((u / np.linalg.norm(u, axis=1)[:, None]).T, compute_uv=False)
    return int(np.sum(svals > 1e-8 * svals[0]))


def report_oracle(obj) -> str:
    """The JSON text of a report as the two-walk encoder that `report_json`
    replaced wrote it."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)


def kernel_text(fields, values, dtype) -> tuple[list[bytes], np.ndarray | None]:
    """Each cell's bytes as a CSV number kernel lays them out, and what the
    kernel returns."""
    values = np.asarray(values, dtype=dtype)
    buf = np.empty((len(values), FIELD), dtype=np.uint8)
    keep = np.zeros(buf.shape, dtype=bool)
    out = fields(values, buf, keep)
    return [bytes(b[k]) for b, k in zip(buf, keep)], out


def repr_mismatches(values) -> list[tuple[float, bytes]]:
    """The floats whose bytes from `float_fields` differ from repr."""
    got, _ = kernel_text(float_fields, values, np.float64)
    return [(v, g) for v, g in zip(np.asarray(values, dtype=np.float64).tolist(), got)
            if g != repr(v).encode()]
