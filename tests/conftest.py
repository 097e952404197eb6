"""Shared helpers: seeded random operators and families for property tests,
and the byte oracle of the report writer."""

import json

import numpy as np

from blockjacobi.coeffs import tabulated_family
from blockjacobi.opcore import adj, condition_estimate
from blockjacobi.runner import _jsonable


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


def report_oracle(obj) -> str:
    """The JSON text of a report as the two-walk encoder that `report_json`
    replaced wrote it."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
