"""Fast tests of the benchmark's own references and checks.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
Instances are drawn with numpy here, so these tests do not need the package.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import refs
import run


def _instance(n, m, band, alpha, seed):
    """A banded generator row: nonnegative off-diagonal entries, zero row
    sums, largest diagonal rate ``alpha``."""
    rng = np.random.default_rng(seed)
    u = np.zeros((n, m, m))
    u[1:band] = rng.random((band - 1, m, m))
    u[0] = rng.random((m, m))
    np.fill_diagonal(u[0], 0.0)
    totals = u.sum(axis=(0, 2))
    u[0][np.diag_indices(m)] = -totals
    return u * (alpha / totals.max())


def _dense_row(u):
    n, m, _ = u.shape
    t = np.zeros((n * m, n * m))
    for d in range(n):
        for i in range(n - d):
            t[i * m:(i + 1) * m, (i + d) * m:(i + d + 1) * m] = u[d]
    return scipy.linalg.expm(t)[:m].reshape(m, n, m).transpose(1, 0, 2)


def test_block_reference_matches_scalar_recurrence():
    u = _instance(2048, 1, 4, 50.0, seed=1)
    a = refs.scalar_reference(u[:, 0, 0])[:, None, None]
    b = refs.block_reference(u)
    assert refs.row_norm(a - b) / refs.row_norm(a) < 1e-12


@pytest.mark.parametrize("n, m, alpha", [(256, 1, 6.0), (64, 2, 20.0), (32, 8, 5.0)])
def test_references_match_dense_expm(n, m, alpha):
    u = _instance(n, m, 4, alpha, seed=n + m)
    dense = _dense_row(u)
    for ref in [refs.reference(u), refs.block_reference(u)]:
        assert refs.row_norm(ref - dense) / refs.row_norm(dense) < 1e-13
    assert np.allclose(refs.leading_block(u), dense[0], rtol=0, atol=1e-15)


@pytest.fixture(scope="module")
def exact():
    u = _instance(32, 2, 4, 3.0, seed=5)
    return refs.reference(u), refs.leading_block(u)


def test_check_accepts_the_reference(exact):
    ref, lead = exact
    for tol in refs.TOLERANCES.values():
        assert refs.check_row(ref.copy(), ref, lead, tol)[1] == []


def test_check_rejects_one_entry_perturbed_by_1e_8(exact):
    ref, lead = exact
    y = ref.copy()
    idx = np.unravel_index(np.argmax(np.abs(y)), y.shape)
    y[idx] *= 1 + 1e-8
    for tol in refs.TOLERANCES.values():
        err, reasons = refs.check_row(y, ref, lead, tol)
        assert err > tol and reasons


def test_check_rejects_one_negative_entry(exact):
    ref, lead = exact
    y = ref.copy()
    y[-1, 0, 0] = -1e-6
    for tol in refs.TOLERANCES.values():
        reasons = refs.check_row(y, ref, lead, tol)[1]
        assert any(r.startswith("negative entry") for r in reasons)


def test_parse_reads_the_file_format():
    u = _instance(8, 3, 4, 2.0, seed=2)
    lines = ["btt v1 n=8 m=3"]
    lines += [" ".join(f"{x:.17g}" for x in row) for block in u for row in block]
    lines += ["# method=taylor"]
    assert np.array_equal(refs.parse_btt("\n".join(lines) + "\n"), u)
    with pytest.raises(ValueError):
        refs.parse_btt("\n".join(lines[:-2]))


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(d["name"], d["unit"]) for d in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(d["name"], d["unit"]) for d in spec["per_layer"]] == run.per_layer_names()
    assert [d["name"] for d in spec["workloads"]] == list(run.WORKLOADS)
