"""The same outputs under another BLAS kernel.

NumPy's OpenBLAS, built with DYNAMIC_ARCH, picks its kernels by CPU, or
by OPENBLAS_CORETYPE. The fits' products and factorizations go through
it, so their bits may move with the kernel; λ and every ranking must
not. The kNN walk uses BLAS only for its screen, which decides nothing,
and LRW's sums and LOF use none, so their bits must not move at all.
"""

import ctypes
import platform

import numpy as np
import pytest

from mcode import (FULL_CONDITIONAL, INDEPENDENT, METHODS, LofConfig,
                   NeighborIndex, RhoMatrix, fit_mcode, inject_outliers,
                   local_weights, lof_scores, rank_descending, score_methods,
                   standardize)

from conftest import run_python
from synthdata import make_benchmark_dataset

# the kernel-name getter as OpenBLAS builds name it, by integer width and
# symbol prefix
CORENAME_GETTERS = ("openblas_get_corename", "openblas_get_corename64_",
                    "scipy_openblas_get_corename",
                    "scipy_openblas_get_corename64_")


def openblas_corename():
    """The name of the kernel NumPy's OpenBLAS runs in this process, or
    None where that BLAS is not OpenBLAS built with DYNAMIC_ARCH or the
    name cannot be read."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return None
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        library = ctypes.CDLL(path)
        for getter in CORENAME_GETTERS:
            if hasattr(library, getter):
                read = getattr(library, getter)
                read.restype = ctypes.c_char_p
                return read().decode()
    return None


def kernel_outputs() -> dict:
    """The λ of each mode's CV fit and each method's ranking on one small
    contaminated planted dataset, and the kNN walk's outputs on its
    standardized inputs, query_all, local_weights (on a fixed rho) and
    LOF, at k = 20."""
    perturbed, _ = inject_outliers(make_benchmark_dataset(n=600), 0.02,
                                   0.25, 0)
    out = {f"lambdas/{mode}":
           np.array(fit_mcode(perturbed, mode).lambdas, dtype=float)
           for mode in (FULL_CONDITIONAL, INDEPENDENT)}
    scored = score_methods(perturbed, METHODS, k_lof=20, k_lrw=20)
    out.update({f"ranking/{name}": rank_descending(sv.scores)
                for name, sv in scored.items()})
    std, _ = standardize(perturbed)
    index = NeighborIndex(std.X)
    rho = RhoMatrix(np.random.default_rng(0).uniform(0.01, 0.99, (600, 8)))
    out["knn/query_all"] = index.query_all(20)
    out["knn/local_weights"] = local_weights(rho, index, 20).w
    out["knn/local_weights_d1"] = local_weights(
        RhoMatrix(rho.values[:, :1]), index, 20).w
    joint = np.hstack([std.X, perturbed.Y.astype(np.float64)])
    out["knn/lof_scores"] = lof_scores(joint, LofConfig(k=20)).scores
    return out


CHILD = """
import numpy as np
from test_kernels import kernel_outputs, openblas_corename
np.savez({path!r}, core=str(openblas_corename()), **kernel_outputs())
"""


def test_another_blas_kernel_moves_no_walk_bit_and_no_ranking(tmp_path):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS's x86-64 kernel names only")
    core = openblas_corename()
    if core is None:
        pytest.skip("NumPy's BLAS is not OpenBLAS with DYNAMIC_ARCH, or its "
                    "kernel name cannot be read")
    # NumPy's x86-64 baseline has every instruction Nehalem's kernels use
    other = "Prescott" if core == "Nehalem" else "Nehalem"
    path = tmp_path / "child.npz"
    run_python(CHILD.format(path=str(path)), OPENBLAS_CORETYPE=other)
    child = np.load(path)
    if str(child["core"]) in (core, "None"):
        pytest.skip(f"OPENBLAS_CORETYPE={other} left the kernel at "
                    f"{child['core']}")
    here = kernel_outputs()
    assert sorted(child.files) == sorted(["core", *here])
    for name, value in here.items():
        if name.startswith("knn/"):
            assert child[name].tobytes() == value.tobytes(), name
        else:
            assert child[name].tolist() == value.tolist(), name
