"""The benchmark's tracing hooks still name functions and result fields of hsos.

perfbench/tracing.py wraps hsos.<module>.<attr> for every row of its TRACED
table and reads counters from the wrapped calls' return values, so renaming
or deleting one of them would otherwise show only as a crash of
`perfbench/run.py --trace 1`.  The table is loaded from the file and no
wrapper is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hsos import forms, multiplier as mult, spheremin

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


TRACED = _traced_table()


@pytest.mark.parametrize("module, attr", [(module, attr) for module, attr, _ in TRACED],
                         ids=[f"{module}.{attr}" for module, attr, _ in TRACED])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"hsos.{module}"), attr))


def test_traced_counters_read_the_results():
    counters = {f"{module}.{attr}": fn for module, attr, fn in TRACED}
    f = forms.fc_form(1)
    matrix = mult.multiplier_matrix(f, 1)
    verdict = mult.is_psd(matrix)
    assert verdict.is_psd and verdict.pivots
    assert counters["multiplier.is_psd"](verdict, (matrix,)) == {"reject": 0, "pivot_bits": 1}
    assert counters["multiplier.multiplier_matrix"](matrix, (f, 1)) == {"nnz": 2, "dim": 4}
    assert counters["multiplier.sos_decompose"](mult.sos_decompose(f, 1), (f, 1)) == {"squares": 2, "l_nnz": 2}
    result = spheremin.minimize_on_sphere(f)
    assert counters["spheremin.minimize_on_sphere"](result, (f,)) == {"starts": result.starts, "grid_points": result.grid_points}
