"""The package imports lazily, and a CLI process runs BLAS on one thread unless told otherwise."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hsos

ROOT = Path(__file__).resolve().parent.parent
FC_3_2 = str(ROOT / "sample_forms" / "fc_3_2.json")
FC_7_4 = str(ROOT / "sample_forms" / "fc_7_4.json")


def _child(args, **env):
    """Run `python *args` in a fresh process with OPENBLAS_NUM_THREADS only as given here.

    Importing hsos.cli sets that variable in this process too, so the child's environment is built
    explicitly rather than inherited.
    """
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run(
        [sys.executable, *args], env={**base, "PYTHONPATH": str(ROOT / "src"), **env}, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def test_import_hsos_loads_no_numpy():
    _child(["-c", "import sys, hsos; assert 'numpy' not in sys.modules, 'numpy loaded'"])


def test_exact_commands_load_no_numpy(tmp_path):
    cert = str(tmp_path / "cert.json")
    commands = [["search", FC_7_4, "--n-max", "13"], ["certify", FC_7_4, "13", "--out", cert], ["verify", cert]]
    code = (
        "import json, sys; from hsos import cli\n"
        "assert [cli.main(['--json', *argv]) for argv in json.loads(sys.argv[1])] == [0, 0, 0]\n"
        "print('numpy' in sys.modules)"
    )
    assert _child(["-c", code, json.dumps(commands)]).splitlines()[-1] == "False"


def test_every_export_resolves_to_its_submodule_object():
    for name in hsos.__all__:
        if name != "__version__":
            assert getattr(hsos, name) is getattr(importlib.import_module(f"hsos.{hsos._MODULE_OF[name]}"), name)
    namespace = {}
    exec("from hsos import *", namespace)
    assert set(hsos.__all__) <= namespace.keys()


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hsos.no_such_name


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and Path("/proc/self/task").is_dir() and _numpy_uses_openblas()),
    reason="counts threads through Linux's /proc, and the variable is OpenBLAS's",
)
def test_a_cli_process_runs_one_blas_thread():
    code = "import os, hsos.cli, numpy; print(len(os.listdir('/proc/self/task')))"
    assert _child(["-c", code]).split() == ["1"]


def test_a_user_set_thread_count_is_kept():
    code = "import os, hsos.cli, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _child(["-c", code], OPENBLAS_NUM_THREADS="2").split() == ["2"]


@pytest.mark.parametrize("command", ["analyze", "search"])
def test_output_does_not_depend_on_the_blas_thread_count(command):
    argv = ["-m", "hsos.cli", "--json", command, FC_3_2]
    one = _child(argv)
    assert one and one == _child(argv, OPENBLAS_NUM_THREADS="2")
