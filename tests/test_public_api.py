"""Smoke tests for the top-level public API and the example scripts."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        trace = repro.eembc_trace("rspeed", scale=0.25)
        campaign = repro.run_campaign(
            trace, repro.platform_setup("rm"), runs=30, master_seed=1
        )
        result = repro.apply_mbpta(campaign.execution_times)
        assert result.pwcet_at(1e-15) >= campaign.high_water_mark

    def test_placement_factory_exported(self):
        geometry = repro.PlacementGeometry(num_sets=64, line_size=32)
        policy = repro.make_placement("rm", geometry, seed=1)
        assert policy.set_index(0) == 0  # all-zero index is a fixed point


class TestDeclaredDependencies:
    def test_table1_study_runs_without_networkx(self, tmp_path):
        """``import repro`` and ``study run table1`` need nothing that
        pyproject.toml does not declare; networkx is blocked in a child."""
        script = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro\n"
            "from repro.__main__ import main\n"
            "sys.exit(main(['study', 'run', 'table1', '--store', sys.argv[1]]))\n"
        )
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert "Table 1" in child.stdout

    def test_fig5_study_runs_without_scipy(self, tmp_path):
        """A cold seed-campaign study, and ``pwcet compare`` over its
        campaigns with every estimator, import no scipy: the admission
        tests' critical value comes from the stdlib and every fit, the
        maximum-likelihood one included, from numpy."""
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from repro.__main__ import main\n"
            "options = ['fig5', '--runs', '24', '--store', sys.argv[1]]\n"
            "code = main(['study', 'run', *options])\n"
            "sys.exit(code or main(['pwcet', 'compare', *options]))\n"
        )
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert "pWCET estimates" in child.stdout
        assert "simulated 2 of 2 scenarios" in child.stdout
        assert "pWCET estimator comparison" in child.stdout
        assert "pWCET gumbel-mle" in child.stdout


class TestStartUp:
    """A repro process starts numpy with one OpenBLAS thread unless its
    caller chose a count, and ``import repro`` leaves the environment alone
    (fresh interpreters, without the caller's ``OPENBLAS_NUM_THREADS``)."""

    @staticmethod
    def _child(code: str, blas_threads=None):
        """The ``result`` that ``code`` leaves in a fresh interpreter."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        script = f"import json, os, sys\n{code}\nprint(json.dumps(result))\n"
        child = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert child.returncode == 0, child.stderr
        return json.loads(child.stdout)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task"
    )
    def test_the_cli_starts_numpy_with_one_thread(self):
        result = self._child(
            "import repro.__main__\n"
            "import numpy\n"
            "result = [os.listdir('/proc/self/task'), os.environ['OPENBLAS_NUM_THREADS']]"
        )
        threads, variable = result
        assert (len(threads), variable) == (1, "1")

    def test_a_callers_blas_thread_count_is_kept(self):
        result = self._child(
            "import repro.__main__\n"
            "import numpy\n"
            "result = os.environ['OPENBLAS_NUM_THREADS']",
            blas_threads="2",
        )
        assert result == "2"

    def test_the_library_leaves_the_environment_alone(self):
        result = self._child(
            "before = dict(os.environ)\n"
            "import repro, repro.study\n"
            "repro.study.ResultStore  # loads numpy\n"
            "result = ['numpy' in sys.modules, dict(os.environ) == before,\n"
            "          'OPENBLAS_NUM_THREADS' in os.environ]"
        )
        assert result == [True, True, False]


#: Loaded by no command that does not run an experiment.
STUDY_LIBRARY = ("repro.study.library", "repro.analysis.experiments")
#: Loaded by no command but table1 (hardware) and serve/submit (service).
HARDWARE_AND_SERVICE = ("repro.hardware", "repro.service")


def _fresh_modules(tmp_path, code: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    listing = tmp_path / "modules.json"
    script = (
        "import json, sys\n"
        f"{code}\n"
        f"with open({str(listing)!r}, 'w') as handle:\n"
        "    json.dump(sorted(m for m in sys.modules if m.startswith('repro')), handle)\n"
    )
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(listing.read_text())


def _cli(argv) -> str:
    """``python -m repro ARGV`` inside the fresh interpreter (runpy, as -m)."""
    return (
        "import runpy\n"
        f"sys.argv = ['repro', *{list(argv)!r}]\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit_:\n"
        "    assert exit_.code in (0, None), exit_.code\n"
    )


def _loaded(modules: list, prefixes) -> list:
    return [name for name in modules if name.startswith(tuple(prefixes))]


class TestImportBudget:
    """A command loads only what it runs (fresh interpreters, sys.modules)."""

    @pytest.mark.parametrize("command", ["import", "help", "query"])
    def test_no_study_library_hardware_or_service_without_an_experiment(
        self, tmp_path, command
    ):
        code = {
            "import": "import repro",
            "help": _cli(["--help"]),
            "query": _cli(["query", "runs", "--store", str(tmp_path / "store")]),
        }[command]
        modules = _fresh_modules(tmp_path, code)
        assert _loaded(modules, STUDY_LIBRARY + HARDWARE_AND_SERVICE) == []

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (
                ["exec", "status"],
                ("repro.exec.executor", "repro.exec.worker", "repro.pwcet"),
            ),
            (["query", "runs"], ("repro.pwcet",)),
        ],
        ids=["exec-status", "query-runs"],
    )
    def test_store_readers_load_no_executor_worker_or_analysis(
        self, tmp_path, argv, absent
    ):
        argv = [*argv, "--store", str(tmp_path / "store")]
        assert _loaded(_fresh_modules(tmp_path, _cli(argv)), absent) == []

    def test_import_repro_and_help_load_no_subpackage(self, tmp_path):
        assert _fresh_modules(tmp_path, "import repro") == ["repro", "repro._lazy"]
        assert "repro.engine.numpy_engine" not in _fresh_modules(tmp_path, _cli(["--help"]))

    def test_warm_study_run_loads_no_hardware_or_service(self, tmp_path):
        from repro.__main__ import main

        argv = ["study", "run", "fig5", "--runs", "24", "--store", str(tmp_path / "store")]
        assert main(argv) == 0  # cold, in this process
        modules = _fresh_modules(tmp_path, _cli(argv))
        assert "repro.study.library" in modules
        assert _loaded(modules, HARDWARE_AND_SERVICE) == []

    @pytest.mark.parametrize(
        "code, expected",
        [
            (
                "from repro.study.registry import available_studies as names",
                {"table1", "table2", "fig1", "fig4a", "fig4b", "fig5", "avg_perf",
                 "ablation_seg", "ablation_repl"},
            ),
            ("from repro.engine.base import available_engines as names",
             {"numpy", "reference"}),
            ("from repro.engine import available_engines as names",
             {"numpy", "reference"}),
            ("from repro.pwcet.registry import available_estimators as names",
             {"gumbel-pwm", "gumbel-mle", "exponential-excess"}),
            ("from repro import available_estimators as names",
             {"gumbel-pwm", "gumbel-mle", "exponential-excess"}),
        ],
        ids=["studies", "engines-base", "engines", "estimators-registry", "estimators"],
    )
    def test_registries_hold_the_builtins_whichever_module_is_imported_first(
        self, tmp_path, code, expected
    ):
        listing = tmp_path / "names.json"
        _fresh_modules(
            tmp_path,
            f"{code}\nwith open({str(listing)!r}, 'w') as handle:\n"
            "    json.dump(names(), handle)",
        )
        assert set(json.loads(listing.read_text())) == expected


class TestDesignDocumentation:
    """DESIGN.md / EXPERIMENTS.md must exist and reference the experiments."""

    def test_design_md_lists_experiments(self):
        text = (EXAMPLES_DIR.parent / "DESIGN.md").read_text()
        for experiment in ("table1", "table2", "fig4a", "fig4b", "fig5", "avg_perf"):
            assert experiment in text

    def test_readme_exists(self):
        assert (EXAMPLES_DIR.parent / "README.md").exists()

    def test_experiments_md_exists(self):
        assert (EXAMPLES_DIR.parent / "EXPERIMENTS.md").exists()


@pytest.mark.slow
class TestExamples:
    """Each example script must run end-to-end (at reduced run counts)."""

    @pytest.mark.parametrize(
        "script, argv",
        [
            ("quickstart.py", []),
            ("eembc_pwcet_campaign.py", ["40"]),
            ("synthetic_footprints.py", ["30"]),
            ("hardware_costs.py", []),
        ],
    )
    def test_example_runs(self, script, argv, capsys, monkeypatch):
        path = EXAMPLES_DIR / script
        monkeypatch.setattr(sys, "argv", [str(path)] + argv)
        runpy.run_path(str(path), run_name="__main__")
        output = capsys.readouterr().out
        assert len(output) > 100
