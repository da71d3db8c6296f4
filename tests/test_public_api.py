"""Smoke tests for the top-level public API and the example scripts."""

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
        """A cold seed-campaign study imports no scipy: the admission tests'
        critical value comes from the stdlib; only ``gumbel-mle`` needs it."""
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from repro.__main__ import main\n"
            "sys.exit(main(['study', 'run', 'fig5', '--runs', '24', "
            "'--store', sys.argv[1]]))\n"
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
