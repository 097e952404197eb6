"""The CI workflow file loads as YAML, and every step of its test job
either runs a command or uses an action: a stray `: ` in a step name makes
the whole file invalid, and then GitHub runs none of its jobs."""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"


def test_tier1_workflow_steps_each_run_or_use_one_thing():
    doc = yaml.safe_load(WORKFLOW.read_text())
    steps = doc["jobs"]["tests"]["steps"]
    assert isinstance(steps, list) and steps
    for step in steps:
        assert isinstance(step, dict)
        assert ("run" in step) != ("uses" in step), step
