import re
import shlex
from pathlib import Path

import pytest

from chaincast import pipeline
from chaincast.cli import main
from chaincast.synthetic import make_fixture

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(tmp_path, monkeypatch):
    """The README's "Library use" block, run where `make-fixture` put the
    demo data, so renaming or deleting a name it uses fails here."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    make_fixture(tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["preds"]) == 260


def _output_after(command: str) -> str:
    """The first plain code block after the ``sh`` block ending in
    ``command``: what the README says ``command`` prints."""
    after = README.read_text(encoding="utf-8").split(f"{command}\n```\n", 1)[1]
    return re.search(r"^```\n(.*?)^```", after, re.DOTALL | re.MULTILINE).group(1)


@pytest.mark.parametrize("command", [
    "chaincast pipeline run --config demo/pipeline.cfg",
    "chaincast fit-arima --input demo/oil.csv --config demo/pipeline.cfg",
    "chaincast stepwise --config demo/pipeline.cfg --direction backward",
])
def test_example_output_is_what_the_command_prints(command, demo_bundle, monkeypatch,
                                                    capsys):
    """Each example block is the stdout of the command above it, run on the
    bundled data that `make-fixture` writes.  `pipeline run` prints the
    bundled run's stage accuracies through `cli._cmd_pipeline` without
    running the chain again."""
    monkeypatch.setattr(pipeline, "run", lambda config: demo_bundle["report"])
    root = demo_bundle["root"]
    assert main(shlex.split(command.replace("demo/", f"{root}/"))[1:]) == 0
    assert capsys.readouterr().out.replace(str(root), "demo") == _output_after(command)


def test_config_table_matches_the_loader():
    """Each key of `pipeline._KEYS` is on the README's "Required keys" line
    (no default and no rule) or in its `| key | default | rule |` table with
    its default and its rules (its row's, then any `_TIES` gives it), and no
    other key is documented, so a default or a rule changed in one place
    fails."""
    section = README.read_text(encoding="utf-8").split("## Config format", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented, rules = [], {}
    for line in section.splitlines():
        if line.startswith("| `"):
            keys, defaults, rule = (re.findall(r"`([^`]+)`", cell)
                                    for cell in line.split(" | ")[:3])
            assert len(keys) == len(defaults) == 1, line
            documented.append((keys[0], defaults[0]))
            rules[keys[0]] = rule
    required = re.search(r"^Required keys: (.*)\.$", section, re.MULTILINE).group(1)
    documented += [(key, None) for key in re.findall(r"`([^`]+)`", required)]
    assert len(documented) == len(dict(documented))
    assert dict(documented) == {key: row[0] for key, row in pipeline._KEYS.items()}
    expected = {key: [rule[0]] if rule else [] for key, (_, _, _, rule) in pipeline._KEYS.items()}
    for key, rule, _, _ in pipeline._TIES:
        expected[key].append(rule)
    assert rules == {key: expected.pop(key) for key in rules}
    assert not any(expected.values())  # the required keys have no rule
