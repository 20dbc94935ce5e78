import re
from pathlib import Path

from chaincast import pipeline
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
