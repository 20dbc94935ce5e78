import re
from pathlib import Path

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
