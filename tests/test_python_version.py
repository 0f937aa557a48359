"""The sources parse as the oldest Python that pyproject.toml admits."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_source_file_parses_as_python_3_10():
    paths = sorted(path for folder in ("src", "scripts", "bench", "tests")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
