import importlib
import os
import re

import selfnorm

PYPROJECT = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")


def test_version_has_one_source():
    # parsed with regular expressions: tomllib needs Python 3.11
    with open(PYPROJECT) as fh:
        text = fh.read()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert not re.search(r"^version\s*=", project, re.M)
    assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
    dynamic = re.search(r"^\[tool\.setuptools\.dynamic\]\n(.*?)(?=^\[|\Z)", text,
                        re.M | re.S).group(1)
    attr = re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"([\w.]+)"\s*\}', dynamic,
                     re.M).group(1)
    module, name = attr.rsplit(".", 1)
    assert getattr(importlib.import_module(module), name) == selfnorm.__version__
    assert re.fullmatch(r"\d+\.\d+\.\d+", selfnorm.__version__)
