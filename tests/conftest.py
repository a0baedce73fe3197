import json
import os

import pytest

from tdmscan import (
    Aggregator,
    RawDocument,
    parse_config,
    profile_pipeline,
    shipped_registry,
)
from tdmscan.script_resolver import collect_script_documents, script_references

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
CORPUS_DIR = os.path.join(FIXTURES_DIR, "corpus")

EXAMPLE_CONFIG = """\
language: python
os: linux
stages: [lint, test, deploy]
jobs:
  include:
    - stage: lint
      name: Lint
      install: pip install flake8
      script: flake8 src tests
    - stage: test
      name: Unit tests
      python: "3.11"
      install: pip install -r r.txt
      script: pytest -q
    - stage: test
      name: integration tests
      python: "3.11"
      install: pip install -r req.txt
      script: pytest -q -r
    - stage: deploy
      if: tag IS present
      script: skip
      deploy:
        provider: pypi
        username: "__token__"
        password: $PYPI_TOKEN
"""


@pytest.fixture(scope="session")
def registry():
    return shipped_registry()


@pytest.fixture
def example_doc():
    return RawDocument("example/python-project", ".travis.yml", EXAMPLE_CONFIG)


@pytest.fixture
def example_config(example_doc):
    return parse_config(example_doc)


@pytest.fixture(scope="session")
def corpus_labels():
    with open(os.path.join(FIXTURES_DIR, "corpus_labels.json")) as handle:
        return json.load(handle)


class MappingTree:
    """In-memory file tree backed by a plain dict."""

    def __init__(self, files: dict[str, str]):
        self._files = dict(files)

    def read(self, path: str) -> str | None:
        return self._files.get(path)


def make_doc(content: str, slug: str = "acme/demo") -> RawDocument:
    return RawDocument(slug, ".travis.yml", content)


def walk_commands(jobs):
    """(job index, phase, ordinal, text) of every command of `jobs`, in job,
    phase (lifecycle) and ordinal order: the walk each layer makes."""
    return [
        (job.index, phase, ordinal, text)
        for job in jobs
        for phase, texts in job.phases.items()
        for ordinal, text in enumerate(texts)
    ]


def collect_scripts(cfg, files=None):
    """(scripts, sites) for `cfg`'s commands over an in-memory tree."""
    references = script_references(cfg.jobs)
    return collect_script_documents(references, MappingTree(files or {}))


def profile_of(registry, cfg, files=None):
    """The tool profile of `cfg`, with scripts read from `files`."""
    scripts, sites = collect_scripts(cfg, files)
    return profile_pipeline(cfg, scripts, registry, sites=sites)


def fold_records(records, registry_version=""):
    """The CorpusReport of `(slug, PipelineRecord)` pairs, folded through one
    Aggregator."""
    aggregator = Aggregator(registry_version)
    for slug, record in records:
        aggregator.add(slug, record)
    return aggregator.report()
