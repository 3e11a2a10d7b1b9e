"""Documentation consistency checks (README.md + docs/).

These run in tier 1 *and* as the CI docs job, so the documentation cannot
drift from the tree:

* every relative markdown link in README.md and docs/*.md resolves to an
  existing file (anchors are checked to point at real files too);
* every fenced ``python`` code block parses (``compile``), and blocks
  containing doctest prompts execute under ``doctest``;
* the paper-to-code cross-reference table only names benchmark scripts
  that exist, and every benchmark script is cross-referenced;
* the docs pages and the README link to each other (the docs form one
  connected subsystem, not orphan files).
"""

import doctest
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

_LINK = re.compile(r"\[[^\]]+\]\(([^)]+)\)")
_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_BENCH_REF = re.compile(r"benchmarks/(bench_\w+\.py)")


def _doc_ids():
    return [path.relative_to(REPO_ROOT).as_posix() for path in DOC_FILES]


@pytest.fixture(params=DOC_FILES, ids=_doc_ids())
def doc(request):
    path = request.param
    assert path.exists(), f"missing documentation file {path}"
    return path


class TestDocTree:
    def test_expected_files_exist(self):
        for name in ("README.md", "docs/architecture.md", "docs/engines.md",
                     "docs/certification.md", "docs/service.md"):
            assert (REPO_ROOT / name).exists(), f"{name} is missing"

    def test_relative_links_resolve(self, doc):
        text = doc.read_text(encoding="utf-8")
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (doc.parent / path_part).resolve()
            assert resolved.exists(), f"{doc.name}: broken link {target!r}"

    def test_python_blocks_compile(self, doc):
        text = doc.read_text(encoding="utf-8")
        for index, block in enumerate(_FENCE.findall(text)):
            if ">>>" in block:
                # Doctest-style blocks must actually run.
                parser = doctest.DocTestParser()
                test = parser.get_doctest(block, {}, f"{doc.name}[{index}]", doc.name, 0)
                runner = doctest.DocTestRunner(verbose=False)
                runner.run(test)
                assert runner.failures == 0, f"{doc.name}: doctest block {index} failed"
            else:
                try:
                    compile(block, f"{doc.name}[block {index}]", "exec")
                except SyntaxError as exc:  # pragma: no cover - failure path
                    pytest.fail(f"{doc.name}: python block {index} does not parse: {exc}")

    def test_docs_are_cross_linked(self):
        """README links every docs page; every docs page links back."""
        pages = ("architecture.md", "engines.md", "certification.md", "service.md")
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for name in pages:
            assert f"docs/{name}" in readme, f"README.md does not link docs/{name}"
        for name in pages:
            text = (REPO_ROOT / "docs" / name).read_text(encoding="utf-8")
            assert "../README.md" in text, f"docs/{name} does not link the README"
            for other in set(pages) - {name}:
                assert other in text, f"docs/{name} does not link {other}"


class TestConcurrencySection:
    """The "Concurrent sweeps" section of docs/service.md is load-bearing:
    it documents the per-sweep exactly-once contract and the concurrency
    knob, README + architecture.md point at it, and the knob table of the
    same page lists exactly the ``ServiceConfig`` fields."""

    SECTION_HEADER = "## Concurrent sweeps"

    def _section(self, header=SECTION_HEADER):
        text = (REPO_ROOT / "docs" / "service.md").read_text(encoding="utf-8")
        assert f"{header}\n" in text, f"docs/service.md lost its {header!r} section"
        return text.split(f"{header}\n", 1)[1].split("\n## ", 1)[0]

    def test_section_documents_the_concurrency_knob(self):
        assert "max_concurrent_batches" in self._section(), (
            "service.md section does not document max_concurrent_batches"
        )

    def test_section_states_the_contracts(self):
        """The per-sweep exactly-once contract and the respawn semantics
        must be stated, not just the knob names."""
        section = self._section().lower()
        for phrase in ("exactly-once", "per sweep", "generation"):
            assert phrase in section, (
                f"service.md concurrency section no longer states {phrase!r}"
            )

    def test_documented_knobs_are_real_config_fields(self):
        from dataclasses import fields

        from repro.core.config import ServiceConfig

        table = self._section("## `ServiceConfig` knobs").split("| Field |", 1)[1]
        documented = set(re.findall(r"`(\w+)`", "".join(
            line.split("|")[1] for line in table.splitlines() if line.startswith("| `")
        )))
        assert documented == {field.name for field in fields(ServiceConfig)}

    def test_readme_and_architecture_cross_link_the_section(self):
        for name in ("README.md", "docs/architecture.md"):
            text = (REPO_ROOT / name).read_text(encoding="utf-8")
            assert "Concurrent sweeps" in text, (
                f"{name} does not point at the concurrency section"
            )


class TestCrossReferenceTable:
    def test_benchmark_references_exist_and_are_complete(self):
        text = (REPO_ROOT / "docs" / "certification.md").read_text(encoding="utf-8")
        referenced = set(_BENCH_REF.findall(text))
        existing = {path.name for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
        missing = referenced - existing
        assert not missing, f"cross-reference table names absent benchmarks: {missing}"
        unreferenced = existing - referenced
        assert not unreferenced, (
            f"benchmarks missing from the paper-to-code table: {unreferenced}"
        )

    def test_documented_config_knobs_exist(self):
        """The knob table names exactly the CraftConfig fields, each once."""
        from dataclasses import fields

        from repro.core.config import CraftConfig

        text = (REPO_ROOT / "docs" / "certification.md").read_text(encoding="utf-8")
        table = text.split("## Key `CraftConfig` knobs", 1)[1].split("| Field |", 1)[1]
        table = table.split("\n\n", 1)[0]
        documented = re.findall(r"`(\w+)`", "".join(
            line.split("|")[1] for line in table.splitlines() if line.startswith("| `")
        ))
        assert sorted(documented) == sorted(field.name for field in fields(CraftConfig))
