"""Documentation honesty checks.

The tutorial's code blocks must at least parse, README's CLI commands must
exist, and the experiment index in DESIGN.md must reference real bench
files — cheap guards against docs drifting from the code.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestTutorial:
    def test_python_blocks_parse(self):
        blocks = re.findall(r"```python\n(.*?)```", read("docs/TUTORIAL.md"),
                            re.S)
        assert len(blocks) >= 4
        for i, block in enumerate(blocks):
            compile(block, f"<tutorial-{i}>", "exec")

    def test_mentioned_modules_exist(self):
        import importlib

        text = read("docs/TUTORIAL.md")
        for module in re.findall(r"`(repro(?:\.\w+)+)`", text):
            name = module
            # strip trailing attribute if it's Class-like (capitalised)
            parts = name.split(".")
            while parts and parts[-1][:1].isupper():
                parts.pop()
            importlib.import_module(".".join(parts))


class TestReadme:
    def test_cli_commands_exist(self):
        import repro.cli as cli

        text = read("README.md")
        table_commands = re.findall(
            r"^\| `(fig\d|ablations|baselines|tenancy|federation|adaptive)` \|",
            text, re.M,
        )
        assert len(table_commands) >= 12
        for command in table_commands:
            assert command in cli._FIGURES, command

    def test_documented_examples_exist(self):
        text = read("README.md")
        for script in re.findall(r"`(\w+\.py)` \|", text):
            assert (ROOT / "examples" / script).exists(), script


class TestDesign:
    def test_bench_targets_exist(self):
        text = read("DESIGN.md")
        for bench in set(re.findall(r"`(benchmarks/\w+\.py)`", text)):
            assert (ROOT / bench).exists(), bench

    @staticmethod
    def module_map():
        # §3's tree: a name ending in "/" opens a directory, and each two
        # columns of indentation is one level under src/repro/
        text = read("DESIGN.md")
        tree = text.split("## 3. System inventory", 1)[1]
        tree = tree.split("```", 2)[1]
        lines = tree.splitlines()[1:]
        assert lines[0] == "src/repro/"
        stack, named = [ROOT / "src" / "repro"], []
        for line in lines[1:]:
            match = re.match(r"( +)(\S+)(?:  |$)", line)
            if not match or len(match[1]) > 8:
                continue  # a description's continuation line
            depth = len(match[1]) // 2
            del stack[depth:]
            path = stack[-1] / match[2]
            if match[2].endswith("/"):
                stack.append(path)
            elif match[2].endswith(".py"):
                named.append(path)
        return named

    def test_module_map_names_only_files_that_exist(self):
        named = self.module_map()
        assert len(named) > 40
        for path in named:
            assert path.is_file(), path.relative_to(ROOT)

    def test_module_map_names_every_module(self):
        # experiments/ and util/ are described as groups, not per file
        src = ROOT / "src" / "repro"
        named = set(self.module_map())
        missing = [
            str(path.relative_to(src))
            for path in sorted(src.rglob("*.py"))
            if path.name not in ("__init__.py", "__main__.py")
            and path.relative_to(src).parts[0] not in ("experiments", "util")
            and path not in named
        ]
        assert missing == []

    def test_mismatch_notice_absent(self):
        # DESIGN.md §0 requires flagging a paper-text mismatch; we verified
        # the text matches, so no mismatch notice should exist.
        assert "mismatch" not in read("DESIGN.md").split("\n\n")[0].lower()


class TestExperimentsDoc:
    def test_every_figure_section_present(self):
        text = read("EXPERIMENTS.md")
        for figure in range(1, 9):
            assert f"## Figure {figure}" in text

    def test_extension_sections_present(self):
        text = read("EXPERIMENTS.md")
        for section in ("Baselines", "Tenancy", "Federation", "Adaptive",
                        "Ablations"):
            assert section in text
