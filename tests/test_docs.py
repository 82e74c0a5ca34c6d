"""README's "Library use" section runs as written and documents the package's
exports, its "Command line" block uses only commands and flags the parser
accepts, and its "Configuration" block lists every key a config accepts."""

import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import langrepo
from langrepo.cli import build_parser
from langrepo.config import AppConfig, LlmSettings
from langrepo.embed import EmbeddingProviderConfig
from langrepo.repository import BuildConfig

from conftest import make_caption_set, write_caption_file

README = Path(__file__).resolve().parents[1] / "README.md"
PYPROJECT = README.with_name("pyproject.toml")


def library_use_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library use", 1)[1].split("\n## ", 1)[0]


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", library_use_section(), re.S)
    assert len(blocks) == 1
    write_caption_file(tmp_path / "demo.json", make_caption_set(60, video_id="demo"))
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert (tmp_path / "repo.json").is_file()
    assert (tmp_path / ".cache" / "responses.sqlite").is_file()
    assert capsys.readouterr().out.startswith("cooking ")


def test_every_export_is_documented():
    section = library_use_section()
    assert [name for name in langrepo.__all__ if not re.search(rf"\b{name}\b", section)] == []


def test_submodules_resolve_after_importing_the_package():
    modules = ["embed", "errors", "evalharness", "grouping", "ingest", "llm", "prompts", "repository", "vqa"]
    code = f"import langrepo; [getattr(langrepo, m) for m in {modules!r}]"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=Path(langrepo.__file__).parents[1])


def test_config_block_lists_every_accepted_key():
    text = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    block = re.sub(r"//[^\n]*", "", re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)).strip()
    keys = re.compile(r'"(\w+)":')
    sections = {name: sorted(keys.findall(body)) for name, body in re.findall(r'"(\w+)":\s*\{(.*?)\}', block, re.S)}
    sections["top level"] = sorted(keys.findall(re.sub(r"\{[^{}]*\}", "", block[1:-1])))
    accepted = {"top level": AppConfig, "llm": LlmSettings, "embed": EmbeddingProviderConfig, "build": BuildConfig}
    assert sections == {name: sorted(f.name for f in fields(cls)) for name, cls in accepted.items()}


def test_command_line_block_matches_the_parser():
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1).replace("\\\n", " ")
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    lines = [shlex.split(line) for line in block.splitlines() if line.lstrip().startswith("langrepo ")]
    assert {words[1] for words in lines} == set(subparsers)
    for _, command, *words in lines:
        accepted = subparsers[command]._option_string_actions
        assert [w for w in words if w.startswith("-") and w not in accepted] == [], command


def test_dev_extra_installs_the_benchmark_plugin():
    # tests/test_persistence.py uses pytest-benchmark's fixture and mark; without the plugin
    # filterwarnings = ["error"] turns the unknown mark into a collection error.
    tomllib = pytest.importorskip("tomllib")
    dev = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["optional-dependencies"]["dev"]
    assert [spec for spec in dev if re.match(r"pytest-benchmark\b", spec)] != []
