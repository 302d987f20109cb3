"""The documentation is checked mechanically, as part of tier-1.

``tools/check_docs.py`` guards against doc drift: broken relative links,
fenced spec examples the spec machinery would reject, and console commands
using CLI flags that no longer exist.  This test runs the real checker over
the real docs — a PR that renames a flag or spec key without updating the
docs fails here — and exercises the checker's own detection logic on
synthetic drift so "0 problems" is trustworthy.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_docs", ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


class TestRealDocs:
    def test_repository_docs_are_clean(self, capsys):
        assert check_docs.main() == 0, capsys.readouterr().err

    def test_docs_exist(self):
        for name in ("README.md", "docs/architecture.md", "docs/campaigns.md",
                     "docs/adaptive.md", "docs/distributed.md"):
            assert (ROOT / name).exists(), name


class TestLinkCheck:
    def test_broken_relative_link_is_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [other](missing.md) and [ok](exists.md)")
        (tmp_path / "exists.md").touch()
        errors = []
        check_docs.check_links(page, page.read_text(), errors)
        assert len(errors) == 1 and "missing.md" in errors[0]

    def test_external_and_anchor_links_are_ignored(self, tmp_path):
        page = tmp_path / "page.md"
        text = "[a](https://example.org/x) [b](#section) [c](mailto:x@y.z)"
        errors = []
        check_docs.check_links(page, text, errors)
        assert errors == []


class TestSpecBlocks:
    def test_valid_spec_builds(self):
        errors = []
        check_docs.check_spec_block(
            "toml",
            '[scenario]\nfigure = "figure5"\n'
            "[axes]\nseed = [0, 1]\n",
            "synthetic", errors,
        )
        assert errors == []

    def test_unknown_runner_key_is_reported(self):
        errors = []
        check_docs.check_spec_block(
            "toml", "[runner]\nturbo = true\n", "synthetic", errors
        )
        assert len(errors) == 1 and "does not build" in errors[0]

    def test_unknown_backend_option_is_reported(self):
        errors = []
        check_docs.check_spec_block(
            "toml",
            '[runner]\nbackend = "distributed"\n'
            'backend_options = { transport = "telepathy" }\n',
            "synthetic", errors,
        )
        assert len(errors) == 1

    def test_non_spec_blocks_are_skipped(self):
        errors = []
        check_docs.check_spec_block(
            "toml", "[tool.pytest]\nfoo = 1\n", "synthetic", errors
        )
        check_docs.check_spec_block("json", '{"rows": []}', "synthetic", errors)
        assert errors == []


class TestConsoleBlocks:
    def test_continuation_lines_are_joined(self):
        content = "$ python -m repro.campaign spec.toml \\\n      --serial\nignored output"
        assert list(check_docs.iter_commands(content)) == [
            "python -m repro.campaign spec.toml --serial"
        ]

    def test_unknown_module_flag_is_reported(self):
        errors = []
        check_docs.ConsoleChecker().check(
            "$ python -m repro.campaign spec.toml --warp-speed",
            "synthetic", errors,
        )
        assert len(errors) == 1 and "--warp-speed" in errors[0]

    def test_known_worker_flags_pass(self):
        errors = []
        check_docs.ConsoleChecker().check(
            "$ python -m repro.campaign.worker /q --lease-timeout 30\n"
            "$ python -m repro.campaign.worker --connect-http http://host:9100",
            "synthetic", errors,
        )
        assert errors == []

    def test_missing_example_script_is_reported(self):
        errors = []
        check_docs.ConsoleChecker().check(
            "$ python examples/definitely_not_there.py --x", "synthetic", errors
        )
        assert len(errors) == 1 and "missing script" in errors[0]

    def test_env_prefixes_are_ignored(self):
        errors = []
        check_docs.ConsoleChecker().check(
            "$ PYTHONPATH=src python -m repro.campaign spec.toml --serial",
            "synthetic", errors,
        )
        assert errors == []
