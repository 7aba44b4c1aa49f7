"""``repro analyze`` CLI: exit codes, JSON schema."""

import json

import pytest

from repro.cli import main

BROKEN_CFG = (
    "[net]\nwidth=16\nheight=16\nchannels=3\n"
    "[convolutional]\nfilters=100\nsize=1\nstride=1\npad=0\n"
    "activation=linear\n"
    "[region]\nclasses=20\nnum=5\n"
)


class TestExitCodes:
    def test_clean_network_full_analysis_exits_zero(self, capsys):
        assert main(["analyze", "mlp4"]) == 0
        out = capsys.readouterr().out
        assert "== mlp4 ==" in out
        assert "summary:" in out

    def test_clean_zoo_cfg_only_exits_zero(self, capsys):
        assert main(["analyze", "--cfg-only"]) == 0
        out = capsys.readouterr().out
        for name in ("tiny", "tincy", "mlp4", "cnv6"):
            assert f"== {name} ==" in out

    def test_self_lint_exits_zero(self, capsys):
        assert main(["analyze", "--self"]) == 0
        assert "== self ==" in capsys.readouterr().out

    def test_injected_broken_network_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text(BROKEN_CFG)
        assert main(["analyze", "--cfg-only", str(path)]) == 1
        out = capsys.readouterr().out
        assert "region expects 125" in out
        assert "[error]" in out


class TestJsonSchema:
    def test_document_is_schema_stable(self, capsys):
        assert main(["analyze", "--cfg-only", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert isinstance(document["findings"], list)
        assert document["findings"], "zoo cfg lint should surface warnings"
        for finding in document["findings"]:
            assert set(finding) == {
                "severity", "rule", "where", "message", "hint", "target",
            }
            assert finding["severity"] in ("info", "warning", "error")

    def test_broken_network_still_emits_valid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text(BROKEN_CFG)
        assert main(["analyze", "--cfg-only", "--json", str(path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert any(f["severity"] == "error" for f in document["findings"])
        assert all(f["target"] == str(path) for f in document["findings"])

