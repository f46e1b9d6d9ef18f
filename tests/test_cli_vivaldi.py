"""CLI coverage for the landmark-free vivaldi scheme."""

import json

from repro.cli import main


class TestVivaldiCLI:
    def test_form_groups_vivaldi(self, capsys, tmp_path):
        net_path = tmp_path / "net.npz"
        assert main(
            ["network", "--caches", "12", "--seed", "2", "--out",
             str(net_path)]
        ) == 0
        groups_path = tmp_path / "groups.json"
        code = main(
            [
                "form-groups",
                "--network", str(net_path),
                "--scheme", "vivaldi",
                "--k", "3",
                "--out", str(groups_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "vivaldi" in out
        payload = json.loads(groups_path.read_text())
        members = [m for g in payload["groups"] for m in g["members"]]
        assert sorted(members) == list(range(1, 13))
