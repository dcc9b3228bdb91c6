"""CLI tests (direct invocation of repro.cli.main)."""

import pytest

from repro.cli import main


def test_list_mappers(capsys):
    assert main(["list", "mappers"]) == 0
    out = capsys.readouterr().out
    assert "dresc" in out and "exact" in out and "[22]" in out


def test_list_kernels(capsys):
    assert main(["list", "kernels"]) == 0
    assert "dot_product" in capsys.readouterr().out


def test_list_archs(capsys):
    assert main(["list", "archs"]) == 0
    out = capsys.readouterr().out
    assert "simple4x4" in out and "adres4x4" in out


def test_map_kernel(capsys):
    rc = main([
        "map", "--kernel", "dot_product", "--arch", "simple4x4",
        "--mapper", "list_sched", "--show-contexts",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "II=1" in out and "configuration" in out


def test_map_failure_exit_code(capsys):
    rc = main([
        "map", "--kernel", "conv3x3", "--arch", "simple2x2",
        "--mapper", "sa_spatial",
    ])
    assert rc == 1
    assert "mapping failed" in capsys.readouterr().err


def test_map_source_file(tmp_path, capsys):
    src = tmp_path / "k.cgra"
    src.write_text("kernel k { y = a + b; out y; }")
    rc = main([
        "map", "--source", str(src), "--arch", "simple4x4",
        "--mapper", "ultrafast",
    ])
    assert rc == 0
    assert "Mapping of" in capsys.readouterr().out


def test_compare(capsys):
    rc = main([
        "compare", "--kernels", "dot_product,vector_add",
        "--mappers", "list_sched,ultrafast",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ultrafast" in out and "vector_add" in out


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I (literature)" in out
    assert "Table I (this package)" in out
    assert "[22]" in out and "dresc" in out


def test_timeline(capsys):
    assert main(["timeline"]) == 0
    out = capsys.readouterr().out
    assert "2021" in out and "Modulo scheduling" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command", [
    ["compare", "--kernels", "dot_product", "--mappers", "list_sched"],
    ["dse"],
    ["fuzz", "--seeds", "0:1"],
    ["serve", "--port", "0"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_unusable_timeout_is_a_usage_error(command, value, capsys):
    """Every ``--timeout`` flag refuses a value that is not a positive,
    finite number of seconds before any work starts."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--timeout", value])
    assert exc.value.code == 2
    assert "--timeout" in capsys.readouterr().err


def test_map_positional_kernel_and_fuzzy_names(capsys):
    rc = main(["map", "dotprod", "--arch", "4x4", "--mapper", "sa_spatial"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dot_product on simple4x4" in out


def test_map_unknown_kernel_lists_candidates():
    with pytest.raises(SystemExit) as exc:
        main(["map", "no_such_kernel"])
    assert "available" in str(exc.value)


def test_map_profile_prints_breakdown(capsys):
    rc = main(["map", "fir4", "--mapper", "list_sched", "--profile"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-phase summary" in out
    assert "candidates_explored" in out
    assert "map" in out and "ii" in out


def test_map_trace_writes_jsonl(tmp_path, capsys):
    import json

    path = tmp_path / "map.jsonl"
    rc = main(["map", "fir4", "--mapper", "dresc", "--trace", str(path)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    recs = [json.loads(l) for l in path.read_text().splitlines()]
    assert recs
    assert recs[0]["type"] == "manifest"  # provenance header first
    assert recs[1]["name"] == "map"
    assert any(r.get("depth", 0) > 0 for r in recs)  # nested spans


def test_compare_trace_smoke(tmp_path, capsys):
    import json

    path = tmp_path / "cmp.jsonl"
    rc = main([
        "compare", "--kernels", "dot_product,fir4",
        "--mappers", "list_sched,dresc",
        "--trace", str(path), "--profile",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-phase summary" in out
    recs = [json.loads(l) for l in path.read_text().splitlines()]
    # One root span per (mapper, kernel) cell (plus the manifest line).
    assert sum(
        1 for r in recs if "name" in r and r.get("parent") is None
    ) == 4


def test_verbose_flag_sets_debug_level():
    import logging

    assert main(["-v", "list", "archs"]) == 0
    assert logging.getLogger("repro").level == logging.DEBUG
    assert main(["list", "archs"]) == 0
    assert logging.getLogger("repro").level == logging.WARNING
