"""The perf-regression ledger: recording, baseline selection, and
noise-aware comparison — including the injected-regression drill the
ledger exists for."""

import json

import pytest

from repro.arch import presets
from repro.bench.history import (
    DEFAULT_SLICE,
    ENTRY_SCHEMA,
    EXACT_SLICE,
    Comparison,
    append_entry,
    compare_entries,
    load_entries,
    render_comparison,
    render_entries,
    run_cache_slice,
    run_slice,
    select_baseline,
)
from repro.cache import MappingCache
from repro.cli import main


@pytest.fixture(scope="module")
def cgra():
    return presets.by_name("simple4x4")


@pytest.fixture(scope="module")
def entry(cgra):
    """One real recorded entry (module-scoped: the slice is the
    expensive part of these tests)."""
    return run_slice(cgra, repeats=1, label="test")


# ---------------------------------------------------------------------------
# Recording
def test_run_slice_entry_shape(entry):
    assert entry["schema"] == ENTRY_SCHEMA
    assert entry["repeats"] == 1
    manifest = entry["manifest"]
    assert manifest["type"] == "manifest"
    assert manifest["arch"] == "simple4x4"
    assert manifest["arch_fingerprint"]
    assert manifest["label"] == "test"
    cells = entry["cells"]
    assert [(c["mapper"], c["kernel"]) for c in cells] == list(DEFAULT_SLICE)
    for cell in cells:
        assert cell["ok"]
        assert cell["ii"] >= 1
        assert cell["time_ms"] >= cell["time_ms_min"] >= 0
    assert entry["wall_ms"] > 0
    # The slice ran under its own registry and recorded real work.
    metrics = entry["metrics"]
    assert metrics["matrix_cells_total"]["value"] == len(DEFAULT_SLICE)
    assert metrics["maps_total"]["value"] == len(DEFAULT_SLICE)
    assert metrics["map_latency_ms"]["count"] == len(DEFAULT_SLICE)


def test_run_slice_rejects_bad_repeats(cgra):
    with pytest.raises(ValueError):
        run_slice(cgra, repeats=0)


def test_run_slice_parallel_same_work_counts(cgra, entry):
    """The parallel slice changes *where* cells run, never the work:
    its deterministic totals must match the serial entry's exactly."""
    par = run_slice(cgra, repeats=1, label="test", jobs=2)
    assert par["jobs"] == 2
    assert entry["jobs"] == 1
    assert [
        (c["mapper"], c["kernel"], c["ok"], c["ii"])
        for c in par["cells"]
    ] == [
        (c["mapper"], c["kernel"], c["ok"], c["ii"])
        for c in entry["cells"]
    ]

    def work(metrics):
        out = {}
        for name, data in metrics.items():
            if data["type"] == "counter":
                out[name] = data["value"]
            elif data["type"] == "histogram":
                out[f"{name}.count"] = data["count"]
        return out

    assert work(par["metrics"]) == work(entry["metrics"])
    # and the two entries diff cleanly in the ledger's own terms
    comparisons = compare_entries(entry, par)
    counts = [c for c in comparisons if c.cls == "count"]
    assert counts and not any(c.regressed for c in counts)


def test_append_and_load_roundtrip(entry, tmp_path):
    path = tmp_path / "history" / "simple4x4.jsonl"
    append_entry(entry, str(path))
    append_entry(entry, str(path))
    entries = load_entries(str(path))
    assert len(entries) == 2
    assert entries[0] == json.loads(json.dumps(entry))  # JSON-clean


def test_load_entries_missing_file(tmp_path):
    assert load_entries(str(tmp_path / "nope.jsonl")) == []


def test_load_entries_corrupt_line_names_path_and_line(tmp_path):
    """A truncated append or hand-edit must surface as a ValueError
    naming file and line, never a raw JSONDecodeError traceback."""
    path = tmp_path / "simple4x4.jsonl"
    path.write_text('{"schema": 1, "cells": []}\n{"truncat\n')
    with pytest.raises(ValueError) as exc:
        load_entries(str(path))
    msg = str(exc.value)
    assert "corrupt ledger" in msg
    assert f"{path}:2" in msg


def test_load_entries_skips_blank_lines(tmp_path):
    path = tmp_path / "simple4x4.jsonl"
    path.write_text('{"schema": 1}\n\n  \n{"schema": 1}\n')
    assert len(load_entries(str(path))) == 2


# ---------------------------------------------------------------------------
# Baseline selection
def _fake_entries():
    return [
        {"manifest": {"git_sha": "aaa111"}, "cells": []},
        {"manifest": {"git_sha": "bbb222"}, "cells": []},
        {"manifest": {"git_sha": "aaa333"}, "cells": []},
    ]


def test_select_baseline_semantics():
    entries = _fake_entries()
    assert select_baseline(entries) is entries[-1]
    assert select_baseline(entries, "last") is entries[-1]
    assert select_baseline(entries, "0") is entries[0]
    assert select_baseline(entries, "-2") is entries[1]
    assert select_baseline(entries, "bbb") is entries[1]
    # Sha prefixes resolve newest-first.
    assert select_baseline(entries, "aaa") is entries[2]


def test_select_baseline_errors():
    with pytest.raises(ValueError):
        select_baseline([], "last")
    entries = _fake_entries()
    with pytest.raises(ValueError):
        select_baseline(entries, "9")
    with pytest.raises(ValueError):
        select_baseline(entries, "deadbeef")


# ---------------------------------------------------------------------------
# Comparison
def test_compare_identical_entries_is_clean(entry):
    comparisons = compare_entries(entry, entry)
    assert comparisons
    assert not any(c.regressed for c in comparisons)
    report = render_comparison(comparisons)
    assert "0 regression(s)" in report


def test_compare_flags_injected_count_regression(entry):
    tampered = json.loads(json.dumps(entry))
    # The baseline "did a third of the work": a fresh run then shows a
    # 3x count blowup, far beyond the 2% tolerance.
    tampered["metrics"]["matrix_cells_total"]["value"] = 1
    comparisons = compare_entries(tampered, entry)
    bad = [c for c in comparisons if c.regressed]
    assert [c.metric for c in bad] == ["matrix_cells_total"]
    report = render_comparison(comparisons)
    assert "matrix_cells_total" in report
    assert "REGRESSED" in report
    assert "1 regression(s)" in report


def test_compare_reports_steals_but_never_flags_them(entry):
    """Steals are scheduling events: 0 -> 1 between runs of the same
    code is host noise, while every other count keeps its 2% gate."""
    base = json.loads(json.dumps(entry))
    new = json.loads(json.dumps(entry))
    base["metrics"]["pool_steals_total"] = {"type": "counter", "value": 0}
    new["metrics"]["pool_steals_total"] = {"type": "counter", "value": 1}
    base["metrics"]["matrix_cells_total"]["value"] = 1
    comparisons = compare_entries(base, new)
    (steals,) = [c for c in comparisons if c.metric == "pool_steals_total"]
    assert (steals.cls, steals.base, steals.new) == ("event", 0.0, 1.0)
    assert not steals.regressed
    bad = [c.metric for c in comparisons if c.regressed]
    assert bad == ["matrix_cells_total"]


def test_compare_flags_injected_time_regression(entry):
    slow = json.loads(json.dumps(entry))
    for cell in slow["cells"]:
        cell["time_ms"] = cell["time_ms"] * 100 + 1000.0
    slow["wall_ms"] = entry["wall_ms"] * 100 + 1000.0
    comparisons = compare_entries(entry, slow)
    bad = {c.metric for c in comparisons if c.regressed}
    assert any(m.endswith(".time_ms") for m in bad)
    assert "slice.wall_ms" in bad


def test_compare_timing_noise_within_tolerance_passes(entry):
    wobbly = json.loads(json.dumps(entry))
    for cell in wobbly["cells"]:
        cell["time_ms"] = round(cell["time_ms"] * 1.3, 3)  # < 75% rtol
    comparisons = compare_entries(entry, wobbly)
    assert not any(c.regressed for c in comparisons)


def test_compare_flags_ii_and_ok_regressions(entry):
    worse = json.loads(json.dumps(entry))
    worse["cells"][0]["ii"] += 1
    worse["cells"][1]["ok"] = False
    bad = {
        c.metric for c in compare_entries(entry, worse) if c.regressed
    }
    m0, k0 = DEFAULT_SLICE[0]
    m1, k1 = DEFAULT_SLICE[1]
    assert f"{m0}/{k0}.ii" in bad
    assert f"{m1}/{k1}.ok" in bad


def test_compare_missing_cell_regresses(entry):
    shrunk = json.loads(json.dumps(entry))
    dropped = shrunk["cells"].pop()
    bad = {
        c.metric for c in compare_entries(entry, shrunk) if c.regressed
    }
    assert f"{dropped['mapper']}/{dropped['kernel']}.present" in bad


def test_compare_normalizes_by_repeats(entry):
    doubled = json.loads(json.dumps(entry))
    doubled["repeats"] = 2
    for data in doubled["metrics"].values():
        if data["type"] == "counter":
            data["value"] *= 2
        elif data["type"] == "histogram":
            data["count"] *= 2
            data["sum"] *= 2
            data["buckets"] = {
                k: v * 2 for k, v in data["buckets"].items()
            }
    comparisons = compare_entries(entry, doubled)
    assert not any(c.regressed for c in comparisons)


def test_comparison_delta_pct():
    c = Comparison("m", "count", 10.0, 15.0, regressed=True)
    assert c.delta_pct == pytest.approx(50.0)
    assert c.row()["delta"] == "+50.0%"
    z = Comparison("z", "count", 0.0, 1.0, regressed=True)
    assert z.row()["delta"] == "inf"


def test_render_entries_lists_ledger(entry):
    out = render_entries([entry, entry])
    assert "bench history" in out
    assert "test" in out  # the label column


# ---------------------------------------------------------------------------
# The CLI drill: record, clean re-compare, injected regression.
def test_cli_record_compare_and_injected_regression(tmp_path, capsys):
    hist = str(tmp_path / "history")
    common = [
        "--arch", "simple4x4", "--history-dir", hist, "--repeats", "1",
    ]
    assert main(["bench", "compare", "last"] + common) == 2  # empty ledger
    assert "run `repro bench record`" in capsys.readouterr().err

    assert main(["bench", "record", "--note", "baseline"] + common) == 0
    out = capsys.readouterr().out
    assert "recorded entry" in out and "baseline" in out

    # Unchanged code vs its own recording: clean.
    assert main(["bench", "compare", "last"] + common) == 0
    assert "0 regression(s)" in capsys.readouterr().out

    # Inject a work regression into the recorded baseline and re-diff.
    path = tmp_path / "history" / "simple4x4.jsonl"
    entries = [json.loads(l) for l in path.read_text().splitlines()]
    entries[-1]["metrics"]["maps_total"]["value"] = 1
    path.write_text(
        "\n".join(json.dumps(e) for e in entries) + "\n"
    )
    assert main(["bench", "compare", "last"] + common) == 3
    out = capsys.readouterr().out
    assert "maps_total" in out and "REGRESSED" in out

    # --warn-only reports but does not fail.
    assert main(["bench", "compare", "last", "--warn-only"] + common) == 0
    assert "REGRESSED" in capsys.readouterr().out

    assert main(["bench", "list"] + common) == 0
    assert "bench history" in capsys.readouterr().out


def test_cli_corrupt_ledger_is_a_clean_exit_2(tmp_path, capsys):
    hist = tmp_path / "history"
    hist.mkdir()
    (hist / "simple4x4.jsonl").write_text(
        '{"schema": 1, "cells": []}\n{"truncat\n'
    )
    common = ["--arch", "simple4x4", "--history-dir", str(hist)]
    assert main(["bench", "list"] + common) == 2
    err = capsys.readouterr().err
    assert "corrupt ledger" in err and "simple4x4.jsonl:2" in err
    assert main(["bench", "compare", "last", "--repeats", "1"] + common) == 2
    assert "corrupt ledger" in capsys.readouterr().err


def test_cli_bad_sha_baseline_is_a_clean_exit_2(entry, tmp_path, capsys):
    hist = tmp_path / "history"
    append_entry(entry, str(hist / "simple4x4.jsonl"))
    assert main([
        "bench", "compare", "deadbeef",
        "--arch", "simple4x4", "--history-dir", str(hist),
        "--repeats", "1",
    ]) == 2
    assert "deadbeef" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The serving slice
def test_run_serve_slice_entry_shape_and_self_compare():
    from repro.bench.history import SERVE_BATCH, run_serve_slice

    entry = run_serve_slice("simple4x4", repeats=1, label="t", jobs=2)
    assert entry["schema"] == ENTRY_SCHEMA
    assert entry["jobs"] == 2
    cells = {(c["mapper"], c["kernel"]): c for c in entry["cells"]}
    n = len(SERVE_BATCH)
    assert set(cells) == {
        ("serve", f"batch{n}"), ("serve", "single"), ("direct", f"batch{n}"),
    }
    for cell in cells.values():
        assert cell["ok"]
        assert cell["time_ms"] >= cell["time_ms_min"] >= 0
    assert cells[("serve", "single")]["ii"] >= 1
    # The daemon's own counters made it into the snapshot: one timed
    # repeat = the batch plus the single request, dedup exercised.
    metrics = entry["metrics"]
    assert metrics["serve_requests_total"]["value"] == n + 1
    assert metrics["pool_dedup_total"]["value"] == 2
    # and the entry diffs cleanly against itself in ledger terms
    comparisons = compare_entries(entry, entry)
    assert comparisons
    assert not any(c.regressed for c in comparisons)


def test_run_serve_slice_rejects_bad_repeats():
    from repro.bench.history import run_serve_slice

    with pytest.raises(ValueError):
        run_serve_slice("simple4x4", repeats=0)


def test_cli_serve_slice_keeps_its_own_ledger(tmp_path, capsys):
    hist = str(tmp_path / "history")
    common = [
        "--arch", "simple4x4", "--history-dir", hist, "--repeats", "1",
        "--slice", "serve", "--jobs", "2",
    ]
    assert main(["bench", "record", "--note", "serve"] + common) == 0
    capsys.readouterr()
    path = tmp_path / "history" / "simple4x4-serve.jsonl"
    assert path.exists()
    assert not (tmp_path / "history" / "simple4x4.jsonl").exists()
    assert main(["bench", "compare", "last"] + common) == 0
    assert "0 regression(s)" in capsys.readouterr().out


def test_cli_parallel_slice_keeps_its_own_ledger(tmp_path, capsys):
    hist = str(tmp_path / "history")
    common = [
        "--arch", "simple4x4", "--history-dir", hist, "--repeats", "1",
        "--slice", "parallel", "--jobs", "2",
    ]
    assert main(["bench", "record", "--note", "pool"] + common) == 0
    capsys.readouterr()
    # separate file: pool timings never diff against serial entries
    path = tmp_path / "history" / "simple4x4-parallel.jsonl"
    assert path.exists()
    assert not (tmp_path / "history" / "simple4x4.jsonl").exists()
    entries = [json.loads(l) for l in path.read_text().splitlines()]
    assert entries[-1]["jobs"] == 2
    assert main(["bench", "compare", "last"] + common) == 0
    assert "0 regression(s)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The exact-solver and cache slices
def test_exact_slice_entry_shape_and_self_compare(cgra):
    entry = run_slice(cgra, cells=EXACT_SLICE, repeats=1, label="t")
    assert [(c["mapper"], c["kernel"]) for c in entry["cells"]] == list(
        EXACT_SLICE
    )
    for cell in entry["cells"]:
        assert cell["ok"]
        assert cell["ii"] >= 1
    assert entry["metrics"]["maps_total"]["value"] == len(EXACT_SLICE)
    comparisons = compare_entries(entry, entry)
    assert comparisons and not any(c.regressed for c in comparisons)


def test_cache_slice_entry_shape_and_self_compare(cgra):
    entry = run_cache_slice(cgra, repeats=2, label="t")
    assert entry["repeats"] == 2 and entry["jobs"] == 1
    names = [f"{m}/{k}" for m, k in DEFAULT_SLICE]
    assert [(c["mapper"], c["kernel"]) for c in entry["cells"]] == [
        (phase, name) for phase in ("cold", "warm") for name in names
    ]
    cells = {(c["mapper"], c["kernel"]): c for c in entry["cells"]}
    for name in names:
        cold, warm = cells[("cold", name)], cells[("warm", name)]
        assert cold["ok"] and warm["ok"]
        assert cold["ii"] == warm["ii"] >= 1
    # every cell ran twice per repeat, cold and warm
    assert entry["metrics"]["maps_total"]["value"] == 4 * len(DEFAULT_SLICE)
    comparisons = compare_entries(entry, entry)
    assert comparisons and not any(c.regressed for c in comparisons)


def test_cache_slice_raises_on_a_warm_miss(cgra, monkeypatch):
    """A cache that stores nothing serves nothing: the warm pass
    misses, and the slice fails instead of recording a slow row."""
    monkeypatch.setattr(MappingCache, "put", lambda self, key, mapping: None)
    with pytest.raises(RuntimeError, match="warm .* missed"):
        run_cache_slice(cgra, repeats=1)


@pytest.mark.parametrize("slice_name", ["exact", "cache"])
def test_cli_new_slices_keep_their_own_ledger(slice_name, tmp_path, capsys):
    """Recorded into their own ledger file; the compare runs end to end
    (warn-only: a one-repeat re-run's solver timings are noise, the
    clean self-compare is checked above on a fixed entry)."""
    hist = tmp_path / "history"
    common = [
        "--arch", "simple4x4", "--history-dir", str(hist), "--repeats", "1",
        "--slice", slice_name,
    ]
    assert main(["bench", "record"] + common) == 0
    capsys.readouterr()
    assert (hist / f"simple4x4-{slice_name}.jsonl").exists()
    assert not (hist / "simple4x4.jsonl").exists()
    assert main(["bench", "compare", "last", "--warn-only"] + common) == 0
    assert "regression(s) across" in capsys.readouterr().out
