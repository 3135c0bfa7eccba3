"""The benchmark's tracer, installed around ``cli.run``, still sees every
layer it reports: per-rule firings, enumerated instances and CNF clauses
come out at their closed-form counts, so a refactor that moves a call out
of the tracer's reach shows here as a zero."""

import importlib.util
from pathlib import Path

import pytest

from ultraexp import cli, prsearch

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

SCHUR = "config {x, y, x + y};"


@pytest.fixture()
def schur(tmp_path) -> str:
    path = tmp_path / "schur.cfg"
    path.write_text(SCHUR + "\n")
    return str(path)


def traced(capsys, argv: list[str]):
    """(exit code, the tracer's counts) of one traced ``cli.run``."""
    t = tracing.Tracer()
    t.install()
    try:
        rc = cli.run(argv)
    finally:
        t.uninstall()
    capsys.readouterr()
    assert t.calls["cli.run"] == 1
    return rc, t.counts


def test_normalize_counts_each_rule_firing(capsys):
    rc, counts = traced(capsys, ["normalize", "2 ^ p * 4 ^ q"])
    assert rc == cli.EX_OK
    assert counts["rewrite.firings.BASEROOT"] == counts["rewrite.firings.SAMEBASE"] == 1
    assert counts["rewrite.firings"] == 2


@pytest.mark.parametrize("n, k", [(6, 2), (9, 3)])
def test_cnf_export_counts_instances_and_clauses(capsys, schur, n, k):
    rc, counts = traced(capsys, ["pr-cnf", "--config", schur, "-k", str(k), "--hi", str(n)])
    assert rc == cli.EX_OK
    # Schur on [1..n]: one instance per x, y >= 1 with x + y <= n
    assert counts["prsearch.instances"] == n * (n - 1) // 2
    assert counts["prsearch.cnf.clauses"] == n * (1 + k * (k - 1) // 2) + k * n * (n - 1) // 2


def test_avoid_counts_instances_and_forced_nodes(capsys, schur):
    cfg = prsearch.parse_config(SCHUR)
    want = prsearch.find_avoiding_coloring(cfg, 2, 1, 5)
    assert isinstance(want, prsearch.Forced)
    rc, counts = traced(capsys, ["pr-avoid", "--config", schur, "-k", "2", "--hi", "5"])
    assert rc == cli.EX_NEGATIVE
    assert counts["prsearch.instances"] == 5 * 4 // 2
    assert counts["prsearch.avoid.forced_nodes"] == want.nodes_explored > 0


def test_min_scan_counts_instances_of_every_n(capsys, schur):
    rc, counts = traced(capsys, ["pr-min", "--config", schur, "-k", "2", "--max", "10"])
    assert rc == cli.EX_OK
    assert counts["prsearch.min_forced.n_scanned"] == 5
    # the scan enumerates Schur on [1..N] afresh for N = 1..5
    assert counts["prsearch.instances"] == 0 + 1 + 3 + 6 + 10 == 20
