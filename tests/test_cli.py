import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from edgex import Precoloring, build_graph, cartesian_product, complete, hypercube, path, spider, star
from edgex import cli, extension, oracle
from edgex.cli import main
from edgex.serialize import (
    graph_to_dict,
    precoloring_to_dict,
    read_doc,
    write_doc,
)


def write_graph(tmp_path, g, name):
    f = tmp_path / f"{name}.json"
    write_doc(f, graph_to_dict(g, name))
    return str(f)


def write_pre(tmp_path, pre, name="pre"):
    f = tmp_path / f"{name}.json"
    write_doc(f, precoloring_to_dict(pre))
    return str(f)


class TestBuild:
    def test_build_writes_graph(self, tmp_path):
        out = tmp_path / "q3.json"
        assert main(["build", "hypercube:3", "--out", str(out)]) == 0
        doc = read_doc(out)
        assert len(doc["vertices"]) == 8 and len(doc["edges"]) == 12

    def test_build_round_trip_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["build", "spider:3,2", "--out", str(first)]) == 0
        doc = read_doc(first)
        write_doc(second, doc)
        assert first.read_bytes() == second.read_bytes()

    def test_build_dot(self, tmp_path, capsys):
        assert main(["build", "path:3", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph") and out.rstrip().endswith("}")

    def test_bad_family(self, tmp_path):
        assert main(["build", "moebius:7", "--out", str(tmp_path / "x.json")]) == 1

    def test_bad_parameter(self, tmp_path):
        assert main(["build", "cycle:2", "--out", str(tmp_path / "x.json")]) == 1

    def test_non_integer_parameter(self, tmp_path, capsys):
        assert main(["build", "spider:3,x", "--out", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err == "error: bad family parameters in 'spider:3,x'\n"
        assert not (tmp_path / "x.json").exists()


class TestProduct:
    def test_product_file(self, tmp_path):
        left = write_graph(tmp_path, path(3), "p3")
        right = write_graph(tmp_path, complete(2), "k2")
        out = tmp_path / "prod.json"
        assert main(["product", left, right, "--out", str(out)]) == 0
        doc = read_doc(out)
        assert len(doc["vertices"]) == 6
        assert len(doc["product"]["edge_kinds"]) == len(doc["edges"])

    def test_build_and_product_past_the_size_limit_exit_1(self, tmp_path, capsys):
        # Q_40, and the 4,000,000-vertex product of two edgeless graphs
        edgeless = write_graph(tmp_path, build_graph([""] * 2000, []), "edgeless")
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["build", "hypercube:40"]) == 1
        assert main(["product", edgeless, edgeless]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2 and all(line.startswith("error: ") and "past the" in line for line in lines)


class TestExtendVerify:
    def test_hypercube_extend_then_verify(self, tmp_path):
        pre = write_pre(tmp_path, Precoloring(3, {(0, 1): 1, (6, 7): 1}))
        coloring = tmp_path / "col.json"
        assert main(["extend", "--factor", "qd:3", "--pre", pre, "--out", str(coloring)]) == 0
        q3 = write_graph(tmp_path, hypercube(3), "q3")
        assert main(["verify", q3, str(coloring), "--pre", pre]) == 0

    def test_k2m_extend_with_product_file(self, tmp_path):
        base = write_graph(tmp_path, path(3), "p3")
        pre = write_pre(tmp_path, Precoloring(3, {(0, 2): 3}))
        coloring = tmp_path / "col.json"
        product = tmp_path / "prod.json"
        code = main(
            [
                "extend",
                base,
                "--factor",
                "k2m:1",
                "--pre",
                pre,
                "--out",
                str(coloring),
                "--out-product",
                str(product),
            ]
        )
        assert code == 0
        assert main(["verify", str(product), str(coloring), "--pre", pre]) == 0

    def test_star_and_q_factors(self, tmp_path):
        base = write_graph(tmp_path, path(3), "p3")
        pre = write_pre(tmp_path, Precoloring(4, {(0, 3): 4}))
        out = tmp_path / "col.json"
        assert main(["extend", base, "--factor", "star:2", "--pre", pre, "--out", str(out)]) == 0
        pre_q = write_pre(tmp_path, Precoloring(4, {(0, 1): 4}), "preq")
        assert main(["extend", base, "--factor", "q:2", "--pre", pre_q, "--out", str(out)]) == 0

    def test_extend_invalid_precoloring_exit_2(self, tmp_path):
        base = write_graph(tmp_path, path(3), "p3")
        pre = write_pre(tmp_path, Precoloring(3, {(0, 2): 1, (2, 4): 2}))
        assert main(["extend", base, "--factor", "k2m:1", "--pre", pre]) == 2

    def test_extend_boolean_precoloring_exit_1(self, tmp_path, capsys):
        pre = tmp_path / "pre.json"
        pre.write_text(json.dumps(
            {"palette_size": 3, "entries": [{"u": False, "v": True, "color": 1}]}
        ))
        assert main(["extend", "--factor", "qd:3", "--pre", str(pre)]) == 1
        assert capsys.readouterr().out == ""

    def test_extend_boolean_graph_exit_1(self, tmp_path):
        base = tmp_path / "g.json"
        base.write_text(json.dumps({"name": "g", "vertices": ["a", "b"], "edges": [[False, True]]}))
        pre = write_pre(tmp_path, Precoloring(2, {}))
        assert main(["extend", str(base), "--factor", "k2m:1", "--pre", pre]) == 1

    @pytest.mark.parametrize(
        "factor, fmt, check, builds",
        [
            pytest.param("k2m:1", "json", False, 1, id="json-1"),
            pytest.param("k2m:1", "dot", False, 2, id="dot-2"),
            pytest.param("qd:3", "json", False, 1, id="qd-json-1"),
            pytest.param("qd:3", "dot", False, 2, id="qd-dot-2"),
            pytest.param("qd:3", "json", True, 1, id="qd-graph-json-1"),
            pytest.param("qd:3", "dot", True, 2, id="qd-graph-dot-2"),
            pytest.param("k2m:2", "json", False, 1, id="k2m-json-1"),
            pytest.param("q:2", "json", False, 2, id="q-json-2"),  # G x Q_1, then its product with K_2
            pytest.param("star:3", "json", False, 2, id="star-json-2"),  # G x K_1,2 and G x K_1,3
        ],
    )
    def test_extend_builds_host_product_only_for_output(
        self, tmp_path, monkeypatch, capsys, factor, fmt, check, builds
    ):
        # the library's builds, one more of the host in the CLI only for DOT
        # output, and the host's right factor only with it; a supplied Q_d is
        # checked without building a second cube
        calls = []
        factors = []  # the right factors the CLI builds
        qd = factor.startswith("qd")

        def counting_product(g, h):
            calls.append((g, h))
            return cartesian_product(g, h)

        def counting_hypercube(d):
            if d == 3:  # the product Q_3; extend_hypercube also builds its base Q_2
                calls.append(d)
            return hypercube(d)

        def cli_build(build):
            def counted(value):
                (calls if qd else factors).append(value)  # qd:D's Q_D is the host itself
                return build(value)

            return counted

        monkeypatch.setattr(cli, "cartesian_product", counting_product)
        for name, build in (("complete", complete), ("hypercube", hypercube), ("star", star)):
            monkeypatch.setattr(cli, name, cli_build(build))
        monkeypatch.setattr(extension, "cartesian_product", counting_product)
        monkeypatch.setattr(extension, "hypercube", counting_hypercube)
        if qd:
            base = [write_graph(tmp_path, hypercube(3), "q3")] if check else []
            pre = write_pre(tmp_path, Precoloring(3, {(0, 1): 1}))
        else:
            base = [write_graph(tmp_path, path(3), "p3")]
            palette = {"k2m:1": 3, "k2m:2": 5, "q:2": 4, "star:3": 5}[factor]  # max_degree(P_3) + the factor's
            pre = write_pre(tmp_path, Precoloring(palette, {(0, 2): 3}))
        assert main(["extend", *base, "--factor", factor, "--pre", pre, "--format", fmt]) == 0
        assert len(calls) == builds
        assert len(factors) == (fmt == "dot" and not qd)
        out = capsys.readouterr().out
        assert out.startswith("graph" if fmt == "dot" else "{")

    def test_extend_qd_out_product_builds_the_cube(self, tmp_path):
        pre = write_pre(tmp_path, Precoloring(3, {(0, 1): 1}))
        out = tmp_path / "prod.json"
        assert main(["extend", "--factor", "qd:3", "--pre", pre, "--out-product", str(out)]) == 0
        assert read_doc(out) == graph_to_dict(hypercube(3), "Q_3")

    def test_extend_past_the_size_limit_exits_1_without_a_build(self, tmp_path, monkeypatch, capsys):
        def no_build(*args):
            raise AssertionError("a graph was built past the size limit")

        for module in (cli, extension):
            for name in ("cartesian_product", "complete", "hypercube", "star"):
                monkeypatch.setattr(module, name, no_build, raising=False)
        g = write_graph(tmp_path, path(2), "k2")
        pre = write_pre(tmp_path, Precoloring(3, {}))
        start = time.perf_counter()
        assert main(["extend", g, "--factor", "k2m:99999999999", "--pre", pre]) == 1
        assert main(["extend", "--factor", "qd:18", "--pre", pre]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.count("past the") == 2

    def test_extend_qd_graph_that_is_not_the_cube_exits_1(self, tmp_path, capsys):
        g = write_graph(tmp_path, path(8), "p8")
        pre = write_pre(tmp_path, Precoloring(3, {}))
        assert main(["extend", g, "--factor", "qd:3", "--pre", pre]) == 1
        assert "error: supplied graph is not Q_3" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [15, 18], ids=["q15", "q18-past-the-size-limit"])
    def test_extend_qd_graph_that_is_not_the_cube_runs_no_extension(self, tmp_path, monkeypatch, capsys, d):
        # the supplied graph is checked first, even when Q_D is past the size limit
        def no_extension(*args):
            raise AssertionError("extend_hypercube ran on a graph that is not Q_D")

        monkeypatch.setattr(cli, "extend_hypercube", no_extension)
        g = write_graph(tmp_path, path(8), "p8")
        pre = write_pre(tmp_path, Precoloring(d, {}))
        assert main(["extend", g, "--factor", f"qd:{d}", "--pre", pre]) == 1
        assert capsys.readouterr().err == f"error: supplied graph is not Q_{d}\n"

    def test_extend_missing_graph_argument(self, tmp_path):
        pre = write_pre(tmp_path, Precoloring(3, {}))
        assert main(["extend", "--factor", "k2m:1", "--pre", pre]) == 1

    def test_verify_conflict_exits_1_and_names_vertex(self, tmp_path, capsys):
        g = write_graph(tmp_path, path(3), "p3")
        bad = tmp_path / "bad.json"
        write_doc(
            bad,
            {
                "palette_size": 2,
                "assignment": [
                    {"u": 0, "v": 1, "color": 1},
                    {"u": 1, "v": 2, "color": 1},
                ],
            },
        )
        assert main(["verify", g, str(bad)]) == 1
        assert "vertex 1" in capsys.readouterr().out

    def test_verify_disagreement_with_pre(self, tmp_path):
        g = write_graph(tmp_path, path(2), "k2")
        col = tmp_path / "col.json"
        write_doc(col, {"palette_size": 1, "assignment": [{"u": 0, "v": 1, "color": 1}]})
        pre = write_pre(tmp_path, Precoloring(1, {(0, 1): 1}))
        assert main(["verify", g, str(col), "--pre", pre]) == 0
        pre2 = write_pre(tmp_path, Precoloring(2, {(0, 1): 2}), "pre2")
        assert main(["verify", g, str(col), "--pre", pre2]) == 1

    def test_verify_reports_non_edges_and_disagreements(self, tmp_path, capsys):
        g = write_graph(tmp_path, path(3), "p3")
        col = tmp_path / "col.json"
        rows = [(0, 1, 1), (1, 2, 2), (0, 2, 1), (5, 9, 2)]
        write_doc(col, {"palette_size": 2, "assignment": [{"u": u, "v": v, "color": c} for u, v, c in rows]})
        pre = write_pre(tmp_path, Precoloring(2, {(1, 2): 1}))
        assert main(["verify", g, str(col), "--pre", pre]) == 1
        assert capsys.readouterr().out == (
            "edge (1, 2) prescribed 1 but colored 2; "
            "pair (0, 2) colored but not an edge; pair (5, 9) colored but not an edge\n"
        )


class TestOracle:
    def test_extendable_exit_0(self, tmp_path):
        g = write_graph(tmp_path, hypercube(2), "q2")
        pre = write_pre(tmp_path, Precoloring(2, {(0, 1): 2}))
        witness = tmp_path / "w.json"
        assert main(["oracle", g, pre, "--palette", "2", "--out", str(witness)]) == 0
        assert read_doc(witness)["palette_size"] == 2

    def test_not_extendable_exit_4(self, tmp_path):
        g = write_graph(tmp_path, path(3), "p3")
        pre = write_pre(tmp_path, Precoloring(2, {(0, 1): 1, (1, 2): 1}))
        assert main(["oracle", g, pre, "--palette", "2"]) == 4

    def test_negative_budget_exit_1(self, tmp_path, capsys):
        # the prescription colors the graph without a search node
        g = write_graph(tmp_path, path(2), "k2")
        pre = write_pre(tmp_path, Precoloring(2, {(0, 1): 1}))
        assert main(["oracle", g, pre, "--budget", "0"]) == 0
        assert main(["oracle", g, pre, "--budget", "-1"]) == 1
        assert "error: budget must be >= 0, got -1" in capsys.readouterr().err

    def test_budget_exit_5(self, tmp_path):
        g = write_graph(tmp_path, cartesian_product(path(4), complete(2)).graph, "ladder")
        pre = write_pre(tmp_path, Precoloring(3, {}))
        assert main(["oracle", g, pre, "--palette", "3", "--budget", "2"]) == 5


class TestCounterexample:
    def test_spider_square_end_to_end(self, tmp_path):
        s = write_graph(tmp_path, spider(3, 2), "spider")
        prefix = str(tmp_path / "claim")
        assert main(["counterexample", s, s, "--out-prefix", prefix]) == 0
        product = f"{prefix}.product.json"
        pre = f"{prefix}.precoloring.json"
        cert = read_doc(f"{prefix}.certificate.json")
        assert cert["blocked_color"] == 1
        assert len(cert["witnesses"]) == 6
        # the exact oracle rejects the constructed instance
        assert main(["oracle", product, pre, "--budget", "10000000"]) == 4

    def test_inapplicable_factor_exit_1(self, tmp_path):
        s = write_graph(tmp_path, spider(3, 2), "spider")
        k13 = write_graph(tmp_path, star(3), "star")
        assert main(["counterexample", s, k13, "--out-prefix", str(tmp_path / "x")]) == 1

    def test_two_edgeless_factors_exit_1(self, tmp_path, capsys):
        k1 = write_graph(tmp_path, path(1), "k1")
        assert main(["counterexample", k1, k1, "--out-prefix", str(tmp_path / "x")]) == 1
        assert "edgeless" in capsys.readouterr().err


class TestExplore11:
    def test_exhaustive_report(self, tmp_path):
        g = write_graph(tmp_path, complete(2), "k2")
        out = tmp_path / "report.json"
        assert main(["explore11", g, "--n", "1", "--m", "1", "--budget", "100", "--out", str(out)]) == 0
        doc = read_doc(out)
        assert doc["instances"] == 9
        assert doc["extendable"] == 9
        assert doc["counterexamples"] == []
        assert doc["seed"] == 0
        assert set(doc) == {"instances", "extendable", "counterexamples", "budget_used", "seed"}

    def test_sampled_run_is_inconclusive(self, tmp_path):
        g = write_graph(tmp_path, path(3), "p3")
        out = tmp_path / "report.json"
        code = main(
            ["explore11", g, "--n", "2", "--m", "1", "--budget", "30", "--seed", "1", "--out", str(out)]
        )
        assert code == 5
        assert read_doc(out)["budget_used"] == 30

    def test_counterexample_exits_4(self, tmp_path, monkeypatch):
        # no real counterexample is known: the oracle is made to refute
        monkeypatch.setattr(oracle, "_decide", lambda g, entries, palette, budget: None)
        g = write_graph(tmp_path, complete(2), "k2")
        out = tmp_path / "report.json"
        assert main(["explore11", g, "--n", "1", "--m", "1", "--budget", "100", "--out", str(out)]) == 4
        doc = read_doc(out)
        assert (doc["instances"], doc["extendable"]) == (9, 0)
        assert doc["counterexamples"][0] == {"palette_size": 2, "entries": []}
        assert len(doc["counterexamples"]) == 9

    def test_matching_count_past_its_cap_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "MAX_MATCHING_MEMO", 100)
        g = write_graph(tmp_path, path(3), "p3")
        assert main(["explore11", g, "--n", "2", "--m", "1", "--budget", "30"]) == 1
        assert "past the limit of 100 states times edges" in capsys.readouterr().err


class TestExportDot:
    def test_graph_only(self, tmp_path, capsys):
        g = write_graph(tmp_path, path(3), "p3")
        assert main(["export-dot", g]) == 0
        out = capsys.readouterr().out
        assert out.startswith('graph "p3"')

    def test_with_coloring_file(self, tmp_path):
        g = write_graph(tmp_path, hypercube(2), "q2")
        pre = write_pre(tmp_path, Precoloring(2, {}))
        col = tmp_path / "col.json"
        assert main(["extend", "--factor", "qd:2", "--pre", pre, "--out", str(col)]) == 0
        dot = tmp_path / "out.dot"
        assert main(["export-dot", g, "--coloring", str(col), "--out", str(dot)]) == 0
        text = dot.read_text()
        assert text.count("[color=") == 4


class TestErrorPaths:
    def test_help_exits_zero(self):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_log_env_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EDGEX_LOG", "debug")
        assert main(["build", "path:2", "--out", str(tmp_path / "g.json")]) == 0

    def test_debug_log_names_the_list_coloring_engine(self, tmp_path):
        pre = write_pre(tmp_path, Precoloring(3, {(0, 1): 1, (6, 7): 2}))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, EDGEX_LOG="debug", PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "edgex.cli", "extend", "--factor", "qd:3", "--pre", pre],
            capture_output=True, text=True, env=env, check=True,
        )
        assert "edgex: list coloring: base=dimension short=" in run.stderr

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "no.json"), str(tmp_path / "no2.json")]) == 1

    def test_non_list_vertices(self, tmp_path):
        f = tmp_path / "x.json"
        f.write_text('{"name": "x", "vertices": 5, "edges": []}')
        assert main(["export-dot", str(f)]) == 1

    def test_invalid_json(self, tmp_path):
        f = tmp_path / "junk.json"
        f.write_text("}{")
        assert main(["export-dot", str(f)]) == 1

    def test_non_utf8_file(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["export-dot", str(f)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {f}: not valid JSON")

    @pytest.mark.parametrize(
        "text",
        [pytest.param("[" * 200_000 + "]" * 200_000, id="deep"), pytest.param("9" * 5000, id="huge-int")],
    )
    def test_document_json_cannot_hold_exits_1(self, tmp_path, capsys, text):
        # too deep for the parser's recursion, or an int literal past
        # CPython's int-to-text limit: one error line, no traceback
        g = write_graph(tmp_path, hypercube(3), "q3")
        f = tmp_path / "doc.json"
        f.write_text(text)
        assert main(["verify", g, str(f)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {f}: not valid JSON: ") and err.count("\n") == 1

    def test_bad_factor_spec(self, tmp_path):
        g = write_graph(tmp_path, path(2), "k2")
        pre = write_pre(tmp_path, Precoloring(2, {}))
        assert main(["extend", g, "--factor", "cube:2", "--pre", pre]) == 1

    def test_non_integer_factor_parameter(self, tmp_path, capsys):
        g = write_graph(tmp_path, path(2), "k2")
        pre = write_pre(tmp_path, Precoloring(2, {}))
        assert main(["extend", g, "--factor", "k2m:two", "--pre", pre]) == 1
        assert capsys.readouterr().err == "error: bad factor parameter in 'k2m:two'\n"
