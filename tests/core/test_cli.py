"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

VULN_SOURCE = """\
void f(char *data) {
    char buf[4];
    strcpy(buf, data);
}
int main() {
    char line[64];
    fgets(line, 64, 0);
    f(line);
    return 0;
}
"""

HANG_SOURCE = """\
int main() {
    char line[16];
    fgets(line, 16, 0);
    int n = atoi(line);
    int left = 50;
    while (left > 0) {
        left = left - n;
    }
    return 0;
}
"""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_args(self):
        args = build_parser().parse_args(
            ["train", "--cases", "10", "--out", "m.npz"])
        assert args.command == "train"
        assert args.cases == 10

    def test_scale_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "galactic", "train",
                                       "--out", "m.npz"])

    def test_dtype_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scan", "x.c", "--model", "m.npz",
                                       "--dtype", "int8"])


class TestScanConnectFlags:
    """``scan --connect`` scores with the daemon's settings, so flags
    that only configure the in-process service are refused."""

    @pytest.mark.parametrize("flags,named", [
        (["--threshold", "0.1"], ["--threshold"]),
        (["--workers", "4", "--requarantine"],
         ["--workers", "--requarantine"]),
        (["--quarantine", "q.jsonl", "--cache-dir", "c"],
         ["--cache-dir", "--quarantine"]),
    ])
    def test_in_process_flags_refused(self, tmp_path, capsys, flags,
                                      named):
        source = tmp_path / "vuln.c"
        source.write_text(VULN_SOURCE)
        address = str(tmp_path / "absent.sock")
        code = main(["scan", str(source), "--connect", address] + flags)
        assert code == 2
        err = capsys.readouterr().err
        for flag in named:
            assert flag in err
        assert "scan server at" not in err  # refused before connecting

    def test_parser_defaults_still_connect(self, tmp_path, capsys):
        source = tmp_path / "vuln.c"
        source.write_text(VULN_SOURCE)
        address = str(tmp_path / "absent.sock")
        code = main(["scan", str(source), "--connect", address,
                     "--workers", "2"])
        assert code == 2
        assert "scan server at" in capsys.readouterr().err


class TestScanMissingPath:
    """A missing scan path is an ``error:`` line and exit 2, found
    before the model is loaded or the daemon is contacted."""

    def test_model_path(self, tmp_path, capsys):
        missing = tmp_path / "absent" / "x.c"
        code = main(["scan", str(missing), "--model",
                     str(tmp_path / "absent.npz")])
        assert code == 2
        assert f"error: no such file: {missing}" in capsys.readouterr().err

    def test_connect_path(self, tmp_path, capsys):
        missing = tmp_path / "absent" / "x.c"
        code = main(["scan", str(missing), "--connect",
                     str(tmp_path / "absent.sock")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: no such file: {missing}" in err
        assert "scan server at" not in err


class TestGadgetsCommand:
    def test_prints_gadgets(self, tmp_path, capsys):
        target = tmp_path / "t.c"
        target.write_text(VULN_SOURCE)
        assert main(["gadgets", str(target)]) == 0
        out = capsys.readouterr().out
        assert "strcpy" in out
        assert "path-sensitive" in out

    def test_unparseable_file(self, tmp_path, capsys):
        target = tmp_path / "bad.c"
        target.write_text("not a C file {{{")
        assert main(["gadgets", str(target)]) == 1


class TestFuzzCommand:
    def test_finds_hang(self, tmp_path, capsys):
        target = tmp_path / "hang.c"
        target.write_text(HANG_SOURCE)
        code = main(["fuzz", str(target), "--execs", "300",
                     "--max-steps", "3000"])
        out = capsys.readouterr().out
        assert code == 1
        assert "HANG" in out

    def test_clean_target_exit_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.c"
        target.write_text(
            "int main() { printf(\"ok\"); return 0; }")
        assert main(["fuzz", str(target), "--execs", "100"]) == 0


class TestTrainScanRoundtrip:
    def test_train_then_scan(self, tmp_path, capsys):
        model = tmp_path / "model.npz"
        code = main(["train", "--cases", "60", "--nvd-cases", "0",
                     "--seed", "3", "--out", str(model)])
        assert code == 0
        assert model.exists()

        target = tmp_path / "vuln.c"
        target.write_text(VULN_SOURCE)
        clean = tmp_path / "clean.c"
        clean.write_text("int main() { int a = 1; return a; }")
        capsys.readouterr()
        exit_code = main(["scan", str(target), str(clean),
                          "--model", str(model),
                          "--threshold", "0.5"])
        out = capsys.readouterr().out
        assert f"{clean}: clean" in out
        # the vulnerable file should be flagged by the trained model
        assert exit_code == 1
        assert "suspicious" in out


class TestExtractCommand:
    def test_extract_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "gadgets.jsonl"
        code = main(["extract", "--cases", "8", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        from repro.core.store import load_gadgets
        gadgets = load_gadgets(out)
        assert gadgets
        assert f"extracted {len(gadgets)} gadgets" in \
            capsys.readouterr().out

    def test_extract_stats_and_cache(self, tmp_path, capsys):
        out = tmp_path / "gadgets.jsonl"
        cache = tmp_path / "cache"
        for _ in range(2):
            assert main(["extract", "--cases", "6", "--seed", "5",
                         "--workers", "2", "--cache-dir", str(cache),
                         "--out", str(out), "--stats"]) == 0
        stats = capsys.readouterr().out
        assert "telemetry:" in stats
        assert "cache_hits" in stats

    def test_extract_parallel_matches_serial_output(self, tmp_path):
        from repro.core.store import load_gadgets
        serial_out = tmp_path / "serial.jsonl"
        parallel_out = tmp_path / "parallel.jsonl"
        main(["extract", "--cases", "6", "--seed", "5",
              "--out", str(serial_out)])
        main(["extract", "--cases", "6", "--seed", "5",
              "--workers", "2", "--out", str(parallel_out)])
        assert serial_out.read_text() == parallel_out.read_text()
        assert load_gadgets(serial_out) == load_gadgets(parallel_out)


class TestExportCorpus:
    def test_export_and_reimport(self, tmp_path, capsys):
        code = main(["export-corpus", "--cases", "8", "--seed", "2",
                     "--dir", str(tmp_path / "corpus")])
        assert code == 0
        from repro.datasets.manifest_xml import import_corpus
        cases = import_corpus(tmp_path / "corpus")
        assert len(cases) == 8

    def test_export_xen_kind(self, tmp_path):
        code = main(["export-corpus", "--cases", "10", "--kind", "xen",
                     "--dir", str(tmp_path / "xen")])
        assert code == 0
        from repro.datasets.manifest_xml import import_corpus
        cases = import_corpus(tmp_path / "xen")
        assert any("cve" in case.meta for case in cases)


class TestEndToEndSmoke:
    """extract -> train -> scan on a tiny synthetic corpus, sharing
    one gadget cache across subcommands (the shared RunContext)."""

    def test_full_pipeline_smoke(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        gadgets_out = tmp_path / "gadgets.jsonl"
        model = tmp_path / "model.npz"

        assert main(["extract", "--cases", "20", "--seed", "3",
                     "--cache-dir", cache,
                     "--out", str(gadgets_out), "--stats"]) == 0
        extract_stats = capsys.readouterr().out
        assert gadgets_out.exists()
        assert "cache_misses" in extract_stats

        assert main(["train", "--cases", "20", "--nvd-cases", "0",
                     "--seed", "3", "--cache-dir", cache,
                     "--out", str(model), "--stats"]) == 0
        train_stats = capsys.readouterr().out
        assert model.exists()
        # training re-extracts the same corpus through the shared
        # cache: every case is a hit
        assert "cache_hits" in train_stats

        target = tmp_path / "vuln.c"
        target.write_text(VULN_SOURCE)
        clean = tmp_path / "clean.c"
        clean.write_text("int main() { int a = 1; return a; }")
        jsonl = tmp_path / "verdicts.jsonl"
        code = main(["scan", str(target), str(clean),
                     "--model", str(model), "--threshold", "0.5",
                     "--jsonl", str(jsonl), "--stats"])
        out = capsys.readouterr().out
        assert code in (0, 1)  # flagged or clean; must not error
        assert f"{clean}: clean" in out
        assert jsonl.exists()
        import json as json_mod
        records = [json_mod.loads(line)
                   for line in jsonl.read_text().splitlines()]
        assert {r["name"] for r in records} == \
            {str(target), str(clean)}


BETA_SOURCE = """\
int helper(int n) {
    char buf[8];
    buf[0] = n;
    return buf[0] + 1;
}
int compute(int n) {
    char out[8];
    out[0] = helper(n);
    return out[0];
}
"""


class TestDiffAndWatchCli:
    """`scan --diff` / `scan --watch` / streamed `--jsonl` surface."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("model") / "model.npz"
        assert main(["train", "--cases", "60", "--nvd-cases", "0",
                     "--seed", "3", "--out", str(path)]) == 0
        return path

    @staticmethod
    def _tree(root, files):
        for rel, text in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return root

    def test_diff_two_trees(self, model, tmp_path, capsys):
        base = self._tree(tmp_path / "base", {
            "pkg/clean.c": BETA_SOURCE,
            "pkg/stable.c": "int main() { int a = 1; return a; }\n"})
        target = self._tree(tmp_path / "target", {
            "pkg/clean.c": VULN_SOURCE,  # turns vulnerable
            "pkg/stable.c": "int main() { int a = 1; return a; }\n"})
        jsonl = tmp_path / "deltas.jsonl"
        code = main(["scan", str(target), "--model", str(model),
                     "--threshold", "0.5", "--diff", str(base),
                     "--jsonl", str(jsonl)])
        out = capsys.readouterr().out
        assert code == 1  # a new finding gates the diff
        assert "pkg/clean.c" in out
        assert "1 changed file(s)" in out
        import json as json_mod
        records = [json_mod.loads(line)
                   for line in jsonl.read_text().splitlines()]
        assert [(r["event"], r["name"]) for r in records] == \
            [("added", "pkg/clean.c")]

    def test_diff_clean_edit_exits_zero(self, model, tmp_path,
                                        capsys):
        base = self._tree(tmp_path / "base",
                          {"pkg/clean.c": BETA_SOURCE})
        # an identifier rename: normalization maps it to the same
        # canonical tokens, so the verdict stays clean while the
        # fingerprints (and thus the frontier) move
        target = self._tree(tmp_path / "target", {
            "pkg/clean.c": BETA_SOURCE.replace("buf", "acc")})
        code = main(["scan", str(target), "--model", str(model),
                     "--threshold", "0.5", "--diff", str(base)])
        out = capsys.readouterr().out
        assert code == 0
        # the frontier names the edited function and its caller
        assert "re-slicing compute, helper" in out

    def test_diff_removed_file(self, model, tmp_path, capsys):
        stable = "int main() { int a = 1; return a; }\n"
        base = self._tree(tmp_path / "base", {
            "pkg/x.c": BETA_SOURCE, "pkg/stable.c": stable})
        target = self._tree(tmp_path / "target",
                            {"pkg/stable.c": stable})
        code = main(["scan", str(target), "--model", str(model),
                     "--threshold", "0.5", "--diff", str(base)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pkg/x.c: removed" in out
        assert "re-slicing" not in out

    def test_diff_names_file(self, model, tmp_path, capsys):
        target = self._tree(tmp_path / "target", {
            "pkg/vuln.c": VULN_SOURCE,
            "pkg/clean.c": BETA_SOURCE})
        names = tmp_path / "changed.txt"
        names.write_text("pkg/vuln.c\npkg/gone.c\nREADME.md\n")
        code = main(["scan", str(target), "--model", str(model),
                     "--threshold", "0.5", "--diff", str(names)])
        out = capsys.readouterr().out
        assert code == 1
        assert "added: pkg/vuln.c" in out

    def test_watch_bounded_polls(self, model, tmp_path, capsys):
        root = self._tree(tmp_path / "tree",
                          {"pkg/vuln.c": VULN_SOURCE})
        jsonl = tmp_path / "deltas.jsonl"
        code = main(["scan", str(root), "--model", str(model),
                     "--threshold", "0.5", "--watch",
                     "--max-polls", "2", "--interval", "0",
                     "--jsonl", str(jsonl)])
        out = capsys.readouterr().out
        assert code == 0  # watch mode never gates
        import json as json_mod
        records = [json_mod.loads(line)
                   for line in jsonl.read_text().splitlines()]
        assert [(r["event"], r["name"]) for r in records] == \
            [("added", "pkg/vuln.c")]
        assert '"event": "added"' in out

    def test_diff_and_watch_are_exclusive(self, tmp_path, capsys):
        code = main(["scan", str(tmp_path), "--model", "m.npz",
                     "--diff", str(tmp_path), "--watch"])
        assert code == 2

    def test_jsonl_bytes_stable_across_workers(self, model, tmp_path,
                                               capsys):
        tree = self._tree(tmp_path / "tree", {
            "a.c": VULN_SOURCE, "b.c": BETA_SOURCE,
            "c.c": "int main() { int a = 1; return a; }\n",
            "d.c": VULN_SOURCE.replace("sink", "drain")})
        outputs = []
        for workers in ("1", "4", "4"):
            jsonl = tmp_path / f"run{len(outputs)}.jsonl"
            main(["scan", str(tree), "--model", str(model),
                  "--threshold", "0.5", "--workers", workers,
                  "--jsonl", str(jsonl)])
            capsys.readouterr()
            outputs.append(jsonl.read_bytes())
        # input-ordered release: byte-identical at any worker count
        assert outputs[0] == outputs[1] == outputs[2]
