"""``cli.main`` builds its argument parser once per process and reuses it:
later calls parse with it exactly as a fresh parser would, and dispatch
still reaches the ``cmd_*`` bound on the module when the command runs."""

import json

import pytest

import sperner.cli as cli
from sperner.hypergraph import Hypergraph
from sperner.textio import write_hypergraph


@pytest.fixture
def hyp_path(tmp_path):
    path = tmp_path / "h.hyp"
    path.write_text(write_hypergraph(Hypergraph(range(2), [{0, 1}])))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once(monkeypatch, capsys, hyp_path):
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for argv in (["hyp-check", hyp_path], ["cwd"], ["hyp-check", hyp_path]):
            run(capsys, *argv)
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_format_option_does_not_stick(capsys, hyp_path):
    code, out, _ = run(capsys, "--format", "records", "hyp-check", hyp_path)
    assert code == 0
    assert [json.loads(line)["predicate"] for line in out.splitlines()][0] == "sperner"
    code, out, _ = run(capsys, "hyp-check", hyp_path)
    assert code == 0
    assert out.splitlines()[0] == "sperner: true"


def test_usage_error_after_a_call_matches_a_fresh_parser(capsys, hyp_path):
    assert run(capsys, "hyp-check", hyp_path)[0] == 0
    code, out, err = run(capsys, "cwd")
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["cwd"])
    assert exc.value.code == 2
    assert (code, out, err) == (2, "", capsys.readouterr().err)
    assert "the following arguments are required: path" in err


def test_command_rebound_after_the_first_call_runs(monkeypatch, capsys, hyp_path):
    assert run(capsys, "hyp-check", hyp_path)[0] == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_hyp_check", lambda args: calls.append(args.path) or 0)
    assert run(capsys, "hyp-check", hyp_path) == (0, "", "")
    assert calls == [hyp_path]
