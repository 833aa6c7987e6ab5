"""README's examples run as written.

Its python block runs first.  Then each indented `hhalf` command runs
in order through `run_command` in one scratch directory, so an example
can read the files that earlier ones wrote.
"""

import pathlib
import re
import shlex

from hhalf.cli import run_command

readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def python_block():
    return re.search(r"```python\n(.*?)```", readme, re.S).group(1)


def hhalf_commands():
    """(environment, argv) of each indented hhalf line, in order."""
    commands = []
    for line in readme.splitlines():
        match = re.fullmatch(r"    (?:\$ )?((?:HHP_CONFIG=|hhalf ).*)", line)
        if match:
            words = shlex.split(match.group(1))
            start = words.index("hhalf")
            env = dict(word.split("=", 1) for word in words[:start])
            commands.append((env, words[start + 1 :]))
    return commands


def test_python_block_runs():
    exec(compile(python_block(), "README.md", "exec"), {})


def test_hhalf_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HHP_CONFIG", raising=False)
    commands = hhalf_commands()
    assert len(commands) >= 9
    # `hilbert --input f.json` reads the function of the norm example.
    modes = next(argv for _, argv in commands if argv[0] == "norm")[2]
    assert run_command(["hilbert", "--modes", modes, "--out", "f.json"]) == 0
    for env, argv in commands:
        with monkeypatch.context() as scope:
            for name, value in env.items():
                scope.setenv(name, value)
            code = run_command(argv)
        err = capsys.readouterr().err
        assert code == 0, (env, argv, err)
