"""Every demo script, and README's library example, runs against the library in src/."""

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import stablecoh

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def library_example() -> str:
    """The python block under README's '## Library' heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def leading_literal(comment: str):
    """The longest prefix of a comment's text that is a Python literal, or None."""
    text = comment.lstrip("#").strip()
    for end in range(len(text), 0, -1):
        try:
            return (ast.literal_eval(text[:end]),)
        except (ValueError, SyntaxError):
            continue
    return None


def test_readme_library_example_holds():
    # `# 10: the two squares differ here` claims the expression on its line is 10.
    assert Path(stablecoh.__file__).resolve().parent == ROOT / "src" / "stablecoh"
    source = library_example()
    comments = {tok.start[0]: tok.string
                for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    claims = 0
    for statement in ast.parse(source).body:
        claim = leading_literal(comments.get(statement.end_lineno, ""))
        if isinstance(statement, ast.Expr) and claim is not None:
            value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
            assert value == claim[0], ast.unparse(statement)
            claims += 1
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    assert claims == 5
