import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cfspaces import build_nway, compile_scm, doc_from_space, parse_scm, serialize_space
from cfspaces.repro import load_fixture


@pytest.fixture(scope="session")
def exam():
    return load_fixture("exam")


@pytest.fixture(scope="session")
def exam_cycle():
    return load_fixture("exam-cycle")


@pytest.fixture(scope="session")
def star():
    return load_fixture("star")


@pytest.fixture(scope="session")
def disease():
    return load_fixture("disease")


@pytest.fixture(scope="session")
def disease_asym():
    return load_fixture("disease-asym")


@pytest.fixture(scope="session")
def dormant():
    return load_fixture("dormant")


@pytest.fixture(scope="session")
def coin_indep():
    """One fair coin per world, nothing shared."""
    return build_nway(
        {"F": [("c", ("H", "T"))], "CF": [("c", ("H", "T"))]},
        {(a, b): Fraction(1, 4) for a in (0, 1) for b in (0, 1)},
    )


@pytest.fixture(scope="session")
def coin_sync():
    """One fair coin, both worlds seeing the same flip."""
    return build_nway(
        {"F": [("c", ("H", "T"))], "CF": [("c", ("H", "T"))]},
        {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)},
    )


PARENTS = {"chain": lambda i, n: [i - 1] if i else [],
           "fork": lambda i, n: [0] if i else [],
           "collider": lambda i, n: list(range(n - 1)) if i == n - 1 else []}


def shaped_scm(n: int, shape: str, coupled: bool = False) -> str:
    """Binary X0..X(n-1), Xi = xor(parents) xor Ui in a chain, fork or
    collider (PARENTS), as .scm text, with independent noise, P(Ui = 1) =
    (i + 1)/(n + 2); `coupled` adds a coupling block, one entry a line,
    that puts half its mass on equal noise rows and half on a noise row and
    a uniform second row, so that it is not symmetric."""
    bias = [Fraction(i + 1, n + 2) for i in range(n)]
    law = {u: math.prod(b if v else 1 - b for b, v in zip(bias, u))
           for u in itertools.product((0, 1), repeat=n)}

    def row(u):
        return "(" + ", ".join(f"U{i}={v}" for i, v in enumerate(u)) + ")"

    lines = [f"scm {shape}{n}"] + [f"noise U{i} {{ 0 1 }}" for i in range(n)] + ["dist {"]
    lines += [f"  {row(u)} = {q}" for u, q in law.items()] + ["}"]
    lines += [f"var X{i} {{ 0 1 }}" for i in range(n)]
    for i in range(n):
        inputs = [f"X{p}" for p in PARENTS[shape](i, n)] + [f"U{i}"]
        rows = " ".join("(" + ", ".join(f"{x}={v}" for x, v in zip(inputs, values))
                        + f") = {sum(values) % 2}"
                        for values in itertools.product((0, 1), repeat=len(inputs)))
        lines.append(f"fn X{i} ({', '.join(inputs)}) {{ {rows} }}")
    if coupled:
        lines.append("coupling {")
        lines += [f"  ({row(u)}, {row(v)}) = {law[u] * (Fraction(1, len(law)) + (u == v)) / 2}"
                  for u in law for v in law]
        lines += ["  default = 0", "}"]
    return "\n".join(lines) + "\n"


def chain_scm(n: int) -> str:
    """The chain X0 = U0, Xi = X(i-1) xor Ui as .scm text (see shaped_scm)."""
    return shaped_scm(n, "chain")


@pytest.fixture(scope="session")
def compiled_chains():
    """{n: the canonical .cfs text of the compiled chain_scm(n)}, n = 2, 3:
    16 and 64 outcomes with every kernel of the two-world mechanism."""
    texts = {}
    for n in (2, 3):
        model, _, name = parse_scm(chain_scm(n))
        texts[n] = serialize_space(doc_from_space(compile_scm(model), name))
    return texts


def edit_block_row(text: str, edit, offset: int = 0, row: int = 40) -> str:
    """`text`, a compiled .cfs file, with its line `offset` lines after the
    one that opens the `row`th 'given' row of its last kernel block (the
    block on every coordinate) replaced by edit(line)."""
    lines = text.split("\n")
    start = max(i for i, line in enumerate(lines) if line.startswith("kernel on"))
    i = [j for j in range(start, len(lines)) if lines[j].startswith("  given")][row - 1] + offset
    lines[i] = edit(lines[i])
    return "\n".join(lines)
