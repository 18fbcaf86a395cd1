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


def chain_scm(n: int) -> str:
    """The chain X0 = U0, Xi = X(i-1) xor Ui as .scm text, with independent
    noise, P(Ui = 1) = (i + 1)/(n + 2)."""
    bias = [Fraction(i + 1, n + 2) for i in range(n)]
    lines = [f"scm chain{n}"] + [f"noise U{i} {{ 0 1 }}" for i in range(n)] + ["dist {"]
    for u in itertools.product((0, 1), repeat=n):
        q = math.prod(b if v else 1 - b for b, v in zip(bias, u))
        lines.append("  (" + ", ".join(f"U{i}={v}" for i, v in enumerate(u)) + f") = {q}")
    lines.append("}")
    lines += [f"var X{i} {{ 0 1 }}" for i in range(n)]
    lines.append("fn X0 (U0) { (U0=0) = 0 (U0=1) = 1 }")
    for i in range(1, n):
        rows = " ".join(f"(X{i - 1}={a}, U{i}={b}) = {a ^ b}" for a in (0, 1) for b in (0, 1))
        lines.append(f"fn X{i} (X{i - 1}, U{i}) {{ {rows} }}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def compiled_chains():
    """{n: the canonical .cfs text of the compiled chain_scm(n)}, n = 2, 3:
    16 and 64 outcomes with every kernel of the two-world mechanism."""
    texts = {}
    for n in (2, 3):
        model, _, name = parse_scm(chain_scm(n))
        texts[n] = serialize_space(doc_from_space(compile_scm(model), name))
    return texts
