import hashlib
import pathlib

import pytest
from hypothesis import settings

from clhavoc.frontend import Query, SystemFile, parse_system, render_system
from clhavoc.reduction import reduce_havoc_to_entailment

# CI runs `pytest --hypothesis-profile=ci`: every run, under any hash seed,
# tries the same examples, so a failure there reproduces locally
settings.register_profile("ci", derandomize=True)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str):
    return parse_system((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def ring():
    return load("ring.clsys")


@pytest.fixture(scope="session")
def chain():
    return load("chain.clsys")


@pytest.fixture(scope="session")
def pcring():
    return load("pcring.clsys")


@pytest.fixture(scope="session")
def bad():
    return load("bad.clsys")


@pytest.fixture(scope="session")
def tll():
    return load("tll.clsys")


@pytest.fixture(scope="session")
def tll_original():
    return load("tll_original.clsys")


@pytest.fixture(scope="session")
def tll_pcr():
    return load("tll_pcr.clsys")


def source_fixtures():
    """The hand-written fixtures, without the outputs a local `clhavoc
    reduce` run may leave beside them."""
    return sorted(p for p in FIXTURES.glob("*.clsys")
                  if not p.name.endswith(".reduced.clsys"))


def reduced_text(sf, result):
    """The text `clhavoc reduce` writes for a reduction."""
    queries = [Query("entail", lhs, rhs) for lhs, rhs in result.entailments]
    return render_system(SystemFile(sf.behavior, result.combined_sid, {}, queries))


# the text `clhavoc reduce fixtures/pcring.clsys --pred PcRing_1_1` writes
PCRING_REDUCED = "pcring.reduced.clsys"


def corpus():
    """Names of the source fixtures and of the rendered pcring reduction."""
    return sorted([p.name for p in source_fixtures()] + [PCRING_REDUCED])


def corpus_text(name: str) -> str:
    if name == PCRING_REDUCED:
        sf = load("pcring.clsys")
        return reduced_text(sf, reduce_havoc_to_entailment(sf.sid, "PcRing_1_1"))
    return (FIXTURES / name).read_text()


# (fixture, predicate, depth) of the reductions whose checks the oracle
# tests replay, and whose derived predicates the unfolding tests walk
REUSE_CASES = [("ring.clsys", "Ring_1_1", 4), ("chain.clsys", "Chain_1_1", 4),
               ("tll.clsys", "Node", 3)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
