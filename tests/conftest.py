import hashlib
import pathlib

import pytest

from clhavoc.frontend import parse_system

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
    """The hand-written fixtures, without checked-in reduction outputs."""
    return sorted(p for p in FIXTURES.glob("*.clsys")
                  if not p.name.endswith(".reduced.clsys"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
