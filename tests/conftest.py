"""Shared helpers for the test suite."""

from importlib.resources import files

import pytest
from hypothesis import strategies as st

from acgw import Document, parse

CORPUS_NAMES = (
    "inclusion_pair",
    "span_legs",
    "three_term_ses",
    "snake_weak_small",
    "linear_small",
)

#: the values of ``GenConfig.instance``; every generator honours both
INSTANCES = ("set", "linear")

#: the primes the linear generator properties draw from (unread on sets)
PRIMES = st.sampled_from((2, 3, 5, 7))


def corpus_text(name: str) -> str:
    return files("acgw").joinpath(f"corpus/{name}.acgw").read_text(encoding="utf-8")


def corpus_doc(name: str) -> Document:
    return parse(corpus_text(name))


@pytest.fixture(params=CORPUS_NAMES)
def corpus_name(request) -> str:
    return request.param
