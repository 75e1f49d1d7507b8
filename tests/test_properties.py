"""Property tests: every tournament text and every certificate either loads or
ends in a domain error, never in a traceback or an unbounded allocation; and
the certificate writer matches the stdlib's rendering byte for byte.

Inputs are drawn by Hypothesis with a fixed derandomized seed and no example
database, so every run replays the same cases.
"""

import json
import re

from hypothesis import given, settings, strategies as st

from kingchain import (
    build_chain,
    dumps_certificate,
    export,
    from_edge_list,
    kings,
    loads_certificate,
    parse_text,
    random_strong_tournament,
    random_tournament,
    verify_chain,
)
from kingchain.core import _MATRIX_CUT
from kingchain.errors import MalformedCertificateError, TournamentError

from brute import brute_read, certificate_json
from conftest import T4A_EDGES

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Replacement values for one field of a certificate: every JSON type, in and
# out of the vertex range, plus huge and negative integers.
JSON_VALUES = st.one_of(
    st.integers(-3, 12),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(-2, 10), max_size=4),
    st.lists(st.lists(st.integers(-1, 9), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from("xyz"), st.integers(-1, 9), max_size=3),
)


@st.composite
def header_and_edges(draw):
    """A header of 1..2000 and a short list of vertex pairs, mostly in range."""
    n = draw(st.integers(1, 2000))
    vertex = st.integers(-1, min(n, 9))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n"


@st.composite
def mutated_tournament_texts(draw, orders=st.integers(1, 8)):
    """A valid text of an order from `orders` (1..8 unless given), with a few
    tokens replaced, dropped or added."""
    n = draw(orders)
    tokens = export(random_tournament(n, draw(st.integers(0, 10**6))), "text").split()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(tokens)))
        action = draw(st.sampled_from(("replace", "drop", "insert")))
        if action == "insert" or i == len(tokens):
            tokens.insert(i, draw(st.sampled_from(("0", "1", "7", "-1", "x", "2.0"))))
        elif action == "drop":
            del tokens[i]
        else:
            tokens[i] = str(draw(st.integers(-2, max(9, n + 1))))
    return " ".join(tokens)


def _paths(obj, prefix=()):
    """Every (container path, key) inside a JSON value, depth first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix, key
        yield from _paths(value, prefix + (key,))


@st.composite
def chains(draw):
    """t4a or a strong tournament of order <= 8, with the chain of one of its kings."""
    n = draw(st.integers(3, 8))
    if n == 4 and draw(st.booleans()):
        t = from_edge_list(4, T4A_EDGES)
    else:
        t = random_strong_tournament(n, draw(st.integers(0, 10**6)))
    return t, build_chain(t, draw(st.sampled_from(kings(t))))


@st.composite
def mutated_certificates(draw):
    """A certificate from `chains`, with one field edited or the text cut."""
    cert = certificate_json(*draw(chains()))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(cert))
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        target = cert
        for step in prefix:
            target = target[step]
        if draw(st.booleans()):
            target[key] = draw(JSON_VALUES)
        else:
            del target[key]
    text = json.dumps(cert)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _parse_or_domain_error(text):
    try:
        t = parse_text(text)
    except (TournamentError, ValueError):
        return
    assert parse_text(export(t, "text")) == t


@PROPERTY
@given(header_and_edges())
def test_parse_text_header_and_edges(text):
    _parse_or_domain_error(text)


@PROPERTY
@given(mutated_tournament_texts())
def test_parse_text_mutated(text):
    _parse_or_domain_error(text)


@PROPERTY
@given(st.text(max_size=40))
def test_parse_text_arbitrary(text):
    _parse_or_domain_error(text)


def _read_outcome(read, *args):
    """The tournament read, or the error class, with the message of a domain error."""
    try:
        return read(*args)
    except TournamentError as exc:
        return type(exc), str(exc)
    except ValueError:
        return ValueError


def _brute_parse(text):
    tokens = text.split()
    if len(tokens) % 2 == 0 or not all(re.fullmatch("-?[0-9]+", tok) for tok in tokens):
        raise ValueError("not a header and vertex pairs of ASCII decimal tokens")
    values = [int(tok) for tok in tokens]
    return brute_read(values[0], list(zip(values[1::2], values[2::2])))


@PROPERTY
@given(
    st.one_of(
        header_and_edges(),
        mutated_tournament_texts(),
        # Orders at the cut and above, where a text with the full token count
        # is read by the matrix pass.
        mutated_tournament_texts(st.integers(_MATRIX_CUT - 1, _MATRIX_CUT + 8)),
    )
)
def test_parse_text_matches_brute_read(text):
    assert _read_outcome(parse_text, text) == _read_outcome(_brute_parse, text)


@PROPERTY
@given(chains())
def test_dumps_certificate_is_stdlib_layout(t_and_chain):
    reference = json.dumps(certificate_json(*t_and_chain), indent=2, sort_keys=True) + "\n"
    assert dumps_certificate(*t_and_chain) == reference


@PROPERTY
@given(mutated_certificates())
def test_loads_certificate_mutated(text):
    try:
        t, chain = loads_certificate(text)
    except (TournamentError, ValueError):
        return
    # Whatever loads is written back as the stdlib renders it, so a vertex no
    # table of order n names, such as -1, is written as itself.
    reference = json.dumps(certificate_json(t, chain), indent=2, sort_keys=True) + "\n"
    assert dumps_certificate(t, chain) == reference
    try:
        report = verify_chain(t, chain)
    except MalformedCertificateError:
        return
    assert report.passed == (report.first_failure is None)
