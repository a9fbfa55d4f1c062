import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kpell import jsonout, verify
from kpell.sequences import SeqKind, SeqParams, prefix
from kpell.verify import CheckResult, SweepGrid, json_rows, run_suite

PAYLOADS = [
    {},
    [],
    "",
    0,
    None,
    True,
    {"a": {}, "b": [], "c": [[]], "d": [{}]},
    {"nested": {"deeper": [1, [2, [3, {"x": None}]]]}, "flags": [True, False, None]},
    {"text": "café – \U0001d49c \"quoted\" \\ \n\t\x00", "ü": "key"},
    {"big": 10**400, "neg": -(10**30), "zero": 0, "tuple": (1, "two", (3,))},
    [{"identity_name": "cassini", "inputs": {"a": 1, "k": 2, "n": 3}, "lhs": "-36",
      "rhs": "-36", "residual_is_zero": True}],
    # lists of strings take the one-pass path; mixed and nested ones fall back
    ["plain", "with \"quotes\"", "back\\slash", "café – \U0001d49c", "\n\t\x00", ""],
    {"entries": [], "rows": [[], []]},
    ["2/5", 7, "-1/5", None, True, "x"],
    [1, 2, "three"],
    {"n": 2, "entries": [["2/5", "-1/5"], ["1/5", "2/5"]]},
    [[["a", "b"], ["\\"]], [[]], ["c", ["d"]]],
]


def _stock_item(value):
    return json.dumps(value, indent=2).replace("\n", jsonout.ITEM)


@pytest.mark.parametrize("payload", PAYLOADS)
def test_bytes_match_the_stock_encoder(payload):
    assert jsonout.item(payload) == _stock_item(payload)


@pytest.mark.parametrize(
    "payload",
    [{"x": 1.5, "y": float("nan")}, {1: "int key", None: [True]}, [float("inf")]],
)
def test_other_types_go_to_the_stock_encoder(payload):
    assert jsonout.item(payload) == _stock_item(payload)


def test_unencodable_value_raises_like_the_stock_encoder():
    for payload in ({"x": object()}, ["x", object()]):
        with pytest.raises(TypeError):
            jsonout.item(payload)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_random_payloads_match(payload):
    assert jsonout.item(payload) == _stock_item(payload)


string_lists = st.recursive(
    st.lists(st.text(), max_size=5),
    lambda inner: st.lists(inner | st.text() | st.integers(), max_size=4),
    max_leaves=20,
)


@given(string_lists)
def test_random_lists_of_strings_match(payload):
    assert jsonout.item(payload) == _stock_item(payload)
    assert jsonout.item({"entries": payload}) == _stock_item({"entries": payload})


# -- the streaming writer --------------------------------------------------------


def _written(capsys, payload) -> str:
    jsonout.write(payload)
    return capsys.readouterr().out


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.dictionaries(st.text(), json_values, max_size=4),
    st.text(),
    st.lists(json_values, max_size=6),
)
def test_streamed_last_member_matches_the_stock_encoder(capsys, head, key, items):
    head.pop(key, None)  # the streamed member comes last
    want = json.dumps({**head, key: items}, indent=2) + "\n"
    assert _written(capsys, {**head, key: map(jsonout.item, items)}) == want
    assert _written(capsys, {**head, key: items}) == want


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.dictionaries(
        st.text(), st.tuples(st.booleans(), st.lists(json_values, max_size=4)), max_size=5
    )
)
def test_streamed_members_anywhere_match_the_stock_encoder(capsys, members):
    # theta-phi streams its first list member as well as its last
    want = json.dumps({key: items for key, (_, items) in members.items()}, indent=2) + "\n"
    payload = {
        key: map(jsonout.item, items) if streamed else items
        for key, (streamed, items) in members.items()
    }
    assert _written(capsys, payload) == want


@pytest.mark.parametrize("payload", [p for p in PAYLOADS if isinstance(p, dict)])
def test_whole_payloads_match_the_stock_encoder(capsys, payload):
    assert _written(capsys, payload) == json.dumps(payload, indent=2) + "\n"


def test_empty_iterator_is_an_empty_list(capsys):
    for head in ({}, {"summary": {"pass": 0, "fail": 0}}):
        want = json.dumps({**head, "results": []}, indent=2) + "\n"
        assert _written(capsys, {**head, "results": iter(())}) == want


def test_more_items_than_one_piece(capsys, monkeypatch):
    monkeypatch.setattr(jsonout, "_PIECE", 1000)
    items = [{"n": n, "value": str(7**n)} for n in range(300)]
    want = json.dumps({"k": 7, "rows": items}, indent=2) + "\n"
    assert len(want) > 20 * jsonout._PIECE
    assert _written(capsys, {"k": 7, "rows": map(jsonout.item, items)}) == want


def test_writes_to_the_stdout_of_the_moment():
    sink = io.StringIO()
    with redirect_stdout(sink):
        jsonout.write({"n": 1, "rows": iter([jsonout.item("x")])})
    assert sink.getvalue() == json.dumps({"n": 1, "rows": ["x"]}, indent=2) + "\n"


def test_template_fills_to_the_item():
    form = jsonout.template({"n": jsonout.SLOT, "value": jsonout.SLOT, "tag": "100%"})
    want = jsonout.item({"n": 12, "value": "3", "tag": "100%"})
    assert form % (12, jsonout.quote("3")) == want


# -- verify's rows: one template per identity, input keys and input types ----------


def _failing_docagne(bump: int) -> list:
    # one G term bumped: the right side keeps a sqrt(1+k) part and is a QuadNum
    entry = verify._REGISTRY["docagne"]
    params = SeqParams(2, 1)
    G = prefix(SeqKind.GEN_PELL, params, 12)
    G[4] += bump
    q = prefix(SeqKind.MODIFIED_PELL, params, 12)
    P = prefix(SeqKind.PELL, params, 12)
    indices = entry.indices(list(entry.valid_tuples(8)), 1)
    return [entry.body(G, q, P, params, *index) for index in indices]


def _results() -> list:
    grid = SweepGrid(k_max=15, a_max=2, n_max=6)  # 1+k square at k = 3, 8, 15
    big = CheckResult("cassini", {"a": 1, "k": 1, "n": 1}, 10**5000, 1)
    return [
        *run_suite(grid).results,
        *run_suite(SweepGrid(k_max=3, a_max=1, n_max=6), ("eigen", "eigen-verbatim")).results,
        *_failing_docagne(1),
        *_failing_docagne(10**5000),  # sides past STR_MAX_BITS, a QuadNum among them
        big,
    ]


def test_verify_rows_match_the_stock_encoder(int_str_limit):
    results = _results()
    assert any(type(r.rhs).__name__ == "QuadNum" for r in results)
    assert any(isinstance(v, str) for r in results for v in r.inputs.values())
    assert {3, 8, 15} <= {r.inputs.get("k") for r in results}
    int_str_limit(4300)  # a side past STR_MAX_BITS prints through to_str
    rows, failed = json_rows(results)
    int_str_limit(0)
    assert failed == sum(not r.residual_is_zero for r in results) > 0
    assert len(rows) == len(results)
    for row, r in zip(rows, results):
        assert row == json.dumps(r.to_dict(), indent=2).replace("\n", jsonout.ITEM), r


def test_verify_rows_encode_one_template_per_form(monkeypatch):
    # string inputs (cofactor-dets' matrix, eigen's product) fill a template too
    results = _results()
    forms = {(r.identity_name, *r.inputs) for r in results}
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **kw: calls.append(a) or dumps(*a, **kw))
    json_rows(results)
    assert 0 < len(calls) <= len(forms)
