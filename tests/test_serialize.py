import json

from toporeg.serialize import dump_json


def test_control_characters_round_trip():
    text = "a\x00b\x1f\"\\é"
    out = dump_json({"s": text})
    assert json.loads(out) == {"s": text}
    assert "é" in out  # non-ASCII stays literal UTF-8


def test_plain_strings_unchanged():
    assert dump_json(["selected_bars", "runs/metrics_seed0.jsonl", "a\tb\n"]) == (
        '["selected_bars", "runs/metrics_seed0.jsonl", "a\\tb\\n"]'
    )
