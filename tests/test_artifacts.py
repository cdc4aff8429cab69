"""Every command's artifacts against the recorded manifest (tests/artifacts.json).

On the numpy version and machine that recorded the manifest, stdout and each
CSV, .dat and trajectory file must match byte for byte.  Elsewhere the
floats may differ in their last bits, so the test says so and compares the
parsed numbers at 1e-12 relative and the text between them exactly; a
sha256 in a file is compared as being there, since the file it digests is
compared itself.  Nothing is skipped on either path.
"""

import json
import math
import re
import warnings

import pytest

from record_artifacts import COMMANDS, CONFIGS, MANIFEST, platform_key, run_command, sha256

RECORD = json.loads(MANIFEST.read_text(encoding="utf-8"))
REL_TOL = 1e-12
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")
_DIGEST = re.compile(r"\b[0-9a-f]{64}\b")


def assert_numbers_close(name, got, want):
    """got and want (texts) split into the same words around numbers that
    agree at REL_TOL relative."""
    got_parts, want_parts = (_NUMBER.split(_DIGEST.sub("<sha256>", text)) for text in (got, want))
    assert len(got_parts) == len(want_parts), f"{name}: the numbers or words differ"
    for i, (a, b) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            assert a == b, f"{name}: {a!r} != {b!r}"
            continue
        x, y = float(a), float(b)
        same = x == y or (math.isnan(x) and math.isnan(y))
        assert same or abs(x - y) <= REL_TOL * max(abs(x), abs(y)), f"{name}: {a} != {b}"


def first_difference(got, want):
    """The first line where got and want (texts) differ, as old -> new."""
    for number, (new, old) in enumerate(zip(got.splitlines(), want.splitlines()), start=1):
        if new != old:
            return f"line {number}: {old!r} -> {new!r}"
    return "the line counts differ"


@pytest.mark.parametrize("config, command", [(c, k) for c in CONFIGS for k in COMMANDS])
def test_artifacts_match_the_manifest(config, command, tmp_path):
    want = RECORD["runs"][config][command]
    code, stdout, files = run_command(config, command, tmp_path)
    got = {"stdout": stdout, **files}
    assert code == want["exit"]
    assert set(got) == set(want["sha256"])
    recorded = {name: "\n".join(RECORD["contents"][digest]) + "\n" for name, digest in want["sha256"].items()}
    if platform_key() == RECORD["platform"]:
        for name, text in got.items():
            assert sha256(text) == want["sha256"][name], f"{name} moved at {first_difference(text, recorded[name])}"
        return
    warnings.warn(
        f"artifacts recorded on {RECORD['platform']['machine']} with numpy {RECORD['platform']['numpy']}: "
        f"comparing numbers at {REL_TOL:g} relative, not bytes"
    )
    for name, text in got.items():
        assert_numbers_close(name, text, recorded[name])
