import pytest

from vecport.corpus import (
    CaseManifest,
    bundled_corpus_dir,
    load_corpus,
    validate_case,
)
from vecport.errors import CorpusError

MINI_NEON = """\
#include <arm_neon.h>
#include <stddef.h>
#include <stdint.h>

void add1(const int32_t *a, int32_t *b, size_t n) {
    for (size_t i = 0; i + 4 <= n; i += 4) {
        vst1q_s32(b + i, vaddq_s32(vld1q_s32(a + i), vdupq_n_s32(1)));
    }
}
"""

SCALAR_SOURCE = """\
#include <stddef.h>
#include <stdint.h>

void add1(const int32_t *a, int32_t *b, size_t n) {
    for (size_t i = 0; i < n; i++) b[i] = a[i] + 1;
}
"""

SIGNATURE = "void add1(const int32_t *a, int32_t *b, size_t n)"


def write_case(root, case_id, source=MINI_NEON, signature=SIGNATURE, skip=()):
    d = root / case_id
    d.mkdir()
    files = {
        "neon.c": source,
        "test.c": "int main(void) { return 0; }\n",
        "bench.c": "int main(void) { return 0; }\n",
        "native.c": "void add1(void) {}\n",
    }
    for name, text in files.items():
        if name not in skip:
            (d / name).write_text(text)
    (d / "manifest.txt").write_text(
        f'id = "{case_id}"\n'
        'arch = "neon"\n'
        'source = "neon.c"\n'
        'test = "test.c"\n'
        'bench = "bench.c"\n'
        'native = "native.c"\n'
        f'signature = "{signature}"\n'
    )
    return d


def test_load_three_cases_sorted(tmp_path):
    for case_id in ("zeta", "alpha", "mid"):
        write_case(tmp_path, case_id)
    listing = load_corpus(tmp_path)
    assert [m.case_id for m in listing.manifests] == ["alpha", "mid", "zeta"]
    assert listing.problems == []


def test_load_is_deterministic(tmp_path):
    for case_id in ("b", "a", "c"):
        write_case(tmp_path, case_id)
    first = [m.case_id for m in load_corpus(tmp_path).manifests]
    second = [m.case_id for m in load_corpus(tmp_path).manifests]
    assert first == second


def test_missing_source_recorded_as_problem(tmp_path):
    write_case(tmp_path, "good")
    write_case(tmp_path, "broken", skip=("neon.c",))
    listing = load_corpus(tmp_path)
    assert [m.case_id for m in listing.manifests] == ["good"]
    assert len(listing.problems) == 1
    assert "broken" in listing.problems[0][0]


def test_empty_corpus_is_an_error(tmp_path):
    with pytest.raises(CorpusError, match="^no cases found under "):
        load_corpus(tmp_path)


def test_missing_directory_is_an_error(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "nope")


def test_duplicate_case_ids_flagged(tmp_path):
    write_case(tmp_path, "one")
    d = write_case(tmp_path, "two")
    text = (d / "manifest.txt").read_text().replace('id = "two"', 'id = "one"')
    (d / "manifest.txt").write_text(text)
    listing = load_corpus(tmp_path)
    assert len(listing.manifests) == 1
    assert "duplicate" in listing.problems[0][1]


def test_malformed_manifest_recorded(tmp_path):
    d = write_case(tmp_path, "bad")
    (d / "manifest.txt").write_text("id: bad\n")
    listing = load_corpus(tmp_path)
    assert listing.manifests == []
    assert len(listing.problems) == 1
    assert 'line 1: expected key = "value"' in listing.problems[0][1]


@pytest.mark.parametrize("fault", ["missing_keys", "sve"])
def test_manifest_faults_are_problems_with_their_message(tmp_path, fault):
    d = write_case(tmp_path, "bad")
    write_case(tmp_path, "good")
    manifest = d / "manifest.txt"
    if fault == "missing_keys":
        manifest.write_text('id = "bad"\narch = "neon"\nsource = "neon.c"\n')
        message = f"{manifest}: missing keys: test, bench, native, signature"
    else:
        manifest.write_text(manifest.read_text().replace('"neon"', '"sve"'))
        message = f"{d}: unsupported source arch 'sve'"
    listing = load_corpus(tmp_path)
    assert [m.case_id for m in listing.manifests] == ["good"]
    assert listing.problems == [("bad", message)]


def test_bad_signature_rejected(tmp_path):
    write_case(tmp_path, "sig", signature="definitely not C")
    listing = load_corpus(tmp_path)
    assert listing.manifests == []
    assert "signature" in listing.problems[0][1]


def test_validate_reads_all_texts(tmp_path):
    d = write_case(tmp_path, "ok")
    (manifest,) = load_corpus(tmp_path).manifests
    case = validate_case(manifest)
    assert "vaddq_s32" in case.source_text
    assert case.native_text == "void add1(void) {}\n"
    assert case.warnings == ()
    (d / "bench.c").unlink()
    with pytest.raises(CorpusError, match="cannot read bench file"):
        validate_case(manifest)


def test_validate_warns_on_scalar_looking_source(tmp_path):
    write_case(tmp_path, "scalar", source=SCALAR_SOURCE)
    (manifest,) = load_corpus(tmp_path).manifests
    case = validate_case(manifest)
    assert len(case.warnings) == 1
    assert "vectorized" in case.warnings[0]


def test_validate_requires_signature_in_source(tmp_path):
    write_case(tmp_path, "nosig")
    d = tmp_path / "nosig"
    (d / "manifest.txt").write_text(
        (d / "manifest.txt")
        .read_text()
        .replace(SIGNATURE, "void other_name(const int32_t *a, int32_t *b, size_t n)")
    )
    (manifest,) = load_corpus(tmp_path).manifests
    with pytest.raises(CorpusError, match="other_name"):
        validate_case(manifest)
    # A blank source cannot hold the signature, so it never reaches a prompt.
    blank_root = tmp_path / "blank"
    blank_root.mkdir()
    write_case(blank_root, "blank", source="   \n")
    (manifest,) = load_corpus(blank_root).manifests
    with pytest.raises(CorpusError, match="signature not found in source"):
        validate_case(manifest)


def test_validate_never_mutates_files(tmp_path):
    d = write_case(tmp_path, "ro")
    before = {p.name: p.read_bytes() for p in d.iterdir()}
    (manifest,) = load_corpus(tmp_path).manifests
    validate_case(manifest)
    after = {p.name: p.read_bytes() for p in d.iterdir()}
    assert before == after


def test_bundled_corpus_loads_clean():
    listing = load_corpus(bundled_corpus_dir())
    assert len(listing.manifests) >= 6
    assert listing.problems == []
    for manifest in listing.manifests:
        case = validate_case(manifest)
        assert case.warnings == ()
