"""Translation-case corpus: one directory per case, loaded read-only.

A case directory holds a ``manifest.txt`` of ``key = "value"`` lines plus the
four C files it points at: the Neon source to translate, a functional test
harness whose ``main`` returns 0 on pass, a benchmark harness printing elapsed
nanoseconds as the last stdout line, and a hand-written RVV reference that
anchors speedup measurements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import CorpusError
from .parser import validate_signature

MANIFEST_NAME = "manifest.txt"
_REQUIRED_KEYS = ("id", "arch", "source", "test", "bench", "native", "signature")
_KV_RE = re.compile(r'^\s*(\w+)\s*=\s*"(.*)"\s*$')

# Rough shape of a Neon intrinsic identifier (vaddq_s32, vld1q_u8, ...);
# used only for a vectorization sanity warning, never as a hard filter.
_NEON_HINT_RE = re.compile(r"\bv[a-z][a-z0-9]*q?_[a-z0-9_]+")


@dataclass(frozen=True)
class CaseManifest:
    case_id: str
    source_path: Path
    functional_test_path: Path
    perf_test_path: Path
    native_reference_path: Path
    function_signature: str


@dataclass(frozen=True)
class ValidatedCase:
    manifest: CaseManifest
    source_text: str
    native_text: str
    warnings: tuple[str, ...] = ()

    @property
    def case_id(self) -> str:
        return self.manifest.case_id

    @property
    def function_signature(self) -> str:
        return self.manifest.function_signature


@dataclass
class CorpusListing:
    """Manifests that loaded cleanly plus per-case problems for the rest."""

    manifests: list[CaseManifest] = field(default_factory=list)
    problems: list[tuple[str, str]] = field(default_factory=list)  # (case dir, message)


def read_key_values(path: Path | str, error: type[Exception]) -> Iterator[tuple[str, str]]:
    """``(key, value)`` for each ``key = "value"`` line of ``path``, in file order.

    Blank lines and ``#`` comments are skipped; any other line, or text that is
    not UTF-8, raises ``error``.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _KV_RE.match(line)
        if m is None:
            raise error(f"{path}: line {lineno}: expected key = \"value\"")
        yield m.group(1), m.group(2)


def _parse_manifest(path: Path) -> dict[str, str]:
    values = dict(read_key_values(path, CorpusError))
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise CorpusError(f"{path}: missing keys: {', '.join(missing)}")
    return values


def _manifest_from_dir(case_dir: Path) -> CaseManifest:
    values = _parse_manifest(case_dir / MANIFEST_NAME)
    if values["arch"] != "neon":
        raise CorpusError(f"{case_dir}: unsupported source arch {values['arch']!r}")
    paths = {}
    for key, label in (
        ("source", "source"),
        ("test", "functional test"),
        ("bench", "benchmark"),
        ("native", "native reference"),
    ):
        p = case_dir / values[key]
        if not p.is_file():
            raise CorpusError(f"{case_dir}: {label} file missing: {p.name}")
        paths[key] = p
    try:
        validate_signature(values["signature"])
    except Exception as exc:
        raise CorpusError(f"{case_dir}: bad signature: {exc}") from exc
    return CaseManifest(
        case_id=values["id"],
        source_path=paths["source"],
        functional_test_path=paths["test"],
        perf_test_path=paths["bench"],
        native_reference_path=paths["native"],
        function_signature=values["signature"],
    )


def load_corpus(corpus_dir: Path | str) -> CorpusListing:
    """Scan a corpus directory; deterministic, sorted by case id.

    Cases that fail to load are recorded as problems rather than aborting the
    scan. An entirely empty corpus raises CorpusError.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise CorpusError(f"corpus directory not found: {corpus_dir}")
    listing = CorpusListing()
    seen_ids: dict[str, Path] = {}
    case_dirs = sorted(
        d for d in corpus_dir.iterdir() if d.is_dir() and (d / MANIFEST_NAME).is_file()
    )
    for case_dir in case_dirs:
        try:
            manifest = _manifest_from_dir(case_dir)
        except CorpusError as exc:
            listing.problems.append((case_dir.name, str(exc)))
            continue
        if manifest.case_id in seen_ids:
            listing.problems.append(
                (case_dir.name,
                 f"duplicate case id {manifest.case_id!r} (also in {seen_ids[manifest.case_id].name})")
            )
            continue
        seen_ids[manifest.case_id] = case_dir
        listing.manifests.append(manifest)
    listing.manifests.sort(key=lambda m: m.case_id)
    if not listing.manifests and not listing.problems:
        raise CorpusError(f"no cases found under {corpus_dir}")
    return listing


def validate_case(manifest: CaseManifest) -> ValidatedCase:
    """Read the case into memory and run cheap sanity checks.

    The declared signature must appear in the Neon source (whitespace
    differences tolerated). A source without any Neon-looking intrinsic
    identifier is accepted with a warning: it may be a scalar fallback.
    """
    texts = {}
    for label, path in (
        ("source", manifest.source_path),
        ("test", manifest.functional_test_path),
        ("bench", manifest.perf_test_path),
        ("native", manifest.native_reference_path),
    ):
        try:
            texts[label] = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusError(
                f"{manifest.case_id}: cannot read {label} file {path}: {exc}"
            ) from exc

    warnings = []
    if not _signature_present(texts["source"], manifest.function_signature):
        raise CorpusError(
            f"{manifest.case_id}: signature not found in source: "
            f"{manifest.function_signature!r}"
        )
    if not _NEON_HINT_RE.search(texts["source"]):
        warnings.append(
            f"{manifest.case_id}: source has no Neon-style intrinsic identifiers; "
            f"is this case vectorized?"
        )
    return ValidatedCase(
        manifest=manifest,
        source_text=texts["source"],
        native_text=texts["native"],
        warnings=tuple(warnings),
    )


def _squash_ws(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def _signature_present(source: str, signature: str) -> bool:
    return _squash_ws(signature) in _squash_ws(source)


def bundled_corpus_dir() -> Path:
    """Directory of the corpus shipped inside the package."""
    return Path(__file__).resolve().parent / "corpus_data"
