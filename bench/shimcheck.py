"""Self-check of the scalar RVV shim and its runner launcher.

Every bundled ``native.c`` must pass its own ``test.c`` at VLEN 128, 256 and
512, and every lane-count candidate the host workload can script must pass
at 128 and fail at 256 and 512. Builds use host ``gcc``, one process at a
time, the same way the host workload's compile template does.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

import kernels

SHIM_DIR = Path(__file__).resolve().parent / "shim"
LAUNCHER = SHIM_DIR / "run-vlen.sh"
VLENS = (128, 256, 512)


def _build(sources: list[Path], binary: Path) -> str | None:
    proc = subprocess.run(
        ["gcc", "-O2", "-I", str(SHIM_DIR), *map(str, sources), "-o", str(binary)],
        capture_output=True, text=True, timeout=120,
    )
    return None if proc.returncode == 0 else proc.stderr[-2000:]


def _passes(binary: Path, vlen: int) -> bool:
    proc = subprocess.run(
        ["sh", str(LAUNCHER), "-cpu", f"rv64,v=true,vlen={vlen},elen=64", str(binary)],
        capture_output=True, timeout=60,
    )
    return proc.returncode == 0


def run(bundled: Path, work: Path) -> list[str]:
    """Errors found; empty when the shim behaves as required."""
    work.mkdir(parents=True)
    errors = []
    for case in kernels.BASE_CASES:
        test_c = bundled / case / "test.c"
        binary = work / f"{case}_native"
        failure = _build([bundled / case / "native.c", test_c], binary)
        if failure:
            errors.append(f"{case}: native.c does not build against the shim: {failure}")
            continue
        errors += [f"{case}: native.c fails its test at VLEN {v}"
                   for v in VLENS if not _passes(binary, v)]
        lane = kernels.lane_count_kernel(case)
        if lane is None:
            continue
        source = work / f"{case}_lane.c"
        source.write_text(lane)
        binary = work / f"{case}_lane"
        failure = _build([source, test_c], binary)
        if failure:
            errors.append(f"{case}: lane-count candidate does not build: {failure}")
            continue
        want = {128: True, 256: False, 512: False}
        errors += [f"{case}: lane-count candidate {'fails' if ok else 'passes'} at VLEN {v}"
                   for v, ok in want.items() if _passes(binary, v) != ok]
    return errors
