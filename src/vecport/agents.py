"""Prompt construction for the translator and optimizer roles, plus response
code extraction.

Prompt building is a pure function of its inputs: identical case, code, and
feedback produce byte-identical bundles, and the digest of each bundle keys
the attempt log. Feedback text is embedded verbatim but trimmed around the
middle; the tail always survives because compilers, linkers, and test
harnesses summarize at the end of their output.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from fractions import Fraction

from .corpus import ValidatedCase
from .errors import NoCodeError
from .liveness import REGISTER_BUDGET, PressureReport, fmt_fraction

FEEDBACK_BUDGET = 8000  # characters kept from diagnostics


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass(frozen=True)
class Diagnostics:
    """Feedback handed back to the model: compiler output or a test report."""

    kind: str  # "compile" | "test"
    text: str


@dataclass(frozen=True)
class PromptBundle:
    messages: tuple[ChatMessage, ...]
    purpose: str
    context_digest: str


def _digest(purpose: str, messages: tuple[ChatMessage, ...]) -> str:
    h = hashlib.sha256()
    h.update(purpose.encode())
    for m in messages:
        h.update(b"\x00")
        h.update(m.role.encode())
        h.update(b"\x01")
        h.update(m.content.encode())
    return h.hexdigest()


def _bundle(purpose: str, *messages: ChatMessage) -> PromptBundle:
    msgs = tuple(messages)
    return PromptBundle(messages=msgs, purpose=purpose, context_digest=_digest(purpose, msgs))


_TRANSLATOR_SYSTEM = """\
You are an expert in RISC-V Vector (RVV) v1.0 intrinsic programming who ports
Arm Neon kernels to RVV. Hard requirements for every answer:
1. Keep this exact function signature: {signature}
2. Use only RVV v1.0 intrinsics (the __riscv_ prefix); include <riscv_vector.h>.
3. Let vsetvl set the active element count each iteration so loop tails need
   no scalar cleanup.
4. The code must be vector-length agnostic: correct on any VLEN, including
   128-bit and 256-bit hardware. Never hard-code a lane count.
5. Reply with exactly one fenced code block containing the complete C file
   for the translated function (helpers included); no code outside the fence.
"""


def build_translate_prompt(case: ValidatedCase) -> PromptBundle:
    """Initial translation request: full Neon source in, one code block out."""
    system = ChatMessage("system", _TRANSLATOR_SYSTEM.format(signature=case.function_signature))
    user = ChatMessage(
        "user",
        "Translate this Arm Neon implementation to RISC-V Vector intrinsics.\n"
        f"Target signature: {case.function_signature}\n\n"
        "Neon source:\n"
        "```c\n"
        f"{case.source_text.rstrip()}\n"
        "```\n",
    )
    return _bundle("translate", system, user)


def build_repair_prompt(
    case: ValidatedCase,
    previous_code: str,
    feedback: Diagnostics,
) -> PromptBundle:
    """Repair round: previous candidate plus verbatim (truncated) feedback."""
    if feedback.kind == "compile":
        purpose = "repair_compile"
        label = "The candidate failed to compile. Compiler diagnostics:"
    else:
        purpose = "repair_test"
        label = "The candidate compiled but failed functional tests. Test report:"
    system = ChatMessage("system", _TRANSLATOR_SYSTEM.format(signature=case.function_signature))
    user = ChatMessage(
        "user",
        "Your previous RVV candidate was:\n"
        "```c\n"
        f"{previous_code.rstrip()}\n"
        "```\n\n"
        f"{label}\n"
        "```\n"
        f"{truncate_middle(feedback.text, FEEDBACK_BUDGET)}\n"
        "```\n\n"
        "Fix the problem and reply with exactly one fenced code block "
        "containing the complete corrected C file.",
    )
    return _bundle(purpose, system, user)


_OPTIMIZER_SYSTEM = """\
You are an expert in tuning RISC-V Vector (RVV) v1.0 intrinsic code. You will
be shown a correct implementation plus a vector register pressure report.
Improve its throughput without changing observable behavior. Keep the exact
function signature, keep the code vector-length agnostic (valid at VLEN 128
and 256), and reply with exactly one fenced code block containing the
complete C file.
"""


def build_optimize_prompt(
    case: ValidatedCase,
    correct_code: str,
    pressure: PressureReport | None,
    speedup: Fraction | None = None,
    feedback: Diagnostics | None = None,
) -> PromptBundle:
    """Optimization round anchored on the current best correct candidate."""
    parts = [
        f"Current correct RVV implementation of {case.function_signature}:",
        "```c",
        correct_code.rstrip(),
        "```",
        "",
    ]
    if pressure is not None:
        parts += ["Vector register pressure report:", pressure.to_text(), ""]
        if pressure.spills_predicted:
            parts.append(
                f"Peak demand {fmt_fraction(pressure.pressure)} exceeds the "
                f"{REGISTER_BUDGET}-register file: reduce the number of simultaneously "
                f"live vector values (smaller LMUL, shorter live ranges, or "
                f"recompute values instead of holding them)."
            )
        elif pressure.pressure * 2 <= REGISTER_BUDGET:
            parts.append(
                f"Only {fmt_fraction(pressure.pressure)} of {REGISTER_BUDGET} registers are "
                f"used at the hottest point, so there is headroom: try a larger "
                f"LMUL or unroll the loop to keep more of the register file busy."
            )
        else:
            parts.append(
                f"Peak demand {fmt_fraction(pressure.pressure)} of {REGISTER_BUDGET} leaves "
                f"little headroom; prefer optimizations that do not add live values."
            )
    else:
        parts.append(
            "No register pressure data is available for this candidate; "
            "optimize conservatively."
        )
    if speedup is not None:
        parts.append(
            f"Current measured speedup vs the hand-written native reference: "
            f"{float(speedup):.2f}x (>1.0 is faster than native)."
        )
    if feedback is not None and feedback.text.strip():
        parts += [
            "",
            "Your previous optimization attempt failed; its feedback was:",
            "```",
            truncate_middle(feedback.text, FEEDBACK_BUDGET),
            "```",
        ]
    parts.append("")
    parts.append(
        "Produce an improved version, or re-emit the current code if no "
        "profitable change exists."
    )
    system = ChatMessage("system", _OPTIMIZER_SYSTEM)
    user = ChatMessage("user", "\n".join(parts))
    return _bundle("optimize", system, user)


def truncate_middle(text: str, budget: int) -> str:
    """Trim long diagnostics from the middle.

    The head orients the reader; the tail is never cut below the final
    quarter of the original text, since that is where summaries live, even
    when that overruns the nominal budget.
    """
    if len(text) <= budget:
        return text
    tail_len = max(budget // 2, (len(text) + 3) // 4)
    head_len = max(budget - tail_len, budget // 4)
    omitted = len(text) - head_len - tail_len
    if omitted <= 0:
        return text
    return (
        text[:head_len]
        + f"\n... [{omitted} characters omitted] ...\n"
        + text[-tail_len:]
    )


_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
_C_START_RE = re.compile(
    r"^\s*(?:#\s*\w+|typedef\b|static\b|inline\b|extern\b|struct\b|union\b|const\b"
    r"|void\b|char\b|short\b|int\b|long\b|float\b|double\b|unsigned\b|signed\b"
    r"|size_t\b|u?int\d+_t\b|v(?:int|uint|float|bool)\w*_t\b)"
)


def extract_code(response: str) -> str:
    """Code from an LLM reply: the last fenced block, else the raw text if it
    plausibly starts like C. Anything else is a failed attempt."""
    blocks = _FENCE_RE.findall(response)
    if blocks:
        return blocks[-1].strip("\n")
    if _C_START_RE.match(response):
        return response.strip()
    raise NoCodeError("no code block found in response")
