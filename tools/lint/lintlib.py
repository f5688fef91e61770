"""Shared infrastructure for the BFT lint suite (tools/lint/bft_lint.py).

Checks operate on comment-stripped source text so that prose naming an
offending construct (a comment saying "no rand() here") never trips a lint.
Suppression goes through per-check allowlist files with a mandatory
justification per entry; an entry that matches no current finding is itself
an error ("stale allowlist entry"), which keeps every allowlist entry
explained and current — see docs/static_analysis.md.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Finding:
    """One lint hit: a (file, line, token) with a human explanation."""
    path: str       # repo-relative, forward slashes
    lineno: int
    token: str      # the matched construct, used for allowlist matching
    message: str
    line: str = ""  # the stripped source line the token was found on

    def render(self) -> str:
        return f"{self.path}:{self.lineno}: {self.message} [{self.token}]"


@dataclass
class AllowEntry:
    path: str
    token: str
    justification: str
    lineno: int  # in the allowlist file
    used: bool = False


class Allowlist:
    """Parses `<path> | <token> | <justification>` lines.

    A finding is suppressed when an entry's path equals the finding's
    repo-relative path and the entry's token is a substring of the finding's
    token or source line. Entries with an empty justification are rejected,
    and entries that suppress nothing are reported as stale.
    """

    def __init__(self, file: Path):
        self.file = file
        self.entries: list[AllowEntry] = []
        self.errors: list[str] = []
        if not file.exists():
            return
        for lineno, raw in enumerate(
                file.read_text(encoding="utf-8").splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not all(parts):
                self.errors.append(
                    f"{file.name}:{lineno}: malformed entry (want "
                    f"'<path> | <token> | <justification>'): {raw!r}")
                continue
            self.entries.append(AllowEntry(parts[0], parts[1], parts[2], lineno))

    def suppresses(self, finding: Finding) -> bool:
        hit = False
        for entry in self.entries:
            if entry.path == finding.path and (
                    entry.token in finding.token or entry.token in finding.line):
                entry.used = True
                hit = True  # keep scanning: several entries may cover one line
        return hit

    def stale_entries(self) -> list[AllowEntry]:
        return [e for e in self.entries if not e.used]


def strip_comments(text: str) -> list[str]:
    """Returns source lines with //- and /* */-comment text blanked out.

    Line structure is preserved so findings carry real line numbers. String
    literals are left alone (good enough for this codebase: no lint pattern
    appears inside a string that is not itself a finding).
    """
    out: list[str] = []
    in_block = False
    for line in text.splitlines():
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    i = end + 2
                    in_block = False
            else:
                slash = line.find("//", i)
                block = line.find("/*", i)
                if slash != -1 and (block == -1 or slash < block):
                    result.append(line[i:slash])
                    i = len(line)
                elif block != -1:
                    result.append(line[i:block])
                    i = block + 2
                    in_block = True
                else:
                    result.append(line[i:])
                    i = len(line)
        out.append("".join(result))
    return out


@dataclass
class SourceFile:
    path: Path        # absolute
    rel: str          # repo-relative, forward slashes
    lines: list[str]  # comment-stripped

    @property
    def text(self) -> str:
        return "\n".join(self.lines)


def load_sources(root: Path, subdirs=("src",), suffixes=(".h", ".cpp")) -> list[SourceFile]:
    sources = []
    for subdir in subdirs:
        base = root / subdir
        for path in sorted(base.rglob("*")):
            if path.suffix in suffixes and path.is_file():
                rel = path.relative_to(root).as_posix()
                lines = strip_comments(path.read_text(encoding="utf-8"))
                sources.append(SourceFile(path, rel, lines))
    return sources


def finish(check: str, findings: list[Finding], allow: Allowlist | None,
           scanned: int) -> int:
    """Applies the allowlist, prints the verdict, returns the exit code."""
    errors: list[str] = []
    if allow is not None:
        errors.extend(allow.errors)
        findings = [f for f in findings if not allow.suppresses(f)]
        for entry in allow.stale_entries():
            errors.append(
                f"{allow.file.name}:{entry.lineno}: stale allowlist entry "
                f"(suppresses nothing — remove it): "
                f"{entry.path} | {entry.token}")
    for f in findings:
        errors.append(f.render())
    if errors:
        print(f"lint:{check}: {len(errors)} problem(s):")
        for err in errors:
            print(f"  - {err}")
        return 1
    suffix = ""
    if allow is not None and allow.entries:
        suffix = f", {len(allow.entries)} justified allowlist entr(y/ies)"
    print(f"lint:{check}: OK ({scanned} files scanned{suffix})")
    return 0

