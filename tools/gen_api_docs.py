#!/usr/bin/env python3
"""Generate docs/api_overview.md from the package's public surface.

Walks every module under ``repro``, collects ``__all__`` (or public
top-level names), and emits a markdown index with each symbol's
signature and first docstring line.  Run from the repository root:

    PYTHONPATH=src python tools/gen_api_docs.py [OUTPUT]

``OUTPUT`` defaults to ``docs/api_overview.md``.  Defaults that render
with a memory address (``<function f at 0x...>``) lose the address, so
the output depends only on the source.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parent.parent / "docs" / "api_overview.md"

SKIP_MODULES = {"repro.__main__"}

_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES:
            continue
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - diagnostics only
            print(f"warning: cannot import {info.name}: {exc}", file=sys.stderr)


def public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names if hasattr(module, n)]


def describe(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    first = doc.splitlines()[0].strip() if doc else ""
    return first


def signature_of(obj) -> str:
    try:
        return _ADDRESS.sub("", str(inspect.signature(obj)))
    except (TypeError, ValueError):
        return ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write the API overview.")
    parser.add_argument("output", nargs="?", type=Path, default=OUT,
                        help=f"markdown file to write (default: {OUT})")
    out = parser.parse_args(argv).output
    lines = [
        "# API overview",
        "",
        "Auto-generated by `tools/gen_api_docs.py` — do not edit by hand.",
        "One entry per public symbol: signature and summary line.",
        "",
    ]
    for name, module in sorted(iter_modules(), key=lambda kv: kv[0]):
        names = public_names(module)
        exported = [
            n for n in names
            if getattr(getattr(module, n), "__module__", name) == name
            or inspect.ismodule(getattr(module, n)) is False
        ]
        # Only list symbols defined here (packages re-export children).
        owned = [
            n for n in exported
            if getattr(getattr(module, n), "__module__", name) == name
        ]
        if not owned:
            continue
        module_doc = describe(module)
        lines.append(f"## `{name}`")
        if module_doc:
            lines.append(f"\n{module_doc}\n")
        for symbol in sorted(owned):
            obj = getattr(module, symbol)
            kind = (
                "class" if inspect.isclass(obj)
                else "function" if callable(obj)
                else "constant"
            )
            sig = signature_of(obj) if kind != "constant" else ""
            summary = describe(obj)
            lines.append(f"- **`{symbol}{sig}`** ({kind}) — {summary}")
        lines.append("")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(lines)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
