"""Rule framework: base class, registration, lookup.

Rules self-register at import time via :func:`register`; the package's
``rules/__init__.py`` imports every rule module, so importing
:mod:`repro.lint` is enough to populate the registry.  Codes must be
unique and stable — they are the contract with suppression comments and
CI logs.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Type

from .context import ModuleContext
from .findings import Finding, Severity

__all__ = ["Rule", "register", "all_rules", "rules_by_code", "resolve_codes"]

_CODE_FORMAT = re.compile(r"^TMF\d{3}$")

_REGISTRY: Dict[str, Type["Rule"]] = {}


class Rule:
    """One conformance check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings (use :meth:`finding` so code/severity/rule name are
    filled in consistently).  Rules are instantiated fresh per lint run
    and invoked once per module; they must not keep cross-module state
    except through attributes they document (the single-writer rule is
    per-module by design — register names are namespaced per algorithm).
    """

    code: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, line: int, column: int, message: str
    ) -> Finding:
        # ``column`` is a 0-based AST col_offset; Finding stores 1-based.
        return Finding(
            code=self.code,
            message=message,
            path=ctx.path,
            line=line,
            column=column + 1,
            severity=self.severity,
            rule=self.name,
        )


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``cls`` to the global registry."""
    if not _CODE_FORMAT.match(cls.code):
        raise ValueError(f"rule {cls.__name__} has malformed code {cls.code!r}")
    if cls.code in _REGISTRY:
        raise ValueError(
            f"duplicate rule code {cls.code}: {cls.__name__} vs "
            f"{_REGISTRY[cls.code].__name__}"
        )
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} must set a name")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by code."""
    from . import rules as _rules  # noqa: F401  (side-effect: registration)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def rules_by_code() -> Dict[str, Type[Rule]]:
    from . import rules as _rules  # noqa: F401

    return dict(_REGISTRY)


def resolve_codes(spec: str) -> List[str]:
    """Parse a ``--select``/``--ignore`` comma list, validating codes."""
    known = rules_by_code()
    codes = [c.strip() for c in spec.split(",") if c.strip()]
    for code in codes:
        if code not in known:
            raise ValueError(
                f"unknown rule code {code!r} (known: {', '.join(sorted(known))})"
            )
    return codes
