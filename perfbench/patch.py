"""Replace rljp functions from outside, wherever the program holds them."""

from __future__ import annotations

import sys


def _rljp_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "rljp" or name.startswith("rljp."))
    ]


def replace_function(original, replacement) -> int:
    """Rebind every rljp module global that is `original` to `replacement`.

    This covers the defining module and every module that imported the
    function by name. Returns the number of bindings replaced.
    """
    replaced = 0
    for module in _rljp_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    if not replaced:
        raise LookupError(f"{original!r} is not bound in any rljp module")
    return replaced


def replace_method(cls, attr: str, wrap) -> None:
    """Set `cls.attr` to `wrap(function)`, keeping a classmethod a classmethod."""
    raw = vars(cls)[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrap(raw.__func__)))
    else:
        setattr(cls, attr, wrap(raw))
