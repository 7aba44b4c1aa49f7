"""Offload backend registry — the "arbitrary user-defined shared library".

The paper's offload layer pulls its implementation from a shared object
named in the cfg (``library=fabric.so``).  In Python the analogue is a
module attribute path (``repro.finn.offload_backend:FabricBackend``); for
cfg compatibility, short library names like ``fabric.so`` can additionally
be registered programmatically, which is what the FINN backend does at
import time.

A backend is any object implementing the Fig. 3 life cycle::

    backend.init(section, in_shape) -> out_shape
    backend.load_weights()
    backend.forward_batch(fmb) -> fmb
    backend.destroy()

``forward_batch`` takes and returns a :class:`~repro.core.tensor.
FeatureMapBatch` (batch axis 0; one frame is a batch of one), as
Darknet's ``forward`` runs ``l.batch`` frames.  An optional
``reference_forward_batch(fmb)`` serves the degraded CPU path off the
fabric engine; without it that path runs ``forward_batch`` too.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict

_BACKENDS: Dict[str, Callable[[], object]] = {}


def register_backend(name: str, factory: Callable[[], object]) -> None:
    """Register *factory* under a short library *name* (e.g. ``fabric.so``)."""
    _BACKENDS[name] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (tests unload their fakes with this)."""
    _BACKENDS.pop(name, None)


def registered_backends() -> Dict[str, Callable[[], object]]:
    """Snapshot of the registered library names (the `dlopen` table)."""
    return dict(_BACKENDS)


def resolve_backend(name: str) -> object:
    """Instantiate the backend for *name*.

    Resolution order: explicit registrations first (the ``dlopen`` analogue),
    then ``package.module:attribute`` import paths.
    """
    if name in _BACKENDS:
        return _BACKENDS[name]()
    if ":" in name:
        module_name, _, attribute = name.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise LookupError(f"cannot import offload library '{name}'") from exc
        factory = getattr(module, attribute, None)
        if factory is None:
            raise LookupError(
                f"module '{module_name}' has no attribute '{attribute}'"
            )
        return factory()
    raise LookupError(
        f"offload library '{name}' is not registered and is not an import path"
    )


__all__ = [
    "register_backend",
    "unregister_backend",
    "registered_backends",
    "resolve_backend",
]
