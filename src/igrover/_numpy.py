"""numpy, imported on first use: `sweep`, `compare` and the closed form need
only `math`, so a process that never touches an array never pays for it."""

import importlib


class _LazyNumpy:
    def __getattr__(self, name):
        value = getattr(importlib.import_module("numpy"), name)
        setattr(self, name, value)  # later lookups skip __getattr__
        return value


np = _LazyNumpy()
