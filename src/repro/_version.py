"""Single source of the package version.

Lives in its own module (rather than ``repro/__init__``) so low-level
modules — notably :mod:`repro.session.artifacts`, which folds the
version into every cache key — can import it without touching the
package root and its re-export graph.
"""

__version__ = "6.0.0"
