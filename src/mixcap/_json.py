"""The JSON-number check that mixture documents and CLI parameters share.

It imports nothing, so the command line checks its numbers without loading
numpy or any other mixcap module.
"""

__all__ = ["json_number"]


def json_number(value, path: str):
    """value itself if it is a JSON number in the float range; NaN and inf pass."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{path} must be finite, got {value!r}") from None
    return value
