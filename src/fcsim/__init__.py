"""Heralded photon source in a fiber cavity: model, simulator, estimators."""

__version__ = "0.1.0"

from .config import load_config

__all__ = ["default_config_path", "load_config"]


def default_config_path(name: str = "primary_cavity"):
    """Path to a packaged config ('primary_cavity' or 'alternate_cavity')."""
    from importlib.resources import files

    return files("fcsim").joinpath("data", f"{name}.json")
