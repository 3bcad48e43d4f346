"""One projector moment from the series engine, a reference for the moment kernel."""

from sixport.series import _projector_series, extract_derivative


def moment_component(h_l: int, h_r: int, k: int, l: int, seed: complex) -> complex:
    """<a^dagger^k a^l> on the projector a^dagger^{h_l} |seed><seed| a^{h_r}, |seed> normalized."""
    orders = (h_l, h_r, k, l)
    return extract_derivative(_projector_series(orders, seed), orders)
