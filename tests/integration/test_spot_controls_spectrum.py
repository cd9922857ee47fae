"""Section 2's core claim, spectrally: the spot controls the texture.

"The use of a spot as a basis texture synthesis has a number of
convenient, user controllable, properties.  First, the shape of the spot
determines the characteristics of the texture."  We verify the spectral
side of that statement with the radial power spectrum: bigger spots move
the roll-off to lower frequencies, and the DoG (filtered) spot removes
the low band entirely.
"""

from repro.advection.particles import ParticleSet
from repro.core.config import SpotNoiseConfig
from repro.fields.analytic import constant_field
from repro.parallel.runtime import DivideAndConquerRuntime

from oracles import radial_power_spectrum

FIELD = constant_field(0.0, 0.0, n=17)


def texture_for(radius_cells, profile="gaussian", n_spots=2500):
    cfg = SpotNoiseConfig(
        n_spots=n_spots,
        texture_size=128,
        spot_mode="standard",
        spot_radius_cells=radius_cells,
        profile=profile,
        anisotropy=0.0,
        seed=31,
    )
    ps = ParticleSet.uniform_random(cfg.n_spots, FIELD.grid.bounds, seed=31)
    with DivideAndConquerRuntime(cfg) as rt:
        tex, _ = rt.synthesize(FIELD, ps)
    return tex


def spectral_centroid(texture):
    k, p = radial_power_spectrum(texture, n_bins=32)
    return float((k * p).sum() / p.sum())


class TestSpotSizeControlsSpectrum:
    def test_bigger_spots_lower_frequencies(self):
        centroids = [spectral_centroid(texture_for(r)) for r in (0.4, 0.8, 1.6)]
        assert centroids[0] > centroids[1] > centroids[2]

    def test_dog_spot_suppresses_low_band(self):
        k, p_gauss = radial_power_spectrum(texture_for(1.0, "gaussian"))
        _, p_dog = radial_power_spectrum(texture_for(1.0, "dog"))
        low = k < 0.04
        low_share_gauss = p_gauss[low].sum() / p_gauss.sum()
        low_share_dog = p_dog[low].sum() / p_dog.sum()
        assert low_share_dog < 0.5 * low_share_gauss

    def test_spot_count_does_not_move_the_spectrum(self):
        # More spots change amplitude, not spectral shape: the centroid is
        # a property of the spot, not of the population size.
        a = spectral_centroid(texture_for(0.8, n_spots=1000))
        b = spectral_centroid(texture_for(0.8, n_spots=4000))
        assert abs(a - b) < 0.03
