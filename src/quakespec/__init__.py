"""Spectral and response-spectrum period parameters of strong-motion records."""

__version__ = "0.1.0"

from .catalog_io import (Catalog, DanglingReferenceError, DuplicateIdError,
                         EmptyFileError, Event, MalformedRecordError,
                         NonUniformSamplingError, RecordEntry, Station,
                         emit_geojson_map, load_accelerogram, load_catalog,
                         read_parameter_table, write_accelerogram,
                         write_catalog, write_parameter_table)
from .response import (EffectivePeaks, ResponseSpectra, SpectraConfig,
                       characteristic_period_t1star, characteristic_period_tc,
                       default_period_grid, effective_peaks,
                       heidebrecht_period, response_spectra, sdof_response,
                       spectrum_peak_period)
from .signal_core import (G_ACCEL, Accelerogram, GroundMotionPeaks, detrend,
                          integrate, peaks)
from .spectral import (SpectralMoments, Spectrum, bandwidth_indices,
                       fourier_amplitude_spectrum, mean_square_period,
                       moment_periods, power_spectral_density,
                       psd_peak_periods, spectral_moments)
from .stats import (PARAM_ORDER, AffineFit, CorrelationReport, ParameterSet,
                    ProportionalFit, classify_bandwidth, classify_r2,
                    correlation_matrix, fit_affine, fit_proportional)
from .synth import SynthSpec, generate
from .pipeline import RunConfig, analyze_catalog, analyze_record

__all__ = [
    "__version__",
    "Accelerogram", "GroundMotionPeaks", "G_ACCEL",
    "detrend", "integrate", "peaks",
    "Spectrum", "SpectralMoments",
    "fourier_amplitude_spectrum", "power_spectral_density",
    "spectral_moments", "moment_periods", "bandwidth_indices",
    "mean_square_period", "psd_peak_periods",
    "SpectraConfig", "ResponseSpectra", "EffectivePeaks",
    "default_period_grid", "sdof_response", "response_spectra",
    "spectrum_peak_period", "characteristic_period_t1star",
    "effective_peaks", "characteristic_period_tc", "heidebrecht_period",
    "SynthSpec", "generate",
    "ParameterSet", "PARAM_ORDER", "AffineFit", "ProportionalFit",
    "CorrelationReport", "fit_affine", "fit_proportional",
    "classify_r2", "classify_bandwidth", "correlation_matrix",
    "Event", "Station", "RecordEntry", "Catalog",
    "EmptyFileError", "MalformedRecordError", "NonUniformSamplingError",
    "DuplicateIdError", "DanglingReferenceError",
    "load_accelerogram", "write_accelerogram", "load_catalog",
    "write_catalog", "write_parameter_table", "read_parameter_table",
    "emit_geojson_map",
    "RunConfig", "analyze_record", "analyze_catalog",
]
