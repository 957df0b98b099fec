//! Spectral features of DVFS state traces.
//!
//! The DVFS-based HMD of Chawla et al. derives part of its signature from the
//! frequency content of the DVFS time series (periodic workloads such as
//! video playback or repeated encryption bursts leave characteristic peaks).
//! This module evaluates the first `k` non-DC coefficients of a discrete
//! Fourier transform term by term — O(n·k), which is ample for the trace
//! lengths used here — and summarises them into band energies.
//!
//! # The twiddle table
//!
//! The `(cos, sin)` factors of the transform depend only on the trace length
//! `n` and the bin count `k`, never on the trace. The process therefore
//! builds one table of them per `(n, k)` it is asked for, the first time it
//! is asked, and every thread reads that one table: a corpus of equally long
//! traces pays `n·k` sine/cosine pairs once instead of once per row, however
//! many pool threads simulate its rows. A table holds 16 B × n × k and lives
//! as long as the process: 256 KiB for the bench-scale 512-sample traces
//! with 32 bins, 512 KiB for the paper-scale 1024-sample ones. A program
//! asks for one key per trace length it generates.
//!
//! The table moves no bit of any magnitude:
//! - each entry is the `cos()` and `sin()` of the same `f64` angle
//!   expression a term-by-term evaluation uses, so libm returns the same bits;
//! - each bin still sums `centred × cos` and `centred × sin` from zero over
//!   ascending samples. Only the loop order differs (samples outer, bins
//!   inner), and that leaves every bin's sequence of roundings as it was,
//!   because Rust never fuses a multiply and an add on its own.
//!
//! The test module keeps the term-by-term evaluation as the table's
//! bit-for-bit reference.

use std::sync::{Arc, Mutex, PoisonError};

/// The twiddle factors of one `(trace length, bin count)`:
/// `pairs[t * num_bins + bin]` is `[cos, sin]` of the angle of sample `t` in
/// bin `bin + 1`.
struct Twiddles {
    n: usize,
    num_bins: usize,
    pairs: Vec<[f64; 2]>,
}

/// Every twiddle table the process has built, at most one per key.
static TABLES: Mutex<Vec<Arc<Twiddles>>> = Mutex::new(Vec::new());

/// The key of every twiddle table the process has built, in build order;
/// the tests pin builds per key as a ceiling.
#[cfg(test)]
static BUILT_KEYS: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());

impl Twiddles {
    /// The table of `(n, num_bins)`, built the first time any thread asks
    /// for it. The build runs under the lock, so concurrent first calls
    /// build it once.
    fn of(n: usize, num_bins: usize) -> Arc<Twiddles> {
        // A panic under the lock leaves the list as it was: tables are
        // pushed whole.
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = tables.iter().find(|t| (t.n, t.num_bins) == (n, num_bins)) {
            return Arc::clone(table);
        }
        #[cfg(test)]
        BUILT_KEYS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((n, num_bins));
        let mut pairs = vec![[0.0; 2]; n * num_bins];
        for (t, row) in pairs.chunks_exact_mut(num_bins).enumerate() {
            for (bin, pair) in row.iter_mut().enumerate() {
                let k = bin + 1; // skip DC
                let angle = -2.0 * std::f64::consts::PI * (k as f64) * (t as f64) / (n as f64);
                *pair = [angle.cos(), angle.sin()];
            }
        }
        let table = Arc::new(Twiddles { n, num_bins, pairs });
        tables.push(Arc::clone(&table));
        table
    }
}

/// Magnitude of the first `num_bins` DFT coefficients (excluding the DC term)
/// of `signal`, normalised by the signal length.
///
/// Returns all zeros for signals shorter than 2 samples.
pub fn dft_magnitudes(signal: &[f64], num_bins: usize) -> Vec<f64> {
    let n = signal.len();
    if n < 2 || num_bins == 0 {
        return vec![0.0; num_bins];
    }
    let mean = signal.iter().sum::<f64>() / n as f64;
    let mut sums = vec![[0.0; 2]; num_bins];
    let twiddles = Twiddles::of(n, num_bins);
    for (&x, row) in signal.iter().zip(twiddles.pairs.chunks_exact(num_bins)) {
        let centred = x - mean;
        for ([re, im], &[cos, sin]) in sums.iter_mut().zip(row) {
            *re += centred * cos;
            *im += centred * sin;
        }
    }
    sums.iter()
        .map(|[re, im]| (re * re + im * im).sqrt() / n as f64)
        .collect()
}

/// Aggregates DFT magnitudes into `num_bands` equally wide energy bands
/// (sum of squared magnitudes per band).
pub fn band_energies(signal: &[f64], num_bins: usize, num_bands: usize) -> Vec<f64> {
    let magnitudes = dft_magnitudes(signal, num_bins);
    let mut bands = vec![0.0; num_bands];
    if num_bands == 0 || magnitudes.is_empty() {
        return bands;
    }
    let per_band = (magnitudes.len() as f64 / num_bands as f64).ceil() as usize;
    for (i, m) in magnitudes.iter().enumerate() {
        let band = (i / per_band.max(1)).min(num_bands - 1);
        bands[band] += m * m;
    }
    bands
}

/// Index (1-based bin number) of the dominant non-DC frequency component.
pub fn dominant_frequency_bin(signal: &[f64], num_bins: usize) -> usize {
    let magnitudes = dft_magnitudes(signal, num_bins);
    magnitudes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i + 1)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DvfsCorpusBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The term-by-term evaluation, the table's reference: every
    /// (bin, sample) pair computes its own angle, cosine and sine.
    fn naive_dft_magnitudes(signal: &[f64], num_bins: usize) -> Vec<f64> {
        let n = signal.len();
        let mut magnitudes = vec![0.0; num_bins];
        if n < 2 {
            return magnitudes;
        }
        let mean = signal.iter().sum::<f64>() / n as f64;
        for (bin, magnitude) in magnitudes.iter_mut().enumerate() {
            let k = bin + 1; // skip DC
            let mut re = 0.0;
            let mut im = 0.0;
            for (t, &x) in signal.iter().enumerate() {
                let angle = -2.0 * std::f64::consts::PI * (k as f64) * (t as f64) / (n as f64);
                let centred = x - mean;
                re += centred * angle.cos();
                im += centred * angle.sin();
            }
            *magnitude = (re * re + im * im).sqrt() / n as f64;
        }
        magnitudes
    }

    /// Trace lengths, short and long in turn.
    const LENGTHS: [usize; 7] = [2, 1024, 3, 512, 4, 255, 64];
    const BINS: [usize; 5] = [1, 4, 20, 32, 40];

    /// Every `(length, bin count)`, starting `rotation` keys in. The bin
    /// counts snake back and forth, so every consecutive pair but the
    /// rotation's wrap shares either the length or the bin count: a table
    /// keyed on one alone would be reused with the wrong shape.
    fn keys(rotation: usize) -> Vec<(usize, usize)> {
        let mut keys: Vec<(usize, usize)> = LENGTHS
            .iter()
            .enumerate()
            .flat_map(|(i, &len)| {
                let mut row: Vec<(usize, usize)> = BINS.iter().map(|&bins| (len, bins)).collect();
                if i % 2 == 1 {
                    row.reverse();
                }
                row
            })
            .collect();
        let len = keys.len();
        keys.rotate_left(rotation % len);
        keys
    }

    /// Twiddle tables the process has built for `key`.
    fn builds(key: (usize, usize)) -> usize {
        let built = BUILT_KEYS.lock().unwrap_or_else(PoisonError::into_inner);
        built.iter().filter(|&&k| k == key).count()
    }

    /// Asserts that the table matches the reference bit for bit on a seeded
    /// random, a constant and a sine signal of length `len`.
    fn assert_matches_reference(len: usize, bins: usize) {
        let mut rng = StdRng::seed_from_u64((len * 64 + bins) as u64);
        let random: Vec<f64> = (0..len).map(|_| 8.0 * rng.gen::<f64>()).collect();
        for signal in [random, vec![3.0; len], sine(5.0, len)] {
            let bits = |magnitudes: Vec<f64>| -> Vec<u64> {
                magnitudes.iter().map(|m| m.to_bits()).collect()
            };
            assert_eq!(
                bits(dft_magnitudes(&signal, bins)),
                bits(naive_dft_magnitudes(&signal, bins)),
                "n = {len}, bins = {bins}"
            );
        }
    }

    #[test]
    fn the_table_matches_the_term_by_term_reference_bit_for_bit() {
        for (len, bins) in keys(0) {
            assert_matches_reference(len, bins);
            assert_eq!(
                builds((len, bins)),
                1,
                "a key's table is built once, then every signal shares it"
            );
        }
    }

    #[test]
    fn threads_share_one_table_per_key() {
        // Three threads walk every key at once, each from another start, so
        // first calls for one key race.
        std::thread::scope(|scope| {
            for worker in 0..3 {
                scope.spawn(move || {
                    for (len, bins) in keys(worker * 11) {
                        assert_matches_reference(len, bins);
                    }
                });
            }
        });
        for key in keys(0) {
            assert_eq!(builds(key), 1, "key {key:?}");
        }
    }

    #[test]
    fn a_pooled_corpus_builds_its_table_once() {
        // No other test asks for 96-sample traces, so every build of that
        // key counts. Term by term, this corpus costs 48 rows x 96 samples
        // x 32 bins sine/cosine pairs, spread over the worker pool; the
        // table costs 96 x 32, once in the process.
        let builder = DvfsCorpusBuilder::new()
            .with_samples_per_app(2)
            .with_trace_len(96);
        assert_eq!(builds((96, builder.extractor.spectral_bins)), 0);
        let corpus = builder.build_corpus(7).expect("corpus");
        assert_eq!(corpus.len(), 48);
        assert_eq!(builds((96, builder.extractor.spectral_bins)), 1);
    }

    fn sine(freq_cycles: f64, len: usize) -> Vec<f64> {
        (0..len)
            .map(|t| (2.0 * std::f64::consts::PI * freq_cycles * t as f64 / len as f64).sin())
            .collect()
    }

    #[test]
    fn pure_tone_concentrates_in_its_bin() {
        let signal = sine(5.0, 256);
        let mags = dft_magnitudes(&signal, 20);
        let peak_bin = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak_bin + 1, 5);
        assert_eq!(dominant_frequency_bin(&signal, 20), 5);
    }

    #[test]
    fn constant_signal_has_no_spectral_energy() {
        let signal = vec![3.0; 128];
        let mags = dft_magnitudes(&signal, 10);
        assert!(mags.iter().all(|m| m.abs() < 1e-9));
    }

    #[test]
    fn short_signals_return_zeros() {
        assert_eq!(dft_magnitudes(&[1.0], 4), vec![0.0; 4]);
        assert_eq!(band_energies(&[], 4, 2), vec![0.0; 2]);
        assert_eq!(dft_magnitudes(&[1.0, 2.0], 0), Vec::<f64>::new());
        for key in [(1, 4), (0, 4), (2, 0)] {
            assert_eq!(builds(key), 0, "no table for an empty result");
        }
    }

    #[test]
    fn band_energies_follow_tone_location() {
        let low_tone = sine(2.0, 256);
        let high_tone = sine(18.0, 256);
        let low_bands = band_energies(&low_tone, 20, 4);
        let high_bands = band_energies(&high_tone, 20, 4);
        assert!(low_bands[0] > low_bands[3]);
        assert!(high_bands[3] > high_bands[0]);
    }

    #[test]
    fn band_count_is_respected() {
        let signal = sine(3.0, 64);
        assert_eq!(band_energies(&signal, 16, 4).len(), 4);
        assert_eq!(band_energies(&signal, 16, 0).len(), 0);
    }
}
