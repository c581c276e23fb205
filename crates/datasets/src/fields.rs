//! Synthetic stand-ins for the paper's three SDRBench datasets (§4.1.2).
//!
//! | paper dataset | field | dims (paper) | character |
//! |---------------|-------|--------------|-----------|
//! | CESM          | CLDLOW cloud fraction | 1800×3600 (25.8 MB) | 2-D, values in \[0,1\], mean ≈ 0.33, patchy multi-scale cloud structure |
//! | Hurricane Isabel | pressure | 100×500×500 (100 MB) | 3-D, smooth large-scale gradient plus a deep vortex low |
//! | NYX           | temperature | 512³ (536 MB) | 3-D, positive, spans orders of magnitude along web-like filaments |
//!
//! Generation is fully deterministic per seed. Default "test" dims keep the
//! same aspect ratios at laptop scale; the paper dims are available for
//! full-scale runs.

use crate::noise::Fbm;

/// A generated scalar field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Values, row-major (slowest dim first).
    pub data: Vec<f32>,
    /// Extents, slowest-varying first.
    pub dims: Vec<usize>,
    /// Which dataset this mimics.
    pub name: &'static str,
}

impl Field {
    /// Total elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the field is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes of the raw f32 data.
    pub fn byte_len(&self) -> usize {
        self.data.len() * 4
    }
}

/// The three SDRBench datasets the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SdrDataset {
    /// CESM CLDLOW — 2-D low-cloud fraction.
    CesmCldlow,
    /// Hurricane Isabel — 3-D pressure.
    IsabelPressure,
    /// NYX — 3-D temperature.
    NyxTemperature,
}

impl SdrDataset {
    /// All three datasets in the paper's order.
    pub const ALL: [SdrDataset; 3] =
        [SdrDataset::CesmCldlow, SdrDataset::IsabelPressure, SdrDataset::NyxTemperature];

    /// Dataset name as the paper uses it.
    pub fn name(&self) -> &'static str {
        match self {
            SdrDataset::CesmCldlow => "CESM",
            SdrDataset::IsabelPressure => "Hurricane Isabel",
            SdrDataset::NyxTemperature => "NYX",
        }
    }

    /// Full paper-scale dimensions (25.8 MB / 100 MB / 536 MB of f32).
    pub fn paper_dims(&self) -> Vec<usize> {
        match self {
            SdrDataset::CesmCldlow => vec![1800, 3600],
            SdrDataset::IsabelPressure => vec![100, 500, 500],
            SdrDataset::NyxTemperature => vec![512, 512, 512],
        }
    }

    /// Scaled-down dimensions with the same aspect ratios, for tests and
    /// quick harness runs.
    pub fn test_dims(&self) -> Vec<usize> {
        match self {
            SdrDataset::CesmCldlow => vec![180, 360],
            SdrDataset::IsabelPressure => vec![20, 100, 100],
            SdrDataset::NyxTemperature => vec![64, 64, 64],
        }
    }

    /// Generate at the given dims (must match the dataset's dimensionality).
    pub fn generate(&self, dims: &[usize], seed: u64) -> Field {
        match self {
            SdrDataset::CesmCldlow => {
                assert_eq!(dims.len(), 2, "CESM CLDLOW is 2-D");
                cesm_cldlow(dims[0], dims[1], seed)
            }
            SdrDataset::IsabelPressure => {
                assert_eq!(dims.len(), 3, "Isabel pressure is 3-D");
                isabel_pressure(dims[0], dims[1], dims[2], seed)
            }
            SdrDataset::NyxTemperature => {
                assert_eq!(dims.len(), 3, "NYX temperature is 3-D");
                nyx_temperature(dims[0], dims[1], dims[2], seed)
            }
        }
    }

    /// Generate at test scale with the default seed.
    pub fn generate_test(&self) -> Field {
        self.generate(&self.test_dims(), 0x5EED)
    }
}

/// CESM CLDLOW: cloud fraction in `[0, 1]`, patchy, mean ≈ 0.33 (the paper
/// quotes an average of 0.3298 for the real field, §4.4).
pub fn cesm_cldlow(rows: usize, cols: usize, seed: u64) -> Field {
    let fbm = Fbm::new(seed, 6, 5, 0.55, 2);
    let mut data = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        // Zonal banding: clouds favour mid-latitudes.
        let lat = (r as f32 / rows.max(1) as f32) * std::f32::consts::PI;
        let band = 0.25 + 0.35 * (2.0 * lat).sin().abs();
        for c in 0..cols {
            let u = c as f32 / cols as f32;
            let v = r as f32 / rows as f32;
            let n = fbm.sample(u, v, 0.0); // roughly [-1, 1]
                                           // Sharpen into patchy cover and clamp to a physical fraction.
            let val = (band + 0.75 * n).clamp(0.0, 1.0);
            data.push(val);
        }
    }
    Field { data, dims: vec![rows, cols], name: "CESM" }
}

/// Hurricane Isabel pressure: a synoptic-scale gradient, fBm weather, and a
/// deep axisymmetric vortex low whose centre drifts with height.
pub fn isabel_pressure(nz: usize, ny: usize, nx: usize, seed: u64) -> Field {
    let fbm = Fbm::new(seed ^ 0x0015_ABE1, 4, 5, 0.5, 3);
    let mut data = Vec::with_capacity(nz * ny * nx);
    for z in 0..nz {
        let w = z as f32 / nz.max(1) as f32;
        // Vortex centre drifts with altitude.
        let (cy, cx) = (0.45 + 0.1 * w, 0.55 - 0.12 * w);
        for y in 0..ny {
            let v = y as f32 / ny as f32;
            for x in 0..nx {
                let u = x as f32 / nx as f32;
                let base = 500.0 - 3000.0 * w; // hydrostatic-ish decrease
                let grad = 800.0 * (u - 0.5) + 400.0 * (v - 0.5);
                let weather = 350.0 * fbm.sample(u, v, w);
                let r2 = ((u - cx).powi(2) + (v - cy).powi(2)) / 0.015;
                let vortex = -2500.0 * (-r2).exp() * (1.0 - 0.4 * w);
                data.push(base + grad + weather + vortex);
            }
        }
    }
    Field { data, dims: vec![nz, ny, nx], name: "Hurricane Isabel" }
}

/// NYX temperature: positive, log-normal-like, hot along web-like filaments
/// — spans several orders of magnitude, which is what makes the real field
/// a point-wise-relative-bound workload.
pub fn nyx_temperature(nz: usize, ny: usize, nx: usize, seed: u64) -> Field {
    let density = Fbm::new(seed ^ 0x07A0, 3, 5, 0.6, 3);
    let mut data = Vec::with_capacity(nz * ny * nx);
    for z in 0..nz {
        let w = z as f32 / nz.max(1) as f32;
        for y in 0..ny {
            let v = y as f32 / ny as f32;
            for x in 0..nx {
                let u = x as f32 / nx as f32;
                let d = density.sample(u, v, w); // [-1, 1]
                                                 // Filaments: sharpen |d| near 0 → hot sheets.
                let filament = (1.0 - d.abs()).powi(4);
                let log_t = 3.0 + 2.5 * filament + 1.2 * d;
                data.push(10f32.powf(log_t));
            }
        }
    }
    Field { data, dims: vec![nz, ny, nx], name: "NYX" }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cesm_statistics_match_paper_regime() {
        let f = SdrDataset::CesmCldlow.generate(&[90, 180], 42);
        assert_eq!(f.len(), 90 * 180);
        let mean: f64 = f.data.iter().map(|&x| x as f64).sum::<f64>() / f.len() as f64;
        assert!((0.2..0.5).contains(&mean), "mean {mean} vs paper's 0.3298");
        assert!(f.data.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn isabel_has_a_pressure_low() {
        let f = SdrDataset::IsabelPressure.generate(&[10, 50, 50], 42);
        let min = f.data.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = f.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(max - min > 2000.0, "range {} too small for a hurricane", max - min);
        assert!(f.data.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn nyx_spans_orders_of_magnitude() {
        let f = SdrDataset::NyxTemperature.generate(&[24, 24, 24], 42);
        let min = f.data.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = f.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(min > 0.0, "temperature must be positive");
        assert!(max / min > 100.0, "span {}x too narrow", max / min);
    }

    #[test]
    fn generation_is_deterministic() {
        for ds in SdrDataset::ALL {
            let dims = ds.test_dims();
            let a = ds.generate(&dims, 7);
            let b = ds.generate(&dims, 7);
            assert_eq!(a.data, b.data, "{}", ds.name());
            let c = ds.generate(&dims, 8);
            assert_ne!(a.data, c.data, "{}", ds.name());
        }
    }

    #[test]
    fn paper_dims_match_cited_sizes() {
        // 25.82 MB, 100 MB, 536 MB of f32 (§4.1.2).
        let mb = |d: &SdrDataset| d.paper_dims().iter().product::<usize>() * 4;
        assert_eq!(mb(&SdrDataset::CesmCldlow), 25_920_000);
        assert_eq!(mb(&SdrDataset::IsabelPressure), 100_000_000);
        assert_eq!(mb(&SdrDataset::NyxTemperature), 536_870_912);
    }

    #[test]
    fn fields_are_compressible() {
        // The whole point of the stand-ins: smooth enough that SZ achieves a
        // real compression ratio at the paper's ε = 0.1-style bounds.
        let f = SdrDataset::CesmCldlow.generate(&[64, 128], 1);
        let cfg = arc_sz_probe(&f);
        assert!(cfg > 3.0, "CESM stand-in only compresses {cfg}x");
    }

    // Tiny local probe to avoid a dev-dependency cycle: emulate "is this
    // field smooth" by measuring mean |∇| relative to the value range.
    fn arc_sz_probe(f: &Field) -> f64 {
        let cols = f.dims[1];
        let mut tv = 0.0f64;
        for i in 1..f.data.len() {
            if i % cols != 0 {
                tv += (f.data[i] as f64 - f.data[i - 1] as f64).abs();
            }
        }
        let range = {
            let min = f.data.iter().cloned().fold(f32::INFINITY, f32::min) as f64;
            let max = f.data.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
            max - min
        };
        let mean_grad = tv / f.data.len() as f64;
        // Smoothness proxy: range / mean gradient ≈ feature size in cells.
        range / mean_grad.max(1e-12)
    }

    #[test]
    #[should_panic]
    fn wrong_dimensionality_panics() {
        SdrDataset::CesmCldlow.generate(&[4, 4, 4], 0);
    }
}
