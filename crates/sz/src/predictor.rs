//! Lorenzo prediction over 1-, 2-, and 3-dimensional grids.
//!
//! SZ predicts each point from already-reconstructed neighbours (§2.1.1).
//! The Lorenzo predictor is the inclusion–exclusion sum over the corner of
//! previously visited neighbours; it is exact for locally (multi-)linear
//! fields, which is what makes smooth HPC data so compressible.
//!
//! Prediction always reads *reconstructed* values — the decompressor only
//! has those, and using them on both sides is what keeps the error bounded.

use std::ops::Range;

/// Grid dimensionality and shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridShape {
    /// Dimension extents, slowest-varying first. 1 ≤ len ≤ 3.
    pub dims: Vec<usize>,
}

impl GridShape {
    /// Validate and build a shape.
    pub fn new(dims: &[usize]) -> Option<GridShape> {
        if dims.is_empty() || dims.len() > 3 || dims.contains(&0) {
            return None;
        }
        Some(GridShape { dims: dims.to_vec() })
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the grid holds no elements (unreachable for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major strides, matching the dims order.
    pub fn strides(&self) -> [usize; 3] {
        match *self.dims.as_slice() {
            [_, rows, cols] => [rows * cols, cols, 1],
            [_, cols] => [0, cols, 1],
            _ => [0, 0, 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_validation() {
        assert!(GridShape::new(&[]).is_none());
        assert!(GridShape::new(&[4, 0]).is_none());
        assert!(GridShape::new(&[2, 3, 4, 5]).is_none());
        assert_eq!(GridShape::new(&[2, 3, 4]).unwrap().len(), 24);
        assert!(!GridShape::new(&[1]).unwrap().is_empty());
    }

    #[test]
    fn lorenzo_1d_is_previous_value() {
        let p = Predictor::new(PredictorKind::Lorenzo, GridShape::new(&[5]).unwrap());
        let recon = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(p.predict(&recon, 0), 0.0);
        assert_eq!(p.predict(&recon, 3), 4.0);
    }

    #[test]
    fn lorenzo_2d_exact_on_bilinear_field() {
        // f(i,j) = 3i + 5j + 2 is exactly predicted everywhere after the
        // first row/column seeds are known.
        let shape = GridShape::new(&[8, 9]).unwrap();
        let p = Predictor::new(PredictorKind::Lorenzo, shape.clone());
        let mut recon = vec![0.0f64; shape.len()];
        for i in 0..8 {
            for j in 0..9 {
                recon[i * 9 + j] = 3.0 * i as f64 + 5.0 * j as f64 + 2.0;
            }
        }
        for i in 1..8 {
            for j in 1..9 {
                let idx = i * 9 + j;
                assert!((p.predict(&recon, idx) - recon[idx]).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn lorenzo_3d_exact_on_trilinear_field() {
        let shape = GridShape::new(&[4, 5, 6]).unwrap();
        let p = Predictor::new(PredictorKind::Lorenzo, shape.clone());
        let mut recon = vec![0.0f64; shape.len()];
        for i in 0..4 {
            for j in 0..5 {
                for k in 0..6 {
                    recon[i * 30 + j * 6 + k] =
                        1.5 * i as f64 - 2.0 * j as f64 + 0.5 * k as f64 + 7.0;
                }
            }
        }
        for i in 1..4 {
            for j in 1..5 {
                for k in 1..6 {
                    let idx = i * 30 + j * 6 + k;
                    assert!((p.predict(&recon, idx) - recon[idx]).abs() < 1e-12, "({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    fn boundary_predictions_use_partial_stencils() {
        let shape = GridShape::new(&[3, 3]).unwrap();
        let p = Predictor::new(PredictorKind::Lorenzo, shape);
        let recon = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        assert_eq!(p.predict(&recon, 0), 0.0); // origin: nothing known
        assert_eq!(p.predict(&recon, 1), 1.0); // first row: left neighbour
        assert_eq!(p.predict(&recon, 3), 1.0); // first column: up neighbour
        assert_eq!(p.predict(&recon, 4), 4.0 + 2.0 - 1.0); // interior
    }
}

/// Predictor family: SZ 2.x chooses between the classic (first-order)
/// Lorenzo stencil and a second-order variant per dataset; this codec
/// samples both on the input and keeps the winner (recorded in the stream
/// header so the decoder agrees).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// First-order Lorenzo (inclusion–exclusion over the unit corner).
    Lorenzo,
    /// Second-order Lorenzo (quadratic extrapolation; exact for locally
    /// quadratic fields, better on very smooth data).
    Lorenzo2,
}

impl PredictorKind {
    /// Stable header tag.
    pub fn tag(&self) -> u8 {
        match self {
            PredictorKind::Lorenzo => 0,
            PredictorKind::Lorenzo2 => 1,
        }
    }

    /// Parse a header tag.
    pub fn from_tag(tag: u8) -> Option<PredictorKind> {
        match tag {
            0 => Some(PredictorKind::Lorenzo),
            1 => Some(PredictorKind::Lorenzo2),
            _ => None,
        }
    }
}

/// A predictor kind bound to a shape.
#[derive(Debug)]
pub struct Predictor {
    kind: PredictorKind,
    shape: GridShape,
    strides: [usize; 3],
}

impl Predictor {
    /// Bind a kind to a shape.
    pub fn new(kind: PredictorKind, shape: GridShape) -> Predictor {
        let strides = shape.strides();
        Predictor { kind, shape, strides }
    }

    /// Predict element `idx` from `recon[..idx]`, which must hold the
    /// reconstructed values of all indices before `idx` in row-major order.
    #[inline]
    pub fn predict(&self, recon: &[f64], idx: usize) -> f64 {
        // The stencil reads only `back <= idx`; anything else reads zero.
        self.stencil(idx, |back| {
            idx.checked_sub(back).and_then(|i| recon.get(i)).copied().unwrap_or(0.0)
        })
    }

    /// Length of a grid row (the fastest axis). Shapes are validated
    /// non-empty on construction; an impossible empty shape degrades to row
    /// length 1 rather than panicking.
    fn row_len(&self) -> usize {
        self.shape.dims.last().copied().unwrap_or(1)
    }

    /// The general stencil at `idx`, reading the value `back` elements
    /// behind it through `at`.
    ///
    /// `Lorenzo2` predicts along the fastest axis: quadratic extrapolation
    /// `3a − 3b + c` from the three previous samples in the same row, falling
    /// back to first-order Lorenzo near boundaries. (Real SZ's second-order
    /// stencil is multi-dimensional; the dominant term — and the compression
    /// benefit on smooth rows — comes from the fast axis, which is what this
    /// captures.) First-order terms enter in one fixed order — plane, row,
    /// left, the three edges, the corner — which the row kernels of
    /// [`Predictor::walk_segment`] repeat operation for operation.
    #[inline]
    fn stencil(&self, idx: usize, at: impl Fn(usize) -> f64) -> f64 {
        if self.kind == PredictorKind::Lorenzo2 && idx % self.row_len() >= 3 {
            return 3.0 * at(1) - 3.0 * at(2) + at(3);
        }
        let [si, sj, _] = self.strides;
        let (i, j, k) = match self.shape.dims.len() {
            1 => return if idx >= 1 { at(1) } else { 0.0 },
            2 => (false, idx >= sj, idx % sj >= 1),
            _ => (idx >= si, idx % si >= sj, idx % sj >= 1),
        };
        // (present, added or subtracted, how far back)
        let terms = [
            (i, true, si),
            (j, true, sj),
            (k, true, 1),
            (i && j, false, si + sj),
            (i && k, false, si + 1),
            (j && k, false, sj + 1),
            (i && j && k, true, si + sj + 1),
        ];
        let present = terms.iter().filter(|term| term.0);
        present.fold(0.0, |p, &(_, add, back)| if add { p + at(back) } else { p - at(back) })
    }

    /// The grid in row-major order, cut into ranges of at most [`SEGMENT`]
    /// elements inside one row: the unit [`Predictor::walk_segment`] takes.
    pub(crate) fn segments(&self) -> impl Iterator<Item = Range<usize>> {
        let (n, cols) = (self.shape.len(), self.row_len());
        (0..n).step_by(cols).flat_map(move |row| {
            (row..row + cols).step_by(SEGMENT).map(move |s| s..(s + SEGMENT).min(row + cols))
        })
    }

    /// Predict and reconstruct one segment in order: `step(idx, prediction)`
    /// returns element `idx`'s reconstruction, which is stored in `recon`
    /// and feeds the predictions after it.
    ///
    /// Leading elements without a full stencil — a whole first-plane or
    /// first-row segment, else the first element, the first three for
    /// `Lorenzo2` — take the general stencil. The rest run a kernel per
    /// (kind, dimensionality) over the neighbouring rows as slices, with the
    /// general stencil's operations in its order: they agree bit for bit.
    #[inline]
    pub(crate) fn walk_segment(
        &self,
        recon: &mut [f64],
        seg: Range<usize>,
        mut step: impl FnMut(usize, f64) -> f64,
    ) {
        let ([si, sj, _], ndim) = (self.strides, self.shape.dims.len());
        let border_row = match ndim {
            1 => false,
            2 => seg.start < sj,
            _ => seg.start < si || seg.start % si < sj,
        };
        let lead = match self.kind {
            PredictorKind::Lorenzo2 => 3,
            PredictorKind::Lorenzo if border_row => seg.len(),
            PredictorKind::Lorenzo => 1,
        };
        let first = seg.end.min(seg.start + lead);
        for idx in seg.start..first {
            let pred = self.predict(recon, idx);
            if let Some(slot) = recon.get_mut(idx) {
                *slot = step(idx, pred);
            }
        }
        let Some((done, rest)) = recon.split_at_mut_checked(first) else { return };
        let len = seg.end - first;
        let (Some(cur), Some(&(mut left))) = (rest.get_mut(..len), done.last()) else { return };
        // For each element of `cur`, the pair (before, at) of its neighbours
        // in the row `stride` elements back.
        let behind = |stride: usize| {
            let row = first.checked_sub(stride + 1).and_then(|s| done.get(s..s + len + 1));
            let row = row.unwrap_or_default();
            row.iter().copied().zip(row.get(1..).unwrap_or_default().iter().copied())
        };
        let todo = (first..seg.end).zip(cur.iter_mut());
        match (self.kind, ndim) {
            (PredictorKind::Lorenzo2, _) => {
                let [.., mut c, mut b, _] = *done else { return };
                for (idx, out) in todo {
                    *out = step(idx, 3.0 * left - 3.0 * b + c);
                    (c, b, left) = (b, left, *out);
                }
            }
            (PredictorKind::Lorenzo, 1) => {
                for (idx, out) in todo {
                    *out = step(idx, left);
                    left = *out;
                }
            }
            (PredictorKind::Lorenzo, 2) => {
                for ((idx, out), (up_left, up)) in todo.zip(behind(sj)) {
                    *out = step(idx, 0.0 + up + left - up_left);
                    left = *out;
                }
            }
            (PredictorKind::Lorenzo, _) => {
                let rows = behind(si).zip(behind(sj)).zip(behind(si + sj));
                for ((idx, out), (((e, a), (f, b)), (g, d))) in todo.zip(rows) {
                    *out = step(idx, 0.0 + a + b + left - d - e - f + g);
                    left = *out;
                }
            }
        }
    }
}

/// Most elements [`Predictor::walk_segment`] takes at once: bounds what the
/// encoder stages per segment (`ln|x|`) to 32 KiB, a 1-D field being one row.
const SEGMENT: usize = 4096;

/// Choose the predictor with the smaller summed absolute residual over a
/// uniform sample of the data (the encoder-side "training" step SZ 2.x
/// performs before committing to a predictor).
pub fn select_predictor(data: &[f32], shape: &GridShape) -> PredictorKind {
    let n = data.len();
    if n < 16 {
        return PredictorKind::Lorenzo;
    }
    // Evaluate both stencils against the *original* data (a cheap proxy for
    // the reconstructed-neighbour residuals that decide code entropy).
    let l1 = Predictor::new(PredictorKind::Lorenzo, shape.clone());
    let l2 = Predictor::new(PredictorKind::Lorenzo2, shape.clone());
    let step = (n / 4096).max(1);
    let (mut r1, mut r2) = (0.0f64, 0.0f64);
    for (idx, &x) in data.iter().enumerate().skip(8).step_by(step) {
        let x = x as f64;
        if !x.is_finite() {
            continue;
        }
        let at = |back: usize| {
            idx.checked_sub(back).and_then(|i| data.get(i)).map_or(0.0, |&v| v as f64)
        };
        r1 += (x - l1.stencil(idx, at)).abs();
        r2 += (x - l2.stencil(idx, at)).abs();
    }
    if r2 < r1 {
        PredictorKind::Lorenzo2
    } else {
        PredictorKind::Lorenzo
    }
}

#[cfg(test)]
mod predictor_selection_tests {
    use super::*;

    #[test]
    fn kind_tags_round_trip() {
        for k in [PredictorKind::Lorenzo, PredictorKind::Lorenzo2] {
            assert_eq!(PredictorKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(PredictorKind::from_tag(9), None);
    }

    #[test]
    fn lorenzo2_is_exact_on_quadratic_rows() {
        let shape = GridShape::new(&[64]).unwrap();
        let p = Predictor::new(PredictorKind::Lorenzo2, shape);
        let recon: Vec<f64> =
            (0..64).map(|i| 0.5 * (i * i) as f64 + 3.0 * i as f64 + 7.0).collect();
        for idx in 3..64 {
            assert!((p.predict(&recon, idx) - recon[idx]).abs() < 1e-9, "idx {idx}");
        }
    }

    #[test]
    fn lorenzo1_is_not_exact_on_quadratics() {
        let shape = GridShape::new(&[64]).unwrap();
        let p = Predictor::new(PredictorKind::Lorenzo, shape);
        let recon: Vec<f64> = (0..64).map(|i| (i * i) as f64).collect();
        assert!((p.predict(&recon, 10) - recon[10]).abs() > 1.0);
    }

    #[test]
    fn boundary_falls_back_to_lorenzo() {
        let shape = GridShape::new(&[4, 8]).unwrap();
        let p2 = Predictor::new(PredictorKind::Lorenzo2, shape.clone());
        let p1 = Predictor::new(PredictorKind::Lorenzo, shape);
        let recon: Vec<f64> = (0..32).map(|i| i as f64).collect();
        // First three columns of every row use the first-order stencil.
        for row in 0..4 {
            for col in 0..3 {
                let idx = row * 8 + col;
                assert_eq!(p2.predict(&recon, idx), p1.predict(&recon, idx), "({row},{col})");
            }
        }
    }

    #[test]
    fn selection_prefers_lorenzo2_on_smooth_polynomials() {
        let data: Vec<f32> = (0..4096)
            .map(|i| {
                let x = i as f32 / 64.0;
                x * x * 0.1 + x
            })
            .collect();
        let shape = GridShape::new(&[4096]).unwrap();
        assert_eq!(select_predictor(&data, &shape), PredictorKind::Lorenzo2);
    }

    #[test]
    fn selection_prefers_lorenzo_on_noise() {
        let data: Vec<f32> = (0..4096u64)
            .map(|i| ((i.wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f32) / 100.0)
            .collect();
        let shape = GridShape::new(&[4096]).unwrap();
        assert_eq!(select_predictor(&data, &shape), PredictorKind::Lorenzo);
    }

    #[test]
    fn tiny_inputs_default_to_lorenzo() {
        let shape = GridShape::new(&[4]).unwrap();
        assert_eq!(select_predictor(&[1.0, 2.0, 3.0, 4.0], &shape), PredictorKind::Lorenzo);
    }
}

/// The per-index predictors as they were before the row walker: coordinates
/// recovered by `/` and `%` at every element, every neighbour indexed from
/// the whole array. Kept as the oracle the stencils and the row kernels must
/// match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::{GridShape, PredictorKind};

    fn lorenzo(shape: &GridShape, recon: &[f64], idx: usize) -> f64 {
        let strides = shape.strides();
        match shape.dims.len() {
            1 => {
                if idx >= 1 {
                    recon[idx - 1]
                } else {
                    0.0
                }
            }
            2 => {
                let cols = shape.dims[1];
                let (i, j) = (idx / cols, idx % cols);
                let mut p = 0.0;
                if i >= 1 {
                    p += recon[idx - strides[1]];
                }
                if j >= 1 {
                    p += recon[idx - 1];
                }
                if i >= 1 && j >= 1 {
                    p -= recon[idx - strides[1] - 1];
                }
                p
            }
            _ => {
                let sj = strides[1];
                let si = strides[0];
                let k = idx % sj;
                let j = (idx / sj) % shape.dims[1];
                let i = idx / si;
                let mut p = 0.0;
                if i >= 1 {
                    p += recon[idx - si];
                }
                if j >= 1 {
                    p += recon[idx - sj];
                }
                if k >= 1 {
                    p += recon[idx - 1];
                }
                if i >= 1 && j >= 1 {
                    p -= recon[idx - si - sj];
                }
                if i >= 1 && k >= 1 {
                    p -= recon[idx - si - 1];
                }
                if j >= 1 && k >= 1 {
                    p -= recon[idx - sj - 1];
                }
                if i >= 1 && j >= 1 && k >= 1 {
                    p += recon[idx - si - sj - 1];
                }
                p
            }
        }
    }

    pub(crate) fn predict(
        kind: PredictorKind,
        shape: &GridShape,
        recon: &[f64],
        idx: usize,
    ) -> f64 {
        let fastest = shape.dims.last().copied().unwrap_or(1);
        if kind == PredictorKind::Lorenzo2 && idx % fastest >= 3 {
            3.0 * recon[idx - 1] - 3.0 * recon[idx - 2] + recon[idx - 3]
        } else {
            lorenzo(shape, recon, idx)
        }
    }
}

#[cfg(test)]
pub(crate) mod walker_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Shapes of every dimensionality that mix extents of 1, rows shorter
    /// than the `Lorenzo2` lead of 3, and rows longer than one segment.
    pub(crate) fn random_dims(rng: &mut StdRng) -> Vec<usize> {
        let extent = |rng: &mut StdRng| match rng.random_range(0..4u32) {
            0 => 1,
            1 => rng.random_range(1..4usize),
            _ => rng.random_range(1..20usize),
        };
        match rng.random_range(0..6u32) {
            0 => vec![rng.random_range(1..40usize)],
            1 => vec![SEGMENT + rng.random_range(0..9usize)],
            2 => vec![extent(rng), SEGMENT + rng.random_range(0..5usize)],
            3 => vec![extent(rng), extent(rng)],
            _ => vec![extent(rng), extent(rng), extent(rng)],
        }
    }

    /// A reconstruction that is a wild function of the prediction: keeps the
    /// sign of zero alive, overflows now and then, and never settles.
    fn wild_step(idx: usize, pred: f64) -> f64 {
        match idx % 7 {
            0 => -0.0,
            1 => pred * -1.5 + idx as f64,
            2 => (idx as f64 * 0.37).sin() * 1e3,
            3 => pred + 0.1,
            4 if idx % 91 == 4 => 1e308,
            _ => pred * 0.999 - (idx % 13) as f64,
        }
    }

    fn walker_matches_reference(rng: &mut StdRng) {
        let dims = random_dims(rng);
        let shape = GridShape::new(&dims).unwrap();
        for kind in [PredictorKind::Lorenzo, PredictorKind::Lorenzo2] {
            let predictor = Predictor::new(kind, shape.clone());
            let (mut walked, mut indexed) = (vec![0.0f64; shape.len()], vec![0.0f64; shape.len()]);
            let mut visited = 0;
            for seg in predictor.segments() {
                assert_eq!(seg.start, visited, "{dims:?}: segments must tile the grid in order");
                assert!(!seg.is_empty() && seg.len() <= SEGMENT);
                visited = seg.end;
                predictor.walk_segment(&mut walked, seg, wild_step);
            }
            assert_eq!(visited, shape.len());
            for idx in 0..shape.len() {
                let pred = reference::predict(kind, &shape, &indexed, idx);
                let general = predictor.predict(&indexed, idx);
                assert_eq!(general.to_bits(), pred.to_bits(), "{dims:?} {kind:?} stencil at {idx}");
                indexed[idx] = wild_step(idx, pred);
            }
            let same = walked.iter().zip(&indexed).position(|(a, b)| a.to_bits() != b.to_bits());
            assert_eq!(same, None, "{dims:?} {kind:?}: first differing element");
        }
    }

    #[test]
    fn row_walker_matches_the_per_index_reference() {
        let mut rng = StdRng::seed_from_u64(0xA11);
        for _ in 0..200 {
            walker_matches_reference(&mut rng);
        }
    }

    // Run by `scripts/check.sh --full`.
    #[test]
    #[ignore = "deep variant"]
    fn row_walker_matches_the_per_index_reference_deep() {
        let mut rng = StdRng::seed_from_u64(0xDEE9);
        for _ in 0..20_000 {
            walker_matches_reference(&mut rng);
        }
    }
}
