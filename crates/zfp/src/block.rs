//! Block decomposition: gathering 4^d blocks from a row-major grid and
//! scattering decoded blocks back.
//!
//! ZFP partitions the grid into 4×4(×4) blocks; boundary blocks are padded
//! by replicating the last in-range sample along each axis (the same policy
//! as the reference implementation), so every block is complete and blocks
//! remain mutually independent — the property that makes ZFP-Rate the most
//! error-resilient mode in the paper's study (§4.3).
//!
//! One walk serves every dimensionality. A grid is three axes, slowest
//! first; a 1-D or 2-D grid is padded in front with axes of extent 1 whose
//! blocks are 1 sample wide. The fastest axis always has blocks 4 wide, so
//! a block is `4^(d−1)` rows of 4 samples, and gather and scatter copy it a
//! row at a time.

use crate::transform::BLOCK_EDGE;

/// Shape of a 1–3 dimensional row-major grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// The three axes, slowest first.
    axes: [Axis; 3],
}

/// One axis of a [`Grid`]: an axis of the grid, or a padding axis of
/// extent 1 whose blocks are 1 sample wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Axis {
    /// Extent in samples.
    len: usize,
    /// Block edge: 4, or 1 on a padding axis.
    edge: usize,
    /// Blocks along the axis.
    blocks: usize,
}

impl Grid {
    /// Validate and construct.
    pub fn new(dims: &[usize]) -> Option<Grid> {
        if dims.is_empty() || dims.len() > 3 || dims.contains(&0) {
            return None;
        }
        let mut axes = [Axis { len: 1, edge: 1, blocks: 1 }; 3];
        for (axis, &len) in axes.iter_mut().rev().zip(dims.iter().rev()) {
            *axis = Axis { len, edge: BLOCK_EDGE, blocks: len.div_ceil(BLOCK_EDGE) };
        }
        Some(Grid { axes })
    }

    /// Dimensionality: the axes that are not padding.
    pub fn d(&self) -> usize {
        self.axes.iter().filter(|a| a.edge == BLOCK_EDGE).count()
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.len).product()
    }

    /// True when empty (impossible for validated grids).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values per block (4^d).
    pub fn block_len(&self) -> usize {
        self.axes.iter().map(|a| a.edge).product()
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.axes.iter().map(|a| a.blocks).product()
    }

    /// Walk block `b` a row of 4 samples at a time, in block order:
    /// `visit(start, inside)` gets the offset in `data` of the row's first
    /// sample, with its slower coordinates clamped into the grid, and
    /// whether they needed no clamp. Blocks are numbered with the fastest
    /// axis varying fastest.
    #[inline(always)]
    fn walk(&self, b: usize, mut visit: impl FnMut(usize, bool)) {
        let [z, y, x] = self.axes;
        let x0 = b % x.blocks * BLOCK_EDGE;
        let (y0, z0) = (b / x.blocks % y.blocks * y.edge, b / x.blocks / y.blocks * z.edge);
        for k in z0..z0 + z.edge {
            let plane = k.min(z.len - 1) * y.len;
            for j in y0..y0 + y.edge {
                visit((plane + j.min(y.len - 1)) * x.len + x0, k < z.len && j < y.len);
            }
        }
    }

    /// Samples of each row of block `b` inside the grid: 4, or fewer in
    /// the last block along the fastest axis.
    #[inline(always)]
    fn width(&self, b: usize) -> usize {
        let [.., x] = self.axes;
        (x.len - b % x.blocks * BLOCK_EDGE).min(BLOCK_EDGE)
    }

    /// Gather block `b` from `data` into `block` (length 4^d), replicating
    /// edge samples for out-of-range positions.
    pub fn gather(&self, data: &[f32], b: usize, block: &mut [f32]) {
        debug_assert_eq!(data.len(), self.len());
        debug_assert_eq!(block.len(), self.block_len());
        let mut rows = block.as_chunks_mut::<BLOCK_EDGE>().0.iter_mut();
        let width = self.width(b);
        // Two walks, so that the common full-width one copies each row
        // without a per-row test of the width.
        if width == BLOCK_EDGE {
            self.walk(b, |start, _| {
                let src = data.get(start..).and_then(<[f32]>::first_chunk);
                if let (Some(row), Some(src)) = (rows.next(), src) {
                    *row = *src;
                }
            });
        } else {
            self.walk(b, |start, _| {
                let src = data.get(start..start + width).unwrap_or_default();
                let (Some(row), Some(&last)) = (rows.next(), src.last()) else { return };
                for (k, v) in row.iter_mut().enumerate() {
                    *v = src.get(k).copied().unwrap_or(last);
                }
            });
        }
    }

    /// Scatter decoded block `b` back into `data`, skipping padded samples.
    pub fn scatter(&self, data: &mut [f32], b: usize, block: &[f32]) {
        debug_assert_eq!(data.len(), self.len());
        let mut rows = block.as_chunks::<BLOCK_EDGE>().0.iter();
        let width = self.width(b);
        self.walk(b, |start, inside| {
            let Some(row) = rows.next() else { return };
            let Some(dst) = data.get_mut(start..start + width).filter(|_| inside) else { return };
            if let Some(full) = dst.first_chunk_mut() {
                *full = *row;
            } else {
                for (v, &x) in dst.iter_mut().zip(row) {
                    *v = x;
                }
            }
        });
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::codec::{exponent_of, to_fixed_point, MAX_BLOCK_LEN};
    use crate::transform::{self, fwd_transform, inv_transform};

    /// The per-dimensionality gather and scatter the one walk replaced,
    /// kept as the oracle it is differential-tested against.
    mod reference {
        use super::BLOCK_EDGE;

        fn block_origin(dims: &[usize], b: usize) -> [usize; 3] {
            let mut rem = b;
            let mut origin = [0usize; 3];
            for ax in (0..dims.len()).rev() {
                let count = dims[ax].div_ceil(BLOCK_EDGE);
                origin[ax] = (rem % count) * BLOCK_EDGE;
                rem /= count;
            }
            origin
        }

        pub(super) fn gather(dims: &[usize], data: &[f32], b: usize, block: &mut [f32]) {
            let origin = block_origin(dims, b);
            let clamp = |ax: usize, off: usize| -> usize { (origin[ax] + off).min(dims[ax] - 1) };
            match dims.len() {
                1 => {
                    for i in 0..BLOCK_EDGE {
                        block[i] = data[clamp(0, i)];
                    }
                }
                2 => {
                    let cols = dims[1];
                    for i in 0..BLOCK_EDGE {
                        let r = clamp(0, i);
                        for j in 0..BLOCK_EDGE {
                            block[i * 4 + j] = data[r * cols + clamp(1, j)];
                        }
                    }
                }
                _ => {
                    let (sj, si) = (dims[2], dims[1] * dims[2]);
                    for i in 0..BLOCK_EDGE {
                        let z = clamp(0, i);
                        for j in 0..BLOCK_EDGE {
                            let y = clamp(1, j);
                            for k in 0..BLOCK_EDGE {
                                block[i * 16 + j * 4 + k] = data[z * si + y * sj + clamp(2, k)];
                            }
                        }
                    }
                }
            }
        }

        pub(super) fn scatter(dims: &[usize], data: &mut [f32], b: usize, block: &[f32]) {
            let origin = block_origin(dims, b);
            match dims.len() {
                1 => {
                    for (i, &v) in block.iter().enumerate().take(BLOCK_EDGE) {
                        let x = origin[0] + i;
                        if x < dims[0] {
                            data[x] = v;
                        }
                    }
                }
                2 => {
                    let cols = dims[1];
                    for i in 0..BLOCK_EDGE {
                        let r = origin[0] + i;
                        if r >= dims[0] {
                            break;
                        }
                        for j in 0..BLOCK_EDGE {
                            let c = origin[1] + j;
                            if c < dims[1] {
                                data[r * cols + c] = block[i * 4 + j];
                            }
                        }
                    }
                }
                _ => {
                    let (sj, si) = (dims[2], dims[1] * dims[2]);
                    for i in 0..BLOCK_EDGE {
                        let z = origin[0] + i;
                        if z >= dims[0] {
                            break;
                        }
                        for j in 0..BLOCK_EDGE {
                            let y = origin[1] + j;
                            if y >= dims[1] {
                                break;
                            }
                            for k in 0..BLOCK_EDGE {
                                let x = origin[2] + k;
                                if x < dims[2] {
                                    data[z * si + y * sj + x] = block[i * 16 + j * 4 + k];
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Finite pseudo-random samples of mixed magnitude.
    fn field(n: usize, seed: u64) -> Vec<f32> {
        (0..n as u64)
            .map(|i| {
                let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ seed).rotate_left(29);
                let unit = (h >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                unit * f32::powi(2.0, (h % 41) as i32 - 20)
            })
            .collect()
    }

    /// Gather, transform both ways and scatter every block of a `dims`
    /// field through the walk and through the reference: blocks,
    /// coefficients and fields must agree bit for bit.
    fn walk_matches_reference(dims: &[usize], seed: u64) {
        let g = Grid::new(dims).unwrap();
        let (d, n, bl) = (g.d(), g.len(), g.block_len());
        assert_eq!(bl, BLOCK_EDGE.pow(d as u32));
        let data = field(n, seed);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut got, mut want) = (vec![0.0f32; bl], vec![0.0f32; bl]);
        let (mut field_got, mut field_want) = (vec![f32::NAN; n], vec![f32::NAN; n]);
        for b in 0..g.num_blocks() {
            g.gather(&data, b, &mut got);
            reference::gather(dims, &data, b, &mut want);
            assert_eq!(bits(&got), bits(&want), "dims {dims:?} block {b}");

            let max_abs = got.iter().fold(0.0f64, |m, &x| m.max(f64::from(x).abs()));
            let mut q = [0i64; MAX_BLOCK_LEN];
            if max_abs > 0.0 {
                to_fixed_point(&got, exponent_of(max_abs), &mut q[..bl]);
            }
            let (mut fwd, mut fwd_ref) = (q, q);
            fwd_transform(&mut fwd[..bl]);
            transform::reference::fwd_transform(&mut fwd_ref[..bl], d);
            assert_eq!(fwd, fwd_ref, "dims {dims:?} block {b}: forward coefficients");
            let (mut inv, mut inv_ref) = (fwd, fwd);
            inv_transform(&mut inv[..bl]);
            transform::reference::inv_transform(&mut inv_ref[..bl], d);
            assert_eq!(inv, inv_ref, "dims {dims:?} block {b}: inverse coefficients");

            // Distinct markers, so a sample written to the wrong place or a
            // padded one written at all shows.
            let marked: Vec<f32> = (0..bl).map(|i| (b * bl + i) as f32).collect();
            g.scatter(&mut field_got, b, &marked);
            reference::scatter(dims, &mut field_want, b, &marked);
        }
        assert_eq!(bits(&field_got), bits(&field_want), "dims {dims:?}: scattered fields");
    }

    fn round_trips(dims: &[usize]) {
        let g = Grid::new(dims).unwrap();
        let n = g.len();
        let data: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let mut out = vec![f32::NAN; n];
        let mut block = vec![0.0f32; g.block_len()];
        for b in 0..g.num_blocks() {
            g.gather(&data, b, &mut block);
            g.scatter(&mut out, b, &block);
        }
        assert_eq!(out, data, "dims {dims:?}");
    }

    #[test]
    fn grid_validation() {
        assert!(Grid::new(&[]).is_none());
        assert!(Grid::new(&[0, 4]).is_none());
        assert!(Grid::new(&[2, 2, 2, 2]).is_none());
        let g = Grid::new(&[5, 9]).unwrap();
        assert_eq!(g.d(), 2);
        assert_eq!(g.len(), 45);
        assert_eq!(g.num_blocks(), 6);
        assert_eq!(g.block_len(), 16);
        let g = Grid::new(&[5, 9, 1]).unwrap();
        assert_eq!((g.num_blocks(), g.block_len()), (6, 64));
    }

    #[test]
    fn gather_scatter_round_trip_exact_fit() {
        for dims in [vec![8usize, 8], vec![16], vec![4, 8, 12], vec![32, 32], vec![8, 4, 4]] {
            round_trips(&dims);
        }
    }

    #[test]
    fn gather_scatter_round_trip_ragged() {
        for dims in [
            vec![5usize],
            vec![5, 7],
            vec![3, 5, 6],
            vec![1, 1, 1],
            vec![4, 4, 5],
            vec![257],
            vec![12, 10, 9],
            vec![1, 7],
            vec![6, 1, 9],
            vec![9, 13, 2],
        ] {
            round_trips(&dims);
        }
    }

    #[test]
    fn padding_replicates_edges() {
        let g = Grid::new(&[5]).unwrap(); // blocks: [0..4), [4..8) padded
        let data = [10.0f32, 20.0, 30.0, 40.0, 50.0];
        let mut block = vec![0.0f32; 4];
        g.gather(&data, 1, &mut block);
        assert_eq!(block, vec![50.0, 50.0, 50.0, 50.0]);
    }

    #[test]
    fn blocks_cover_disjoint_regions() {
        let g = Grid::new(&[4, 8]).unwrap();
        let data = vec![1.0f32; 32];
        let mut counts = vec![0u32; 32];
        let mut block = vec![0.0f32; 16];
        for b in 0..g.num_blocks() {
            g.gather(&data, b, &mut block);
            // Scatter a marker and count writes.
            let mut probe = vec![0.0f32; 32];
            g.scatter(&mut probe, b, &[1.0f32; 16]);
            for (i, &v) in probe.iter().enumerate() {
                if v == 1.0 {
                    counts[i] += 1;
                }
            }
        }
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
    }

    use proptest::prelude::*;

    /// 1-, 2- or 3-D dims, each axis an exact multiple of 4 or, for the
    /// whole grid, ragged on every axis.
    fn arb_dims() -> impl Strategy<Value = Vec<usize>> {
        (1usize..=3, any::<bool>()).prop_flat_map(|(d, ragged)| {
            proptest::collection::vec((1usize..=5, 1usize..=3), d..=d).prop_map(move |axes| {
                axes.into_iter()
                    .map(|(k, r)| if ragged { 4 * (k - 1) + r } else { 4 * k })
                    .collect::<Vec<usize>>()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn walk_differential(dims in arb_dims(), seed: u64) {
            walk_matches_reference(&dims, seed);
        }
    }

    // Run by `scripts/check.sh --full`.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        #[ignore = "deep variant"]
        fn walk_differential_deep(dims in arb_dims(), seed: u64) {
            walk_matches_reference(&dims, seed);
        }
    }
}
