//! Block decomposition: gathering 4^d blocks from a row-major grid and
//! scattering decoded blocks back.
//!
//! ZFP partitions the grid into 4×4(×4) blocks; boundary blocks are padded
//! by replicating the last in-range sample along each axis (the same policy
//! as the reference implementation), so every block is complete and blocks
//! remain mutually independent — the property that makes ZFP-Rate the most
//! error-resilient mode in the paper's study (§4.3).

use crate::transform::BLOCK_EDGE;

/// Shape of a 1–3 dimensional row-major grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// Extents, slowest-varying first.
    pub dims: Vec<usize>,
}

impl Grid {
    /// Validate and construct.
    pub fn new(dims: &[usize]) -> Option<Grid> {
        if dims.is_empty() || dims.len() > 3 || dims.contains(&0) {
            return None;
        }
        Some(Grid { dims: dims.to_vec() })
    }

    /// Dimensionality.
    pub fn d(&self) -> usize {
        self.dims.len()
    }

    /// Total elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when empty (impossible for validated grids).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values per block (4^d).
    #[expect(clippy::cast_possible_truncation, reason = "a validated grid has d <= 3")]
    pub fn block_len(&self) -> usize {
        BLOCK_EDGE.pow(self.d() as u32)
    }

    /// Number of blocks along each axis.
    pub fn block_counts(&self) -> Vec<usize> {
        self.counts().into_iter().take(self.d()).collect()
    }

    /// [`Grid::block_counts`] without the allocation: the first `d()` slots,
    /// the rest 1.
    fn counts(&self) -> [usize; 3] {
        let mut counts = [1usize; 3];
        for (count, &dim) in counts.iter_mut().zip(&self.dims) {
            *count = dim.div_ceil(BLOCK_EDGE);
        }
        counts
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.counts().iter().product()
    }

    /// The block origin (per-axis start indices) of block `b`, in the first
    /// `d()` slots.
    fn block_origin(&self, b: usize) -> [usize; 3] {
        let counts = self.counts();
        let mut rem = b;
        let mut origin = [0usize; 3];
        for ax in (0..self.d()).rev() {
            origin[ax] = (rem % counts[ax]) * BLOCK_EDGE;
            rem /= counts[ax];
        }
        origin
    }

    /// Gather block `b` from `data` into `block` (length 4^d), replicating
    /// edge samples for out-of-range positions.
    pub fn gather(&self, data: &[f32], b: usize, block: &mut [f32]) {
        debug_assert_eq!(data.len(), self.len());
        debug_assert_eq!(block.len(), self.block_len());
        let origin = self.block_origin(b);
        let d = self.d();
        let clamp = |ax: usize, off: usize| -> usize { (origin[ax] + off).min(self.dims[ax] - 1) };
        match d {
            1 => {
                for i in 0..BLOCK_EDGE {
                    block[i] = data[clamp(0, i)];
                }
            }
            2 => {
                let cols = self.dims[1];
                for i in 0..BLOCK_EDGE {
                    let r = clamp(0, i);
                    for j in 0..BLOCK_EDGE {
                        block[i * 4 + j] = data[r * cols + clamp(1, j)];
                    }
                }
            }
            _ => {
                let (sj, si) = (self.dims[2], self.dims[1] * self.dims[2]);
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

    /// Scatter decoded block `b` back into `data`, skipping padded samples.
    pub fn scatter(&self, data: &mut [f32], b: usize, block: &[f32]) {
        debug_assert_eq!(data.len(), self.len());
        let origin = self.block_origin(b);
        let d = self.d();
        match d {
            1 => {
                for (i, &v) in block.iter().enumerate().take(BLOCK_EDGE) {
                    let x = origin[0] + i;
                    if x < self.dims[0] {
                        data[x] = v;
                    }
                }
            }
            2 => {
                let cols = self.dims[1];
                for i in 0..BLOCK_EDGE {
                    let r = origin[0] + i;
                    if r >= self.dims[0] {
                        break;
                    }
                    for j in 0..BLOCK_EDGE {
                        let c = origin[1] + j;
                        if c < self.dims[1] {
                            data[r * cols + c] = block[i * 4 + j];
                        }
                    }
                }
            }
            _ => {
                let (sj, si) = (self.dims[2], self.dims[1] * self.dims[2]);
                for i in 0..BLOCK_EDGE {
                    let z = origin[0] + i;
                    if z >= self.dims[0] {
                        break;
                    }
                    for j in 0..BLOCK_EDGE {
                        let y = origin[1] + j;
                        if y >= self.dims[1] {
                            break;
                        }
                        for k in 0..BLOCK_EDGE {
                            let x = origin[2] + k;
                            if x < self.dims[2] {
                                data[z * si + y * sj + x] = block[i * 16 + j * 4 + k];
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_validation() {
        assert!(Grid::new(&[]).is_none());
        assert!(Grid::new(&[0, 4]).is_none());
        assert!(Grid::new(&[2, 2, 2, 2]).is_none());
        let g = Grid::new(&[5, 9]).unwrap();
        assert_eq!(g.block_counts(), vec![2, 3]);
        assert_eq!(g.num_blocks(), 6);
        assert_eq!(g.block_len(), 16);
    }

    #[test]
    fn gather_scatter_round_trip_exact_fit() {
        let g = Grid::new(&[8, 8]).unwrap();
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; 64];
        let mut block = vec![0.0f32; 16];
        for b in 0..g.num_blocks() {
            g.gather(&data, b, &mut block);
            g.scatter(&mut out, b, &block);
        }
        assert_eq!(out, data);
    }

    #[test]
    fn gather_scatter_round_trip_ragged() {
        for dims in [vec![5usize], vec![5, 7], vec![3, 5, 6], vec![1, 1, 1], vec![4, 4, 5]] {
            let g = Grid::new(&dims).unwrap();
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
}
