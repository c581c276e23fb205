//! Hamming single-error-correcting codes, plain and SEC-DED.
//!
//! ARC offers Hamming over one-byte blocks — Hamming(12,8) — and eight-byte
//! blocks — Hamming(71,64) (§5.2: "both generate parity bits for one byte or
//! eight byte data blocks at a time"). The wide variant trades correction
//! density for storage: 4 parity bits per 8 data bits (50% overhead) versus
//! 7 per 64 (10.9%).
//!
//! SEC-DED (single-error-correct, double-error-detect) is the same code plus
//! one overall parity bit per block (§2.2): (13,8) or (72,64). The extra bit
//! tells single errors (overall parity flips) from double errors (overall
//! parity holds while the syndrome is non-zero), which plain Hamming
//! silently miscorrects. It is the scheme ARC selects for the paper's §6.3
//! resiliency evaluation (1 error/MB → SEC-DED over every eight bytes).
//! Both are one type, [`Sec`], switched on that bit: [`Hamming`] and
//! [`SecDed`].
//!
//! Layout: data bytes are stored unmodified; the packed parity bits follow in
//! a trailing region, `r` bits per block. This keeps the encoded stream
//! readable without decoding and lets the syndrome logic repair errors in
//! either region.
//!
//! Kernel: a block's Hamming bits and its overall bit are each a parity of
//! some of its data bits, so the whole stored group is a GF(2)-linear map of
//! the block, read as eight byte-table lookups XORed together
//! (`Layout::group`). Encoding stores that group; decoding compares it
//! with the stored one and derives the syndrome only for a block where the
//! two differ.
//!
//! The eight-byte codes take their blocks eight at a time, a 64-byte lane
//! whose eight groups fill whole bytes: SEC-DED's eight 8-bit groups as they
//! are, Hamming's eight 7-bit groups packed into seven bytes. At
//! `gf256::SimdLevel::Gfni512` a lane's groups cost three instructions and
//! three folds: `VPERMB` gathers byte k of the eight blocks into qword k, one
//! `GF2P8AFFINEQB` applies to qword k the 8×8 bit matrix of byte k's share
//! of the map (built once from `Layout::group`), and XOR folds sum the eight
//! shares. Below that level the table computes each lane's groups. Either
//! way, decoding compares a lane's eight groups with the stored ones as one
//! word and runs the per-block syndrome logic only on a lane that differs,
//! and on the tail of fewer than eight blocks. The one-byte codes keep the
//! per-block table path.

use crate::bits::{copy_prefix, get_bit, read_bits_at, set_bit, PackedBitWriter, SlicedLinear};
use crate::codec::{
    single_correct_rate_per_mb, Capability, CorrectionReport, EccError, EccScheme, MB,
};

/// Block width choices for Hamming and SEC-DED codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockWidth {
    /// 8 data bits per codeword — Hamming(12,8) / SEC-DED(13,8).
    W8,
    /// 64 data bits per codeword — Hamming(71,64) / SEC-DED(72,64).
    W64,
}

impl BlockWidth {
    /// Data bits per block.
    pub(crate) fn data_bits(self) -> u32 {
        match self {
            BlockWidth::W8 => 8,
            BlockWidth::W64 => 64,
        }
    }

    /// Data bytes per block.
    pub(crate) fn data_bytes(self) -> usize {
        (self.data_bits() / 8) as usize
    }

    /// Hamming parity bits per block (excluding SEC-DED's extra bit).
    pub(crate) fn hamming_parity_bits(self) -> u32 {
        match self {
            BlockWidth::W8 => 4,  // 2^4 = 16 >= 8 + 4 + 1
            BlockWidth::W64 => 7, // 2^7 = 128 >= 64 + 7 + 1
        }
    }
}

/// Positional layout of a Hamming codeword: positions 1..=n, powers of two
/// hold parity, the rest hold data bits in order.
#[derive(Debug)]
pub(crate) struct Layout {
    /// Number of parity bits r.
    pub r: u32,
    /// Position (1-based) of each data bit within the codeword (kept for
    /// documentation and the layout tests; decoding uses the inverse map).
    #[cfg_attr(not(test), allow(dead_code))]
    pub data_pos: Vec<u32>,
    /// Inverse map: codeword position 0..=n → data-bit index (None for
    /// parity and the unused position 0), where n = d + r is the codeword
    /// length.
    pub pos_to_databit: Vec<Option<u32>>,
    /// A data block's whole stored group: the r Hamming bits with the
    /// overall parity bit above them. Both are linear in the data, so the
    /// group is one [`SlicedLinear`] read.
    pub group: SlicedLinear<u8>,
}

impl Layout {
    pub(crate) fn new(width: BlockWidth) -> Layout {
        let d = width.data_bits();
        let r = width.hamming_parity_bits();
        let n = d + r;
        // Bounded: d, n, r derive from the fixed BlockWidth enum (<= 64 data bits).
        let mut data_pos = Vec::with_capacity(d as usize);
        // Bounded: n = d + r derives from the fixed BlockWidth enum.
        let mut pos_to_databit = vec![None; (n + 1) as usize];
        let mut j = 0u32;
        for (pos, slot) in (1..=n).zip(pos_to_databit.iter_mut().skip(1)) {
            if !pos.is_power_of_two() {
                data_pos.push(pos);
                *slot = Some(j);
                j += 1;
            }
        }
        // Data bit j alone sets the Hamming bits that spell its position,
        // and the overall bit that evens out that bit and those; n < 2^r,
        // so the group fits r + 1 <= 8 bits.
        let columns: Vec<u8> = data_pos
            .iter()
            .map(|&pos| {
                let [low, ..] = (pos | ((1 + pos.count_ones()) & 1) << r).to_le_bytes();
                low
            })
            .collect();
        let group = SlicedLinear::from_columns(&columns);
        Layout { r, data_pos, pos_to_databit, group }
    }
}

static LAYOUT_W8: std::sync::OnceLock<Layout> = std::sync::OnceLock::new();
static LAYOUT_W64: std::sync::OnceLock<Layout> = std::sync::OnceLock::new();

pub(crate) fn layout(width: BlockWidth) -> &'static Layout {
    match width {
        BlockWidth::W8 => LAYOUT_W8.get_or_init(|| Layout::new(BlockWidth::W8)),
        BlockWidth::W64 => LAYOUT_W64.get_or_init(|| Layout::new(BlockWidth::W64)),
    }
}

/// A data block (one [`blocks_of`] block) as a
/// little-endian integer, zero-padding a ragged tail block.
#[inline]
pub(crate) fn load_block(block: &[u8]) -> u64 {
    // Full W64 block: one unaligned word load.
    if let Ok(w) = <[u8; 8]>::try_from(block) {
        return u64::from_le_bytes(w);
    }
    let mut v = 0u64;
    for (k, &b) in block.iter().enumerate() {
        v |= (b as u64) << (8 * k);
    }
    v
}

/// `data` in blocks of `B` bytes, the last one possibly shorter: `chunked`
/// for a width known at compile time, one pointer step per block.
fn blocks_of<const B: usize>(data: &[u8]) -> impl Iterator<Item = &[u8]> {
    let (full, tail) = data.as_chunks::<B>();
    full.iter().map(|b| b.as_slice()).chain(Some(tail).filter(|t| !t.is_empty()))
}

/// [`blocks_of`] over a mutable slice.
fn blocks_of_mut<const B: usize>(data: &mut [u8]) -> impl Iterator<Item = &mut [u8]> {
    let (full, tail) = data.as_chunks_mut::<B>();
    full.iter_mut().map(|b| b.as_mut_slice()).chain(Some(tail).filter(|t| !t.is_empty()))
}

/// Write `v` back into its block (bytes beyond a ragged tail block are
/// dropped; padding bits can never be flipped by correction because they
/// are zero in every recomputation).
#[inline]
pub(crate) fn store_block(block: &mut [u8], v: u64) {
    for (b, byte) in block.iter_mut().zip(v.to_le_bytes()) {
        *b = byte;
    }
}

/// Data bytes in one lane of eight W64 blocks.
const LANE: usize = 64;

/// How a lane's eight groups are computed: by the table, or by the
/// `VPERMB` + `GF2P8AFFINEQB` kernel where the CPU runs
/// `SimdLevel::Gfni512`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneKernel {
    Table,
    #[cfg(target_arch = "x86_64")]
    Gfni512,
}

impl LaneKernel {
    /// The kernel this CPU runs.
    fn detected() -> LaneKernel {
        #[cfg(target_arch = "x86_64")]
        if crate::gf256::simd_level() == crate::gf256::SimdLevel::Gfni512 {
            return LaneKernel::Gfni512;
        }
        LaneKernel::Table
    }

    /// Each lane's groups as stored ([`pack`]) into `stored`, lane by lane.
    fn encode<const P: usize>(self, lanes: &[[u8; LANE]], stored: &mut [[u8; P]]) {
        match self {
            LaneKernel::Table => {
                let lay = layout(BlockWidth::W64);
                for (lane, s) in lanes.iter().zip(stored) {
                    store_lane(s, pack::<P>(lane_groups(lay, lane)));
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `detected` returns `Gfni512` only where `simd_level`
            // found every feature of that level, the kernel's among them.
            LaneKernel::Gfni512 => unsafe { x86::encode::<P>(lanes, stored) },
        }
    }

    /// The first lane whose groups differ from the stored ones, if any.
    fn first_mismatch<const P: usize>(
        self,
        lanes: &[[u8; LANE]],
        stored: &[[u8; P]],
    ) -> Option<usize> {
        match self {
            LaneKernel::Table => {
                let lay = layout(BlockWidth::W64);
                let differs = |(lane, s)| pack::<P>(lane_groups(lay, lane)) != load_lane(s);
                lanes.iter().zip(stored).position(differs)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `encode`.
            LaneKernel::Gfni512 => unsafe { x86::first_mismatch::<P>(lanes, stored) },
        }
    }
}

/// A lane's eight groups by the table, block j's in byte j.
fn lane_groups(lay: &Layout, lane: &[u8; LANE]) -> u64 {
    let mut groups = [0u8; 8];
    for (g, block) in groups.iter_mut().zip(lane.as_chunks::<8>().0) {
        *g = lay.group.of(u64::from_le_bytes(*block));
    }
    u64::from_le_bytes(groups)
}

/// A lane's eight groups (block j's in byte j) as the lane stores them, in
/// the low `8·P` bits: SEC-DED's `P = 8` keeps the bytes; Hamming's `P = 7`
/// keeps each group's low seven bits, block j's at bit 7j, as
/// [`PackedBitWriter`] lays them out.
#[inline]
fn pack<const P: usize>(groups: u64) -> u64 {
    if P == 8 {
        return groups;
    }
    // Halve the field count three times: 7-bit fields in bytes, 14-bit in
    // 16-bit lanes, 28-bit in 32-bit lanes, then one 56-bit field.
    let x = groups & 0x7F7F_7F7F_7F7F_7F7F;
    let x = (x & 0x007F_007F_007F_007F) | ((x >> 1) & 0x3F80_3F80_3F80_3F80);
    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x >> 2) & 0x0FFF_C000_0FFF_C000);
    (x & 0x0FFF_FFFF) | ((x >> 4) & 0x00FF_FFFF_F000_0000)
}

/// A lane's `P` stored parity bytes as a little-endian word.
#[inline]
fn load_lane<const P: usize>(stored: &[u8; P]) -> u64 {
    let mut word = [0u8; 8];
    copy_prefix(&mut word, stored);
    u64::from_le_bytes(word)
}

/// Store the low `P` bytes of a [`pack`]ed word.
#[inline]
fn store_lane<const P: usize>(stored: &mut [u8; P], packed: u64) {
    copy_prefix(stored, &packed.to_le_bytes());
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The lane kernel at `SimdLevel::Gfni512`. Block j of a lane is a
    //! little-endian word, so its group is `Σ_k A_k·(byte k of block j)`
    //! over GF(2), `A_k` the 8×8 bit matrix of byte k's share of
    //! `Layout::group`. `VPERMB` moves byte k of every block into qword k
    //! (block j's into byte j), one `GF2P8AFFINEQB` multiplies qword k by
    //! `A_k`, and three XOR folds of the eight qwords leave block j's group
    //! in byte j.

    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    use super::{layout, load_lane, pack, store_lane, BlockWidth, LANE};
    use crate::gf256::affine_operand;

    /// The kernel's two constant operands, built once.
    struct Operands {
        /// `VPERMB` indices: output byte 8k + j is input byte 8j + k.
        transpose: [u8; LANE],
        /// `A_k` in qword k, in the form `GF2P8AFFINEQB` reads.
        matrices: [u8; LANE],
    }

    fn operands() -> &'static Operands {
        static OPERANDS: OnceLock<Operands> = OnceLock::new();
        OPERANDS.get_or_init(|| {
            let mut transpose = [0u8; LANE];
            for (i, t) in (0u8..).zip(&mut transpose) {
                *t = i % 8 * 8 + i / 8;
            }
            let group = &layout(BlockWidth::W64).group;
            let mut matrices = [0u8; LANE];
            for (k, a) in matrices.as_chunks_mut::<8>().0.iter_mut().enumerate() {
                // Column b of A_k: the group of data bit 8k + b alone.
                let columns = std::array::from_fn(|b| group.of(1 << (8 * k + b)));
                *a = affine_operand(columns).to_le_bytes();
            }
            Operands { transpose, matrices }
        })
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(bytes: &[u8; LANE]) -> __m512i {
        // SAFETY: `bytes` is 64 readable bytes and `_mm512_loadu_si512`
        // accepts any alignment.
        unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
    }

    /// A lane's eight groups, block j's in byte j.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,gfni")]
    fn groups(lane: &[u8; LANE], transpose: __m512i, matrices: __m512i) -> u64 {
        let by_byte = _mm512_permutexvar_epi8(transpose, load(lane));
        let shares = _mm512_gf2p8affine_epi64_epi8::<0>(by_byte, matrices);
        let x = _mm512_castsi512_si256(shares);
        let x = _mm256_xor_si256(x, _mm512_extracti64x4_epi64::<1>(shares));
        let x = _mm_xor_si128(_mm256_castsi256_si128(x), _mm256_extracti128_si256::<1>(x));
        _mm_cvtsi128_si64(_mm_xor_si128(x, _mm_unpackhi_epi64(x, x))).cast_unsigned()
    }

    /// [`super::LaneKernel::encode`] at this level.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,gfni")]
    pub(super) fn encode<const P: usize>(lanes: &[[u8; LANE]], stored: &mut [[u8; P]]) {
        let ops = operands();
        let (transpose, matrices) = (load(&ops.transpose), load(&ops.matrices));
        for (lane, s) in lanes.iter().zip(stored) {
            store_lane(s, pack::<P>(groups(lane, transpose, matrices)));
        }
    }

    /// [`super::LaneKernel::first_mismatch`] at this level.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,gfni")]
    pub(super) fn first_mismatch<const P: usize>(
        lanes: &[[u8; LANE]],
        stored: &[[u8; P]],
    ) -> Option<usize> {
        let ops = operands();
        let (transpose, matrices) = (load(&ops.transpose), load(&ops.matrices));
        for (i, (lane, s)) in lanes.iter().zip(stored).enumerate() {
            if pack::<P>(groups(lane, transpose, matrices)) != load_lane(s) {
                return Some(i);
            }
        }
        None
    }
}

/// The SEC code over [`BlockWidth`] blocks, monomorphised on `OVERALL`:
/// whether each block's stored parity group ends in the overall parity bit
/// that makes the code SEC-DED (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sec<const OVERALL: bool> {
    /// Codeword width.
    pub width: BlockWidth,
}

/// Hamming SEC: (12,8) or (71,64). Wire name `hamming`.
pub type Hamming = Sec<false>;

/// SEC-DED, Hamming plus an overall parity bit: (13,8) or (72,64). Wire name
/// `secded`.
pub type SecDed = Sec<true>;

/// What one odd-weight syndrome asks for.
enum Flip {
    /// Data bit of the block.
    Data(u32),
    /// Bit of the block's stored parity group.
    Stored(u32),
}

impl<const OVERALL: bool> Sec<OVERALL> {
    const NAME: &'static str = if OVERALL { "secded" } else { "hamming" };

    /// Hamming(12,8) / SEC-DED(13,8): one data byte per codeword.
    pub fn w8() -> Self {
        Sec { width: BlockWidth::W8 }
    }

    /// Hamming(71,64) / SEC-DED(72,64): eight data bytes per codeword.
    pub fn w64() -> Self {
        Sec { width: BlockWidth::W64 }
    }

    /// Stored parity bits per block: the Hamming bits, then the overall bit.
    fn group_bits(&self) -> u32 {
        self.width.hamming_parity_bits() + u32::from(OVERALL)
    }

    /// The low [`Sec::group_bits`] bits of a byte: this code's share of
    /// [`Layout::group`].
    fn group_mask(&self) -> u8 {
        u8::MAX >> (8 - self.group_bits())
    }

    fn blocks(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.width.data_bytes())
    }

    /// [`EccScheme::encode_parity_into`] over blocks of `B` bytes, the
    /// width's [`BlockWidth::data_bytes`].
    fn encode_blocks<const B: usize>(&self, data: &[u8], parity: &mut [u8]) {
        let (lay, pb, mask) = (layout(self.width), self.group_bits(), self.group_mask());
        // One parity group per block, packed with whole-word stores; the
        // writer covers every parity byte, so no fill(0) pass is needed.
        let mut w = PackedBitWriter::new(parity);
        for block in blocks_of::<B>(data) {
            w.push(u64::from(lay.group.of(load_block(block)) & mask), pb);
        }
        w.finish();
    }

    /// [`EccScheme::encode_parity_into`] over W64 blocks: whole lanes by
    /// `kernel`, each storing its groups in `P` bytes (the group bits), then
    /// the tail block by block.
    fn encode_lanes<const P: usize>(&self, kernel: LaneKernel, data: &[u8], parity: &mut [u8]) {
        let (lanes, tail) = data.as_chunks::<LANE>();
        let Some((head, rest)) = parity.split_at_mut_checked(lanes.len() * P) else {
            return self.encode_blocks::<8>(data, parity);
        };
        kernel.encode::<P>(lanes, head.as_chunks_mut::<P>().0);
        self.encode_blocks::<8>(tail, rest);
    }

    /// The bits [`EccScheme::verify_and_correct`] corrects over W64 blocks,
    /// once the parity region's length is checked: `kernel` finds each lane
    /// whose groups differ from the stored ones, and the block-by-block
    /// logic repairs it, then checks the tail.
    fn correct_lanes<const P: usize>(
        &self,
        kernel: LaneKernel,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<u64, EccError> {
        let Some((head, rest)) = parity.split_at_mut_checked(data.len() / LANE * P) else {
            return self.correct_blocks::<8>(data, parity, 0);
        };
        let (lanes, tail) = data.as_chunks_mut::<LANE>();
        let stored = head.as_chunks_mut::<P>().0;
        let (mut corrected, mut at) = (0, 0);
        while let Some(i) = kernel.first_mismatch::<P>(
            lanes.get(at..).unwrap_or_default(),
            stored.get(at..).unwrap_or_default(),
        ) {
            let lane = at + i;
            if let (Some(data), Some(parity)) = (lanes.get_mut(lane), stored.get_mut(lane)) {
                corrected += self.correct_blocks::<8>(data, parity, 8 * lane)?;
            }
            at = lane + 1;
        }
        Ok(corrected + self.correct_blocks::<8>(tail, rest, 8 * lanes.len())?)
    }

    /// The bits [`EccScheme::verify_and_correct`] corrects over blocks of
    /// `B` bytes, once the parity region's length is checked; `first`
    /// numbers the first block in error texts.
    fn correct_blocks<const B: usize>(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
        first: usize,
    ) -> Result<u64, EccError> {
        let uncorrectable = |detail| Err(EccError::Uncorrectable { scheme: Self::NAME, detail });
        let (lay, pb, mask) = (layout(self.width), self.group_bits(), self.group_mask());
        let mut corrected = 0;
        for (j, bytes) in blocks_of_mut::<B>(data).enumerate() {
            let i = first + j;
            let block = load_block(bytes);
            let base = j as u64 * pb as u64;
            // The group holds pb <= 8 bits.
            let [stored, ..] = read_bits_at(parity, base, pb).to_le_bytes();
            let d = (lay.group.of(block) & mask) ^ stored;
            if d == 0 {
                continue;
            }
            let syndrome = d & ((1 << lay.r) - 1);
            // Did an odd number of bits flip? SEC-DED's overall bit says:
            // even weight across the received data, Hamming bits and overall
            // bit means no, and that weight's parity is the overall bit's
            // mismatch plus the syndrome's (the Hamming bits' mismatch).
            // Plain Hamming has no such witness and takes every non-zero
            // syndrome for a single error (and so miscorrects a double one).
            let odd = if OVERALL {
                (u32::from(d >> lay.r) ^ syndrome.count_ones()) & 1 == 1
            } else {
                syndrome != 0
            };
            // An odd weight is taken for a single error, at the codeword
            // position the syndrome spells: none for the overall bit, a
            // power of two for a Hamming bit.
            let flip = match (syndrome, odd) {
                (0, false) => continue,
                (_, false) => {
                    return uncorrectable(format!("double-bit error detected in block {i}"))
                }
                (0, true) => Flip::Stored(lay.r),
                (s, true) => match lay.pos_to_databit.get(usize::from(s)) {
                    Some(Some(bit)) => Flip::Data(*bit),
                    Some(None) => Flip::Stored(s.trailing_zeros()),
                    None => {
                        return uncorrectable(format!(
                            "impossible syndrome {s} in block {i} (multi-bit error)"
                        ))
                    }
                },
            };
            match flip {
                Flip::Data(bit) => {
                    // Flipping a zero-padding bit of the tail block means the
                    // error is actually beyond the data — multi-bit damage.
                    if bit as usize >= bytes.len() * 8 {
                        return uncorrectable(format!(
                            "syndrome points into tail padding of block {i}"
                        ));
                    }
                    store_block(bytes, block ^ (1u64 << bit));
                }
                Flip::Stored(bit) => {
                    let idx = base + bit as u64;
                    set_bit(parity, idx, !get_bit(parity, idx));
                }
            }
            corrected += 1;
        }
        Ok(corrected)
    }

    /// [`EccScheme::encode_parity_into`], the W64 lanes by `kernel`.
    fn encode_with(&self, kernel: LaneKernel, data: &[u8], parity: &mut [u8]) {
        match self.width {
            BlockWidth::W8 => self.encode_blocks::<1>(data, parity),
            BlockWidth::W64 if OVERALL => self.encode_lanes::<8>(kernel, data, parity),
            BlockWidth::W64 => self.encode_lanes::<7>(kernel, data, parity),
        }
    }

    /// [`EccScheme::verify_and_correct`], the W64 lanes by `kernel`.
    fn correct_with(
        &self,
        kernel: LaneKernel,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        let expected = self.parity_len(data.len());
        if parity.len() != expected {
            return Err(EccError::Malformed {
                detail: format!(
                    "{} parity region {} bytes, expected {expected}",
                    Self::NAME,
                    parity.len()
                ),
            });
        }
        let blocks_checked = self.blocks(data.len()) as u64;
        let corrected_bits = match self.width {
            BlockWidth::W8 => self.correct_blocks::<1>(data, parity, 0),
            BlockWidth::W64 if OVERALL => self.correct_lanes::<8>(kernel, data, parity),
            BlockWidth::W64 => self.correct_lanes::<7>(kernel, data, parity),
        }?;
        Ok(CorrectionReport { corrected_bits, blocks_checked, ..Default::default() })
    }
}

impl<const OVERALL: bool> EccScheme for Sec<OVERALL> {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn parity_len(&self, data_len: usize) -> usize {
        (self.blocks(data_len) * self.group_bits() as usize).div_ceil(8)
    }

    fn storage_overhead(&self) -> f64 {
        self.group_bits() as f64 / self.width.data_bits() as f64
    }

    fn encode_parity_into(&self, data: &[u8], parity: &mut [u8]) {
        self.encode_with(LaneKernel::detected(), data, parity);
    }

    fn verify_and_correct(
        &self,
        data: &mut [u8],
        parity: &mut [u8],
    ) -> Result<CorrectionReport, EccError> {
        self.correct_with(LaneKernel::detected(), data, parity)
    }

    fn capability(&self) -> Capability {
        let codewords_per_mb = MB / self.width.data_bytes() as f64;
        Capability {
            detects_sparse: true,
            corrects_sparse: true,
            corrects_burst: false,
            correctable_per_mb: single_correct_rate_per_mb(codewords_per_mb),
        }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation, reason = "test data")]
mod tests {
    use super::*;
    use crate::bits::flip_bit;

    fn sample(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 131 + 17) % 251) as u8).collect()
    }

    /// Every SEC code: both widths, without and with the overall bit.
    fn codes() -> [(Box<dyn EccScheme>, BlockWidth, bool); 4] {
        [
            (Box::new(Hamming::w8()), BlockWidth::W8, false),
            (Box::new(Hamming::w64()), BlockWidth::W64, false),
            (Box::new(SecDed::w8()), BlockWidth::W8, true),
            (Box::new(SecDed::w64()), BlockWidth::W64, true),
        ]
    }

    /// The popcount kernel and the decoder [`Layout::group`] replaced, kept
    /// as what the table and the decoder built on it are compared against.
    mod reference {
        use super::*;

        /// For each parity bit i, a mask over the data bits it covers.
        fn data_masks(lay: &Layout) -> Vec<u64> {
            let mut masks = vec![0u64; lay.r as usize];
            for (bit, &pos) in lay.data_pos.iter().enumerate() {
                for (i, mask) in masks.iter_mut().enumerate() {
                    if pos & (1 << i) != 0 {
                        *mask |= 1u64 << bit;
                    }
                }
            }
            masks
        }

        /// Hamming bits for one data block (low `r` bits of the result).
        pub(super) fn parity_of(lay: &Layout, data: u64) -> u32 {
            let mut p = 0u32;
            for (i, &mask) in data_masks(lay).iter().enumerate() {
                p |= (((data & mask).count_ones()) & 1) << i;
            }
            p
        }

        /// Overall (even) parity across the data block and its Hamming bits.
        pub(super) fn overall(block: u64, hamming_bits: u32) -> bool {
            ((block.count_ones() + hamming_bits.count_ones()) & 1) == 1
        }

        /// `Sec::verify_and_correct` by masked popcounts, the overall bit
        /// taken when `with_overall`.
        pub(super) fn verify_and_correct(
            width: BlockWidth,
            with_overall: bool,
            data: &mut [u8],
            parity: &mut [u8],
        ) -> Result<CorrectionReport, EccError> {
            let name = if with_overall { "secded" } else { "hamming" };
            let uncorrectable = |detail| Err(EccError::Uncorrectable { scheme: name, detail });
            let lay = layout(width);
            let pb = lay.r + u32::from(with_overall);
            let blocks = data.len().div_ceil(width.data_bytes());
            let mut report =
                CorrectionReport { blocks_checked: blocks as u64, ..Default::default() };
            for (i, bytes) in data.chunks_mut(width.data_bytes()).enumerate() {
                let block = load_block(bytes);
                let base = i as u64 * pb as u64;
                let group = read_bits_at(parity, base, pb);
                let stored = (group as u32) & ((1 << lay.r) - 1);
                let syndrome = parity_of(lay, block) ^ stored;
                let odd = if with_overall {
                    overall(block, stored) != ((group >> lay.r) & 1 == 1)
                } else {
                    syndrome != 0
                };
                let flip = match (syndrome, odd) {
                    (0, false) => continue,
                    (_, false) => {
                        return uncorrectable(format!("double-bit error detected in block {i}"))
                    }
                    (0, true) => Flip::Stored(lay.r),
                    (s, true) => match lay.pos_to_databit.get(s as usize) {
                        Some(Some(bit)) => Flip::Data(*bit),
                        Some(None) => Flip::Stored(s.trailing_zeros()),
                        None => {
                            return uncorrectable(format!(
                                "impossible syndrome {s} in block {i} (multi-bit error)"
                            ))
                        }
                    },
                };
                match flip {
                    Flip::Data(bit) => {
                        if bit as usize >= bytes.len() * 8 {
                            return uncorrectable(format!(
                                "syndrome points into tail padding of block {i}"
                            ));
                        }
                        store_block(bytes, block ^ (1u64 << bit));
                    }
                    Flip::Stored(bit) => {
                        let idx = base + bit as u64;
                        set_bit(parity, idx, !get_bit(parity, idx));
                    }
                }
                report.corrected_bits += 1;
            }
            Ok(report)
        }
    }

    /// The sliced group against the popcount reference on `word`.
    fn group_matches_reference(width: BlockWidth, word: u64) {
        let lay = layout(width);
        let ham = reference::parity_of(lay, word);
        let want = ham | u32::from(reference::overall(word, ham)) << lay.r;
        assert_eq!(u32::from(lay.group.of(word)), want, "{width:?} word {word:#x}");
    }

    #[test]
    fn sliced_group_is_the_popcount_reference() {
        let mut rng = crate::rscode::oracle::Rng(0x5EC_DED0);
        for width in [BlockWidth::W8, BlockWidth::W64] {
            let bits = width.data_bits();
            let word_mask = u64::MAX >> (64 - bits);
            group_matches_reference(width, 0);
            for bit in 0..bits {
                group_matches_reference(width, 1 << bit);
            }
            for _ in 0..20_000 {
                group_matches_reference(width, rng.next() & word_mask);
            }
        }
    }

    /// Decode `data ‖ parity` with `bits` flipped (indices over the whole
    /// buffer) by the code and by the reference: the same `Result` and the
    /// same bytes after it.
    fn decode_matches_reference(
        code: &dyn EccScheme,
        width: BlockWidth,
        with_overall: bool,
        enc: &[u8],
        n: usize,
        bits: &[u64],
    ) {
        let mut bad = enc.to_vec();
        for &bit in bits {
            flip_bit(&mut bad, bit);
        }
        let mut want = bad.clone();
        let (data, parity) = bad.split_at_mut(n);
        let got = code.verify_and_correct(data, parity);
        let (data, parity) = want.split_at_mut(n);
        let expected = reference::verify_and_correct(width, with_overall, data, parity);
        assert_eq!(got, expected, "{} {width:?} n={n} flips {bits:?}", code.name());
        assert!(bad == want, "{} {width:?} n={n} flips {bits:?}: bytes", code.name());
    }

    #[test]
    fn every_single_and_double_flip_decodes_as_the_reference() {
        let mut rng = crate::rscode::oracle::Rng(0x5EC_DED1);
        for (code, width, with_overall) in codes() {
            let pb = u64::from(layout(width).r) + u64::from(with_overall);
            let block_bytes = width.data_bytes();
            // Three whole blocks and a ragged tail block for the wide codes.
            let n = 3 * block_bytes + block_bytes / 2;
            for _ in 0..3 {
                let enc = code.encode(&rng.bytes(n));
                let check = |flips: &[u64]| {
                    decode_matches_reference(code.as_ref(), width, with_overall, &enc, n, flips)
                };
                check(&[]);
                for block in 0..n.div_ceil(block_bytes) as u64 {
                    // The codeword of `block`: its data bits, then its group.
                    let start = block * 8 * block_bytes as u64;
                    let data_bits = start..(start + 8 * block_bytes as u64).min(8 * n as u64);
                    let group = 8 * n as u64 + block * pb..8 * n as u64 + (block + 1) * pb;
                    let codeword: Vec<u64> = data_bits.chain(group).collect();
                    for (i, &a) in codeword.iter().enumerate() {
                        check(&[a]);
                        for &b in &codeword[..i] {
                            check(&[a, b]);
                        }
                    }
                }
            }
        }
    }

    /// Every lane kernel this CPU runs: the table, and the SIMD kernel
    /// where its features are detected.
    fn lane_kernels() -> Vec<LaneKernel> {
        let simd = Some(LaneKernel::detected()).filter(|k| *k != LaneKernel::Table);
        std::iter::once(LaneKernel::Table).chain(simd).collect()
    }

    /// `kernel`'s W64 parity of `data` against the table kernel's,
    /// `encode_blocks` over the whole buffer; the parity buffer starts as
    /// garbage, so every byte must be written.
    fn lane_encode_matches_table<const O: bool>(kernel: LaneKernel, data: &[u8]) -> Vec<u8> {
        let code = Sec::<O>::w64();
        let mut want = vec![0; code.parity_len(data.len())];
        code.encode_blocks::<8>(data, &mut want);
        let mut got = vec![0xA5; want.len()];
        code.encode_with(kernel, data, &mut got);
        assert!(got == want, "{} {kernel:?} n={}: parity", code.name(), data.len());
        [data, &want].concat()
    }

    /// `kernel`'s W64 decode of `enc` (`n` data bytes, then parity) with
    /// `flips` against the table kernel's, `correct_blocks` over the whole
    /// buffer: the same report or error, and the same bytes after it.
    /// `bad` and `want` are scratch buffers.
    fn lane_decode_matches_table<const O: bool>(
        kernel: LaneKernel,
        enc: &[u8],
        n: usize,
        flips: &[u64],
        (bad, want): (&mut Vec<u8>, &mut Vec<u8>),
    ) {
        let code = Sec::<O>::w64();
        bad.clear();
        bad.extend_from_slice(enc);
        for &bit in flips {
            flip_bit(bad, bit);
        }
        want.clone_from(bad);
        let (data, parity) = bad.split_at_mut(n);
        let got = code.correct_with(kernel, data, parity);
        let (data, parity) = want.split_at_mut(n);
        let expected =
            code.correct_blocks::<8>(data, parity, 0).map(|corrected_bits| CorrectionReport {
                corrected_bits,
                blocks_checked: code.blocks(n) as u64,
                ..Default::default()
            });
        assert_eq!(got, expected, "{} {kernel:?} n={n} flips {flips:?}", code.name());
        assert!(bad == want, "{} {kernel:?} n={n} flips {flips:?}: bytes", code.name());
    }

    /// Random buffers through every lane kernel and both W64 codes: parity,
    /// a clean decode, and `flips` random flips each.
    fn lane_kernels_match_table_on(
        rng: &mut crate::rscode::oracle::Rng,
        lens: &[usize],
        flips: usize,
    ) {
        let mut scratch = (Vec::new(), Vec::new());
        for kernel in lane_kernels() {
            for &n in lens {
                let data = rng.bytes(n);
                let enc_secded = lane_encode_matches_table::<true>(kernel, &data);
                let enc_hamming = lane_encode_matches_table::<false>(kernel, &data);
                for (overall, enc) in [(true, &enc_secded), (false, &enc_hamming)] {
                    let bits = 8 * enc.len() as u64;
                    for k in 0..=flips {
                        let f: Vec<u64> = (0..k).map(|_| rng.next() % bits.max(1)).collect();
                        let f = if bits == 0 { &[][..] } else { &f[..] };
                        let s = (&mut scratch.0, &mut scratch.1);
                        if overall {
                            lane_decode_matches_table::<true>(kernel, enc, n, f, s);
                        } else {
                            lane_decode_matches_table::<false>(kernel, enc, n, f, s);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lane_kernels_match_the_table_at_every_length_to_600() {
        let lens: Vec<usize> = (0..=600).collect();
        lane_kernels_match_table_on(&mut crate::rscode::oracle::Rng(0x1A9E_0001), &lens, 2);
    }

    #[test]
    fn lane_kernels_match_the_table_on_1_mib() {
        let mut rng = crate::rscode::oracle::Rng(0x1A9E_0002);
        lane_kernels_match_table_on(&mut rng, &[1 << 20, (1 << 20) - 3], 3);
    }

    /// 10⁴ random buffers of random length up to 64 KiB, up to four flips
    /// each.
    #[test]
    #[ignore = "deep differential; run with --ignored"]
    fn lane_kernels_match_the_table_deep() {
        let mut rng = crate::rscode::oracle::Rng(0x1A9E_0003);
        for _ in 0..10_000 {
            let n = rng.range(0, 64 << 10);
            lane_kernels_match_table_on(&mut rng, &[n], 4);
        }
    }

    /// Every single flip and every pair of flips inside lanes 1 and 2 of a
    /// buffer of three lanes and a ragged tail, data bits and parity bits
    /// alike, through every lane kernel and both W64 codes.
    #[test]
    fn lane_kernels_match_the_table_on_every_flip_pair_in_two_lanes() {
        fn sweep<const O: bool>(kernel: LaneKernel, data: &[u8]) {
            let enc = lane_encode_matches_table::<O>(kernel, data);
            let (n, pb) = (data.len() as u64, u64::from(Sec::<O>::w64().group_bits()));
            // Lanes 1 and 2: data bytes 64..192, parity bits of blocks 8..24.
            let data_bits = 8 * 64..8 * 192;
            let parity_bits = 8 * n + 8 * pb..8 * n + 24 * pb;
            let bits: Vec<u64> = data_bits.chain(parity_bits).collect();
            let mut scratch = (Vec::new(), Vec::new());
            for (i, &a) in bits.iter().enumerate() {
                let s = (&mut scratch.0, &mut scratch.1);
                lane_decode_matches_table::<O>(kernel, &enc, data.len(), &[a], s);
                for &b in &bits[..i] {
                    let s = (&mut scratch.0, &mut scratch.1);
                    lane_decode_matches_table::<O>(kernel, &enc, data.len(), &[a, b], s);
                }
            }
        }
        let data = crate::rscode::oracle::Rng(0x1A9E_0004).bytes(3 * LANE + 13);
        for kernel in lane_kernels() {
            sweep::<true>(kernel, &data);
            sweep::<false>(kernel, &data);
        }
    }

    #[test]
    fn layout_w8_is_12_8() {
        let lay = layout(BlockWidth::W8);
        assert_eq!(lay.r, 4);
        assert_eq!(lay.pos_to_databit.len(), 12 + 1);
        assert_eq!(lay.data_pos, vec![3, 5, 6, 7, 9, 10, 11, 12]);
    }

    #[test]
    fn layout_w64_is_71_64() {
        let lay = layout(BlockWidth::W64);
        assert_eq!(lay.r, 7);
        assert_eq!(lay.pos_to_databit.len(), 71 + 1);
        assert_eq!(lay.data_pos.len(), 64);
    }

    #[test]
    fn clean_round_trip_both_widths() {
        for (code, width, _) in codes() {
            let data = sample(1000);
            let enc = code.encode(&data);
            let (out, report) = code.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data, "{} {width:?}", code.name());
            assert!(report.is_clean());
        }
    }

    #[test]
    fn packed_parity_matches_per_bit_reference() {
        // The word-packed encoder must be bit-identical to the per-bit
        // set_bit reference at every ragged length (wire format is pinned
        // by the golden-container snapshots): per block, the Hamming bits,
        // then SEC-DED's overall bit.
        for (code, width, with_overall) in codes() {
            let lay = layout(width);
            let pb = u64::from(lay.r) + u64::from(with_overall);
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1001] {
                let data = sample(len);
                let mut reference = vec![0u8; code.parity_len(len)];
                for (i, block) in data.chunks(width.data_bytes()).enumerate() {
                    let block = load_block(block);
                    let ham = reference::parity_of(lay, block);
                    let base = i as u64 * pb;
                    for bit in 0..lay.r {
                        if ham & (1 << bit) != 0 {
                            set_bit(&mut reference, base + u64::from(bit), true);
                        }
                    }
                    if with_overall && reference::overall(block, ham) {
                        set_bit(&mut reference, base + u64::from(lay.r), true);
                    }
                }
                assert_eq!(
                    code.encode_parity(&data),
                    reference,
                    "{} {width:?} len={len}",
                    code.name()
                );
            }
        }
    }

    #[test]
    fn corrects_every_single_bit_flip_w8() {
        for (code, _, _) in codes().into_iter().filter(|c| c.1 == BlockWidth::W8) {
            let data = sample(48);
            let enc = code.encode(&data);
            for bit in 0..(enc.len() as u64 * 8) {
                let mut bad = enc.clone();
                flip_bit(&mut bad, bit);
                let (out, report) = code.decode(&bad, data.len()).unwrap();
                assert_eq!(out, data, "{}: bit {bit} not corrected", code.name());
                assert_eq!(report.corrected_bits, 1, "{}: bit {bit}", code.name());
            }
        }
    }

    #[test]
    fn corrects_every_single_bit_flip_w64() {
        for (code, _, _) in codes().into_iter().filter(|c| c.1 == BlockWidth::W64) {
            let data = sample(128);
            let enc = code.encode(&data);
            for bit in 0..(enc.len() as u64 * 8) {
                let mut bad = enc.clone();
                flip_bit(&mut bad, bit);
                let (out, _) = code.decode(&bad, data.len()).unwrap();
                assert_eq!(out, data, "{}: bit {bit} not corrected", code.name());
            }
        }
    }

    #[test]
    fn corrects_one_flip_per_block_many_blocks() {
        for code in [&Hamming::w64() as &dyn EccScheme, &SecDed::w64()] {
            let data = sample(8 * 64);
            let mut enc = code.encode(&data);
            // One flip in each of the 64 blocks (64 bits each) — all
            // independently correctable.
            for i in 0..64u64 {
                flip_bit(&mut enc, i * 64 + ((i * 13) % 64));
            }
            let (out, report) = code.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data);
            assert_eq!(report.corrected_bits, 64);
        }
    }

    #[test]
    fn ragged_tail_round_trips_and_corrects() {
        for code in [&Hamming::w64() as &dyn EccScheme, &SecDed::w64()] {
            let data = sample(61); // not a multiple of 8
            let enc = code.encode(&data);
            let (out, _) = code.decode(&enc, data.len()).unwrap();
            assert_eq!(out, data);
            for bit in 0..(data.len() as u64 * 8) {
                let mut bad = enc.clone();
                flip_bit(&mut bad, bit);
                let (out, _) = code.decode(&bad, data.len()).unwrap();
                assert_eq!(out, data, "{}: tail bit {bit}", code.name());
            }
        }
    }

    #[test]
    fn double_error_in_block_is_not_silently_clean() {
        // Plain Hamming may miscorrect a double error; it must never return
        // the corrupted data while claiming zero corrections.
        let h = Hamming::w8();
        let data = sample(16);
        let mut enc = h.encode(&data);
        flip_bit(&mut enc, 0);
        flip_bit(&mut enc, 3);
        match h.decode(&enc, data.len()) {
            Err(_) => {}
            Ok((out, report)) => {
                assert!(!report.is_clean());
                // Miscorrection is permitted (classic Hamming limitation),
                // silence is not.
                let _ = out;
            }
        }
    }

    #[test]
    fn secded_detects_every_double_bit_flip_within_a_block_w8() {
        let s = SecDed::w8();
        let data = sample(4);
        let enc = s.encode(&data);
        // All pairs within block 0's codeword: data bits 0..8 plus its 5
        // parity bits at the start of the parity region.
        let mut codeword_bits: Vec<u64> = (0..8u64).collect();
        let parity_base = data.len() as u64 * 8;
        codeword_bits.extend((0..5u64).map(|b| parity_base + b));
        for (ai, &a) in codeword_bits.iter().enumerate() {
            for &b in &codeword_bits[ai + 1..] {
                let mut bad = enc.clone();
                flip_bit(&mut bad, a);
                flip_bit(&mut bad, b);
                assert!(s.decode(&bad, data.len()).is_err(), "double flip ({a},{b}) not detected");
            }
        }
    }

    #[test]
    fn secded_detects_double_bit_flips_within_w64_block() {
        let s = SecDed::w64();
        let data = sample(8);
        let enc = s.encode(&data);
        for a in 0..64u64 {
            for b in (a + 1)..64u64 {
                let mut bad = enc.clone();
                flip_bit(&mut bad, a);
                flip_bit(&mut bad, b);
                assert!(s.decode(&bad, data.len()).is_err(), "pair ({a},{b})");
            }
        }
    }

    #[test]
    fn overheads_match_paper_widths() {
        assert!((Hamming::w8().storage_overhead() - 0.5).abs() < 1e-12);
        assert!((Hamming::w64().storage_overhead() - 7.0 / 64.0).abs() < 1e-12);
        assert!((SecDed::w8().storage_overhead() - 5.0 / 8.0).abs() < 1e-12);
        assert!((SecDed::w64().storage_overhead() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn capability_reports_sparse_correction() {
        let cap = Hamming::w64().capability();
        assert!(cap.corrects_sparse && cap.detects_sparse && !cap.corrects_burst);
        assert!(cap.correctable_per_mb > 10.0);
    }

    #[test]
    fn paper_1_error_per_mb_case_is_within_capability() {
        // §6.3: resiliency constraint of 1 error/MB selects SEC-DED per 8
        // bytes, guaranteed to catch any single error.
        let cap = SecDed::w64().capability();
        assert!(cap.correctable_per_mb >= 1.0);
        assert!(cap.corrects_sparse);
    }

    #[test]
    fn empty_input() {
        for (code, _, _) in codes() {
            let enc = code.encode(&[]);
            assert!(enc.is_empty());
            assert!(code.decode(&enc, 0).unwrap().0.is_empty());
        }
    }
}
