//! **Carousel codes** — the primary contribution of *"On Data Parallelism of
//! Erasure Coding in Distributed Storage Systems"* (Li & Li, ICDCS 2017).
//!
//! An `(n, k, d, p)` Carousel code encodes `k` blocks of data into `n`
//! blocks such that:
//!
//! * **MDS** — any `k` blocks decode the original data (optimal storage
//!   overhead, same as Reed-Solomon);
//! * **data parallelism `p`** — the original data is spread *evenly* over
//!   the first `p` blocks (`k ≤ p ≤ n`), each of which carries a contiguous
//!   `1/p` chunk of the file at its top, readable without any decoding;
//! * **optimal repair traffic** — a lost block is rebuilt from `d` helpers
//!   with `d/(d−k+1)` block-sizes of network transfer (matching MSR codes)
//!   when `d ≥ 2k−2`, or with RS-style repair-by-decode when `d = k`.
//!
//! Systematic codes pin data parallelism at `k`; replication scales it with
//! copies but at multiplied storage. Carousel codes hit any `p` up to `n`
//! at MDS storage cost — that is the paper's headline trade-off, evaluated
//! on Hadoop in its §VIII and reproduced by the simulator crates here.
//!
//! # Construction (paper §V–§VII)
//!
//! 1. **Expansion**: take an `(n,k)` systematic RS code (`d = k`) or an
//!    `(n,k,d)` product-matrix MSR code (`d ≥ 2k−2`), and split every
//!    segment of every block into `N₀ = p/gcd(k,p)` units (a Kronecker
//!    product of the generator with `I_{N₀}`).
//! 2. **Selection**: in block `i < p`, in every segment, choose unit `t` iff
//!    `(t − i) mod N₀ < K₀` where `K₀ = k/gcd(k,p)` — a round-robin pattern
//!    ("carousel") that places every unit-row in exactly `k` blocks.
//! 3. **Symbol remapping**: right-multiply the expanded generator by the
//!    inverse of its chosen rows, turning every chosen unit into verbatim
//!    original data.
//! 4. **Reordering**: permute units inside each block so the data units sit
//!    on top in file order; repair coefficients are permuted to match, so
//!    repair traffic is unchanged.
//!
//! # Examples
//!
//! ```
//! use carousel::Carousel;
//! use erasure::ErasureCode;
//!
//! // Paper Fig. 2: n = 3, k = 2 — data spread over all 3 blocks.
//! let code = Carousel::new(3, 2, 2, 3)?;
//! let data = b"060708091011"; // 12 bytes -> 6 file units of 2 bytes
//! let stripe = code.linear().encode(data)?;
//! // Each block's top 2/3 is original data:
//! assert_eq!(&stripe.blocks[0][..4], b"0607");
//! assert_eq!(&stripe.blocks[1][..4], b"0809");
//! assert_eq!(&stripe.blocks[2][..4], b"1011");
//! // And any 2 blocks decode everything (MDS):
//! let out = code.linear().decode_nodes(&[0, 2], &[&stripe.blocks[0], &stripe.blocks[2]])?;
//! assert_eq!(&out[..], data);
//! # Ok::<(), erasure::CodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod construction;
mod degraded;
mod read;

pub use construction::CarouselParams;
pub use degraded::BlockReadPlan;
pub use read::{ReadMode, ReadPlan};

use erasure::{CodeError, DataLayout, ErasureCode, HelperTask, LinearCode, RepairPlan};
use gf256::Matrix;
use msr::shorten::ShortenedMsr;
use rs_code::ReedSolomon;

/// How repairs are driven: by the base code the Carousel code was built on.
#[derive(Debug, Clone)]
enum Base {
    /// `d = k`: RS base, repair-by-decode (k full blocks).
    Rs,
    /// `d ≥ 2k−2`: product-matrix MSR base, optimal-traffic repair.
    Msr(ShortenedMsr),
}

/// An `(n, k, d, p)` Carousel code.
///
/// See the [crate-level documentation](crate) for the construction and an
/// example.
#[derive(Debug, Clone)]
pub struct Carousel {
    params: CarouselParams,
    code: LinearCode,
    layout: DataLayout,
    /// Per-node unit permutation applied by the reordering step:
    /// `perms[i][stored_position] = pre-reorder row index within the block`.
    perms: Vec<Vec<usize>>,
    base: Base,
}

impl Carousel {
    /// Constructs an `(n, k, d, p)` Carousel code.
    ///
    /// `d` selects the repair regime: `d = k` builds on systematic RS
    /// (repair downloads `k` blocks); `d ≥ 2k − 2` builds on product-matrix
    /// MSR (repair downloads the optimal `d/(d−k+1)` blocks). `p` is the
    /// data-parallelism degree, `k ≤ p ≤ n`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] for out-of-range parameters
    /// or a `d` strictly between `k` and `2k − 2` (no base construction
    /// exists there).
    pub fn new(n: usize, k: usize, d: usize, p: usize) -> Result<Self, CodeError> {
        telemetry::counter("carousel.constructions").inc();
        let _timer = telemetry::span("carousel.construct.ns");
        let params = CarouselParams::validate(n, k, d, p)?;
        let (base, base_generator) = if d == k {
            let rs = ReedSolomon::new(n, k)?;
            (Base::Rs, rs.linear().generator().clone())
        } else {
            let msr = ShortenedMsr::new(n, k, d)?;
            let gen = msr.linear_code()?.generator().clone();
            (Base::Msr(msr), gen)
        };
        let built = construction::build(&params, &base_generator)?;
        Ok(Carousel {
            params,
            code: built.code,
            layout: built.layout,
            perms: built.perms,
            base,
        })
    }

    /// The code parameters, including the derived `α`, `N₀` and `K₀`.
    pub fn params(&self) -> &CarouselParams {
        &self.params
    }

    /// The data-parallelism degree `p`.
    pub fn p(&self) -> usize {
        self.params.p
    }

    /// Units per block (`α · N₀`).
    pub fn sub(&self) -> usize {
        self.code.sub()
    }

    /// Fraction of each data-bearing block that is original data (`k/p`).
    pub fn data_fraction(&self) -> f64 {
        self.params.k as f64 / self.params.p as f64
    }

    /// Optimal repair traffic in block-sizes: `d/(d−k+1)` for the MSR
    /// regime, `k` for the RS regime.
    pub fn repair_traffic_blocks(&self) -> f64 {
        match &self.base {
            Base::Rs => self.params.k as f64,
            Base::Msr(_) => self.params.d as f64 / self.params.alpha as f64,
        }
    }

    /// Plans a whole-file read from the given available blocks, preferring
    /// the `p`-way parallel path (paper §VII) and falling back to a generic
    /// `k`-block decode.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InsufficientData`] if fewer than `k` blocks are
    /// available.
    pub fn plan_read(&self, available: &[usize]) -> Result<ReadPlan, CodeError> {
        read::plan(self, available)
    }

    /// Plans the reconstruction of one dead block's *data region* (its
    /// contiguous file chunk) from the available blocks — the degraded-read
    /// path a map task uses when its block is gone. Traffic is
    /// `k·(k/p)` block-sizes, cheaper than a full `k`-block decode whenever
    /// `p > k`.
    ///
    /// # Examples
    ///
    /// ```
    /// use carousel::Carousel;
    /// use erasure::ErasureCode;
    ///
    /// let code = Carousel::new(12, 6, 10, 12)?;
    /// let available: Vec<usize> = (1..12).collect(); // block 0 is dead
    /// let plan = code.plan_block_read(0, &available)?;
    /// // 6 * (6/12) = 3 blocks of traffic instead of a 6-block decode.
    /// assert!((plan.traffic_blocks() - 3.0).abs() < 1e-9);
    /// # Ok::<(), erasure::CodeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] for parity-only targets and
    /// [`CodeError::InsufficientData`] with fewer than `k` sources.
    pub fn plan_block_read(
        &self,
        target: usize,
        available: &[usize],
    ) -> Result<BlockReadPlan, CodeError> {
        degraded::plan_block_read(self, target, available)
    }

    /// Convenience: reads the whole file given per-node block availability
    /// (`blocks[i] = None` for unavailable blocks).
    ///
    /// # Errors
    ///
    /// Propagates [`Carousel::plan_read`] failures and size mismatches.
    pub fn read(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError> {
        let available: Vec<usize> = blocks
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.map(|_| i))
            .collect();
        let plan = self.plan_read(&available)?;
        plan.execute(blocks)
    }

    /// The stored-position permutation of block `i` (reordering step):
    /// `perm[stored] = pre-reorder row`.
    pub(crate) fn perm(&self, i: usize) -> &[usize] {
        &self.perms[i]
    }

    /// Repair plan in the MSR regime: expand the base helper/combine
    /// matrices over the `N₀` copies and permute coefficients to stored
    /// positions (paper Fig. 4b).
    fn msr_repair(
        &self,
        msr: &ShortenedMsr,
        failed: usize,
        helpers: &[usize],
    ) -> Result<RepairPlan, CodeError> {
        let n0 = self.params.n0;
        let sub = self.sub();
        let d = self.params.d;
        let (base_rows, base_combine) = msr.repair_matrices(failed, helpers)?;
        // Helper h: payload unit t (copy t) = Σ_s φ_f[s] · stored[s, t].
        let tasks: Vec<HelperTask> = helpers
            .iter()
            .zip(&base_rows)
            .map(|(&h, phi)| {
                let perm = self.perm(h);
                let mut coeffs = Matrix::zeros(n0, sub);
                for (stored, &orig) in perm.iter().enumerate() {
                    let (s, t) = (orig / n0, orig % n0);
                    coeffs.set(t, stored, phi[s]);
                }
                HelperTask { node: h, coeffs }
            })
            .collect();
        // Newcomer: stored unit q of the failed block is pre-reorder row
        // (s, t); it equals Σ_j C[s][j] · payload_j[t].
        let perm_f = self.perm(failed);
        let mut combine = Matrix::zeros(sub, d * n0);
        for (q, &orig) in perm_f.iter().enumerate() {
            let (s, t) = (orig / n0, orig % n0);
            for j in 0..d {
                combine.set(q, j * n0 + t, base_combine.get(s, j));
            }
        }
        Ok(RepairPlan {
            failed,
            helpers: tasks,
            combine,
        })
    }

    /// Repair plan in the RS regime: repair-by-decode over the Carousel
    /// generator itself (helpers ship whole blocks).
    fn rs_repair(&self, failed: usize, helpers: &[usize]) -> Result<RepairPlan, CodeError> {
        let sub = self.sub();
        let rows: Vec<usize> = helpers
            .iter()
            .flat_map(|&h| h * sub..(h + 1) * sub)
            .collect();
        let stacked_inv = self
            .code
            .generator()
            .select_rows(&rows)
            .inverse()
            .ok_or(CodeError::SingularSelection)?;
        let combine = &self.code.node_generator(failed) * &stacked_inv;
        let tasks = helpers
            .iter()
            .map(|&node| HelperTask {
                node,
                coeffs: Matrix::identity(sub),
            })
            .collect();
        Ok(RepairPlan {
            failed,
            helpers: tasks,
            combine,
        })
    }
}

impl ErasureCode for Carousel {
    fn name(&self) -> String {
        let p = &self.params;
        format!("Carousel({},{},{},{})", p.n, p.k, p.d, p.p)
    }

    fn linear(&self) -> &LinearCode {
        &self.code
    }

    fn d(&self) -> usize {
        self.params.d
    }

    fn data_layout(&self) -> DataLayout {
        self.layout.clone()
    }

    fn repair_plan(&self, failed: usize, helpers: &[usize]) -> Result<RepairPlan, CodeError> {
        let n = self.params.n;
        if failed >= n {
            return Err(CodeError::NodeOutOfRange { node: failed, n });
        }
        if helpers.contains(&failed) {
            return Err(CodeError::BadHelperSet {
                reason: format!("helper set contains the failed block {failed}"),
            });
        }
        if helpers.len() != self.params.d {
            return Err(CodeError::BadHelperSet {
                reason: format!(
                    "repair needs exactly d = {} helpers, got {}",
                    self.params.d,
                    helpers.len()
                ),
            });
        }
        for (idx, &h) in helpers.iter().enumerate() {
            if h >= n {
                return Err(CodeError::NodeOutOfRange { node: h, n });
            }
            if helpers[idx + 1..].contains(&h) {
                return Err(CodeError::DuplicateNode { node: h });
            }
        }
        match &self.base {
            Base::Rs => self.rs_repair(failed, helpers),
            Base::Msr(msr) => self.msr_repair(msr, failed, helpers),
        }
    }
}
