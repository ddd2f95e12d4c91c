//! What the benchmark runs: codes, sizes, workloads and the seeded
//! generators that turn a seed into object contents and operations.

use std::fmt;

/// The two codes every workload compares, at equal 2x storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `rs(8,4)`: reads touch the `k = 4` systematic nodes.
    Rs,
    /// `carousel(8,4,6,8)`: `p = n = 8`, MSR regime, `sub = 6`.
    Carousel,
}

/// Both codes, in the order objects alternate between them.
pub const CODES: [Code; 2] = [Code::Rs, Code::Carousel];

impl Code {
    /// The spec string `access::PutOptions::code` takes.
    pub fn spec(self) -> &'static str {
        match self {
            Code::Rs => "rs(8,4)",
            Code::Carousel => "carousel(8,4,6,8)",
        }
    }

    /// The suffix of per-code metric names.
    pub fn suffix(self) -> &'static str {
        match self {
            Code::Rs => "rs",
            Code::Carousel => "carousel",
        }
    }
}

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bulk whole-object puts and gets on a healthy cluster.
    Stream,
    /// Small ranged reads and in-place writes over a preloaded set.
    Point,
    /// Whole-object reads with one node failed, then repair.
    Degraded,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [Workload::Stream, Workload::Point, Workload::Degraded];

impl Workload {
    /// Parses a `--workload` argument.
    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Point => "point",
            Workload::Degraded => "degraded",
        }
    }

    /// The operation label behind the `read_*` metrics.
    pub fn read_op(self) -> &'static str {
        match self {
            Workload::Stream => "get",
            Workload::Point => "get_range",
            Workload::Degraded => "degraded_get",
        }
    }

    /// The operation label behind the `write_*` metrics.
    pub fn write_op(self) -> &'static str {
        match self {
            Workload::Stream => "put",
            Workload::Point => "write_range",
            Workload::Degraded => "repair",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Object and operation sizes. [`Sizes::FULL`] is the benchmark;
/// [`Sizes::TINY`] keeps the same shapes at a few KiB for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Bytes per encoded block; a multiple of Carousel's `sub = 6`.
    pub block_bytes: usize,
    /// A `stream` object: 8 stripes of `k * block_bytes`.
    pub stream_object: usize,
    /// A `point` object: 2 stripes.
    pub point_object: usize,
    /// `point` objects per code.
    pub point_keys: usize,
    /// A `degraded` object: 8 stripes.
    pub degraded_object: usize,
    /// `degraded` objects per code.
    pub degraded_objects: usize,
    /// `point` read lengths, in equal shares.
    pub range_lens: [u64; 3],
    /// `point` write length.
    pub write_len: u64,
}

impl Sizes {
    /// The benchmark's sizes: 768 KiB blocks, 24 MiB and 6 MiB objects.
    pub const FULL: Sizes = Sizes {
        block_bytes: 786_432,
        stream_object: 24 << 20,
        point_object: 6 << 20,
        point_keys: 8,
        degraded_object: 24 << 20,
        degraded_objects: 3,
        range_lens: [4 << 10, 16 << 10, 64 << 10],
        write_len: 4 << 10,
    };

    /// The same stripe counts with 6 KiB blocks.
    pub const TINY: Sizes = Sizes {
        block_bytes: 6 << 10,
        stream_object: 8 * 4 * (6 << 10),
        point_object: 2 * 4 * (6 << 10),
        point_keys: 8,
        degraded_object: 8 * 4 * (6 << 10),
        degraded_objects: 3,
        range_lens: [64, 256, 1024],
        write_len: 64,
    };

    /// Original bytes per stripe (`k = 4` blocks for both codes).
    pub fn stripe_bytes(&self) -> usize {
        4 * self.block_bytes
    }
}

/// Zipf exponent of `point` key popularity.
pub const ZIPF_THETA: f64 = 0.99;

/// splitmix64: small, fast and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Derives an independent seed for a sub-stream (a round, an object).
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xD605_BBB5_8C8A_BBCB)).next_u64()
}

/// `len` bytes of object content fixed by `seed`.
pub fn content(seed: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    Rng::new(seed).fill(&mut buf);
    buf
}

/// Zipf-distributed ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `r` has weight `1 / (r + 1)^theta`.
    pub fn new(n: usize, theta: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// One `point` operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointOp {
    /// `get_range(name, offset, len)`.
    Read {
        /// Which code's object set.
        code: Code,
        /// Object index within the set.
        key: usize,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u64,
    },
    /// `write_range(name, offset, content(fill, write_len))`.
    Write {
        /// Which code's object set.
        code: Code,
        /// Object index within the set.
        key: usize,
        /// Byte offset.
        offset: u64,
        /// Seed of the written bytes.
        fill: u64,
    },
}

/// The endless, seed-determined `point` operation sequence. The mix is
/// exact rather than sampled, so that seeds differ only in keys, offsets
/// and written bytes: every block of ten operations is on one code (the
/// codes alternate by block) and holds nine reads, three of each length,
/// then one write. Keys follow Zipf; offsets are uniform.
#[derive(Debug, Clone)]
pub struct PointOps {
    rng: Rng,
    zipf: Zipf,
    sizes: Sizes,
    index: usize,
}

impl PointOps {
    /// The sequence for `seed`.
    pub fn new(seed: u64, sizes: Sizes) -> PointOps {
        PointOps {
            rng: Rng::new(seed),
            zipf: Zipf::new(sizes.point_keys, ZIPF_THETA),
            sizes,
            index: 0,
        }
    }
}

impl Iterator for PointOps {
    type Item = PointOp;

    fn next(&mut self) -> Option<PointOp> {
        let (block, slot) = (self.index / 10, self.index % 10);
        self.index += 1;
        let code = CODES[block % 2];
        let key = self.zipf.sample(&mut self.rng);
        let object = self.sizes.point_object as u64;
        if slot == 9 {
            let len = self.sizes.write_len;
            Some(PointOp::Write {
                code,
                key,
                offset: self.rng.below(object - len + 1),
                fill: self.rng.next_u64(),
            })
        } else {
            let len = self.sizes.range_lens[slot % 3];
            Some(PointOp::Read {
                code,
                key,
                offset: self.rng.below(object - len + 1),
                len,
            })
        }
    }
}

/// Object name of a `point` key.
pub fn point_name(code: Code, key: usize) -> String {
    format!("pt-{}-{key}", code.suffix())
}
