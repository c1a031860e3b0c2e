//! `557.xz_r` stand-in: an LZ77 sliding-window compressor with an
//! adaptive range coder.
//!
//! The SPEC benchmark round-trips data through LZMA2. This mini keeps the
//! two phases whose balance the paper's xz analysis is about: a
//! hash-chain *match finder* over a bounded dictionary (the
//! "sliding-window compression" the paper describes) and an entropy-coding
//! backend (binary adaptive range coder). The dictionary-size knob
//! reproduces the paper's discovery that data shorter than the dictionary
//! skews execution from compression toward dictionary lookups.
//!
//! The benchmark run mirrors SPEC's: decompress → compress → decompress,
//! validating both round trips.

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::{FnId, Profiler};
use alberta_workloads::compress::{self, CompressWorkload};
use alberta_workloads::{Named, Scale};

const HASH_REGION: u64 = 0x8000_0000;
const WINDOW_REGION: u64 = 0x9000_0000;
const RC_REGION: u64 = 0xA000_0000;

/// Token stream element produced by the match finder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Literal(u8),
    Match { dist: u32, len: u32 },
}

const MIN_MATCH: u32 = 3;
const MAX_MATCH: u32 = 64;
const HASH_BITS: u32 = 12;
const MAX_CHAIN: usize = 16;

struct Fns {
    compress: FnId,
    decompress: FnId,
    find_match: FnId,
    insert: FnId,
    encode: FnId,
    decode: FnId,
}

fn register(profiler: &mut Profiler) -> Fns {
    Fns {
        // Root scopes for the two driver phases: kernels nest under
        // them, so call paths read `xz::compress;xz::find_match` in
        // flamegraphs. They retire no work themselves (attribution
        // follows the innermost frame).
        compress: profiler.register_function("xz::compress", 600),
        decompress: profiler.register_function("xz::decompress", 450),
        find_match: profiler.register_function("xz::find_match", 1800),
        insert: profiler.register_function("xz::insert_hash", 500),
        encode: profiler.register_function("xz::rc_encode", 1500),
        decode: profiler.register_function("xz::rc_decode", 1300),
    }
}

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(506832829)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(2654435761))
        .wrapping_add((data[i + 2] as u32).wrapping_mul(2246822519));
    (h >> (32 - HASH_BITS)) as usize
}

/// LZ77 tokenization with hash chains over a bounded dictionary.
#[allow(clippy::needless_range_loop)] // `k` is a position fed to hash3, not just an index
fn tokenize(data: &[u8], dict_bytes: usize, profiler: &mut Profiler, fns: &Fns) -> Vec<Token> {
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut chain = vec![usize::MAX; data.len()];
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0u32;
        let mut best_dist = 0u32;
        if i + MIN_MATCH as usize <= data.len() {
            profiler.enter(fns.find_match);
            let h = hash3(data, i);
            profiler.load(HASH_REGION + h as u64 * 8);
            let mut cand = head[h];
            let mut probes = 0;
            while cand != usize::MAX && probes < MAX_CHAIN {
                let within_window = i - cand <= dict_bytes;
                profiler.branch(0, within_window);
                if !within_window {
                    break;
                }
                // Extend the match.
                let mut len = 0u32;
                while (len as usize) < MAX_MATCH as usize
                    && i + (len as usize) < data.len()
                    && data[cand + len as usize] == data[i + len as usize]
                {
                    profiler.load(WINDOW_REGION + (cand as u64 + len as u64) % (1 << 24));
                    len += 1;
                }
                let better = len > best_len;
                profiler.branch(1, better);
                profiler.retire(2);
                if better {
                    best_len = len;
                    best_dist = (i - cand) as u32;
                }
                cand = chain[cand];
                probes += 1;
            }
            profiler.exit();
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                dist: best_dist,
                len: best_len,
            });
            // Insert every covered position into the chains.
            profiler.enter(fns.insert);
            for k in i..(i + best_len as usize).min(data.len().saturating_sub(2)) {
                let h = hash3(data, k);
                chain[k] = head[h];
                head[h] = k;
                profiler.store(HASH_REGION + h as u64 * 8);
            }
            profiler.exit();
            i += best_len as usize;
        } else {
            tokens.push(Token::Literal(data[i]));
            if i + 2 < data.len() {
                profiler.enter(fns.insert);
                let h = hash3(data, i);
                chain[i] = head[h];
                head[h] = i;
                profiler.store(HASH_REGION + h as u64 * 8);
                profiler.exit();
            }
            i += 1;
        }
    }
    tokens
}

/// Binary adaptive range coder — the LZMA construction with an explicit
/// carry cache on the encode side. Probabilities are 11-bit (0..2048).
struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl RangeEncoder {
    fn new() -> Self {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            self.out.push(self.cache.wrapping_add(carry));
            for _ in 1..self.cache_size {
                self.out.push(0xFFu8.wrapping_add(carry));
            }
            self.cache = (self.low >> 24) as u8;
            self.cache_size = 0;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    fn encode_bit(&mut self, prob: &mut u16, bit: bool) {
        let bound = (self.range >> 11) * (*prob as u32);
        if !bit {
            self.range = bound;
            *prob += (2048 - *prob) >> 5;
        } else {
            self.low += bound as u64;
            self.range -= bound;
            *prob -= *prob >> 5;
        }
        while self.range < (1 << 24) {
            self.range <<= 8;
            self.shift_low();
        }
    }

    fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    fn new(input: &'a [u8]) -> Self {
        let mut d = RangeDecoder {
            code: 0,
            range: u32::MAX,
            input,
            pos: 1, // the first emitted byte is always the zero cache
        };
        for _ in 0..4 {
            d.code = (d.code << 8) | d.next_byte() as u32;
        }
        d
    }

    fn next_byte(&mut self) -> u8 {
        let b = self.input.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn decode_bit(&mut self, prob: &mut u16) -> bool {
        let bound = (self.range >> 11) * (*prob as u32);
        let bit = self.code >= bound;
        if !bit {
            self.range = bound;
            *prob += (2048 - *prob) >> 5;
        } else {
            self.code -= bound;
            self.range -= bound;
            *prob -= *prob >> 5;
        }
        while self.range < (1 << 24) {
            self.code = (self.code << 8) | self.next_byte() as u32;
            self.range <<= 8;
        }
        bit
    }
}

/// Adaptive bit models for tokens.
struct Models {
    is_match: u16,
    literal: Vec<u16>, // 256-leaf binary tree (255 internal nodes + root pad)
    len_bits: Vec<u16>,
    dist_bits: Vec<u16>,
}

impl Models {
    fn new() -> Self {
        Models {
            is_match: 1024,
            literal: vec![1024; 512],
            len_bits: vec![1024; 8],
            dist_bits: vec![1024; 32],
        }
    }
}

fn encode_symbol_tree(enc: &mut RangeEncoder, tree: &mut [u16], byte: u8) {
    let mut node = 1usize;
    for i in (0..8).rev() {
        let bit = (byte >> i) & 1 == 1;
        enc.encode_bit(&mut tree[node], bit);
        node = node * 2 + bit as usize;
    }
}

fn decode_symbol_tree(dec: &mut RangeDecoder<'_>, tree: &mut [u16]) -> u8 {
    let mut node = 1usize;
    for _ in 0..8 {
        let bit = dec.decode_bit(&mut tree[node]);
        node = node * 2 + bit as usize;
    }
    (node - 256) as u8
}

fn encode_uint(enc: &mut RangeEncoder, models: &mut [u16], value: u32) {
    for (i, m) in models.iter_mut().enumerate() {
        let bit = (value >> i) & 1 == 1;
        enc.encode_bit(m, bit);
    }
}

fn decode_uint(dec: &mut RangeDecoder<'_>, models: &mut [u16]) -> u32 {
    let mut v = 0u32;
    for (i, m) in models.iter_mut().enumerate() {
        if dec.decode_bit(m) {
            v |= 1 << i;
        }
    }
    v
}

/// Compresses `data` with the given dictionary size.
pub fn compress(data: &[u8], dict_bytes: usize, profiler: &mut Profiler) -> Vec<u8> {
    let fns = register(profiler);
    profiler.enter(fns.compress);
    let tokens = tokenize(data, dict_bytes.max(1), profiler, &fns);
    profiler.enter(fns.encode);
    let mut enc = RangeEncoder::new();
    let mut models = Models::new();
    for token in &tokens {
        profiler.load(RC_REGION + (enc.out.len() as u64 % (1 << 20)));
        profiler.retire(6);
        match *token {
            Token::Literal(b) => {
                enc.encode_bit(&mut models.is_match, false);
                encode_symbol_tree(&mut enc, &mut models.literal, b);
                profiler.branch(2, false);
            }
            Token::Match { dist, len } => {
                enc.encode_bit(&mut models.is_match, true);
                encode_uint(&mut enc, &mut models.len_bits, len);
                encode_uint(&mut enc, &mut models.dist_bits, dist);
                profiler.branch(2, true);
            }
        }
    }
    // Terminator: a match with len 0.
    enc.encode_bit(&mut models.is_match, true);
    encode_uint(&mut enc, &mut models.len_bits, 0);
    encode_uint(&mut enc, &mut models.dist_bits, 0);
    let out = enc.finish();
    profiler.exit();
    profiler.exit(); // xz::compress
    out
}

/// Decompresses a stream produced by [`compress()`].
///
/// # Errors
///
/// Returns a message when the stream references data outside the window
/// (corruption).
pub fn decompress(input: &[u8], profiler: &mut Profiler) -> Result<Vec<u8>, String> {
    let fns = register(profiler);
    profiler.enter(fns.decompress);
    profiler.enter(fns.decode);
    let mut dec = RangeDecoder::new(input);
    let mut models = Models::new();
    let mut out: Vec<u8> = Vec::new();
    loop {
        profiler.retire(5);
        if dec.decode_bit(&mut models.is_match) {
            let len = decode_uint(&mut dec, &mut models.len_bits);
            let dist = decode_uint(&mut dec, &mut models.dist_bits);
            if len == 0 {
                break; // terminator
            }
            if dist as usize > out.len() || dist == 0 {
                profiler.exit();
                profiler.exit(); // xz::decompress
                return Err(format!(
                    "corrupt stream: distance {dist} exceeds window {}",
                    out.len()
                ));
            }
            for _ in 0..len {
                let b = out[out.len() - dist as usize];
                profiler.load(WINDOW_REGION + (out.len() as u64 % (1 << 24)));
                out.push(b);
            }
            profiler.branch(3, true);
        } else {
            let b = decode_symbol_tree(&mut dec, &mut models.literal);
            out.push(b);
            profiler.branch(3, false);
        }
        if out.len() > (1 << 28) {
            profiler.exit();
            profiler.exit(); // xz::decompress
            return Err("corrupt stream: output exceeds sanity bound".to_owned());
        }
    }
    profiler.exit();
    profiler.exit(); // xz::decompress
    Ok(out)
}

/// The xz mini-benchmark.
#[derive(Debug)]
pub struct MiniXz {
    workloads: Vec<Named<CompressWorkload>>,
}

impl MiniXz {
    /// Builds the benchmark with its standard workload set.
    pub fn new(scale: Scale) -> Self {
        MiniXz {
            workloads: standard_set(
                scale,
                compress::train,
                compress::refrate,
                compress::alberta_set,
            ),
        }
    }
}

impl Benchmark for MiniXz {
    fn name(&self) -> &'static str {
        "557.xz_r"
    }

    fn short_name(&self) -> &'static str {
        "xz"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        // SPEC flow: the input "file" is stored compressed; decompress,
        // recompress, decompress again, validate.
        let stored = compress(&w.data, w.dict_bytes, profiler);
        let stage = |reason: String| BenchError::InvalidInput {
            benchmark: "557.xz_r",
            reason,
        };
        let unpacked = decompress(&stored, profiler).map_err(stage)?;
        if unpacked != w.data {
            return Err(BenchError::InvalidInput {
                benchmark: "557.xz_r",
                reason: "round-trip mismatch after first decompression".to_owned(),
            });
        }
        let repacked = compress(&unpacked, w.dict_bytes, profiler);
        let final_data =
            decompress(&repacked, profiler).map_err(|reason| BenchError::InvalidInput {
                benchmark: "557.xz_r",
                reason,
            })?;
        if final_data != w.data {
            return Err(BenchError::InvalidInput {
                benchmark: "557.xz_r",
                reason: "round-trip mismatch after recompression".to_owned(),
            });
        }
        Ok(RunOutput {
            checksum: fnv1a([
                stored.len() as u64,
                repacked.len() as u64,
                fnv1a(w.data.iter().map(|&b| b as u64)),
            ]),
            work: w.data.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_workloads::compress::{CompressGen, DataKind};

    fn roundtrip(data: &[u8], dict: usize) -> (usize, Vec<u8>) {
        let mut p = Profiler::default();
        let packed = compress(data, dict, &mut p);
        let unpacked = decompress(&packed, &mut p).unwrap();
        let _ = p.finish();
        (packed.len(), unpacked)
    }

    #[test]
    fn roundtrip_identity_on_structured_data() {
        for kind in [
            DataKind::Repetitive { phrase_len: 17 },
            DataKind::Text,
            DataKind::Noise,
            DataKind::Mixed {
                noise_fraction: 0.5,
            },
        ] {
            let data = CompressGen {
                size: 4096,
                kind,
                dict_bytes: 1024,
            }
            .generate(1)
            .data;
            let (_, unpacked) = roundtrip(&data, 1024);
            assert_eq!(unpacked, data, "round trip failed for {kind:?}");
        }
    }

    #[test]
    fn roundtrip_identity_on_edge_cases() {
        for data in [vec![], vec![0u8], vec![7u8; 3], b"abcabcabcabc".to_vec()] {
            let (_, unpacked) = roundtrip(&data, 64);
            assert_eq!(unpacked, data);
        }
    }

    #[test]
    fn repetitive_data_compresses_much_better_than_noise() {
        let rep = CompressGen {
            size: 8192,
            kind: DataKind::Repetitive { phrase_len: 23 },
            dict_bytes: 4096,
        }
        .generate(2)
        .data;
        let noise = CompressGen {
            size: 8192,
            kind: DataKind::Noise,
            dict_bytes: 4096,
        }
        .generate(2)
        .data;
        let (rep_size, _) = roundtrip(&rep, 4096);
        let (noise_size, _) = roundtrip(&noise, 4096);
        assert!(
            rep_size * 4 < noise_size,
            "repetitive {rep_size} vs noise {noise_size}"
        );
        assert!(rep_size * 8 < rep.len(), "strong compression expected");
    }

    #[test]
    fn small_dictionary_finds_fewer_matches() {
        // Repeats at distance 2048 are invisible to a 1 KiB window. The
        // phrase itself is pseudo-random so it contains no short-distance
        // repeats of its own.
        let phrase: Vec<u8> = (0..2048u64)
            .map(|i| {
                let mut z = i.wrapping_add(0x9E3779B97F4A7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                (z >> 32) as u8
            })
            .collect();
        let mut data = phrase.clone();
        data.extend(&phrase);
        let (big_dict, _) = roundtrip(&data, 4096);
        let (small_dict, _) = roundtrip(&data, 1024);
        assert!(
            big_dict < small_dict,
            "large dictionary must win: {big_dict} vs {small_dict}"
        );
    }

    #[test]
    fn corruption_is_detected_not_panicking() {
        let data = b"hello hello hello hello hello".to_vec();
        let mut p = Profiler::default();
        let mut packed = compress(&data, 64, &mut p);
        // Truncate hard: decoder must fail or produce different bytes, not
        // panic or hang.
        packed.truncate(packed.len() / 2);
        match decompress(&packed, &mut p) {
            Ok(out) => assert_ne!(out, data),
            Err(msg) => assert!(!msg.is_empty()),
        }
        let _ = p.finish();
    }

    #[test]
    fn benchmark_run_validates_roundtrip() {
        let b = MiniXz::new(Scale::Test);
        let mut p = Profiler::default();
        let out = b.run("alberta.repetitive.small", &mut p).unwrap();
        assert!(out.work > 0);
        let profile = p.finish();
        let cov = profile.coverage_percent();
        assert!(cov["xz::find_match"] > 1.0, "{cov:?}");
        assert!(cov["xz::rc_encode"] > 0.1, "{cov:?}");
    }

    #[test]
    fn determinism() {
        let b = MiniXz::new(Scale::Test);
        let mut p1 = Profiler::default();
        let mut p2 = Profiler::default();
        assert_eq!(
            b.run("train", &mut p1).unwrap(),
            b.run("train", &mut p2).unwrap()
        );
    }
}
