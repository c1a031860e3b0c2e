//! Workload generator for `557.xz_r` — byte streams with controlled
//! compressibility and dictionary pressure.
//!
//! The paper's xz contribution is the discovery that the relationship
//! between *file size* and *dictionary size* skews execution between the
//! match-finder and the literal coder: repeating a file short enough to fit
//! in the sliding-window dictionary turns compression into dictionary
//! lookups. Its eight workloads therefore span very compressible and
//! barely compressible data, both smaller and larger than the dictionary.
//! This generator reproduces all four quadrants with two knobs:
//! [`CompressGen::entropy`] and the size/dictionary ratio.

use crate::{Named, Scale, SeededRng};

/// An xz workload: the bytes to round-trip plus the dictionary size the
//  compressor should use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressWorkload {
    /// Input bytes (decompressed form).
    pub data: Vec<u8>,
    /// Sliding-window dictionary size in bytes.
    pub dict_bytes: usize,
}

/// How the generated data is structured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataKind {
    /// A short phrase repeated verbatim — maximally compressible.
    Repetitive {
        /// Length of the repeated phrase.
        phrase_len: usize,
    },
    /// Markov-chain text with word-like statistics — moderately
    /// compressible, like logs or prose.
    Text,
    /// Uniform random bytes — incompressible.
    Noise,
    /// Text with a fraction of noise blocks interleaved.
    Mixed {
        /// Fraction of noise blocks in `[0, 1]`.
        noise_fraction: f64,
    },
}

/// Parameters of the compression workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressGen {
    /// Output size in bytes.
    pub size: usize,
    /// Data structure/entropy profile.
    pub kind: DataKind,
    /// Dictionary size in bytes.
    pub dict_bytes: usize,
}

impl CompressGen {
    /// Generates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `size` or `dict_bytes` is zero.
    pub fn generate(&self, seed: u64) -> CompressWorkload {
        assert!(self.size > 0, "size must be positive");
        assert!(self.dict_bytes > 0, "dictionary must be positive");
        let mut rng = SeededRng::new(seed);
        let data = match self.kind {
            DataKind::Repetitive { phrase_len } => {
                let phrase: Vec<u8> = (0..phrase_len.max(1))
                    .map(|_| b'a' + rng.below(26) as u8)
                    .collect();
                phrase.iter().cycle().take(self.size).copied().collect()
            }
            DataKind::Text => markov_text(&mut rng, self.size),
            DataKind::Noise => (0..self.size).map(|_| rng.below(256) as u8).collect(),
            DataKind::Mixed { noise_fraction } => {
                let mut out = Vec::with_capacity(self.size);
                let block = 512;
                while out.len() < self.size {
                    let remaining = self.size - out.len();
                    let n = block.min(remaining);
                    if rng.chance(noise_fraction) {
                        out.extend((0..n).map(|_| rng.below(256) as u8));
                    } else {
                        out.extend(markov_text(&mut rng, n));
                    }
                }
                out
            }
        };
        CompressWorkload {
            data,
            dict_bytes: self.dict_bytes,
        }
    }

    /// Shannon entropy estimate of the generated data in bits/byte,
    /// useful for asserting generator behaviour.
    pub fn entropy(data: &[u8]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut counts = [0u64; 256];
        for &b in data {
            counts[b as usize] += 1;
        }
        let n = data.len() as f64;
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum()
    }
}

/// Word-like Markov text: words drawn from a Zipf-ish vocabulary joined by
/// spaces with sentence structure.
fn markov_text(rng: &mut SeededRng, size: usize) -> Vec<u8> {
    const VOCAB: [&str; 24] = [
        "the",
        "of",
        "and",
        "to",
        "in",
        "benchmark",
        "workload",
        "cache",
        "branch",
        "cycle",
        "time",
        "run",
        "input",
        "data",
        "loop",
        "code",
        "memory",
        "miss",
        "rate",
        "mean",
        "suite",
        "spec",
        "alberta",
        "profile",
    ];
    let mut out = Vec::with_capacity(size + 16);
    let mut sentence_len = 0;
    while out.len() < size {
        // Zipf-ish: favour early vocabulary entries.
        let r = rng.unit() * rng.unit();
        let idx = (r * VOCAB.len() as f64) as usize;
        out.extend_from_slice(VOCAB[idx.min(VOCAB.len() - 1)].as_bytes());
        sentence_len += 1;
        if sentence_len > 8 && rng.chance(0.3) {
            out.extend_from_slice(b". ");
            sentence_len = 0;
        } else {
            out.push(b' ');
        }
    }
    out.truncate(size);
    out
}

/// Default dictionary size used by the standard sets (64 KiB at Test
/// scale; the mini-xz default).
pub(crate) fn standard_dict(scale: Scale) -> usize {
    scale.apply(16 * 1024)
}

/// The eight Alberta workloads: {repetitive, text, noise, mixed} ×
/// {smaller than dictionary, larger than dictionary} — exactly the design
/// space the paper says its eight xz workloads cover. The Table II row for
/// xz lists 12 workloads (the Alberta eight plus SPEC's own); we ship 12
/// by adding four intermediate points.
pub fn alberta_set(scale: Scale) -> Vec<Named<CompressWorkload>> {
    let dict = standard_dict(scale);
    let small = dict / 2;
    let large = dict * 4;
    let kinds: [(&str, DataKind); 4] = [
        ("repetitive", DataKind::Repetitive { phrase_len: 37 }),
        ("text", DataKind::Text),
        ("noise", DataKind::Noise),
        (
            "mixed",
            DataKind::Mixed {
                noise_fraction: 0.4,
            },
        ),
    ];
    let mut out = Vec::new();
    for (i, (kname, kind)) in kinds.iter().enumerate() {
        for (sname, size) in [("small", small), ("large", large)] {
            let gen = CompressGen {
                size,
                kind: *kind,
                dict_bytes: dict,
            };
            out.push(Named::new(
                format!("alberta.{kname}.{sname}"),
                gen.generate(0xA20 + i as u64),
            ));
        }
    }
    // Four intermediate sizes on text data to reach the paper's 12.
    for (j, mult) in [1usize, 2, 3, 6].iter().enumerate() {
        let gen = CompressGen {
            size: dict * mult,
            kind: DataKind::Mixed {
                noise_fraction: 0.15,
            },
            dict_bytes: dict,
        };
        out.push(Named::new(
            format!("alberta.sweep.{mult}x"),
            gen.generate(0xB30 + j as u64),
        ));
    }
    out
}

/// Canonical training workload: medium text, dictionary-sized.
pub fn train(scale: Scale) -> Named<CompressWorkload> {
    let dict = standard_dict(scale);
    let gen = CompressGen {
        size: dict,
        kind: DataKind::Text,
        dict_bytes: dict,
    };
    Named::new("train", gen.generate(0x7241))
}

/// Canonical reference workload: large mixed data.
pub fn refrate(scale: Scale) -> Named<CompressWorkload> {
    let dict = standard_dict(scale);
    let gen = CompressGen {
        size: dict * 6,
        kind: DataKind::Mixed {
            noise_fraction: 0.3,
        },
        dict_bytes: dict,
    };
    Named::new("refrate", gen.generate(0x43F))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(kind: DataKind) -> CompressWorkload {
        CompressGen {
            size: 8192,
            kind,
            dict_bytes: 4096,
        }
        .generate(1)
    }

    #[test]
    fn entropy_ordering_matches_kinds() {
        // Order-0 byte entropy cannot see repetition structure, so the
        // repetitive kind is checked for exact periodicity instead.
        let rep = gen(DataKind::Repetitive { phrase_len: 37 });
        for (i, &b) in rep.data.iter().enumerate().skip(37) {
            assert_eq!(b, rep.data[i - 37], "phrase must repeat verbatim");
        }
        let text = CompressGen::entropy(&gen(DataKind::Text).data);
        let noise = CompressGen::entropy(&gen(DataKind::Noise).data);
        assert!(text < noise, "text {text} < noise {noise}");
        assert!(noise > 7.5, "uniform bytes approach 8 bits/byte");
        assert!(text < 5.0, "word-like text is far from uniform");
    }

    #[test]
    fn mixed_interpolates() {
        let lo = CompressGen::entropy(
            &gen(DataKind::Mixed {
                noise_fraction: 0.1,
            })
            .data,
        );
        let hi = CompressGen::entropy(
            &gen(DataKind::Mixed {
                noise_fraction: 0.9,
            })
            .data,
        );
        assert!(lo < hi);
    }

    #[test]
    fn sizes_are_exact() {
        for kind in [
            DataKind::Repetitive { phrase_len: 10 },
            DataKind::Text,
            DataKind::Noise,
            DataKind::Mixed {
                noise_fraction: 0.5,
            },
        ] {
            assert_eq!(gen(kind).data.len(), 8192);
        }
    }

    #[test]
    fn alberta_set_covers_both_sides_of_dictionary() {
        let set = alberta_set(Scale::Test);
        assert_eq!(set.len(), 12, "Table II lists 12 xz workloads");
        let dict = standard_dict(Scale::Test);
        assert!(set.iter().any(|w| w.workload.data.len() < dict));
        assert!(set.iter().any(|w| w.workload.data.len() > dict));
    }

    #[test]
    fn determinism() {
        let g = CompressGen {
            size: 1000,
            kind: DataKind::Text,
            dict_bytes: 512,
        };
        assert_eq!(g.generate(7), g.generate(7));
        assert_ne!(g.generate(7), g.generate(8));
    }

    #[test]
    fn entropy_of_empty_is_zero() {
        assert_eq!(CompressGen::entropy(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn zero_size_panics() {
        let _ = CompressGen {
            size: 0,
            kind: DataKind::Noise,
            dict_bytes: 1,
        }
        .generate(0);
    }
}
