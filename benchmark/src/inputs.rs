//! Input generation. Everything a workload feeds the program derives from
//! `--seed` through these generators, so the same seed gives the same
//! graph, the same query stream and the same edit stream.

use dim_graph::{DatasetProfile, EdgeOp, Graph};
use dim_serve::QueryRequest;

/// SplitMix64: the harness's own stream, independent of whichever RNG the
/// program links.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Derives an independent stream for one purpose from the run seed.
pub fn substream(seed: u64, purpose: u64) -> SplitMix {
    let mut s = SplitMix::new(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
    s.next_u64();
    s
}

/// Zipf(1.0) over node ids `0..n`: id `r` is drawn with weight `1/(r+1)`.
/// The generators put hubs at low ids, so popular query seeds and edited
/// endpoints are the high-degree nodes, as in a real feed.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / (r as f64 + 1.0);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> u32 {
        let total = *self.cumulative.last().expect("non-empty domain");
        let x = rng.next_f64() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1) as u32
    }
}

/// The LiveJournal-shaped profile graph every workload runs on (sparse
/// power law, weighted-cascade probabilities).
pub fn profile_graph(scale: f64, seed: u64) -> Graph {
    DatasetProfile::LiveJournal.generate(scale, seed)
}

/// The three request classes of the serving mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// `Spread` of 4 seeds: 94 % of the stream.
    Spread4,
    /// `Spread` of 50 seeds: 5 %.
    Spread50,
    /// `TopK` with k = 10: 1 %.
    TopK,
}

/// One client's pre-generated query pool (cycled during the timed phases,
/// so generation never competes with the server for the two cores).
pub fn query_pool(
    zipf: &Zipf,
    seed: u64,
    client: usize,
    len: usize,
) -> Vec<(QueryClass, QueryRequest)> {
    let mut rng = substream(seed, 0x5EED_0000 + client as u64);
    (0..len)
        .map(|_| {
            let draw = rng.below(100);
            let spread = |rng: &mut SplitMix, count: usize| QueryRequest::Spread {
                seeds: (0..count).map(|_| zipf.sample(rng)).collect(),
            };
            match draw {
                0 => (
                    QueryClass::TopK,
                    QueryRequest::TopK {
                        k: 10,
                        include: Vec::new(),
                        exclude: Vec::new(),
                    },
                ),
                1..=5 => (QueryClass::Spread50, spread(&mut rng, 50)),
                _ => (QueryClass::Spread4, spread(&mut rng, 4)),
            }
        })
        .collect()
}

/// One edit batch: `edits` ops cycling insert → reweight → delete on edges
/// `u → v` whose source is Zipf-skewed (popular accounts gain and lose
/// followers) and whose target is uniform. An op on `u → v` changes `v`'s
/// in-list, so it invalidates the RR sets that contain `v`; with uniform
/// targets a batch repairs a few percent of the sketch. (Skewing the target
/// too makes every batch hit a hub, which every large RR set contains, and
/// the "incremental" repair re-samples a quarter of all sets and nearly all
/// of the sampling cost; see the README.) Delta semantics make every op
/// valid on any graph (inserts overwrite, reweights and deletes of a
/// missing edge are no-ops), so no batch can fail to apply.
pub fn edit_batch(zipf: &Zipf, rng: &mut SplitMix, n: usize, edits: usize) -> Vec<EdgeOp> {
    (0..edits)
        .map(|i| {
            let u = zipf.sample(rng);
            let mut v = rng.below(n as u64) as u32;
            if v == u {
                v = (u + 1) % n as u32;
            }
            match i % 3 {
                0 => EdgeOp::Insert {
                    u,
                    v,
                    p: 0.05 + 0.25 * rng.next_f64() as f32,
                },
                1 => EdgeOp::Reweight {
                    u,
                    v,
                    p: 0.05 + 0.25 * rng.next_f64() as f32,
                },
                _ => EdgeOp::Delete { u, v },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_to_low_ids_and_in_range() {
        let z = Zipf::new(1000);
        let mut rng = SplitMix::new(1);
        let draws: Vec<u32> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let low = draws.iter().filter(|&&d| d < 10).count();
        assert!(
            low > 3000,
            "top 1 % of ids draws ~39 % of the mass, got {low}"
        );
    }

    #[test]
    fn same_seed_same_inputs() {
        let z = Zipf::new(500);
        assert_eq!(query_pool(&z, 7, 1, 64), query_pool(&z, 7, 1, 64));
        assert_ne!(query_pool(&z, 7, 1, 64), query_pool(&z, 8, 1, 64));
    }
}
